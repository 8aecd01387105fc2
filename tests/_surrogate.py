"""Deterministic stand-in digit data for the 1-vs-7 experiments.

Real MNIST IDX files are used when the DRFIT_DATA_ROOT environment
variable points at them. Otherwise this module renders seeded synthetic
"1" and "7" glyphs (plus some other digits so the filter has work to
do), writes them through the same IDX byte format, and the tests consume
them through the identical ingestion path.

The benchmark (bench/run.py) renders its mnist-train corpus with `_build`
too, so the corpus bytes are part of its results: tests/test_surrogate.py
pins them by SHA-256, and a renderer that changes one byte moves the
bench's digests and quality figures.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from drfit.cli import DATA_ROOT_ENV
from drfit.data import _IMAGE_MAGIC, _LABEL_MAGIC

_CACHE = Path("/tmp/drfit_surrogate_v1")
_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)

_SIDE = 28
_BLUR = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 16.0
# images rasterised together; the block's point arrays stay a few hundred KB
_BLOCK = 32
# a stroke point marks rows floor(r - w/2) .. ceil(r + w/2), and so columns;
# with w <= 2.2 that is at most 5 of each
_REACH = np.arange(5)
# the ring's 39 chords join these points (row and column offsets), the same
# scalars for every ring
_RING_ANGLES = np.linspace(0, 2 * np.pi, 40)
_RING_ROWS = 7 * np.sin(_RING_ANGLES)
_RING_COLS = 5 * np.cos(_RING_ANGLES)


def write_idx_images(path, images: np.ndarray) -> None:
    """Inverse of the image half of drfit.data.load_mnist_idx (expects uint8 data)."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        for v in (_IMAGE_MAGIC, n, rows, cols):
            fh.write(int(v).to_bytes(4, "big"))
        fh.write(images.data)  # the array's own buffer, not a bytes copy


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        for v in (_LABEL_MAGIC, labels.shape[0]):
            fh.write(int(v).to_bytes(4, "big"))
        fh.write(labels.tobytes())


def _glyph(rng: np.random.Generator, digit: int):
    """One image's random draws: its ink values (stroke, 7's top bar) and its
    strokes as rows (r0, c0, r1, c1, width, layer). Layer 0 is the 7's top
    bar, layer 1 every other stroke. The draws come in the corpus's order,
    argument by argument."""
    value = rng.uniform(0.55, 1.0)
    width = rng.uniform(1.0, 2.2)
    dx = rng.uniform(-3.0, 3.0)
    dy = rng.uniform(-2.0, 2.0)
    slant = rng.uniform(-2.0, 3.5)
    top, bottom = 5 + dy, 23 + dy
    mid = 14 + dx
    bar_value = 0.0
    if digit == 1:
        strokes = [(top, mid + slant, bottom, mid - slant / 2, width, 1)]
        # many "1"s carry a top serif, shading toward a "7"-like bar
        if rng.uniform() < 0.7:
            serif = rng.uniform(2.0, 5.5)
            strokes.append((top + 1, mid + slant - serif, top, mid + slant, width * 0.8, 1))
    elif digit == 7:
        left = mid - rng.uniform(2.5, 6.5)
        right = mid + rng.uniform(3.0, 5.5)
        bar_value = value * rng.uniform(0.55, 1.0)  # some top bars are faint
        strokes = [
            (top, left, top, right, width, 0),
            (top, right, bottom, mid - rng.uniform(1.0, 3.0), width, 1),
        ]
        if rng.uniform() < 0.3:
            cross = (top + bottom) / 2
            strokes.append((cross, mid - 3, cross, mid + 2, width * 0.8, 1))
    else:
        # a crude ring for any other digit; only there to exercise filtering
        rows, cols = 14 + dy + _RING_ROWS, mid + _RING_COLS
        strokes = np.column_stack([
            rows[:-1], cols[:-1], rows[1:], cols[1:],
            np.full(39, width * 0.8), np.ones(39),
        ])
    return value, bar_value, np.asarray(strokes, dtype=float)


def _points(start, stop, num, seg, k):
    """np.linspace(start[s], stop[s], num[s]) of every segment s, concatenated
    and with linspace's bits: point k is k * ((stop - start) / (num - 1)) +
    start, and the last point is stop. seg and k name each point's segment
    and its place in it."""
    step = (stop - start) / np.maximum(num - 1, 1)
    out = k * step[seg] + start[seg]
    last = (k == num[seg] - 1) & (num[seg] > 1)
    out[last] = stop[seg[last]]
    return out


def _cells(centre, half):
    """Pixel indices floor(c - half) + _REACH of each point and which of
    them the stroke covers: up to ceil(c + half), inside the image."""
    lo = np.floor(centre - half).astype(np.int64)
    hi = np.ceil(centre + half).astype(np.int64)
    idx = lo[:, None] + _REACH
    return idx, (idx <= hi[:, None]) & (idx >= 0) & (idx < _SIDE)


def _ink(strokes, owner, n_images):
    """(n_images, 2, 28, 28) masks of the pixels the strokes cover, per image
    owner[s] and layer. A stroke of length L has int(3 L) + 1 points, and each
    point covers the square of half-side width / 2 around it."""
    r0, c0, r1, c1, width, layer = strokes.T
    num = (np.maximum(np.abs(r1 - r0), np.abs(c1 - c0)) * 3).astype(np.int64) + 1
    seg = np.repeat(np.arange(num.size), num)
    k = np.arange(seg.size) - np.repeat(np.cumsum(num) - num, num)
    half = (width / 2)[seg]
    rows, row_ok = _cells(_points(r0, r1, num, seg, k), half)
    cols, col_ok = _cells(_points(c0, c1, num, seg, k), half)
    plane = (owner * 2 + layer.astype(np.int64))[seg] * (_SIDE * _SIDE)
    flat = plane[:, None, None] + rows[:, :, None] * _SIDE + cols[:, None, :]
    mask = np.zeros((n_images, 2, _SIDE, _SIDE), dtype=bool)
    mask.reshape(-1)[flat[row_ok[:, :, None] & col_ok[:, None, :]]] = True
    return mask


def _render(rng: np.random.Generator, digits: np.ndarray) -> np.ndarray:
    """(n, 28, 28) uint8 images of the digits. Each image makes its draws
    (glyph, then pixel noise) before the next; the strokes of a block of
    images are then rasterised, blurred and noised together."""
    images = np.empty((digits.size, _SIDE, _SIDE), dtype=np.uint8)
    for lo in range(0, digits.size, _BLOCK):
        block = digits[lo:lo + _BLOCK]
        values = np.empty((block.size, 2))
        noise = np.empty((block.size, _SIDE, _SIDE))
        strokes = []
        for i, d in enumerate(block):
            value, bar_value, glyph = _glyph(rng, int(d))
            values[i] = bar_value, value
            strokes.append(glyph)
            noise[i] = rng.normal(0.0, 0.05, size=(_SIDE, _SIDE))
        owner = np.repeat(np.arange(block.size), [len(s) for s in strokes])
        mask = _ink(np.concatenate(strokes), owner, block.size)
        # every stroke but the 7's bar has the image's value, so painting
        # layer 1 over layer 0 keeps the order the strokes were drawn in
        img = np.where(mask[:, 1], values[:, 1, None, None],
                       np.where(mask[:, 0], values[:, 0, None, None], 0.0))
        padded = np.pad(img, ((0, 0), (1, 1), (1, 1)))
        out = np.zeros_like(img)
        for di in range(3):
            for dj in range(3):
                out += _BLUR[di, dj] * padded[:, di:di + _SIDE, dj:dj + _SIDE]
        out += noise
        images[lo:lo + block.size] = np.clip(out, 0.0, 1.0) * 255
    return images


def _build(root: Path, n_train: int = 4000, n_test: int = 1000, seed: int = 20240817) -> None:
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)

    def make(n, with_extras, images_file, labels_file):
        digits = [1, 7] * (n // 2)
        if with_extras:
            extras = rng.integers(0, 10, size=n // 10)
            digits = digits[: n - len(extras)] + [int(d) for d in extras]
        order = rng.permutation(len(digits))
        labels = np.array(digits)[order]
        write_idx_images(root / images_file, _render(rng, labels))
        write_idx_labels(root / labels_file, labels)

    make(n_train, True, *_FILES[:2])
    make(n_test, False, *_FILES[2:])


def _complete(root: Path) -> bool:
    return all((root / f).exists() for f in _FILES)


def mnist_root() -> tuple[Path, str]:
    """Path to IDX files plus which source they are ("real" or "surrogate").

    The surrogate corpus is rendered into a fresh directory beside _CACHE
    and renamed into place whole, so a build that dies midway leaves no
    cache behind; when another process renames its copy first, that copy
    is used."""
    env = os.environ.get(DATA_ROOT_ENV)
    if env and _complete(Path(env)):
        return Path(env), "real"
    if not _complete(_CACHE):
        tmp = Path(tempfile.mkdtemp(prefix=_CACHE.name + ".", dir=_CACHE.parent))
        try:
            tmp.chmod(0o755)  # mkdtemp's 0700 would keep other users out
            _build(tmp)
            try:
                tmp.rename(_CACHE)
            except OSError:
                if not _complete(_CACHE):
                    raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return _CACHE, "surrogate"
