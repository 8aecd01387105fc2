"""Dataset construction: IDX ingestion, 1-vs-7 preparation, synthetic
Gaussian pairs, seeded label-noise injection, and per-class weight budgets.

The weight budget rho_c = p(c) / (1 - q(c)) uses p(c), the proportion of
examples labelled c that really are class c, and q(c), the rate at which
true class-c labels were flipped away; both follow from the known
simulation flip rates.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Invalid dataset input or construction request."""


_IMAGE_MAGIC = 2051
_LABEL_MAGIC = 2049


def _first_non_finite(features: np.ndarray) -> int:
    """The index of the first row of features that holds a nan or an infinity."""
    return int(np.isfinite(features).all(axis=1).argmin())


@dataclass
class LabeledDataset:
    """Feature matrix with labels and, once noise is injected, the clean
    labels and the flip mask."""

    features: np.ndarray
    labels: np.ndarray
    true_labels: np.ndarray | None = None
    mislabel_mask: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise DataError("features must be (n, d) with one label per row")
        if not np.isfinite(self.features).all():  # training relies on finite inputs
            raise DataError(f"row {_first_non_finite(self.features)} has a non-finite feature")
        if self.true_labels is not None:
            self.true_labels = np.asarray(self.true_labels, dtype=int)
            if self.true_labels.shape != self.labels.shape:
                raise DataError("true_labels length mismatch")
        if self.mislabel_mask is not None:
            self.mislabel_mask = np.asarray(self.mislabel_mask, dtype=bool)
            if self.mislabel_mask.shape != self.labels.shape:
                raise DataError("mislabel_mask length mismatch")
            if self.true_labels is not None and not np.array_equal(
                self.mislabel_mask, self.labels != self.true_labels
            ):
                raise DataError("mask inconsistent with labels vs true_labels")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.n else 0

    def subset(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx)
        return LabeledDataset(
            self.features[idx],
            self.labels[idx],
            None if self.true_labels is None else self.true_labels[idx],
            None if self.mislabel_mask is None else self.mislabel_mask[idx],
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Per-class flip rates; binary datasets flip to the other class,
    multiclass ones pick a wrong class uniformly."""

    rates: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        if not self.rates:
            raise DataError("need at least one flip rate")
        if any(not (0.0 <= q < 0.5) for q in self.rates):
            raise DataError("flip rates must lie in [0, 0.5)")


# ---------------------------------------------------------------------------
# IDX ingestion

def _read_exact(buf: bytes, offset: int, count: int, what: str) -> bytes:
    chunk = buf[offset:offset + count]
    if len(chunk) < count:
        raise DataError(f"{what}: expected {count} bytes, found {len(chunk)}")
    return chunk


def _parse_idx(path, magic: int, n_dims: int) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    got = int.from_bytes(_read_exact(buf, 0, 4, "magic"), "big")
    if got != magic:
        raise DataError(f"unknown magic {got}, expected {magic}")
    dims = [
        int.from_bytes(_read_exact(buf, 4 + 4 * i, 4, f"dimension {i}"), "big")
        for i in range(n_dims)
    ]
    offset = 4 + 4 * n_dims
    # math.prod: a product of 32-bit dimensions can wrap in int64
    size = math.prod(dims)
    if len(buf) - offset != size:
        raise DataError(f"payload: expected {size} bytes, found {len(buf) - offset}")
    # a read-only view of the payload in the file's own buffer, not a copy
    return np.frombuffer(buf, dtype=np.uint8, offset=offset).reshape(dims)


def load_mnist_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an IDX image/label file pair. Returns (images, labels): the
    pixels as stored, (n, rows, cols) uint8, and the labels as ints.
    prepare_ones_vs_sevens scales the pixels it keeps."""
    images = _parse_idx(images_path, _IMAGE_MAGIC, 3)
    labels = _parse_idx(labels_path, _LABEL_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"{images.shape[0]} images vs {labels.shape[0]} labels")
    return images, labels.astype(int)


def pool2x2(images: np.ndarray) -> np.ndarray:
    """Downsample (n, 2r, 2c) images to (n, r, c) by 2x2 mean pooling."""
    n, rows, cols = images.shape
    if rows % 2 or cols % 2:
        raise DataError("pooling needs even image dimensions")
    return images.reshape(n, rows // 2, 2, cols // 2, 2).mean(axis=(2, 4))


# kept images scaled and pooled per block, so that no float copy of all the
# kept images is ever held
_POOL_ROWS = 256


def prepare_ones_vs_sevens(images: np.ndarray, labels: np.ndarray) -> LabeledDataset:
    """Filter digits 1 and 7, scale their (n, 28, 28) pixels from [0, 255]
    to [0, 1], pool them down to 14x14, and relabel (1 -> class 0,
    7 -> class 1). Each feature has the bits of
    pool2x2(images.astype(float) / 255.0) on the kept rows."""
    keep = (labels == 1) | (labels == 7)
    if not np.any(labels == 1) or not np.any(labels == 7):
        raise DataError("dataset must contain both digits 1 and 7")
    images = np.asarray(images)
    rows = np.flatnonzero(keep)
    _, h, w = images.shape
    feats = np.empty((rows.size, (h // 2) * (w // 2)))
    for lo in range(0, rows.size, _POOL_ROWS):
        block = images[rows[lo:lo + _POOL_ROWS]] / 255.0
        feats[lo:lo + block.shape[0]] = pool2x2(block).reshape(block.shape[0], -1)
    y = (labels[keep] == 7).astype(int)
    return LabeledDataset(feats, y)


# ---------------------------------------------------------------------------
# label noise

def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def inject_label_noise(ds: LabeledDataset, spec: NoiseSpec) -> LabeledDataset:
    """Flip exactly round(q(c) * |class c|) labels per class, chosen
    uniformly without replacement under the spec seed."""
    n_classes = max(ds.n_classes, len(spec.rates))
    if len(spec.rates) != n_classes:
        raise DataError("one flip rate per class is required")
    rng = np.random.default_rng(spec.seed)
    labels = ds.labels.copy()
    true_labels = ds.labels.copy()
    mask = np.zeros(ds.n, dtype=bool)
    for c, q in enumerate(spec.rates):
        members = np.flatnonzero(true_labels == c)
        k = _round_half_up(q * members.size)
        if k == 0:
            continue
        chosen = rng.choice(members, size=k, replace=False)
        if n_classes == 2:
            labels[chosen] = 1 - c
        else:
            others = np.array([t for t in range(n_classes) if t != c])
            labels[chosen] = rng.choice(others, size=k, replace=True)
        mask[chosen] = True
    # only labels change, so the noisy set shares the clean one's features
    return LabeledDataset(ds.features, labels, true_labels, mask)


# ---------------------------------------------------------------------------
# rho estimation

def estimate_rho(class_sizes, flip_rates) -> np.ndarray:
    """Per-class weight budgets rho_c = p(c) / (1 - q(c)) from known flip
    rates, with p(c) the expected fraction of label-c examples that are
    truly c."""
    sizes = np.asarray(class_sizes, dtype=float)
    rates = np.asarray(flip_rates, dtype=float)
    if sizes.shape != rates.shape:
        raise DataError("class sizes and flip rates must align")
    if np.any(rates >= 1.0):
        raise ZeroDivisionError("flip rate of 1 leaves no correct labels")
    k = sizes.size
    stay = sizes * (1.0 - rates)
    labelled = stay.copy()
    for c in range(k):
        out = sizes[c] * rates[c]
        for t in range(k):
            if t != c:
                labelled[t] += out / (k - 1)
    if np.any(labelled == 0):
        raise ZeroDivisionError("a class receives no labels at these rates")
    p = stay / labelled
    return p / (1.0 - rates)


# ---------------------------------------------------------------------------
# synthetic data

def spd_cholesky(cov) -> np.ndarray | None:
    """The lower Cholesky factor of cov if it is a symmetric (to np.allclose)
    positive definite matrix, else None: the one covariance test of the
    synthetic data, the config checks and theory.MvGaussian."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or not np.allclose(cov, cov.T):
        return None
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return None


def synthetic_gaussian_2class(n: int, mu, cov, seed: int = 0) -> LabeledDataset:
    """n/2 draws from N(mu, cov) labelled 1 and n/2 from N(-mu, cov)
    labelled 0, the class-0 half generated as the negation of an
    independent N(mu, cov) sample."""
    if n <= 0 or n % 2:
        raise DataError("n must be a positive even number")
    mu = np.asarray(mu, dtype=float)
    chol = spd_cholesky(cov)
    if chol is None or len(chol) != mu.size:
        raise DataError("covariance must be symmetric positive definite, one row per entry of mu")
    rng = np.random.default_rng(seed)
    half = n // 2
    x1 = mu + rng.standard_normal((half, mu.size)) @ chol.T
    x0 = -(mu + rng.standard_normal((half, mu.size)) @ chol.T)
    feats = np.vstack([x1, x0])
    labels = np.concatenate([np.ones(half, dtype=int), np.zeros(half, dtype=int)])
    order = rng.permutation(n)
    return LabeledDataset(feats[order], labels[order])


def stratified_indices(labels: np.ndarray, fractions, seed: int = 0) -> list[np.ndarray]:
    """The ascending row indices of stratified_split's parts; they depend
    on the labels alone."""
    fr = np.asarray(fractions, dtype=float)
    if np.any(fr <= 0) or abs(fr.sum() - 1.0) > 1e-9:
        raise DataError("fractions must be positive and sum to 1")
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[] for _ in fr]
    for c in range(int(labels.max()) + 1 if labels.size else 0):
        members = rng.permutation(np.flatnonzero(labels == c))
        edges = np.floor(np.cumsum(fr) * members.size + 0.5).astype(int)
        start = 0
        for j, stop in enumerate(edges):
            parts[j].append(members[start:stop])
            start = stop
    return [np.sort(np.concatenate(p)) for p in parts]


def stratified_split(ds: LabeledDataset, fractions, seed: int = 0) -> list[LabeledDataset]:
    """Split into len(fractions) parts, preserving class proportions.
    Fractions must sum to 1; remainders go to the last part."""
    return [ds.subset(idx) for idx in stratified_indices(ds.labels, fractions, seed)]


# ---------------------------------------------------------------------------
# CSV snapshots

_SNAPSHOT_ROWS = 512


def save_dataset_csv(ds: LabeledDataset, path) -> None:
    """Columnar snapshot: f0..f{d-1} as floats, then label and, when
    present, true_label and mislabel as integers. The bytes are those of
    csv.writer given repr(float) cells: comma-separated, CRLF line ends."""
    cols = [f"f{j}" for j in range(ds.n_features)] + ["label"]
    ints = [ds.labels]
    if ds.true_labels is not None:
        cols.append("true_label")
        ints.append(ds.true_labels)
    if ds.mislabel_mask is not None:
        cols.append("mislabel")
        ints.append(ds.mislabel_mask.astype(np.int64))
    # repr once per distinct bit pattern; np.unique on the floats themselves
    # would merge -0.0 into 0.0
    bits = np.ascontiguousarray(ds.features, dtype=np.float64).view(np.int64)
    distinct = np.unique(bits)
    text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    tails = np.column_stack(ints).astype(str)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\r\n")
        # a block of rows at a time, so the text of the whole file is never held
        for lo in range(0, ds.n, _SNAPSHOT_ROWS):
            block = slice(lo, lo + _SNAPSHOT_ROWS)
            cells = text[np.searchsorted(distinct, bits[block])].tolist()
            fh.writelines(
                ",".join(f + t) + "\r\n" for f, t in zip(cells, tails[block].tolist())
            )


def _csv_rows(path) -> list[list[str]]:
    """The rows of a UTF-8 CSV file; a file that cannot be read, or a line
    that is not UTF-8, is a DataError naming the file (and the line)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        raw.decode("utf-8")
    except OSError as exc:  # a missing file keeps the message it had as an OSError
        raise DataError(str(exc)) from None
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}, line {line}: not UTF-8 text") from None
    # decoded again a block at a time, so no copy of the whole text is held beside the rows
    return list(csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")))


def load_dataset_csv(path) -> LabeledDataset:
    """Read a save_dataset_csv snapshot. An empty file, a header without
    rows, a missing label column, and a row that is short, long, not
    numeric, or holds a label, true_label or mislabel other than 0 or 1 are
    DataErrors naming the file, and the line of a bad row."""
    rows = _csv_rows(path)
    if not rows:
        raise DataError(f"{path}: empty snapshot, no header")
    header, rows = rows[0], rows[1:]
    if not rows:
        raise DataError(f"{path}: snapshot has a header and no rows")
    if "label" not in header:
        raise DataError(f"{path}: snapshot is missing the label column")
    d = header.index("label")
    names = [c for c in ("label", "true_label", "mislabel") if c in header]
    cols = [header.index(c) for c in names]
    feats, ints = [], []
    for line, r in enumerate(rows, start=2):
        try:
            if len(r) != len(header):
                raise ValueError(f"{len(r)} cells for {len(header)} columns")
            feats.append([float(v) for v in r[:d]])
            ints.append([int(r[j]) for j in cols])
            if bad := [f"{c} {v}" for c, v in zip(names, ints[-1]) if v not in (0, 1)]:
                raise ValueError(f"{bad[0]} is not 0 or 1")
        except ValueError as exc:
            raise DataError(f"{path}, line {line}: {exc}") from None
    feats = np.array(feats)
    if not np.isfinite(feats).all():
        raise DataError(f"{path}, line {_first_non_finite(feats) + 2}: non-finite feature")
    columns = dict(zip(names, np.array(ints, dtype=int).reshape(-1, len(names)).T))
    return LabeledDataset(feats, columns["label"], columns.get("true_label"),
                          columns.get("mislabel"))


def load_weights_csv(path) -> np.ndarray:
    """The weights of a run's omega.csv; a row that is not its own index and
    a finite, nonnegative weight is a DataError naming the file and the line."""
    omega = []
    for line, r in enumerate(_csv_rows(path)[1:], start=2):
        try:
            if len(r) != 2:
                raise ValueError(f"{len(r)} cells for 2 columns")
            if int(r[0]) != line - 2:
                raise ValueError(f"index {r[0]} where {line - 2} belongs")
            if not 0.0 <= (w := float(r[1])) < math.inf:
                raise ValueError(f"weight {w} is not finite and nonnegative")
            omega.append(w)
        except ValueError as exc:
            raise DataError(f"{path}, line {line}: {exc}") from None
    return np.array(omega)
