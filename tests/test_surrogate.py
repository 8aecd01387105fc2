"""The stand-in digit corpus: pinned bytes, bounded memory, atomic cache."""

import functools
import hashlib
import tracemalloc

import pytest

import _surrogate
from _surrogate import _FILES, _build, mnist_root
from drfit.cli import DATA_ROOT_ENV


def _digest(root) -> str:
    h = hashlib.sha256()
    for name in _FILES:
        h.update((root / name).read_bytes())
    return h.hexdigest()


def test_small_corpus_bytes_are_pinned(tmp_path):
    """The four IDX files of a 400 + 100 image corpus at seed 0, hashed in
    _FILES order, are those of the point-by-point renderer this one
    replaced; the bench's result digests and quality figures rest on them."""
    _build(tmp_path, n_train=400, n_test=100, seed=0)
    assert _digest(tmp_path) == "b6e9ddd9ae3d96bbe750469df45899d6d1edb61e47314ca771771666ea8d9236"


@pytest.mark.slow
def test_full_size_training_images_are_pinned(tmp_path):
    _build(tmp_path, seed=0)
    data = (tmp_path / "train-images-idx3-ubyte").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "251994af6c4aa9b7300e07b80bb777530cf168949b384232c03a487f7d70606c"
    )


@pytest.mark.slow
def test_full_size_render_peaks_below_the_point_by_point_renderer(tmp_path):
    """The point-by-point renderer held every image in a list and then their
    stack, and peaked at 7,655,522 traced bytes for the full-size seed-0
    corpus; rendering a block at a time into one uint8 array must stay
    below that."""
    tracemalloc.start()
    try:
        _build(tmp_path, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7_655_522


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """mnist_root on a small corpus, cached under tmp_path/cache."""
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    monkeypatch.setattr(_surrogate, "_CACHE", tmp_path / "cache")
    monkeypatch.setattr(_surrogate, "_build", functools.partial(_build, n_train=40, n_test=10))
    return tmp_path / "cache"


def test_a_build_that_dies_midway_leaves_no_cache(cache, monkeypatch):
    def failing(path, labels):
        raise OSError("disk full")

    monkeypatch.setattr(_surrogate, "write_idx_labels", failing)
    with pytest.raises(OSError, match="disk full"):
        mnist_root()
    # the training images were written, in a directory that is gone now
    assert list(cache.parent.iterdir()) == []


def test_the_next_build_after_a_failed_one_completes(cache, monkeypatch):
    real = _surrogate.write_idx_labels
    calls = []

    def failing_once(path, labels):
        calls.append(path)
        if len(calls) == 1:
            raise OSError("disk full")
        real(path, labels)

    monkeypatch.setattr(_surrogate, "write_idx_labels", failing_once)
    with pytest.raises(OSError):
        mnist_root()
    root, source = mnist_root()
    assert (root, source) == (cache, "surrogate")
    assert sorted(p.name for p in root.iterdir()) == sorted(_FILES)
    assert [p.name for p in cache.parent.iterdir()] == ["cache"]
    small = cache.parent / "small"
    _build(small, n_train=40, n_test=10)
    assert _digest(root) == _digest(small)


def test_a_cache_renamed_into_place_first_is_used(cache, monkeypatch):
    """Another process that renames its corpus into place while this one
    renders wins: this one's copy is dropped and the other's is returned."""
    def racing(root):
        _build(cache, n_train=20, n_test=10)  # the other process's copy
        _build(root, n_train=40, n_test=10)

    monkeypatch.setattr(_surrogate, "_build", racing)
    root, _ = mnist_root()
    theirs = cache.parent / "theirs"
    _build(theirs, n_train=20, n_test=10)
    assert root == cache
    assert _digest(root) == _digest(theirs)
    assert sorted(p.name for p in cache.parent.iterdir()) == ["cache", "theirs"]
