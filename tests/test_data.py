"""Ingestion, label-noise injection, weight budgets, and dataset plumbing."""

import csv
import tracemalloc

import numpy as np
import pytest

from drfit.data import (
    _POOL_ROWS,
    DataError,
    LabeledDataset,
    NoiseSpec,
    estimate_rho,
    inject_label_noise,
    load_dataset_csv,
    load_mnist_idx,
    pool2x2,
    prepare_ones_vs_sevens,
    save_dataset_csv,
    stratified_split,
    synthetic_gaussian_2class,
)

from _surrogate import write_idx_images, write_idx_labels


# ---------------------------------------------------------------------------
# idx files


def _write_pair(tmp_path, images, labels):
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 4, 4)).astype(np.uint8)
    labels = np.array([1, 7, 1, 7, 3], dtype=np.uint8)
    ip, lp = _write_pair(tmp_path, images, labels)
    x, y = load_mnist_idx(ip, lp)
    # the pixels come back as stored; prepare_ones_vs_sevens scales them
    assert x.dtype == np.uint8 and x.shape == (5, 4, 4)
    assert np.array_equal(x, images)
    assert np.array_equal(y, labels)


def test_idx_magic_fuzzing(tmp_path):
    images = np.zeros((2, 4, 4), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    ip, lp = _write_pair(tmp_path, images, labels)
    raw = ip.read_bytes()
    for byte in range(4):
        for delta in (1, 128):
            bad = bytearray(raw)
            bad[byte] = (bad[byte] + delta) % 256
            target = tmp_path / "bad.idx"
            target.write_bytes(bytes(bad))
            with pytest.raises(DataError, match="unknown magic"):
                load_mnist_idx(target, lp)


def test_idx_truncation(tmp_path):
    images = np.zeros((3, 4, 4), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    ip, lp = _write_pair(tmp_path, images, labels)
    for cut in (2, 10, len(ip.read_bytes()) - 1):
        short = tmp_path / "short.idx"
        short.write_bytes(ip.read_bytes()[:cut])
        with pytest.raises(DataError, match=r"expected \d+ bytes, found \d+"):
            load_mnist_idx(short, lp)


def test_idx_dimensions_whose_product_wraps_are_truncation(tmp_path):
    """(2**31, 2**31, 4) multiplies to 2**64, which is 0 in int64: the
    header promises far more bytes than the empty payload holds."""
    path = tmp_path / "huge.idx"
    path.write_bytes(b"".join(int(v).to_bytes(4, "big") for v in (2051, 2**31, 2**31, 4)))
    lp = tmp_path / "labs.idx"
    write_idx_labels(lp, np.zeros(1, dtype=np.uint8))
    with pytest.raises(DataError, match=f"payload: expected {2**64} bytes, found 0"):
        load_mnist_idx(path, lp)


def test_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 4, 4), dtype=np.uint8)
    labels = np.zeros(4, dtype=np.uint8)
    ip, lp = _write_pair(tmp_path, images, labels)
    with pytest.raises(DataError, match="3 images vs 4 labels"):
        load_mnist_idx(ip, lp)


# ---------------------------------------------------------------------------
# preprocessing


def test_pool2x2_averages_blocks():
    img = np.arange(16, dtype=float).reshape(1, 4, 4)
    pooled = pool2x2(img)
    assert pooled.shape == (1, 2, 2)
    assert np.allclose(pooled[0], [[(0 + 1 + 4 + 5) / 4, (2 + 3 + 6 + 7) / 4],
                                   [(8 + 9 + 12 + 13) / 4, (10 + 11 + 14 + 15) / 4]])
    checker = np.indices((6, 6)).sum(axis=0) % 2
    assert np.allclose(pool2x2(checker[None].astype(float)), 0.5)
    with pytest.raises(DataError):
        pool2x2(np.zeros((1, 5, 4)))


def test_prepare_ones_vs_sevens_maps_labels():
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(8, 28, 28), dtype=np.uint8)
    labels = np.array([1, 7, 3, 1, 7, 7, 0, 1])
    ds = prepare_ones_vs_sevens(images, labels)
    assert ds.n == 6
    assert ds.n_features == 196
    assert np.array_equal(np.sort(np.unique(ds.labels)), [0, 1])
    assert np.bincount(ds.labels).tolist() == [3, 3]
    with pytest.raises(DataError):
        prepare_ones_vs_sevens(images, np.full(8, 3))


def _digits(rng, n_keep, n_other=5):
    """uint8 images with n_keep 1s and 7s (at least one of each) among
    n_other other digits, in a shuffled order."""
    kept = np.concatenate([[1, 7], rng.choice([1, 7], n_keep - 2)])
    labels = rng.permutation(np.concatenate([kept, rng.choice([0, 3, 9], n_other)]))
    return rng.integers(0, 256, size=(labels.size, 28, 28), dtype=np.uint8), labels


@pytest.mark.parametrize(
    "n_keep", [2, _POOL_ROWS - 1, _POOL_ROWS, _POOL_ROWS + 1, 2 * _POOL_ROWS + 1]
)
def test_prepare_ones_vs_sevens_keeps_the_bits_of_scaling_every_image(n_keep):
    """Block by block, the kept images get the very features of scaling the
    whole array to floats first; the smallest kept count is 2, one 1 and
    one 7, and the counts around the block size leave a last block of
    block - 1, 0 and 1 images."""
    images, labels = _digits(np.random.default_rng(n_keep), n_keep)
    keep = (labels == 1) | (labels == 7)
    old = pool2x2((images.astype(float) / 255.0)[keep]).reshape(n_keep, -1)
    ds = prepare_ones_vs_sevens(images, labels)
    assert ds.features.dtype == np.float64
    assert np.array_equal(ds.features, old)
    assert np.array_equal(ds.features.view(np.int64), old.view(np.int64))
    assert np.array_equal(ds.labels, (labels[keep] == 7).astype(int))


def test_prepare_ones_vs_sevens_rejects_a_missing_digit_and_odd_images():
    images, labels = _digits(np.random.default_rng(2), 10)
    for gone in (1, 7):
        with pytest.raises(DataError):
            prepare_ones_vs_sevens(images, np.where(labels == gone, 3, labels))
    with pytest.raises(DataError):
        prepare_ones_vs_sevens(images[:, :27, :], labels)
    with pytest.raises(DataError):
        prepare_ones_vs_sevens(images[:, :, :27], labels)


def test_ingestion_holds_no_float_copy_of_the_image_file(tmp_path):
    """Loading and preparing 3,000 28x28 images peaks well below the
    float64 size of the file's pixels; scaling every image before the
    1-vs-7 filter peaked at about 1.26 times that size."""
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(3000, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=3000).astype(np.uint8)
    ip, lp = _write_pair(tmp_path, images, labels)
    tracemalloc.start()
    try:
        ds = prepare_ones_vs_sevens(*load_mnist_idx(ip, lp))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n == np.isin(labels, (1, 7)).sum()
    assert peak < 0.5 * images.size * np.dtype(np.float64).itemsize


# ---------------------------------------------------------------------------
# label noise


def _balanced_ds(n_per_class, n_classes=2, d=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return LabeledDataset(rng.normal(size=(labels.size, d)), labels)


def test_noise_injection_exact_counts():
    ds = _balanced_ds(1000)
    features, labels = ds.features.copy(), ds.labels.copy()
    noisy = inject_label_noise(ds, NoiseSpec(rates=(0.3, 0.1), seed=0))
    flipped0 = np.sum((noisy.true_labels == 0) & noisy.mislabel_mask)
    flipped1 = np.sum((noisy.true_labels == 1) & noisy.mislabel_mask)
    assert (flipped0, flipped1) == (300, 100)
    assert np.array_equal(noisy.true_labels, ds.labels)
    assert np.array_equal(noisy.mislabel_mask, noisy.labels != noisy.true_labels)
    # binary problems flip to the only other class
    assert np.all(noisy.labels[noisy.mislabel_mask] == 1 - noisy.true_labels[noisy.mislabel_mask])
    # only labels change: the features are shared, and the clean set is left as it was
    assert noisy.features is ds.features
    assert np.array_equal(ds.features, features) and np.array_equal(ds.labels, labels)
    assert ds.true_labels is None and ds.mislabel_mask is None


def test_noise_injection_zero_rate_is_identity():
    ds = _balanced_ds(50)
    noisy = inject_label_noise(ds, NoiseSpec(rates=(0.0, 0.0), seed=5))
    assert np.array_equal(noisy.labels, ds.labels)
    assert not noisy.mislabel_mask.any()


def test_noise_injection_deterministic_and_seed_sensitive():
    ds = _balanced_ds(200)
    a = inject_label_noise(ds, NoiseSpec(rates=(0.2, 0.2), seed=3))
    b = inject_label_noise(ds, NoiseSpec(rates=(0.2, 0.2), seed=3))
    c = inject_label_noise(ds, NoiseSpec(rates=(0.2, 0.2), seed=4))
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels)


def test_noise_injection_multiclass_targets_other_classes():
    ds = _balanced_ds(300, n_classes=3)
    noisy = inject_label_noise(ds, NoiseSpec(rates=(0.3, 0.3, 0.3), seed=2))
    flipped = noisy.mislabel_mask
    assert flipped.sum() == 270
    assert np.all(noisy.labels[flipped] != noisy.true_labels[flipped])
    assert np.all((noisy.labels >= 0) & (noisy.labels < 3))


def test_noise_spec_validation():
    with pytest.raises(DataError):
        NoiseSpec(rates=(0.5, 0.1), seed=0)
    with pytest.raises(DataError):
        NoiseSpec(rates=(-0.1, 0.1), seed=0)


# ---------------------------------------------------------------------------
# weight budgets


def test_rho_from_rates_balanced_thirty_ten():
    rho = estimate_rho((1000, 1000), (0.3, 0.1))
    assert abs(rho[0] - 1.25) < 1e-10
    assert abs(rho[1] - 5.0 / 6.0) < 1e-10


def test_rho_symmetric_rates_give_unity():
    rho = estimate_rho((500, 500), (0.2, 0.2))
    assert np.allclose(rho, 1.0, atol=1e-12)


def test_estimate_rho_dispatch():
    """One size per flip rate, and a rate of 1 leaves no budget."""
    with pytest.raises(DataError, match="must align"):
        estimate_rho((10, 10), (0.1, 0.1, 0.1))
    with pytest.raises(ZeroDivisionError):
        estimate_rho((10, 10), (1.0, 0.1))


# ---------------------------------------------------------------------------
# synthetic data


def test_synthetic_gaussian_shape_and_mirror():
    mu = np.array([1.0, 1.0])
    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    ds = synthetic_gaussian_2class(4000, mu, cov, seed=7)
    assert ds.n == 4000
    assert np.bincount(ds.labels).tolist() == [2000, 2000]
    m1 = ds.features[ds.labels == 1].mean(axis=0)
    m0 = ds.features[ds.labels == 0].mean(axis=0)
    assert np.all(np.abs(m1 - mu) < 0.1)
    assert np.all(np.abs(m0 + mu) < 0.1)
    again = synthetic_gaussian_2class(4000, mu, cov, seed=7)
    assert np.array_equal(ds.features, again.features)
    assert np.array_equal(ds.labels, again.labels)
    with pytest.raises(DataError):
        synthetic_gaussian_2class(401, mu, cov, seed=7)


@pytest.mark.parametrize("cov", [
    [[1.0, 0.3], [0.2, 1.0]],  # Cholesky reads the lower triangle alone
    [[1.0, 2.0], [2.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[1.0, 0.3]],
], ids=["asymmetric", "indefinite", "one-row-too-many", "not-square"])
def test_synthetic_gaussian_needs_a_symmetric_positive_definite_covariance(cov):
    with pytest.raises(DataError, match="symmetric positive definite"):
        synthetic_gaussian_2class(10, [1.0, 1.0], cov)


# ---------------------------------------------------------------------------
# splitting and csv snapshots


def test_stratified_split_sizes_and_disjointness():
    ds = _balanced_ds(100)
    train, val = stratified_split(ds, [0.9, 0.1], seed=1)
    assert train.n == 180 and val.n == 20
    assert np.bincount(train.labels).tolist() == [90, 90]
    assert np.bincount(val.labels).tolist() == [10, 10]
    key = lambda d: {tuple(row) for row in d.features}
    assert key(train) | key(val) == key(ds)
    assert not key(train) & key(val)
    t2, v2 = stratified_split(ds, [0.9, 0.1], seed=1)
    assert np.array_equal(train.features, t2.features)


def test_csv_roundtrip_with_and_without_mask(tmp_path):
    ds = _balanced_ds(20)
    noisy = inject_label_noise(ds, NoiseSpec(rates=(0.2, 0.2), seed=1))
    p = tmp_path / "snap.csv"
    save_dataset_csv(noisy, p)
    back = load_dataset_csv(p)
    assert np.array_equal(back.labels, noisy.labels)
    assert np.array_equal(back.true_labels, noisy.true_labels)
    assert np.array_equal(back.mislabel_mask, noisy.mislabel_mask)
    assert np.array_equal(back.features, noisy.features)

    p2 = tmp_path / "plain.csv"
    save_dataset_csv(ds, p2)
    back2 = load_dataset_csv(p2)
    assert back2.true_labels is None
    assert back2.mislabel_mask is None
    assert np.array_equal(back2.features, ds.features)


def _csv_writer_snapshot(ds, path):
    """Reference: csv.writer over repr(float) feature cells and int columns."""
    cols = [f"f{j}" for j in range(ds.n_features)] + ["label"]
    if ds.true_labels is not None:
        cols.append("true_label")
    if ds.mislabel_mask is not None:
        cols.append("mislabel")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.features[i]]
            row.append(int(ds.labels[i]))
            if ds.true_labels is not None:
                row.append(int(ds.true_labels[i]))
            if ds.mislabel_mask is not None:
                row.append(int(ds.mislabel_mask[i]))
            writer.writerow(row)


def test_snapshot_bytes_match_csv_writer_with_repr(tmp_path):
    """Signed zeros, a subnormal, 1/3 and repeated values: each cell keeps
    the text repr gives it, with and without the true-label and mask columns."""
    features = np.array(
        [
            [-0.0, 0.0, 5e-324, 1.0 / 3.0],
            [1.0 / 3.0, -0.0, 1e300, -2.5e-310],
            [0.1, 0.1, 1e16, -1.0 / 3.0],
        ]
    )
    labels = np.array([0, 1, 1])
    cases = [
        LabeledDataset(features, labels, np.array([0, 1, 0]), np.array([False, False, True])),
        LabeledDataset(features, labels, np.array([0, 1, 0])),
        LabeledDataset(features, labels),
        inject_label_noise(_balanced_ds(20), NoiseSpec(rates=(0.2, 0.2), seed=1)),
    ]
    for k, ds in enumerate(cases):
        save_dataset_csv(ds, tmp_path / f"new{k}.csv")
        _csv_writer_snapshot(ds, tmp_path / f"ref{k}.csv")
        assert (tmp_path / f"new{k}.csv").read_bytes() == (tmp_path / f"ref{k}.csv").read_bytes()
    back = load_dataset_csv(tmp_path / "new0.csv")
    assert np.array_equal(np.signbit(back.features), np.signbit(features))


def test_dataset_invariant_checks():
    with pytest.raises(DataError):
        LabeledDataset(np.zeros((3, 2)), np.zeros(4, dtype=int))
    with pytest.raises(DataError):
        LabeledDataset(
            np.zeros((2, 2)),
            np.array([0, 1]),
            true_labels=np.array([0, 0]),
            mislabel_mask=np.array([False, False]),
        )
    for value in (np.nan, np.inf, -np.inf):  # training relies on finite features
        features = np.zeros((4, 2))
        features[2, 1] = features[3, 0] = value
        with pytest.raises(DataError, match="row 2 has a non-finite feature"):
            LabeledDataset(features, np.array([0, 1, 0, 1]))
    ds = LabeledDataset(np.arange(6).reshape(3, 2), np.array([0, 1, 0]))
    sub = ds.subset([2, 0])
    assert np.array_equal(sub.labels, [0, 0])
    assert np.array_equal(sub.features[0], [4, 5])
