"""Detection metrics over observation weights and run traces."""

import csv

import numpy as np
import pytest

from drfit.metrics import (
    SeparationCurve,
    WeightHistogram,
    crash_detector,
    detection_auc,
    separation_curve,
    weight_histogram,
)
from drfit.cli import _write_detection


def _pairwise_auc(omega, mask):
    """Brute force: fraction of (correct, mislabelled) pairs ranked the
    right way, ties counting half."""
    hi = omega[~mask]
    lo = omega[mask]
    wins = 0.0
    for a in hi:
        for b in lo:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (hi.size * lo.size)


@pytest.mark.parametrize("seed", range(6))
def test_auc_matches_pairwise_count(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 120))
    omega = rng.uniform(0.0, 2.0, size=n)
    if seed % 2:
        omega = np.round(omega, 1)  # force heavy ties
    mask = rng.random(n) < 0.3
    mask[0], mask[1] = True, False  # both groups nonempty
    assert detection_auc(omega, mask) == pytest.approx(
        _pairwise_auc(omega, mask), abs=1e-12
    )


def _rank_sum_auc(omega, mask):
    """The Mann-Whitney rank-sum formula with average ranks for ties."""
    from scipy import stats

    correct, wrong = omega[~mask], omega[mask]
    ranks = stats.rankdata(np.concatenate([correct, wrong]))
    u = ranks[: correct.size].sum() - correct.size * (correct.size + 1) / 2.0
    return float(u / (correct.size * wrong.size))


def test_auc_equals_rank_sum_formula_exactly():
    cases = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        omega = rng.uniform(0.0, 2.0, size=n)
        if seed % 2:
            omega = np.round(omega, 1)
        mask = rng.random(n) < 0.3
        mask[0], mask[1] = True, False
        cases.append((omega, mask))
    signed_zeros = np.array([0.0, -0.0, 0.0, 0.5, -0.0, -0.0, 0.25, 0.0, 0.5, -0.0])
    cases.append((signed_zeros, np.arange(10) % 3 == 0))
    cases.append((np.full(9, 0.7), np.arange(9) < 4))
    for omega, mask in cases:
        assert detection_auc(omega, mask) == _rank_sum_auc(omega, mask)
    assert detection_auc(*cases[-1]) == 0.5


def test_auc_hand_values():
    omega = np.array([0.1, 0.9, 0.8])
    mask = np.array([True, False, False])
    assert detection_auc(omega, mask) == 1.0
    assert detection_auc(1.0 - omega, mask) == 0.0
    assert detection_auc(np.ones(4), np.array([True, False, True, False])) == 0.5


def test_auc_needs_both_groups():
    with pytest.raises(ValueError, match="both label groups must be nonempty"):
        detection_auc(np.ones(3), np.zeros(3, dtype=bool))
    with pytest.raises(ValueError, match="both label groups must be nonempty"):
        detection_auc(np.ones(3), np.ones(3, dtype=bool))


def test_separation_curve_endpoints_and_monotonicity():
    rng = np.random.default_rng(2)
    omega = rng.uniform(0.1, 1.0, size=50)
    mask = rng.random(50) < 0.4
    mask[0], mask[1] = True, False
    curve = separation_curve(omega, mask)
    # a zero threshold keeps everything; past the top it catches everything
    assert curve.correct_kept[0] == 1.0
    assert curve.mislabelled_caught[0] == 0.0
    assert curve.correct_kept[-1] == 0.0
    assert curve.mislabelled_caught[-1] == 1.0
    assert np.all(np.diff(curve.correct_kept) <= 0)
    assert np.all(np.diff(curve.mislabelled_caught) >= 0)


def test_separation_curve_perfect_split():
    omega = np.array([0.1, 0.2, 1.0, 1.1, 1.2])
    mask = np.array([True, True, False, False, False])
    curve = separation_curve(omega, mask)
    perfect = (curve.correct_kept == 1.0) & (curve.mislabelled_caught == 1.0)
    assert perfect.any()
    assert np.all((curve.thresholds[perfect] > 0.2) & (curve.thresholds[perfect] <= 1.0))


def test_separation_curve_explicit_thresholds():
    """The thresholds are 201 evenly spaced points from 0 to just above the
    largest weight, so the last one flags every point."""
    omega = np.array([0.5, 1.5])
    mask = np.array([True, False])
    curve = separation_curve(omega, mask)
    assert np.array_equal(curve.thresholds, np.linspace(0.0, 1.5 * 1.0001, 201))
    at = np.searchsorted(curve.thresholds, [0.0, 1.0, 1.5 * 1.0001])
    assert np.array_equal(curve.correct_kept[at], [1.0, 1.0, 0.0])
    assert np.array_equal(curve.mislabelled_caught[at], [0.0, 1.0, 1.0])


def test_histogram_conserves_counts():
    rng = np.random.default_rng(3)
    omega = rng.uniform(0.0, 2.0, size=200)
    mask = rng.random(200) < 0.25
    hist = weight_histogram(omega, mask, bins=50)
    assert hist.edges.size == 51
    assert hist.correct_counts.sum() == (~mask).sum()
    assert hist.mislabelled_counts.sum() == mask.sum()
    assert hist.edges[0] == 0.0
    assert hist.edges[-1] == pytest.approx(omega.max())


def test_histogram_flags_empty_groups():
    omega = np.array([0.5, 0.7])
    hist = weight_histogram(omega, np.array([False, False]))
    assert hist.mislabelled_counts.sum() == 0
    assert hist.correct_counts.sum() == 2


def test_histogram_handles_all_zero_weights():
    hist = weight_histogram(np.zeros(4), np.array([True, False, True, False]))
    assert hist.edges[-1] == 1.0
    assert hist.correct_counts.sum() == 2


def test_crash_detector_window_rule():
    # accuracy pinned at chance over the whole back half of the run
    crashed = [0.9] * 40 + [0.5] * 60
    assert crash_detector(crashed, chance=0.5)
    healthy = [0.6] * 30 + [0.9] * 70
    assert not crash_detector(healthy, chance=0.5)
    # a dip that recovers before the window is not a crash
    recovered = [0.5] * 60 + [0.9] * 40
    assert not crash_detector(np.array(recovered), chance=0.5)
    # near-chance within tolerance still counts
    wobbling = [0.9] * 50 + [0.51, 0.49] * 25
    assert crash_detector(np.array(wobbling), chance=0.5)
    with pytest.raises(ValueError):
        crash_detector([], chance=0.5)


def test_csv_writers_roundtrip(tmp_path):
    """The histogram and curve files hold the metrics' values to the last bit."""
    rng = np.random.default_rng(4)
    omega = rng.uniform(0.0, 1.5, size=64)
    mask = rng.random(64) < 0.3
    _write_detection(tmp_path, omega, mask, bins=10)
    hist = weight_histogram(omega, mask, bins=10)
    curve = separation_curve(omega, mask)

    with open(tmp_path / "weight_histogram.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert [float(r["bin_lo"]) for r in rows] == hist.edges[:-1].tolist()
    assert [float(r["bin_hi"]) for r in rows] == hist.edges[1:].tolist()
    assert [int(r["correct_count"]) for r in rows] == hist.correct_counts.tolist()
    assert [int(r["mislabelled_count"]) for r in rows] == hist.mislabelled_counts.tolist()
    assert sum(int(r["correct_count"]) for r in rows) == (~mask).sum()

    with open(tmp_path / "separation_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 201
    assert [float(r["threshold"]) for r in rows] == curve.thresholds.tolist()
    assert [float(r["correct_kept"]) for r in rows] == curve.correct_kept.tolist()
    assert [float(r["mislabelled_caught"]) for r in rows] == curve.mislabelled_caught.tolist()
