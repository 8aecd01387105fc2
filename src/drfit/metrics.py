"""Post-training analysis of observation weights and learning traces:
weight histograms split by label correctness, threshold separation
curves, mislabel-detection AUC, and crash detection on accuracy traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightHistogram:
    """Counts of correct-label and mislabelled weights over shared bins."""

    edges: np.ndarray
    correct_counts: np.ndarray
    mislabelled_counts: np.ndarray


@dataclass(frozen=True)
class SeparationCurve:
    """Per threshold t: the fraction of correctly labelled points kept
    (omega >= t) and the fraction of mislabelled points caught (omega < t)."""

    thresholds: np.ndarray
    correct_kept: np.ndarray
    mislabelled_caught: np.ndarray


def _split_groups(omega, mask):
    omega = np.asarray(omega, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if omega.shape != mask.shape:
        raise ValueError("omega and mislabel mask must have the same length")
    return omega[~mask], omega[mask]


def weight_histogram(omega, mask, bins: int = 50) -> WeightHistogram:
    """Histograms of the two groups over identical edges on [0, max omega]."""
    if bins < 2:
        raise ValueError("need at least 2 bins")
    correct, wrong = _split_groups(omega, mask)
    top = float(np.max(omega)) if len(omega) else 1.0
    if top <= 0.0:
        top = 1.0
    edges = np.linspace(0.0, top, bins + 1)
    c_counts, _ = np.histogram(correct, bins=edges)
    w_counts, _ = np.histogram(wrong, bins=edges)
    return WeightHistogram(edges, c_counts, w_counts)


def separation_curve(omega, mask) -> SeparationCurve:
    """Sweep a threshold t over 201 points from 0 to just above the largest
    weight: points with omega < t are flagged as mislabelled. Reports what
    that keeps and what it catches."""
    correct, wrong = _split_groups(omega, mask)
    top = float(np.max(omega)) if len(omega) else 1.0
    t = np.linspace(0.0, top * 1.0001, 201)
    kept = (
        (correct[None, :] >= t[:, None]).mean(axis=1)
        if correct.size
        else np.zeros_like(t)
    )
    caught = (
        (wrong[None, :] < t[:, None]).mean(axis=1) if wrong.size else np.zeros_like(t)
    )
    return SeparationCurve(t, kept, caught)


def detection_auc(omega, mask) -> float:
    """Probability that a random mislabelled point has a lower weight
    than a random correctly labelled one; ties count one half."""
    correct, wrong = _split_groups(omega, mask)
    if correct.size == 0 or wrong.size == 0:
        raise ValueError("both label groups must be nonempty")
    # per flipped weight: correct weights strictly above it, and ties; the
    # counts are whole and half integers, so u equals the rank-sum statistic
    c = np.sort(correct)
    lo = np.searchsorted(c, wrong, "left")
    hi = np.searchsorted(c, wrong, "right")
    u = (c.size - hi).sum() + 0.5 * (hi - lo).sum()
    return float(u / (correct.size * wrong.size))


def crash_detector(vals, chance: float) -> bool:
    """True when the validation accuracies, one per epoch, sit within 0.02
    of the chance level for the entire final half of the epochs."""
    if len(vals) == 0:
        raise ValueError("no validation accuracies")
    tail = vals[len(vals) // 2:]
    return all(abs(v - chance) <= 0.02 for v in tail)
