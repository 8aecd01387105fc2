"""Entropy-regularised observation weights and the reduced loss.

The training objective couples model parameters theta with one trust
weight per training example:

    sum_i omega_i * loss_i + alpha * sum_i (omega_i log omega_i - omega_i)
        + (lam/2) * ||theta||^2,

subject to sum_{i in C_k} omega_i = rho_k * |C_k| for every class k.
Minimising over omega at fixed losses has the closed form

    omega_i = rho_k |C_k| * exp(-loss_i/alpha) / sum_{j in C_k} exp(-loss_j/alpha),

and substituting it back leaves the reduced loss

    h(theta) = -alpha * sum_k rho_k |C_k| log sum_{i in C_k} exp(-loss_i/alpha)
               + (lam/2) * ||theta||^2

up to the additive constant alpha * sum_k (n_k log n_k - n_k) with
n_k = rho_k |C_k|, which this module exposes for cross-checks but keeps
out of h itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DrFitConfig:
    """Hyperparameters: weight-penalty strength alpha, ridge strength lam,
    and per-class scale factors rho (None means 1 for every class)."""

    alpha: float
    lam: float = 0.0
    rho: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigError("alpha must be positive")
        if self.lam < 0:
            raise ConfigError("lam must be nonnegative")
        if self.rho is not None:
            object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))
            if any(r <= 0 for r in self.rho):
                raise ConfigError("every rho_k must be positive")

    def rho_for(self, n_classes: int) -> np.ndarray:
        if self.rho is None:
            return np.ones(n_classes)
        if len(self.rho) != n_classes:
            raise ConfigError(f"rho has {len(self.rho)} entries for {n_classes} classes")
        return np.asarray(self.rho)


@dataclass
class ClassPartition:
    """Disjoint per-class index sets covering all training examples."""

    classes: list[np.ndarray]

    def __post_init__(self):
        self.classes = [np.asarray(ix, dtype=np.int64) for ix in self.classes]
        seen = np.concatenate(self.classes) if self.classes else np.array([], dtype=np.int64)
        if len(np.unique(seen)) != len(seen):
            raise ConfigError("class index sets overlap")

    @classmethod
    def from_labels(cls, labels: np.ndarray, n_classes: int | None = None) -> "ClassPartition":
        labels = np.asarray(labels)
        k = int(n_classes if n_classes is not None else labels.max() + 1)
        return cls([np.flatnonzero(labels == c) for c in range(k)])

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n(self) -> int:
        return sum(len(ix) for ix in self.classes)


class BudgetError(ValueError):
    """Every weight of some class is zero; `bad` marks the failed rows of a
    stacked weight array (a 0-d array for one row)."""

    def __init__(self, msg: str, bad: np.ndarray):
        super().__init__(msg)
        self.bad = bad


def _members(labels: np.ndarray, n_classes: int, valid=None) -> np.ndarray:
    """(..., n, K): 1.0 where an entry is valid and of class k, else 0.0."""
    hot = np.eye(n_classes)[labels]
    if valid is not None:
        hot *= valid[..., None]
    return hot


def _scale(spread: np.ndarray, hot: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The weights scaled so each class within each row sums to rho_c times
    its count in that row; spread (..., n, K) holds each entry's weight in
    its class column and 0 elsewhere, so entries of no class get weight 0."""
    ones = np.ones(hot.shape[-2])
    count, total = ones @ hot, ones @ spread
    dead = (count > 0) & (total <= 0.0)
    if dead.any():
        c = int(dead.reshape(-1, rho.size).any(axis=0).argmax())
        raise BudgetError(f"all weights of class {c} are zero", dead[..., c])
    # one product per entry: its weight times its class's factor, plus zeros
    return (spread @ (rho * count / np.where(count > 0, total, 1.0))[..., None])[..., 0]


def scale_to_budgets(omega: np.ndarray, labels: np.ndarray, rho: np.ndarray,
                     valid: np.ndarray | None = None) -> np.ndarray:
    """Scale, in place, the weights of each class present in `labels` (which
    index rho) so they sum to rho_c times the class's count; returns omega.
    Each row of stacked weights (..., n) is scaled on its own; entries where
    `valid` is False get weight 0 and are not counted."""
    hot = _members(labels, rho.size, valid)
    omega[...] = _scale(hot * omega[..., None], hot, rho)
    return omega


def closed_form_weights(losses: np.ndarray, labels: np.ndarray, rho: np.ndarray,
                        alpha: float, valid: np.ndarray | None = None) -> np.ndarray:
    """Per-class softmax of -loss/alpha over the classes present in
    `labels`, scaled to the class budgets, within each row (the last axis)
    of stacked losses. Entries where `valid` is False get weight 0 and are
    not counted."""
    t = (-losses / alpha)[..., None]
    hot = _members(labels, rho.size, valid)
    member = hot > 0
    top = np.where(member, t, -np.inf).max(axis=-2, keepdims=True)
    spread = np.zeros(np.broadcast_shapes(t.shape, hot.shape))
    return _scale(np.exp(t - top, out=spread, where=member), hot, rho)


def analytic_weights(losses: np.ndarray, part: ClassPartition, cfg: DrFitConfig) -> np.ndarray:
    """Closed-form optimal weights: per-class softmax of -loss/alpha,
    scaled so each class sums to rho_k |C_k|."""
    losses = np.asarray(losses, dtype=np.float64)
    if not np.all(np.isfinite(losses)):
        raise ValueError("losses must be finite")
    if part.n != losses.shape[-1]:
        raise ValueError(f"partition covers {part.n} of {losses.shape[-1]} examples")
    labels = np.empty(part.n, dtype=np.int64)
    for k, idx in enumerate(part.classes):
        if len(idx) == 0:
            raise ConfigError(f"class {k} has no examples")
        labels[idx] = k
    return closed_form_weights(losses, labels, cfg.rho_for(part.n_classes), cfg.alpha)


def reduced_loss(
    losses: np.ndarray, theta_sq: float, part: ClassPartition, cfg: DrFitConfig
) -> float:
    """h(theta) for the given per-example losses and ||theta||^2."""
    losses = np.asarray(losses, dtype=np.float64)
    rho = cfg.rho_for(part.n_classes)
    h = 0.5 * cfg.lam * theta_sq
    for k, idx in enumerate(part.classes):
        if len(idx) == 0:
            raise ConfigError(f"class {k} has no examples")
        lk = losses[idx]
        m = lk.min()  # subtract the dominant term so the exponentials cannot overflow
        lse = -m / cfg.alpha + np.log(np.exp(-(lk - m) / cfg.alpha).sum())
        h -= cfg.alpha * rho[k] * len(idx) * lse
    return float(h)


def reduced_loss_grad(
    per_example_grads: np.ndarray,
    losses: np.ndarray,
    theta: np.ndarray,
    part: ClassPartition,
    cfg: DrFitConfig,
) -> np.ndarray:
    """Gradient of h: the analytic-weight combination of per-example
    gradients plus the ridge term. per_example_grads has one row per example."""
    grads = np.asarray(per_example_grads, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[1] != theta.shape[0]:
        raise ValueError(f"gradient rows {grads.shape} do not match theta {theta.shape}")
    w = analytic_weights(losses, part, cfg)
    return w @ grads + cfg.lam * theta


def entropy_penalty(omega: np.ndarray) -> float:
    """sum_i (omega_i log omega_i - omega_i), with 0 log 0 = 0."""
    omega = np.asarray(omega, dtype=np.float64)
    if np.any(omega < 0):
        raise ValueError("observation weights must be nonnegative")
    terms = np.where(omega > 0, omega * np.log(np.where(omega > 0, omega, 1.0)), 0.0)
    return float((terms - omega).sum())


def full_objective(
    losses: np.ndarray, omega: np.ndarray, theta_sq: float, cfg: DrFitConfig
) -> float:
    """The coupled objective at explicit weights; used to monitor the
    numeric solver and to validate the closed form."""
    losses = np.asarray(losses, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    return float(omega @ losses + cfg.alpha * entropy_penalty(omega) + 0.5 * cfg.lam * theta_sq)


def objective_constant(part: ClassPartition, cfg: DrFitConfig) -> float:
    """alpha * sum_k (n_k log n_k - n_k), n_k = rho_k |C_k|: the constant
    separating full_objective at the analytic weights from reduced_loss."""
    rho = cfg.rho_for(part.n_classes)
    n_k = np.array([rho[k] * len(idx) for k, idx in enumerate(part.classes)])
    return float(cfg.alpha * (n_k * np.log(n_k) - n_k).sum())
