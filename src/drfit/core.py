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
n_k = rho_k |C_k|, which h leaves out.
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


class BudgetError(ValueError):
    """Every weight of some class is zero; `bad` marks the failed rows of a
    stacked weight array (a 0-d array for one row)."""

    def __init__(self, msg: str, bad: np.ndarray):
        super().__init__(msg)
        self.bad = bad

    def __reduce__(self):  # pickled with bad, which its constructor needs
        return type(self), (*self.args, self.bad)


def class_members(labels: np.ndarray, n_classes: int, valid=None):
    """(member, count): member (..., K, n) is True where an entry is valid
    and of class k; count (..., K) is the number of such entries."""
    if valid is not None:
        labels = np.where(valid, labels, -1)  # of no class
    member = labels[..., None, :] == np.arange(n_classes)[:, None]
    return member, member.sum(axis=-1)


def _scale(spread: np.ndarray, count: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The weights scaled so each class within each row sums to rho_c times
    its count in that row; spread (..., K, n) holds each entry's weight in
    its class's row and 0 elsewhere, so entries of no class get weight 0."""
    # the sums run over the (..., n, K) layout: its BLAS calls fix the bits
    spread = np.ascontiguousarray(spread.swapaxes(-1, -2))
    total = np.ones(spread.shape[-2]) @ spread
    present = count > 0
    dead = present & (total <= 0.0)
    if dead.any():
        c = int(dead.reshape(-1, rho.size).any(axis=0).argmax())
        raise BudgetError(f"all weights of class {c} are zero", dead[..., c])
    # one product per entry: its weight times its class's factor, plus zeros
    return (spread @ (rho * count / np.where(present, total, 1.0))[..., None])[..., 0]


def scale_members(omega: np.ndarray, member: np.ndarray, count: np.ndarray,
                  rho: np.ndarray) -> np.ndarray:
    """Scale, in place, the weights of each class present in the membership
    (member, count) of class_members so they sum to rho_c times the class's
    count; returns omega. Each row of stacked weights (..., n) is scaled on
    its own; entries of no class get weight 0."""
    omega[...] = _scale(member * omega[..., None, :], count, rho)
    return omega


def member_weights(losses: np.ndarray, member: np.ndarray, count: np.ndarray, rho: np.ndarray,
                   alpha: float) -> np.ndarray:
    """Per-class softmax of -loss/alpha over the classes present in the
    membership (member, count) of class_members, scaled to the class
    budgets, within each row (the last axis) of stacked losses. Entries of
    no class get weight 0 and are not counted."""
    # -loss/alpha in each entry's class row, -inf (weight 0) elsewhere
    spread = np.where(member, (losses / -alpha)[..., None, :], -np.inf)
    top = spread.max(axis=-1, keepdims=True)
    np.subtract(spread, top, out=spread, where=member)
    return _scale(np.exp(spread, out=spread), count, rho)


def _class_sizes(labels: np.ndarray, n: int) -> np.ndarray:
    """|C_k| for k = 0 .. max label, for the labels of n examples; an empty
    class is a ConfigError."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"{labels.size} labels for {n} examples")
    count = np.bincount(labels)
    if not count.all():
        raise ConfigError(f"class {int(count.argmin())} has no examples")
    return count


def analytic_weights(losses: np.ndarray, labels: np.ndarray, cfg: DrFitConfig) -> np.ndarray:
    """Closed-form optimal weights: per-class softmax of -loss/alpha,
    scaled so each class sums to rho_k |C_k|."""
    losses, labels = np.asarray(losses, dtype=np.float64), np.asarray(labels)
    if not np.all(np.isfinite(losses)):
        raise ValueError("losses must be finite")
    rho = cfg.rho_for(_class_sizes(labels, losses.shape[-1]).size)
    return member_weights(losses, *class_members(labels, rho.size), rho, cfg.alpha)


def reduced_loss(losses: np.ndarray, theta_sq: float, labels: np.ndarray,
                 cfg: DrFitConfig) -> float:
    """h(theta) for the given per-example losses and ||theta||^2."""
    losses, labels = np.asarray(losses, dtype=np.float64), np.asarray(labels)
    count = _class_sizes(labels, losses.size)
    rho = cfg.rho_for(count.size)
    h = 0.5 * cfg.lam * theta_sq
    for k, n_k in enumerate(count):
        lk = losses[labels == k]
        m = lk.min()  # subtract the dominant term so the exponentials cannot overflow
        lse = -m / cfg.alpha + np.log(np.exp(-(lk - m) / cfg.alpha).sum())
        h -= cfg.alpha * rho[k] * n_k * lse
    return float(h)


def reduced_loss_grad(
    per_example_grads: np.ndarray,
    losses: np.ndarray,
    theta: np.ndarray,
    labels: np.ndarray,
    cfg: DrFitConfig,
) -> np.ndarray:
    """Gradient of h: the analytic-weight combination of per-example
    gradients plus the ridge term. per_example_grads has one row per example."""
    grads = np.asarray(per_example_grads, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[1] != theta.shape[0]:
        raise ValueError(f"gradient rows {grads.shape} do not match theta {theta.shape}")
    w = analytic_weights(losses, labels, cfg)
    return w @ grads + cfg.lam * theta

