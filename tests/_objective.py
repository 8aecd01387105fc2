"""The coupled DRFit objective at explicit weights, for checking the closed
form of drfit.core against it: the closed-form weights minimise it, and at
those weights it equals reduced_loss plus objective_constant.
"""

import numpy as np

from drfit.core import DrFitConfig, _class_sizes


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
    """sum_i omega_i loss_i + alpha * entropy_penalty(omega) + (lam/2) ||theta||^2."""
    losses = np.asarray(losses, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    return float(omega @ losses + cfg.alpha * entropy_penalty(omega) + 0.5 * cfg.lam * theta_sq)


def objective_constant(labels: np.ndarray, cfg: DrFitConfig) -> float:
    """alpha * sum_k (n_k log n_k - n_k), n_k = rho_k |C_k|: the constant
    separating full_objective at the analytic weights from reduced_loss."""
    count = _class_sizes(labels, np.size(labels))
    n_k = cfg.rho_for(count.size) * count
    return float(cfg.alpha * (n_k * np.log(n_k) - n_k).sum())
