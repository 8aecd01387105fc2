"""The training loop for the doubly regularised objective.

One minibatch loop, `train`, runs the solver named by TrainConfig.solver:

  * analytic: gradient steps on the reduced loss h(theta); the weights
    are the closed-form per-class softmax computed on each minibatch
    (with n_k = rho_k |C_k intersect S|) and never stored between steps.
  * numeric: the alternating scheme — a theta step at the current
    weights, then (after burn-in, at the configured frequency) a weight
    step omega_i <- omega_i - beta [loss_i + alpha log omega_i], clipped
    at zero and renormalised so each class present in the batch has mean
    weight rho_c.
  * plain: omega fixed at rho_c for every example; the unweighted
    baseline the comparisons are made against.

Batches are stratified so every class is represented in every batch.
All randomness flows from TrainConfig.seed; traces are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ClassPartition, ConfigError, DrFitConfig, analytic_weights,
                   closed_form_weights, scale_to_budgets)
from .data import LabeledDataset
from .nn import MlpParams, NumericError, mlp_forward, per_example_loss, weighted_backward

_LOG_CLAMP = 1e-8

SOLVERS = ("analytic", "numeric", "plain")


class TrainingError(RuntimeError):
    """Training diverged or hit an invalid state; carries the epoch."""

    def __init__(self, msg: str, epoch: int):
        super().__init__(f"{msg} (epoch {epoch})")
        self.epoch = epoch


class RenormError(TrainingError):
    """Every weight of some class in a batch was clipped to zero."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    theta_lr: float
    omega_lr: float = 0.1
    burn_in: int = 3
    update_frequency: int = 1
    seed: int = 0
    solver: str = "analytic"

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.update_frequency < 1:
            raise ConfigError("update_frequency must be at least 1")
        if not self.theta_lr > 0:
            raise ConfigError("theta_lr must be positive")
        if self.omega_lr < 0:
            raise ConfigError("omega_lr must be nonnegative")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be nonnegative")
        if self.solver not in SOLVERS:
            raise ConfigError(f"solver must be one of {SOLVERS}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float | None = None
    test_acc: float | None = None


@dataclass
class TrainTrace:
    records: list[EpochRecord] = field(default_factory=list)

    def append(self, rec: EpochRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.records]


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(scores.argmax(axis=1) == labels))


def evaluate(params: MlpParams, ds: LabeledDataset) -> float:
    """Fraction of examples whose highest-scoring class is the label."""
    if ds.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return _accuracy(mlp_forward(params, ds.features).scores, ds.labels)


def mean_loss(params: MlpParams, ds: LabeledDataset) -> float:
    cache = mlp_forward(params, ds.features)
    return float(per_example_loss(cache, ds.labels).mean())


def _stratified_batches(part: ClassPartition, batch_size: int, rng) -> list[np.ndarray]:
    """Deal each class's shuffled members round-robin over the batches so
    class proportions are as even as possible in every batch."""
    n_batches = max(1, math.ceil(part.n / batch_size))
    members, buckets = [], []
    for idx in part.classes:
        perm = rng.permutation(idx)
        offset = int(rng.integers(n_batches)) if n_batches > 1 else 0
        members.append(perm)
        buckets.append((np.arange(perm.size) + offset) % n_batches)
    members, buckets = np.concatenate(members), np.concatenate(buckets)
    # one sort of the key (bucket, index) orders by bucket, then by index;
    # the indices are distinct, so the key is too
    span = int(members.max(initial=0)) + 1
    dealt = np.sort(buckets * span + members) % span
    ends = np.cumsum(np.bincount(buckets, minlength=n_batches)).tolist()
    batches = [dealt[a:b] for a, b in zip([0, *ends], ends) if b > a]
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def _descend(params: MlpParams, grad: np.ndarray, lr: float) -> None:
    """params <- params - lr * grad in place; grad is laid out as
    MlpParams.flatten() lays out the parameters."""
    k = 0
    for w, b in zip(params.weights, params.biases):
        w -= lr * grad[k : k + w.size].reshape(w.shape)
        k += w.size
        b -= lr * grad[k : k + b.size]
        k += b.size


def train(data, dr, tr, init, val=None, test=None):
    """Run tr.solver from a copy of init. Returns the final parameters,
    the final weights (one per training example; for the analytic solver
    the closed form at the final losses) and the per-epoch trace."""
    if data.n == 0:
        raise ValueError("training data is empty")
    part = ClassPartition.from_labels(data.labels)
    rho = dr.rho_for(part.n_classes)
    labels = data.labels
    rng = np.random.default_rng(tr.seed)
    params = init.copy()
    omega = rho[labels].astype(np.float64)
    trace = TrainTrace()

    for epoch in range(1, tr.epochs + 1):
        update_weights = (
            tr.solver == "numeric" and epoch > tr.burn_in and epoch % tr.update_frequency == 0
        )
        try:
            for subset in _stratified_batches(part, tr.batch_size, rng):
                x_s, y_s = data.features[subset], labels[subset]
                cache = mlp_forward(params, x_s)
                if tr.solver == "analytic":
                    omega_s = closed_form_weights(per_example_loss(cache, y_s), y_s, rho, dr.alpha)
                else:
                    omega_s = omega[subset]
                grad = weighted_backward(params, cache, y_s, omega_s, dr.lam)
                _descend(params, grad, tr.theta_lr)

                if update_weights:
                    fresh = per_example_loss(mlp_forward(params, x_s), y_s)
                    w = omega[subset] - tr.omega_lr * (
                        fresh + dr.alpha * np.log(np.maximum(omega[subset], _LOG_CLAMP))
                    )
                    np.maximum(w, 0.0, out=w)
                    try:
                        scale_to_budgets(w, y_s, rho)
                    except ValueError as exc:
                        raise RenormError(f"{exc} in a batch", epoch) from exc
                    omega[subset] = w
            cache = mlp_forward(params, data.features)
            loss = float(per_example_loss(cache, labels).mean())
        except NumericError as exc:
            raise TrainingError(f"training diverged: {exc}", epoch) from exc

        if not math.isfinite(loss):
            raise TrainingError("non-finite training loss", epoch)
        rec = EpochRecord(
            epoch=epoch,
            train_loss=loss,
            train_acc=_accuracy(cache.scores, labels),
            val_acc=evaluate(params, val) if val is not None else None,
            test_acc=evaluate(params, test) if test is not None else None,
        )
        trace.append(rec)

    if tr.solver == "analytic":
        full_losses = per_example_loss(mlp_forward(params, data.features), labels)
        omega = analytic_weights(full_losses, part, dr)
    return params, omega, trace
