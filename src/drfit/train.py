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

from .core import (BudgetError, ClassPartition, ConfigError, DrFitConfig, analytic_weights,
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


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.mean(scores.argmax(axis=-1) == labels, axis=-1)


def evaluate(params: MlpParams, ds: LabeledDataset):
    """Fraction of examples whose highest-scoring class is the label; one
    per net for stacked parameters."""
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


def _padded(dealt: list[list[np.ndarray]], width: int):
    """(nets, steps, width) row indices of each net's batches, each padded by
    repeating its last row, and the mask of real rows (none past a net's last batch)."""
    sizes = np.zeros((len(dealt), max(map(len, dealt))), dtype=np.int64)
    for r, batches in enumerate(dealt):
        sizes[r, : len(batches)] = [b.size for b in batches]
    starts = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    cols = np.arange(width)
    rows = np.concatenate([b for batches in dealt for b in batches])
    idx = rows[starts[..., None] + np.minimum(cols, sizes[..., None] - 1)]
    return idx, cols < sizes[..., None]


def train(data, dr, tr, init, val=None, test=None):
    """Run tr.solver from a copy of init: one net, or a list of nets that step
    together as one stack, net r drawing its batches from default_rng(tr.seed + r).
    For one net, returns the final parameters, the final weights (one per
    example; for the analytic solver the closed form at the final losses) and
    the per-epoch trace, or raises TrainingError. For a list, returns one such
    triple or TrainingError per net; a failed net leaves the stack, and the
    others go on exactly as they would without it."""
    if data.n == 0:
        raise ValueError("training data is empty")
    nets = [init] if isinstance(init, MlpParams) else list(init)
    part = ClassPartition.from_labels(data.labels)
    rho, labels, features = dr.rho_for(part.n_classes), data.labels, data.features
    n_batches = max(1, math.ceil(part.n / tr.batch_size))
    # the widest batch dealing can make; padding every net's batches to it
    # keeps each net's arithmetic independent of the others in the stack
    width = sum(-(-ix.size // n_batches) for ix in part.classes)
    rngs = [np.random.default_rng(tr.seed + r) for r in range(len(nets))]
    traces, results = [TrainTrace() for _ in nets], [None] * len(nets)
    # one row of flat per net; params are views of it, so one subtraction steps them all
    flat = np.stack([p.flatten() for p in nets])
    live, params = np.arange(len(nets)), nets[0].unflatten(flat)
    rows = live[:, None]
    # column n of omega stays 0: padded batch entries read and write it
    omega = np.tile(np.append(rho[labels], 0.0), (len(nets), 1))
    plan, epoch = (np.zeros((len(nets), 0)),) * 4, 0

    def attempt(step):
        """step() once it returns; each failure first drops the failed nets."""
        nonlocal live, rows, flat, params, omega, plan
        while live.size:
            try:
                return step()
            except (NumericError, BudgetError) as exc:
                for r in live[exc.bad]:
                    results[r] = (RenormError(f"{exc} in a batch", epoch)
                                  if isinstance(exc, BudgetError)
                                  else TrainingError(f"training diverged: {exc}", epoch))
                keep = ~exc.bad
                live, flat, omega = live[keep], flat[keep], omega[keep]
                params, plan = params.unflatten(flat), tuple(a[keep] for a in plan)
                rows = np.arange(live.size)[:, None]

    def theta_step(k):
        ix, ok, spot, lr = (a[:, k] for a in plan)
        y = labels[ix]
        cache = mlp_forward(params, features[ix])
        omega_s = (closed_form_weights(per_example_loss(cache, y), y, rho, dr.alpha, ok)
                   if tr.solver == "analytic" else omega[rows, spot])
        grad = weighted_backward(params, cache, y, omega_s, dr.lam)
        flat[...] -= np.multiply(grad, lr[:, None], out=grad)

    def omega_step(k):
        ix, ok, spot, _ = (a[:, k] for a in plan)
        y, prev = labels[ix], omega[rows, spot]
        fresh = per_example_loss(mlp_forward(params, features[ix]), y)
        w = prev - tr.omega_lr * (fresh + dr.alpha * np.log(np.maximum(prev, _LOG_CLAMP)))
        np.maximum(w, 0.0, out=w)
        omega[rows, spot] = scale_to_budgets(w, y, rho, ok)

    def epoch_end():
        cache = mlp_forward(params, features)
        loss = per_example_loss(cache, labels).mean(axis=-1)
        if not np.isfinite(loss).all():
            raise NumericError("non-finite training loss", ~np.isfinite(loss))
        return [loss, _accuracy(cache.scores, labels),
                *(evaluate(params, ds) if ds is not None else None for ds in (val, test))]

    for epoch in range(1, tr.epochs + 1):
        update_weights = (tr.solver == "numeric" and epoch > tr.burn_in
                          and epoch % tr.update_frequency == 0)
        if epoch == 1 or n_batches > 1:  # one batch holds every example, in index order
            idx, valid = _padded([_stratified_batches(part, tr.batch_size, rngs[r]) for r in live],
                                 width)
            # a net without a batch at a step skips it, ridge term included
            plan = (idx, valid, np.where(valid, idx, labels.size),
                    np.where(valid.any(axis=-1), tr.theta_lr, 0.0))
        for k in range(plan[0].shape[1]):
            attempt(lambda: theta_step(k))
            if update_weights:
                attempt(lambda: omega_step(k))
        columns = attempt(epoch_end)
        if columns is None:
            break
        for j, r in enumerate(live):
            traces[r].append(EpochRecord(epoch, *(None if c is None else float(c[j])
                                                  for c in columns)))

    if tr.solver == "analytic":
        omega = attempt(lambda: analytic_weights(
            per_example_loss(mlp_forward(params, features), labels), part, dr))
    for j, r in enumerate(live):
        results[r] = (params.unflatten(flat[j]).copy(), omega[j, : labels.size], traces[r])
    if isinstance(init, MlpParams) and isinstance(results[0], TrainingError):
        raise results[0]
    return results[0] if isinstance(init, MlpParams) else results
