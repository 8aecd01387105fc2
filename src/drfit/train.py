"""The training loop for the doubly regularised objective.

One minibatch loop, `train`, runs the solver named by TrainConfig.solver:

  * analytic: gradient steps on the reduced loss h(theta); the weights
    are the closed-form per-class softmax computed on each minibatch
    (with n_k = rho_k |C_k intersect S|) and never stored between steps.
  * numeric: the alternating scheme — a theta step at the current
    weights, then (every epoch after burn-in) a weight step
    omega_i <- omega_i - beta [loss_i + alpha log omega_i], clipped
    at zero and renormalised so each class present in the batch has mean
    weight rho_c.
  * plain: omega fixed at rho_c for every example; the unweighted
    baseline the comparisons are made against.

Batches are stratified so every class is represented in every batch.
All randomness flows from TrainConfig.seed; traces are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BudgetError, ConfigError, analytic_weights, class_members, member_weights,
                   scale_members)
from .data import LabeledDataset
from .nn import (MlpParams, NumericError, label_signs, mlp_forward, per_example_loss,
                 weighted_backward)

_LOG_CLAMP = 1e-8
# train reduces its epoch-end metrics once per block of epochs, as many as keep
# each stacked activation array of the block's evaluation within this many floats
_BLOCK_FLOATS = 2**15

SOLVERS = ("analytic", "numeric", "plain")

TRACE_COLUMNS = ("train_loss", "train_acc", "val_acc", "test_acc")


class TrainingError(RuntimeError):
    """Training diverged or hit an invalid state; carries the epoch. Its args
    are its constructor's, so it pickles, as the exceptions of a worker must."""

    def __init__(self, msg: str, epoch: int):
        super().__init__(msg, epoch)
        self.epoch = epoch

    def __str__(self) -> str:
        return f"{self.args[0]} (epoch {self.epoch})"


@dataclass(frozen=True)
class TrainConfig:
    """The descent schedule and solver; its defaults are the config file's."""

    epochs: int = 20
    batch_size: int = 64
    theta_lr: float = 0.05
    omega_lr: float = 0.1
    burn_in: int = 3
    seed: int = 0
    solver: str = "analytic"

    def __post_init__(self):
        for bad, msg in ((self.epochs < 0, "epochs must be nonnegative"),
                         (self.batch_size < 1, "batch_size must be at least 1"),
                         (not self.theta_lr > 0, "theta_lr must be positive"),
                         (self.omega_lr < 0, "omega_lr must be nonnegative"),
                         (self.burn_in < 0, "burn_in must be nonnegative"),
                         (self.solver not in SOLVERS, f"solver must be one of {SOLVERS}")):
            if bad:
                raise ConfigError(msg)


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # z > 0 predicts class 1: argmax over (-z, z), whose ties (0.0, -0.0,
    # NaN) go to class 0
    return np.mean((scores > 0) == labels, axis=-1)


def evaluate(params: MlpParams, ds: LabeledDataset):
    """Fraction of examples whose more probable class is the label; one
    per net for stacked parameters."""
    if ds.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return _accuracy(mlp_forward(params, ds.features).scores, ds.labels)


def mean_loss(params: MlpParams, ds: LabeledDataset) -> float:
    cache = mlp_forward(params, ds.features)
    return float(per_example_loss(cache, ds.labels).mean())


def _stratified_batches(classes: list[np.ndarray], batch_size: int, rng) -> list[np.ndarray]:
    """Deal each class's shuffled members (classes[k] holds class k's indices)
    round-robin over the batches so class proportions are as even as possible
    in every batch."""
    n_batches = max(1, math.ceil(sum(ix.size for ix in classes) / batch_size))
    members, buckets = [], []
    for idx in classes:
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
    """(steps, nets, width) row indices of each net's batches, each padded by
    repeating its last row, and the mask of real rows (none past a net's last batch)."""
    sizes = np.zeros((len(dealt), max(map(len, dealt))), dtype=np.int64)
    for r, batches in enumerate(dealt):
        sizes[r, : len(batches)] = [b.size for b in batches]
    starts = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape).T[..., None]
    cols, sizes = np.arange(width), sizes.T[..., None]
    rows = np.concatenate([b for batches in dealt for b in batches])
    return rows[starts + np.minimum(cols, sizes - 1)], cols < sizes


def train(data, dr, tr, init, val=None, test=None):
    """Run tr.solver from a copy of init: one net, or a list of nets that step
    together as one stack, net r drawing its batches from default_rng(tr.seed + r).
    For one net, returns the final parameters, the final weights (one per
    example; for the analytic solver the closed form at the final losses) and
    the per-epoch trace, a dict of (epochs,) arrays: train_loss, train_acc and,
    for the sets given, val_acc and test_acc; or raises TrainingError. For a
    list, returns one such triple or TrainingError per net; a failed net stops
    in place, and the others go on exactly as they would without it.

    The trace is reduced once per block of epochs; a net keeps the error of its
    first failing epoch, as a check after every epoch raises it."""
    if data.n == 0:
        raise ValueError("training data is empty")
    nets = [init] if isinstance(init, MlpParams) else list(init)
    labels, features = data.labels, data.features
    signs = label_signs(labels)  # the labels' one check, before any step
    classes = [np.flatnonzero(labels == k) for k in range(labels.max() + 1)]
    if tr.solver == "analytic" and not classes[0].size:  # analytic_weights' check, before any step
        raise ConfigError("class 0 has no examples")
    rho = dr.rho_for(len(classes))
    n_batches = max(1, math.ceil(labels.size / tr.batch_size))
    # one batch holds every row in index order: its steps take the shared rows
    one = n_batches == 1
    # the widest batch dealing can make; padding every net's batches to it
    # keeps each net's arithmetic independent of the others in the stack
    width = sum(-(-ix.size // n_batches) for ix in classes)
    rngs = [np.random.default_rng(tr.seed + r) for r in range(len(nets))]
    results = [None] * len(nets)  # None while a net trains, then its error
    sets = [ds for ds in (val, test) if ds is not None]
    names = [k for k, ds in zip(TRACE_COLUMNS, (data, data, val, test)) if ds is not None]
    history = np.zeros((len(names), len(nets), tr.epochs))
    # epochs per block: the block's evaluation stacks its snapshots of every net,
    # and each of its activation arrays holds at most _BLOCK_FLOATS floats
    block = max(1, _BLOCK_FLOATS // (len(nets) * max(ds.n for ds in (data, *sets))
                                      * max(w.shape[-1] for w in nets[0].weights)))
    # one row of flat per net; params are views of it, so one subtraction steps them all
    flat = np.stack([p.flatten() for p in nets])
    params, grad = nets[0].unflatten(flat), np.empty_like(flat)
    # a one-batch run's steps read and write their weights as a view of omega, not gathers
    rows = slice(None) if one else np.arange(len(nets))[:, None]
    # column n of omega stays 0: padded batch entries read and write it
    omega = np.tile(np.append(rho[labels], 0.0), (len(nets), 1))
    # a block's epoch-end parameters, training losses and scores; snapshots stacks its parameters
    saved = [np.empty((block, len(nets), k)) for k in (flat.shape[1], labels.size, labels.size)]
    snapshots = params.unflatten(saved[0].reshape(block * len(nets), -1))
    idx, valid = np.zeros((2, 0, len(nets), width), dtype=np.intp)  # no batches planned yet
    # (cache, losses) of a one-batch run's last pass over the training set, kept
    # until the parameters move: the next step, epoch end or final weights reuse it
    fresh, epoch, pending = None, 0, 0

    def planned():
        """The steps' rows, weight slots, step sizes, signs and class membership;
        a net without a batch at a step skips it, ridge term included."""
        return (idx, [slice(labels.size)] * len(idx) if one else np.where(valid, idx, labels.size),
                np.where(valid.any(axis=-1, keepdims=True), tr.theta_lr, 0.0), signs[idx],
                *class_members(labels[idx], rho.size, valid))

    def stop(errors):
        """Stop each net of the (net, error) pairs in place; it keeps its earliest error."""
        nonlocal plan, fresh
        for r, err in errors:
            if results[r] is None:
                flat[r], valid[:, r], results[r] = 0.0, False, err
            elif err.epoch < results[r].epoch:
                results[r] = err
        plan, fresh = planned(), None

    def attempt(step):
        """step() once it returns; a failure stops the live nets it names, or if none, raises."""
        while True:
            try:
                return step()
            except (NumericError, BudgetError) as exc:
                if not (hit := [r for r in np.flatnonzero(exc.bad) if results[r] is None]):
                    raise
                stop([(r, TrainingError(f"{exc} in a batch" if isinstance(exc, BudgetError)
                                        else f"training diverged: {exc}", epoch)) for r in hit])

    def reduce():
        """Write the block's epochs into history. A snapshot failing a check (the training
        loss, then each layer of the validation and test passes) stops its net and is zeroed."""
        nonlocal pending
        m, pending = pending, 0
        snaps, loss = saved[0][:m], saved[1][:m].mean(axis=-1)
        every = snapshots if m == block else params.unflatten(snaps.reshape(m * len(nets), -1))
        failed = ~np.isfinite(loss)

        def fail(bad, why):
            snaps[bad], failed[bad] = 0.0, True
            stop([(r, TrainingError(f"training diverged: {why}", epoch - m + 1 + e))
                  for e, r in zip(*bad.nonzero())])

        if failed.any():
            fail(failed, "non-finite training loss")
        columns = [loss, _accuracy(saved[2][:m], labels)]
        for ds in sets:
            while True:
                try:
                    columns.append(evaluate(every, ds).reshape(m, -1))
                    break
                except NumericError as exc:
                    if not (bad := exc.bad.reshape(m, -1) & ~failed).any():
                        raise
                    fail(bad, exc)
        history[..., epoch - m : epoch] = np.stack(columns).swapaxes(1, 2)

    def theta_step(k):
        nonlocal fresh
        ix, spot, lr, y, member, count = (a[k] for a in plan)
        x, y = (features, signs) if one else (features[ix], y)
        (cache, losses), fresh = fresh or (mlp_forward(params, x), None), None
        omega_s = (member_weights(per_example_loss(cache, y) if losses is None else losses,
                                  member, count, rho, dr.alpha)
                   if tr.solver == "analytic" else omega[rows, spot])
        g = weighted_backward(params, cache, y, omega_s, dr.lam, out=grad)
        np.subtract(flat, np.multiply(g, lr, out=g), out=flat)

    def omega_step(k):
        nonlocal fresh
        ix, spot, _, y, member, count = (a[k] for a in plan)
        x, y = (features, signs) if one else (features[ix], y)
        prev = omega[rows, spot]
        cache = mlp_forward(params, x)
        losses = per_example_loss(cache, y)
        if one:
            fresh = cache, losses
        w = prev - tr.omega_lr * (losses + dr.alpha * np.log(np.maximum(prev, _LOG_CLAMP)))
        np.maximum(w, 0.0, out=w)
        omega[rows, spot] = scale_members(w, member, count, rho)

    def record():
        """The epoch's training pass; saves it and the parameters for the block."""
        nonlocal fresh, pending
        if fresh is None:
            cache = mlp_forward(params, features)
            fresh = cache, per_example_loss(cache, signs)
        (cache, losses), fresh = fresh, fresh if one else None
        for buf, a in zip(saved, (flat, losses, cache.scores)):
            buf[pending] = a
        pending += 1

    for epoch in range(1, tr.epochs + 1):
        update_weights = tr.solver == "numeric" and epoch > tr.burn_in
        if epoch == 1 or not one:  # a stopped net gets no batches
            idx, valid = _padded([_stratified_batches(classes, tr.batch_size, rng)
                                  if res is None else [] for rng, res in zip(rngs, results)], width)
            plan = planned()
        for k in range(len(plan[0])):
            attempt(lambda: theta_step(k))
            if update_weights:
                attempt(lambda: omega_step(k))
        attempt(record)
        if pending == block or epoch == tr.epochs or None not in results:
            reduce()
        if None not in results:
            break

    def final_weights():  # with no epochs, the training loss is checked only here
        losses = fresh[1] if fresh else per_example_loss(mlp_forward(params, features), signs)
        if not (finite := np.isfinite(losses.mean(axis=-1))).all():
            raise NumericError("non-finite training loss", ~finite)
        return analytic_weights(losses, labels, dr)

    if tr.solver == "analytic":
        omega = attempt(final_weights)
    results = [res or (params.unflatten(flat[r]).copy(), omega[r, : labels.size],
                       dict(zip(names, history[:, r]))) for r, res in enumerate(results)]
    if isinstance(init, MlpParams) and isinstance(results[0], TrainingError):
        raise results[0]
    return results[0] if isinstance(init, MlpParams) else results
