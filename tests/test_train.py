"""Minibatch descent, the alternating weight scheme, and their invariants."""

import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drfit.core import (ClassPartition, ConfigError, DrFitConfig, analytic_weights,
                        closed_form_weights, reduced_loss, scale_to_budgets)
from drfit.data import LabeledDataset, NoiseSpec, inject_label_noise, synthetic_gaussian_2class
from drfit.nn import init_params, mlp_forward, per_example_loss, weighted_backward
from drfit.train import (
    RenormError,
    TrainConfig,
    TrainingError,
    _stratified_batches,
    evaluate,
    mean_loss,
    train,
)


def _toy_data(n=60, seed=4, noise=0.2):
    ds = synthetic_gaussian_2class(n, [1.0, 1.0], [[1.0, 0.3], [0.3, 1.0]], seed=seed)
    return inject_label_noise(ds, NoiseSpec(rates=(noise, noise), seed=seed))


def test_numeric_single_epoch_matches_hand_sequencing():
    """One full-batch epoch: parameters move first, then the weights are
    refreshed against the post-step losses, clipped, and renormalised."""
    ds = _toy_data(n=6)
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.25, 0.8))
    tr = TrainConfig(
        epochs=1, batch_size=6, theta_lr=0.01, omega_lr=0.5,
        burn_in=0, update_frequency=1, seed=0, solver="numeric",
    )
    init = init_params([2, 4, 1], seed=1)
    params, omega, trace = train(ds, dr, tr, init)

    rho = np.array([1.25, 0.8])
    omega0 = rho[ds.labels]
    cache = mlp_forward(init, ds.features)
    grad = weighted_backward(init, cache, ds.labels, omega0, 0.0)
    theta1 = init.flatten() - 0.01 * grad
    assert np.array_equal(params.flatten(), theta1)

    fresh = per_example_loss(mlp_forward(params, ds.features), ds.labels)
    w = omega0 - 0.5 * (fresh + 0.5 * np.log(np.maximum(omega0, 1e-8)))
    w = np.maximum(w, 0.0)
    for c in (0, 1):
        sel = ds.labels == c
        w[sel] *= rho[c] * sel.sum() / w[sel].sum()
    assert np.allclose(omega, w, atol=1e-12)
    assert len(trace) == 1


def test_numeric_weights_keep_class_budgets():
    """A run is deterministic per seed, so the final weights of runs of 1..6
    epochs are the weights a 6-epoch run holds after each of its epochs."""
    ds = _toy_data(n=80)
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.25, 5.0 / 6.0))
    init = init_params([2, 4, 1], seed=3)
    for epochs in range(1, 7):
        tr = TrainConfig(
            epochs=epochs, batch_size=80, theta_lr=0.005, omega_lr=0.1,
            burn_in=1, update_frequency=1, seed=2, solver="numeric",
        )
        _, omega, _ = train(ds, dr, tr, init)
        assert np.all(omega >= 0.0)
        for c in (0, 1):
            sel = ds.labels == c
            assert omega[sel].mean() == pytest.approx(dr.rho_for(2)[c], abs=1e-10)


def test_numeric_without_updates_equals_plain_baseline():
    """burn_in past the horizon disables every weight refresh, leaving the
    fixed-weight baseline, bit for bit."""
    ds = _toy_data()
    dr = DrFitConfig(alpha=0.5, lam=0.1, rho=(1.0, 1.0))
    kw = dict(batch_size=16, theta_lr=0.01, seed=5)
    init = init_params([2, 4, 1], seed=6)
    p_num, w_num, t_num = train(
        ds, dr, TrainConfig(epochs=4, burn_in=10, solver="numeric", **kw), init
    )
    p_pl, w_pl, t_pl = train(
        ds, dr, TrainConfig(epochs=4, solver="plain", **kw), init
    )
    assert np.array_equal(p_num.flatten(), p_pl.flatten())
    assert np.array_equal(w_num, w_pl)
    assert t_num.column("train_loss") == t_pl.column("train_loss")


def test_numeric_zero_step_size_equals_plain_baseline():
    ds = _toy_data()
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.0, 1.0))
    kw = dict(batch_size=16, theta_lr=0.01, seed=5)
    init = init_params([2, 4, 1], seed=6)
    p_num, _, _ = train(
        ds, dr,
        TrainConfig(epochs=4, omega_lr=0.0, burn_in=0, solver="numeric", **kw),
        init,
    )
    p_pl, _, _ = train(
        ds, dr, TrainConfig(epochs=4, solver="plain", **kw), init
    )
    assert np.array_equal(p_num.flatten(), p_pl.flatten())


def test_analytic_with_huge_alpha_flattens_to_baseline():
    """As alpha grows the closed-form weights tend to the class budgets, so
    the run tracks the fixed-weight baseline."""
    ds = _toy_data()
    kw = dict(batch_size=16, theta_lr=0.01, seed=7)
    init = init_params([2, 4, 1], seed=8)
    _, _, t_an = train(
        ds, DrFitConfig(alpha=1e9, lam=0.0, rho=(1.0, 1.0)),
        TrainConfig(epochs=5, solver="analytic", **kw), init,
    )
    _, _, t_pl = train(
        ds, DrFitConfig(alpha=1e9, lam=0.0, rho=(1.0, 1.0)),
        TrainConfig(epochs=5, solver="plain", **kw), init,
    )
    a = np.array(t_an.column("train_loss"))
    p = np.array(t_pl.column("train_loss"))
    assert np.allclose(a, p, atol=1e-6)


def test_zero_epochs_returns_initial_state():
    ds = _toy_data()
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.0, 1.0))
    tr = TrainConfig(epochs=0, batch_size=16, theta_lr=0.01, solver="analytic")
    init = init_params([2, 4, 1], seed=9)
    params, weights, trace = train(ds, dr, tr, init)
    assert np.array_equal(params.flatten(), init.flatten())
    assert len(trace) == 0
    part = ClassPartition.from_labels(ds.labels)
    losses = per_example_loss(mlp_forward(init, ds.features), ds.labels)
    assert np.allclose(weights, analytic_weights(losses, part, dr))


def test_full_batch_descent_is_monotone():
    """With the closed-form weights the step follows the collapsed loss's
    gradient, so a small full-batch step never increases it."""
    ds = _toy_data(n=20)
    part = ClassPartition.from_labels(ds.labels)
    dr = DrFitConfig(alpha=0.7, lam=0.05, rho=(1.0, 1.0))
    params = init_params([2, 4, 1], seed=10, activation="identity")
    lr = 1e-3
    values = []
    for _ in range(60):
        cache = mlp_forward(params, ds.features)
        losses = per_example_loss(cache, ds.labels)
        theta = params.flatten()
        values.append(reduced_loss(losses, float(theta @ theta), part, dr))
        omega = analytic_weights(losses, part, dr)
        grad = weighted_backward(params, cache, ds.labels, omega, dr.lam)
        params = params.unflatten(theta - lr * grad)
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-12)
    assert values[-1] < values[0]


def test_training_is_deterministic():
    ds = _toy_data()
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.0, 1.0))
    tr = TrainConfig(
        epochs=5, batch_size=16, theta_lr=0.01, omega_lr=0.05,
        burn_in=1, seed=11, solver="numeric",
    )
    init = init_params([2, 4, 1], seed=12)
    p1, w1, t1 = train(ds, dr, tr, init)
    p2, w2, t2 = train(ds, dr, tr, init)
    assert np.array_equal(p1.flatten(), p2.flatten())
    assert np.array_equal(w1, w2)
    assert t1.column("train_loss") == t2.column("train_loss")


@pytest.mark.parametrize("batch_size", [16, 60])
def test_divergence_reports_the_epoch(batch_size):
    """A step size big enough to overflow the layer products must surface
    as a training error stamped with the epoch, also when the overflow
    first shows in the epoch-end pass (one batch per epoch)."""
    ds = _toy_data()
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.0, 1.0))
    tr = TrainConfig(epochs=3, batch_size=batch_size, theta_lr=1e307, solver="analytic")
    init = init_params([2, 4, 1], seed=13)
    with pytest.raises(TrainingError) as err, np.errstate(over="ignore", invalid="ignore"):
        train(ds, dr, tr, init)
    assert err.value.epoch == 1
    assert "(epoch 1)" in str(err.value)


def test_runaway_weight_step_trips_renormalisation():
    ds = _toy_data()
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.0, 1.0))
    tr = TrainConfig(
        epochs=3, batch_size=60, theta_lr=0.01, omega_lr=100.0,
        burn_in=0, solver="numeric",
    )
    init = init_params([2, 4, 1], seed=14)
    with pytest.raises(RenormError):
        train(ds, dr, tr, init)


def test_stratified_batches_partition_the_data():
    labels = np.repeat([0, 1], [70, 33])
    part = ClassPartition.from_labels(labels)
    rng = np.random.default_rng(0)
    batches = _stratified_batches(part, 16, rng)
    seen = np.concatenate(batches)
    assert np.array_equal(np.sort(seen), np.arange(103))
    target = 103 / len(batches)
    for b in batches:
        assert np.all(np.diff(b) > 0)
        assert abs(b.size - target) <= 2


def _dealt_batches(part, batch_size, rng):
    """Reference: the per-example dealing loop, one bucket list per batch."""
    n_batches = max(1, math.ceil(part.n / batch_size))
    buckets = [[] for _ in range(n_batches)]
    for members in part.classes:
        perm = rng.permutation(members)
        offset = int(rng.integers(n_batches)) if n_batches > 1 else 0
        for j, g in enumerate(perm):
            buckets[(j + offset) % n_batches].append(int(g))
    batches = [np.array(sorted(b), dtype=np.int64) for b in buckets if b]
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=4),
    batch_size=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_stratified_batches_match_the_dealing_loop(sizes, batch_size, seed):
    """Same batches, in the same order, from the same random draws."""
    labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(sizes)), sizes))
    part = ClassPartition.from_labels(labels, n_classes=len(sizes))
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _dealt_batches(part, batch_size, rng_ref)
    got = _stratified_batches(part, batch_size, rng)
    assert len(got) == len(expected)
    for b, e in zip(got, expected):
        assert b.dtype == np.int64
        assert np.array_equal(b, e)
    assert rng.integers(2**62) == rng_ref.integers(2**62)


def test_evaluate_and_mean_loss():
    ds = _toy_data(n=10)
    params = init_params([2, 4, 1], seed=15)
    acc = evaluate(params, ds)
    assert 0.0 <= acc <= 1.0
    assert np.isfinite(mean_loss(params, ds))
    empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        evaluate(params, empty)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1, batch_size=16, theta_lr=0.01)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=0, theta_lr=0.01)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=16, theta_lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=16, theta_lr=0.01, solver="magic")
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=16, theta_lr=0.01, update_frequency=0)


def test_train_submodule_is_not_shadowed():
    import drfit.train as m

    assert isinstance(m, types.ModuleType)
    assert callable(m.train)


def _stack_setup(n=66, seed=21):
    """Toy data whose batches of 16 come out 12 to 14 rows wide, and three
    nets for a stacked run."""
    ds = _toy_data(n=n, seed=seed)
    part = ClassPartition.from_labels(ds.labels)
    sizes = {b.size for s in (30, 31, 32)
             for b in _stratified_batches(part, 16, np.random.default_rng(s))}
    assert len(sizes) > 1  # the stack has to pad
    return ds, [init_params([2, 4, 1], seed=40 + r) for r in range(3)]


def _batch_by_batch(ds, dr, tr, net):
    """Reference: one net, one unpadded batch at a time, through the
    one-net kernels; returns the parameters, weights and training losses."""
    part = ClassPartition.from_labels(ds.labels)
    rho, rng, params = dr.rho_for(2), np.random.default_rng(tr.seed), net.copy()
    omega, losses = rho[ds.labels].astype(float), []
    for epoch in range(1, tr.epochs + 1):
        for subset in _stratified_batches(part, tr.batch_size, rng):
            x, y = ds.features[subset], ds.labels[subset]
            cache = mlp_forward(params, x)
            w = (closed_form_weights(per_example_loss(cache, y), y, rho, dr.alpha)
                 if tr.solver == "analytic" else omega[subset])
            grad = weighted_backward(params, cache, y, w, dr.lam)
            params = params.unflatten(params.flatten() - tr.theta_lr * grad).copy()
            if tr.solver == "numeric" and epoch > tr.burn_in:
                fresh = per_example_loss(mlp_forward(params, x), y)
                prev = omega[subset]
                w = prev - tr.omega_lr * (fresh + dr.alpha * np.log(np.maximum(prev, 1e-8)))
                omega[subset] = scale_to_budgets(np.maximum(w, 0.0), y, rho)
        losses.append(float(per_example_loss(mlp_forward(params, ds.features), ds.labels).mean()))
    if tr.solver == "analytic":
        omega = analytic_weights(per_example_loss(mlp_forward(params, ds.features), ds.labels),
                                 part, dr)
    return params, omega, losses


@pytest.mark.parametrize("solver", ["analytic", "numeric", "plain"])
def test_stacked_run_matches_separate_runs(solver):
    """Replication r of a stacked run is, bit for bit, the run of its net
    alone with seed s + r, and both are the batch-by-batch run without
    padding: same batches, parameters, weights and trace."""
    ds, nets = _stack_setup()
    dr = DrFitConfig(alpha=0.5, lam=0.05, rho=(1.1, 0.9))
    tr = TrainConfig(epochs=3, batch_size=16, theta_lr=0.05, omega_lr=0.05, burn_in=0,
                     seed=30, solver=solver)
    stacked = train(ds, dr, tr, nets, val=ds, test=ds)
    for r, net in enumerate(nets):
        one = dataclasses.replace(tr, seed=30 + r)
        alone = train(ds, dr, one, net, val=ds, test=ds)
        (p1, w1, t1), (p0, w0, t0) = stacked[r], alone
        assert np.array_equal(p1.flatten(), p0.flatten())
        assert np.array_equal(w1, w0)
        assert t1.records == t0.records
        p_ref, w_ref, loss_ref = _batch_by_batch(ds, dr, one, net)
        np.testing.assert_allclose(p1.flatten(), p_ref.flatten(), rtol=0, atol=1e-10)
        np.testing.assert_allclose(w1, w_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(t1.column("train_loss"), loss_ref, rtol=0, atol=1e-10)
    assert all(np.array_equal(n.flatten(), m.flatten()) for n, m in zip(nets, _stack_setup()[1]))


@pytest.mark.parametrize("bad", [1, 2])
def test_a_diverging_replication_leaves_the_others_alone(bad):
    """A net that overflows fails with its epoch; the others end as they
    would have without it in the stack."""
    ds, nets = _stack_setup()
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.0, 1.0))
    tr = TrainConfig(epochs=3, batch_size=16, theta_lr=0.05, seed=30, solver="analytic")
    blown = init_params([2, 4, 1], seed=40 + bad)
    for w in blown.weights:
        w *= 1e200
    nets[bad] = blown
    with np.errstate(over="ignore", invalid="ignore"):
        results = train(ds, dr, tr, nets)
    assert isinstance(results[bad], TrainingError)
    assert results[bad].epoch == 1 and "(epoch 1)" in str(results[bad])
    others = sorted({0, 1, 2} - {bad})
    if bad == 2:  # the same seeds as a two-net stack
        expected = dict(enumerate(train(ds, dr, tr, nets[:2])))
    else:
        expected = {r: train(ds, dr, dataclasses.replace(tr, seed=30 + r), nets[r]) for r in others}
    for r in others:
        (p1, w1, t1), (p0, w0, t0) = results[r], expected[r]
        assert np.array_equal(p1.flatten(), p0.flatten())
        assert np.array_equal(w1, w0)
        assert t1.column("train_loss") == t0.column("train_loss")


def test_a_net_without_a_batch_skips_the_step():
    """With batch size 1 dealing can leave a bucket empty, so nets can differ
    in batch count; the short net then skips the step, ridge term included."""
    ds = _toy_data(n=8, seed=3)
    part = ClassPartition.from_labels(ds.labels)
    counts = [len(_stratified_batches(part, 1, np.random.default_rng(s))) for s in range(40)]
    seed = next(s for s in range(39) if counts[s] != counts[s + 1])
    dr = DrFitConfig(alpha=0.5, lam=0.5, rho=(1.0, 1.0))
    tr = TrainConfig(epochs=2, batch_size=1, theta_lr=0.01, seed=seed, solver="plain")
    nets = [init_params([2, 4, 1], seed=50 + r) for r in range(2)]
    stacked = train(ds, dr, tr, nets)
    for r in range(2):
        alone = train(ds, dr, dataclasses.replace(tr, seed=seed + r), nets[r])
        np.testing.assert_allclose(stacked[r][0].flatten(), alone[0].flatten(), rtol=0, atol=1e-12)


def test_nets_failing_at_later_epochs_leave_the_others_bit_for_bit():
    """Nets that fail at different epochs, one by overflow in epoch 1 and
    one by a clipped-out class once the weight steps start in epoch 3,
    leave the others exactly as they end alone, although their first
    epochs ran in a wider stack."""
    d = 20
    ds = synthetic_gaussian_2class(410, np.full(d, 0.3), np.eye(d), seed=5)
    ds = inject_label_noise(ds, NoiseSpec(rates=(0.2, 0.2), seed=5))
    part = ClassPartition.from_labels(ds.labels)
    sizes = {b.size for s in range(30, 34)
             for b in _stratified_batches(part, 64, np.random.default_rng(s))}
    assert len(sizes) > 1  # the stack has to pad
    dr = DrFitConfig(alpha=0.5, lam=0.01, rho=(1.2, 0.8))
    tr = TrainConfig(epochs=5, batch_size=64, theta_lr=0.05, omega_lr=0.05, burn_in=2,
                     seed=30, solver="numeric")
    nets = [init_params([d, 32, 16, 1], seed=60 + r) for r in range(4)]
    for w in nets[1].weights:
        w *= 1e100
    nets[2].biases[-1][:] = 1e6  # every class-0 loss about 2e6: no weight survives a step
    with np.errstate(over="ignore", invalid="ignore"):
        results = train(ds, dr, tr, nets, val=ds)
    assert isinstance(results[1], TrainingError) and results[1].epoch == 1
    assert isinstance(results[2], RenormError) and results[2].epoch == 3
    for r in (0, 3):
        (p1, w1, t1), (p0, w0, t0) = results[r], train(
            ds, dr, dataclasses.replace(tr, seed=30 + r), nets[r], val=ds)
        assert np.array_equal(p1.flatten(), p0.flatten())
        assert np.array_equal(w1, w0)
        assert t1.records == t0.records and len(t1) == tr.epochs
