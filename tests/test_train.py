"""Minibatch descent, the alternating weight scheme, and their invariants."""

import dataclasses
import math
import pickle
import tracemalloc
import types

import numpy as np
import pytest

import drfit.train as train_module
from hypothesis import given, settings
from hypothesis import strategies as st

from drfit.core import (BudgetError, ConfigError, DrFitConfig, analytic_weights, class_members,
                        member_weights, reduced_loss, scale_members)
from drfit.data import LabeledDataset, NoiseSpec, inject_label_noise, synthetic_gaussian_2class
from drfit.nn import NumericError, init_params, mlp_forward, per_example_loss, weighted_backward
from drfit.train import (
    TrainConfig,
    TrainingError,
    _accuracy,
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
        burn_in=0, seed=0, solver="numeric",
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
    assert trace.keys() == {"train_loss", "train_acc"}
    assert trace["train_loss"].shape == trace["train_acc"].shape == (1,)


def test_numeric_weights_keep_class_budgets():
    """A run is deterministic per seed, so the final weights of runs of 1..6
    epochs are the weights a 6-epoch run holds after each of its epochs."""
    ds = _toy_data(n=80)
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.25, 5.0 / 6.0))
    init = init_params([2, 4, 1], seed=3)
    for epochs in range(1, 7):
        tr = TrainConfig(
            epochs=epochs, batch_size=80, theta_lr=0.005, omega_lr=0.1,
            burn_in=1, seed=2, solver="numeric",
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
    assert np.array_equal(t_num["train_loss"], t_pl["train_loss"])


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
    assert np.allclose(t_an["train_loss"], t_pl["train_loss"], atol=1e-6)


def test_zero_epochs_returns_initial_state():
    ds = _toy_data()
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.0, 1.0))
    tr = TrainConfig(epochs=0, batch_size=16, theta_lr=0.01, solver="analytic")
    init = init_params([2, 4, 1], seed=9)
    params, weights, trace = train(ds, dr, tr, init)
    assert np.array_equal(params.flatten(), init.flatten())
    assert trace["train_loss"].shape == (0,)
    losses = per_example_loss(mlp_forward(init, ds.features), ds.labels)
    assert np.allclose(weights, analytic_weights(losses, ds.labels, dr))


def test_zero_epochs_with_an_overflowing_net_fails_that_net_alone():
    """With no epochs the closed form at the initial losses is the only pass:
    a net whose label-0 losses overflow fails at epoch 0, and the healthy net
    beside it ends bit for bit as it ends alone."""
    rng = np.random.default_rng(7)
    ds = LabeledDataset(rng.normal(size=(40, 3)), np.arange(40) % 2)
    ok, bad = init_params([3, 2, 1], 1), init_params([3, 2, 1], 2)
    bad.biases[-1][:] = 1e308
    dr = DrFitConfig(alpha=1.0)
    tr = TrainConfig(epochs=0, batch_size=40, theta_lr=0.01)
    with np.errstate(over="ignore"):
        results = train(ds, dr, tr, [ok, bad])
        with pytest.raises(TrainingError) as alone:
            train(ds, dr, tr, bad)
    assert str(results[1]) == str(alone.value) == (
        "training diverged: non-finite training loss (epoch 0)")
    assert results[1].epoch == alone.value.epoch == 0
    (p1, w1, t1), (p0, w0, t0) = results[0], train(ds, dr, tr, ok)
    assert np.array_equal(p1.flatten(), p0.flatten()) and np.array_equal(w1, w0)
    _assert_same_trace(t1, t0)


def test_full_batch_descent_is_monotone():
    """With the closed-form weights the step follows the collapsed loss's
    gradient, so a small full-batch step never increases it."""
    ds = _toy_data(n=20)
    dr = DrFitConfig(alpha=0.7, lam=0.05, rho=(1.0, 1.0))
    params = init_params([2, 1], seed=10)
    lr = 1e-3
    values = []
    for _ in range(60):
        cache = mlp_forward(params, ds.features)
        losses = per_example_loss(cache, ds.labels)
        theta = params.flatten()
        values.append(reduced_loss(losses, float(theta @ theta), ds.labels, dr))
        omega = analytic_weights(losses, ds.labels, dr)
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
    assert np.array_equal(t1["train_loss"], t2["train_loss"])


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
    with pytest.raises(TrainingError, match=r"all weights of class \d are zero in a batch"):
        train(ds, dr, tr, init)


def _classes(labels, n_classes=None):
    """The index list of each class 0 .. n_classes - 1 (max label by default)."""
    return [np.flatnonzero(labels == k)
            for k in range(labels.max() + 1 if n_classes is None else n_classes)]


def test_stratified_batches_partition_the_data():
    labels = np.repeat([0, 1], [70, 33])
    classes = _classes(labels)
    rng = np.random.default_rng(0)
    batches = _stratified_batches(classes, 16, rng)
    seen = np.concatenate(batches)
    assert np.array_equal(np.sort(seen), np.arange(103))
    target = 103 / len(batches)
    for b in batches:
        assert np.all(np.diff(b) > 0)
        assert abs(b.size - target) <= 2


def _dealt_batches(classes, batch_size, rng):
    """Reference: the per-example dealing loop, one bucket list per batch."""
    n_batches = max(1, math.ceil(sum(map(len, classes)) / batch_size))
    buckets = [[] for _ in range(n_batches)]
    for members in classes:
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
    # a class of size 0 is an empty index list: it still takes its draws
    classes = _classes(labels, len(sizes))
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _dealt_batches(classes, batch_size, rng_ref)
    got = _stratified_batches(classes, batch_size, rng)
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


def test_accuracy_breaks_ties_like_argmax_over_two_scores():
    """z > 0 predicts class 1, as argmax over the scores (-z, z) does,
    whose ties at 0.0, -0.0 and NaN go to the first score, class 0."""
    z = np.array([0.0, -0.0, 1e-300, -1e-300, np.nan, 2.0, -2.0])
    argmax = np.stack([-z, z], axis=-1).argmax(axis=-1)
    for y in (0, 1):
        labels = np.full(z.size, y)
        for k in range(z.size):
            assert _accuracy(z[k : k + 1], labels[k : k + 1]) == (argmax[k] == y)
        assert _accuracy(z, labels) == np.mean(argmax == y)


def test_one_batch_numeric_epoch_reuses_the_weight_step_pass(monkeypatch):
    """With one batch per epoch the epoch end takes the training loss and
    accuracy from the weight step's forward pass at the same parameters, and
    the next step takes the epoch end's or the weight step's pass: one pass
    per parameter state, with the values a fresh pass gives, also in the
    epochs between weight steps."""
    ds = _toy_data(n=40)
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.25, 5.0 / 6.0))
    init = init_params([2, 4, 1], seed=5)
    calls = []
    forward = train_module.mlp_forward
    monkeypatch.setattr(train_module, "mlp_forward",
                        lambda params, batch: calls.append(1) or forward(params, batch))
    for epochs in range(1, 7):
        tr = TrainConfig(epochs=epochs, batch_size=40, theta_lr=0.01, omega_lr=0.1,
                         burn_in=3, seed=3, solver="numeric")
        calls.clear()
        params, _, trace = train(ds, dr, tr, init)
        # the first step's pass, then one weight-step or epoch-end pass per epoch
        assert len(calls) == epochs + 1
        assert trace["train_loss"][-1] == mean_loss(params, ds)
        assert trace["train_acc"][-1] == evaluate(params, ds)


@pytest.mark.parametrize("hidden", [[], [4]], ids=["linear", "hidden"])
@pytest.mark.parametrize("solver", ["analytic", "numeric", "plain"])
def test_one_batch_run_makes_one_training_pass_per_parameter_state(monkeypatch, solver, hidden):
    """With batch = n every step, epoch end and final analytic weights reuse
    the last pass at the same parameters: epochs + 1 passes over the
    training set for a 2-net stack, and each net is its run alone, bit for bit."""
    ds = _toy_data(n=40)
    dr = DrFitConfig(alpha=0.5, lam=0.01, rho=(1.25, 5.0 / 6.0))
    nets = [init_params([2, *hidden, 1], seed=60 + r) for r in range(2)]
    tr = TrainConfig(epochs=6, batch_size=40, theta_lr=0.05, omega_lr=0.1, burn_in=3,
                     seed=7, solver=solver)
    rows = []
    forward = train_module.mlp_forward
    monkeypatch.setattr(train_module, "mlp_forward",
                        lambda params, batch: rows.append(batch.shape[-2]) or forward(params, batch))
    stacked = train(ds, dr, tr, nets)
    assert rows == [ds.n] * (tr.epochs + 1)
    for r, net in enumerate(nets):
        params, omega, trace = train(ds, dr, dataclasses.replace(tr, seed=7 + r), net)
        assert np.array_equal(stacked[r][0].flatten(), params.flatten())
        assert np.array_equal(stacked[r][1], omega)
        _assert_same_trace(stacked[r][2], trace)
        assert trace["train_loss"][-1] == mean_loss(params, ds)
        assert trace["train_acc"][-1] == evaluate(params, ds)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1, batch_size=16, theta_lr=0.01)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=0, theta_lr=0.01)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=16, theta_lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=16, theta_lr=0.01, solver="magic")


def test_train_submodule_is_not_shadowed():
    import drfit.train as m

    assert isinstance(m, types.ModuleType)
    assert callable(m.train)


def _assert_same_trace(a, b):
    """The same columns, each equal bit for bit."""
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def _stack_setup(n=66, seed=21):
    """Toy data whose batches of 16 come out 12 to 14 rows wide, and three
    nets for a stacked run."""
    ds = _toy_data(n=n, seed=seed)
    classes = _classes(ds.labels)
    sizes = {b.size for s in (30, 31, 32)
             for b in _stratified_batches(classes, 16, np.random.default_rng(s))}
    assert len(sizes) > 1  # the stack has to pad
    return ds, [init_params([2, 4, 1], seed=40 + r) for r in range(3)]


def _batch_by_batch(ds, dr, tr, net):
    """Reference: one net, one unpadded batch at a time, through the
    one-net kernels; returns the parameters, weights and training losses."""
    classes = _classes(ds.labels)
    rho, rng, params = dr.rho_for(2), np.random.default_rng(tr.seed), net.copy()
    omega, losses = rho[ds.labels].astype(float), []
    for epoch in range(1, tr.epochs + 1):
        for subset in _stratified_batches(classes, tr.batch_size, rng):
            x, y = ds.features[subset], ds.labels[subset]
            member, count = class_members(y, rho.size)
            cache = mlp_forward(params, x)
            w = (member_weights(per_example_loss(cache, y), member, count, rho, dr.alpha)
                 if tr.solver == "analytic" else omega[subset])
            grad = weighted_backward(params, cache, y, w, dr.lam)
            params = params.unflatten(params.flatten() - tr.theta_lr * grad).copy()
            if tr.solver == "numeric" and epoch > tr.burn_in:
                fresh = per_example_loss(mlp_forward(params, x), y)
                prev = omega[subset]
                w = prev - tr.omega_lr * (fresh + dr.alpha * np.log(np.maximum(prev, 1e-8)))
                omega[subset] = scale_members(np.maximum(w, 0.0), member, count, rho)
        losses.append(float(per_example_loss(mlp_forward(params, ds.features), ds.labels).mean()))
    if tr.solver == "analytic":
        omega = analytic_weights(per_example_loss(mlp_forward(params, ds.features), ds.labels),
                                 ds.labels, dr)
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
        _assert_same_trace(t1, t0)
        assert list(t1) == ["train_loss", "train_acc", "val_acc", "test_acc"]
        p_ref, w_ref, loss_ref = _batch_by_batch(ds, dr, one, net)
        np.testing.assert_allclose(p1.flatten(), p_ref.flatten(), rtol=0, atol=1e-10)
        np.testing.assert_allclose(w1, w_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(t1["train_loss"], loss_ref, rtol=0, atol=1e-10)
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
        np.testing.assert_array_equal(t1["train_loss"], t0["train_loss"])


def test_a_net_without_a_batch_skips_the_step():
    """With batch size 1 dealing can leave a bucket empty, so nets can differ
    in batch count; the short net then skips the step, ridge term included."""
    ds = _toy_data(n=8, seed=3)
    classes = _classes(ds.labels)
    counts = [len(_stratified_batches(classes, 1, np.random.default_rng(s))) for s in range(40)]
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
    classes = _classes(ds.labels)
    sizes = {b.size for s in range(30, 34)
             for b in _stratified_batches(classes, 64, np.random.default_rng(s))}
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
    assert isinstance(results[2], TrainingError) and results[2].epoch == 3
    assert str(results[2]) == "all weights of class 0 are zero in a batch (epoch 3)"
    for r in (0, 3):
        (p1, w1, t1), (p0, w0, t0) = results[r], train(
            ds, dr, dataclasses.replace(tr, seed=30 + r), nets[r], val=ds)
        assert np.array_equal(p1.flatten(), p0.flatten())
        assert np.array_equal(w1, w0)
        _assert_same_trace(t1, t0)
        assert t1["val_acc"].shape == (tr.epochs,)


def test_a_hidden_layer_overflow_fails_at_its_epoch_and_leaves_the_others_alone():
    """One finiteness test per forward pass still drops the right net at the
    right epoch: a net whose second hidden layer's pre-activation overflows
    in epoch 3 (the epoch at which a test of every layer and every gradient
    dropped it) fails then, naming that layer, and the others end bit for
    bit as they end alone."""
    ds = _toy_data(n=66, seed=21)
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.0, 1.0))
    tr = TrainConfig(epochs=5, batch_size=16, theta_lr=0.05, seed=30, solver="analytic")
    nets = [init_params([2, 4, 4, 1], seed=40 + r) for r in range(3)]
    nets[1].weights[1] *= 1e50
    nets[1].weights[2] *= 1e-100
    with np.errstate(over="ignore", invalid="ignore"):
        results = train(ds, dr, tr, nets)
    assert isinstance(results[1], TrainingError) and results[1].epoch == 3
    assert "non-finite pre-activation at layer 1 (epoch 3)" in str(results[1])
    for r in (0, 2):
        (p1, w1, t1), (p0, w0, t0) = results[r], train(
            ds, dr, dataclasses.replace(tr, seed=30 + r), nets[r])
        assert np.array_equal(p1.flatten(), p0.flatten())
        assert np.array_equal(w1, w0)
        _assert_same_trace(t1, t0)


def _assert_as_alone(results, ds, dr, tr, nets, others, **sets):
    """Nets `others` of a stacked run end bit for bit as their runs alone."""
    for r in others:
        (p1, w1, t1), (p0, w0, t0) = results[r], train(
            ds, dr, dataclasses.replace(tr, seed=tr.seed + r), nets[r], **sets)
        assert np.array_equal(p1.flatten(), p0.flatten())
        assert np.array_equal(w1, w0)
        _assert_same_trace(t1, t0)


def _with_big_first_row(ds, value):
    features = ds.features.copy()
    features[0, 0] = value
    return LabeledDataset(features, ds.labels)


def test_a_validation_overflow_keeps_its_epoch_when_the_block_is_reduced_later():
    """The epoch-end checks run once per block of epochs, here once for all
    four: a net whose validation pass alone overflows, in epoch 1, still gets
    the error a check after every epoch raises, and the others end bit for bit
    as they end alone."""
    ds, nets = _stack_setup()
    val = _with_big_first_row(ds, 1e306)
    nets[1].weights[0] *= 1e4
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.0, 1.0))
    tr = TrainConfig(epochs=4, batch_size=16, theta_lr=0.05, seed=30, solver="analytic")
    assert train_module._BLOCK_FLOATS // (3 * ds.n * 4) >= tr.epochs  # one block
    with np.errstate(over="ignore", invalid="ignore"):
        results = train(ds, dr, tr, nets, val=val, test=ds)
    assert isinstance(results[1], TrainingError) and results[1].epoch == 1
    assert str(results[1]) == "training diverged: non-finite pre-activation at layer 0 (epoch 1)"
    _assert_as_alone(results, ds, dr, tr, nets, (0, 2), val=val, test=ds)


@pytest.mark.parametrize("solver", ["analytic", "numeric", "plain"])
def test_a_training_loss_overflow_keeps_its_epoch_when_the_block_is_reduced_later(solver):
    """Scores near the largest float are finite but their losses are not: a
    net whose training loss overflows in epoch 1 gets that check's error and
    epoch when its block is reduced after epoch 3, and the others end bit
    for bit as they end alone."""
    ds, _ = _stack_setup()
    nets = [init_params([2, 1], seed=40 + r) for r in range(3)]
    nets[1].weights[0][:] = [[1.5e308 / np.abs(ds.features[:, 0]).max()], [0.0]]
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.0, 1.0))
    tr = TrainConfig(epochs=3, batch_size=16, theta_lr=0.05, burn_in=0, seed=30, solver=solver)
    assert train_module._BLOCK_FLOATS // (3 * ds.n) >= tr.epochs  # one block
    with np.errstate(over="ignore", invalid="ignore"):
        results = train(ds, dr, tr, nets, val=ds)
    assert str(results[1]) == "training diverged: non-finite training loss (epoch 1)"
    _assert_as_alone(results, ds, dr, tr, nets, (0, 2), val=ds)


def test_a_deferred_failure_wins_over_a_later_step_failure_of_the_same_net():
    """A net whose steps overflow in epoch 3 fails then; with a validation
    row that overflows its epoch-1 pass it fails at epoch 1 instead, as a
    check after every epoch makes it, although both fall in one block. So it
    does alone, where its step failure stops the whole stack before the block
    is reduced."""
    ds = _toy_data(n=66, seed=21)
    dr = DrFitConfig(alpha=0.5, lam=0.0, rho=(1.0, 1.0))
    tr = TrainConfig(epochs=5, batch_size=16, theta_lr=0.05, seed=30, solver="analytic")
    assert train_module._BLOCK_FLOATS // (3 * ds.n * 4) >= tr.epochs  # one block
    nets = [init_params([2, 4, 4, 1], seed=40 + r) for r in range(3)]
    nets[1].weights[1] *= 1e50
    nets[1].weights[2] *= 1e-100
    for val, epoch, layer in ((ds, 3, 1), (_with_big_first_row(ds, 1e300), 1, 0)):
        with np.errstate(over="ignore", invalid="ignore"):
            results = train(ds, dr, tr, nets, val=val)
        assert isinstance(results[1], TrainingError) and results[1].epoch == epoch
        assert str(results[1]) == (f"training diverged: non-finite pre-activation "
                                   f"at layer {layer} (epoch {epoch})")
        _assert_as_alone(results, ds, dr, tr, nets, (0, 2), val=val)
        with pytest.raises(TrainingError) as alone, np.errstate(over="ignore", invalid="ignore"):
            train(ds, dr, dataclasses.replace(tr, seed=31), nets[1], val=val)
        assert alone.value.epoch == epoch and str(alone.value) == str(results[1])


@pytest.mark.parametrize("where", ["train", "val"])
def test_a_failure_naming_only_stopped_nets_is_raised_not_retried(monkeypatch, where):
    """A stopped net's zero parameters give finite values on finite data, so a
    failure that names only stopped nets (or failed snapshots) cannot pass on
    a retry. Features made non-finite after the dataset's check make every net
    fail and then fail again: the second failure is raised after a few passes,
    and a guard on the pass count keeps a retry loop from hanging the suite."""
    ds, nets = _stack_setup()
    broken = LabeledDataset(ds.features.copy(), ds.labels)
    broken.features[0, 0] = np.nan
    forward, passes = train_module.mlp_forward, []

    def counted(*args):
        passes.append(args)
        assert len(passes) <= 100, "a failure is retried"
        return forward(*args)

    monkeypatch.setattr(train_module, "mlp_forward", counted)
    data, val = (broken, ds) if where == "train" else (ds, broken)
    tr = TrainConfig(epochs=3, batch_size=16, theta_lr=0.05, seed=30)
    with pytest.raises(NumericError, match="non-finite pre-activation at layer 0"):
        train(data, DrFitConfig(alpha=0.5), tr, nets, val=val)
    assert len(passes) <= 20


@pytest.mark.parametrize("batch_size", [16, 66], ids=["minibatch", "one-batch"])
@pytest.mark.parametrize("solver", ["analytic", "numeric", "plain"])
def test_stacked_runs_match_runs_alone_at_the_block_boundaries(monkeypatch, solver, batch_size):
    """With a budget of three epochs per block for the 3-net stack (nine for a
    net alone), runs that end one epoch before, at and after a block boundary,
    and one epoch into the third block, give every net its run alone, trace
    included, with validation and test sets of other sizes."""
    ds, nets = _stack_setup()
    val, test = _toy_data(n=30, seed=8), _toy_data(n=90, seed=9)
    block = 3
    monkeypatch.setattr(train_module, "_BLOCK_FLOATS", block * 3 * test.n * 4)
    dr = DrFitConfig(alpha=0.5, lam=0.05, rho=(1.1, 0.9))
    for epochs in (block - 1, block, block + 1, 2 * block + 1):
        tr = TrainConfig(epochs=epochs, batch_size=batch_size, theta_lr=0.05, omega_lr=0.05,
                         burn_in=1, seed=30, solver=solver)
        results = train(ds, dr, tr, nets, val=val, test=test)
        _assert_as_alone(results, ds, dr, tr, nets, range(3), val=val, test=test)
        assert [t.shape for t in results[0][2].values()] == [(epochs,)] * 4


def test_the_block_budget_bounds_the_memory_of_a_run():
    """At the bench synthetic-numeric shapes (360/40/400 rows, one hidden
    layer of 8) a run's traced peak stays under 1 MiB: about 0.7 MiB with
    10 epochs per block, and 1.3 MiB with a budget of 2**16 floats (20)."""
    train_ds, val, test = (_toy_data(n=n, seed=s) for n, s in ((360, 1), (40, 2), (400, 3)))
    dr = DrFitConfig(alpha=0.35, lam=0.0, rho=(1.0, 1.0))
    tr = TrainConfig(epochs=100, batch_size=360, theta_lr=0.001, omega_lr=0.02, burn_in=3,
                     solver="numeric")
    net = init_params([2, 8, 1], seed=0)
    tracemalloc.start()
    try:
        train(train_ds, dr, tr, net, val=val, test=test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**10:.0f} KiB"


def test_analytic_solver_without_a_class_0_example_fails_before_the_first_step(monkeypatch):
    """The final closed-form weights need an example of every class, so the
    analytic solver raises their ConfigError before the first forward pass;
    plain and numeric, which never form them, still train."""
    ds = _toy_data()
    one_class = LabeledDataset(ds.features, np.ones(ds.n, dtype=int))
    for solver in ("plain", "numeric"):
        tr = TrainConfig(epochs=2, batch_size=16, theta_lr=0.05, burn_in=0, solver=solver)
        _, omega, _ = train(one_class, DrFitConfig(alpha=0.5), tr, init_params([2, 4, 1], seed=1))
        assert omega.shape == (ds.n,)
    passes = []
    monkeypatch.setattr(train_module, "mlp_forward", lambda *args: passes.append(args))
    tr = TrainConfig(epochs=2, batch_size=16, theta_lr=0.05)
    with pytest.raises(ConfigError, match="class 0 has no examples"):
        train(one_class, DrFitConfig(alpha=0.5), tr, init_params([2, 4, 1], seed=1))
    assert passes == []


def test_a_label_outside_the_classes_fails_before_the_first_step(monkeypatch):
    """The labels are checked once per run, before any step: a label 2
    raises ValueError before the first forward pass."""
    ds = _toy_data()
    labels = ds.labels.copy()
    labels[5] = 2
    passes = []
    monkeypatch.setattr(train_module, "mlp_forward", lambda *args: passes.append(args))
    tr = TrainConfig(epochs=2, batch_size=16, theta_lr=0.05)
    with pytest.raises(ValueError, match=r"labels must be integers in \[0, 2\)"):
        train(LabeledDataset(ds.features, labels), DrFitConfig(alpha=0.5), tr,
              init_params([2, 4, 1], seed=1))
    assert passes == []


@pytest.mark.parametrize("exc", [
    TrainingError("training diverged: non-finite training loss", 3),
    NumericError("non-finite pre-activation at layer 0", np.array([False, True, False])),
    BudgetError("all weights of class 0 are zero", np.array(True)),
], ids=lambda exc: type(exc).__name__)
def test_training_exceptions_survive_a_process_boundary(exc):
    """A worker sends its exception pickled: it comes back with its type,
    message, epoch and failed nets."""
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc) and back.args == exc.args
    for field in ("epoch", "bad"):
        assert np.array_equal(getattr(back, field, None), getattr(exc, field, None))
    if isinstance(exc, TrainingError):
        assert str(back).endswith(f"(epoch {exc.epoch})")
