"""Closed-form weights, the collapsed objective, and their identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drfit.core import (
    ClassPartition,
    ConfigError,
    DrFitConfig,
    analytic_weights,
    closed_form_weights,
    entropy_penalty,
    full_objective,
    objective_constant,
    reduced_loss,
    reduced_loss_grad,
    scale_to_budgets,
)
from drfit.nn import MlpParams, mlp_forward, per_example_loss
from drfit.theory import log_sigma2


def test_weights_hand_value_single_class():
    """losses (0, ln 3), alpha 1, budget 1: softmax of -loss scaled to the
    class size gives (1.5, 0.5)."""
    losses = np.array([0.0, math.log(3.0)])
    part = ClassPartition.from_labels(np.array([0, 0]))
    cfg = DrFitConfig(alpha=1.0, lam=0.0, rho=(1.0,))
    w = analytic_weights(losses, part, cfg)
    assert np.allclose(w, [1.5, 0.5], atol=1e-12)
    h = reduced_loss(losses, 0.0, part, cfg)
    assert math.isclose(h, -2.0 * math.log(4.0 / 3.0), rel_tol=1e-12)


def test_full_objective_hand_value():
    losses = np.array([0.0, math.log(3.0)])
    cfg = DrFitConfig(alpha=1.0, lam=0.0, rho=(1.0,))
    omega = np.array([1.5, 0.5])
    expect = (
        0.5 * math.log(3.0)
        + (1.5 * math.log(1.5) - 1.5)
        + (0.5 * math.log(0.5) - 0.5)
    )
    assert math.isclose(full_objective(losses, omega, 0.0, cfg), expect, rel_tol=1e-12)
    assert math.isclose(
        entropy_penalty(omega),
        (1.5 * math.log(1.5) - 1.5) + (0.5 * math.log(0.5) - 0.5),
        rel_tol=1e-12,
    )


def test_entropy_penalty_handles_zero_weight():
    assert entropy_penalty(np.array([0.0, 1.0])) == pytest.approx(-1.0)


def _random_instance(rng):
    k = int(rng.integers(1, 3))
    sizes = rng.integers(2, 4, size=k)
    labels = np.repeat(np.arange(k), sizes)
    losses = rng.uniform(0.0, 2.0, size=labels.size)
    rho = tuple(float(r) for r in rng.uniform(0.7, 1.3, size=k))
    alpha = float(rng.choice([0.5, 1.0, 2.0]))
    part = ClassPartition.from_labels(labels)
    cfg = DrFitConfig(alpha=alpha, lam=0.0, rho=rho)
    return losses, part, cfg


def _class_grid(total, size, step=0.01):
    """All nonnegative vectors whose first size-1 coordinates sit on the
    step lattice and that sum exactly to total."""
    axis = np.arange(0.0, total + step / 2, step)
    if size == 2:
        first = axis[axis <= total]
        return np.column_stack([first, total - first])
    a, b = np.meshgrid(axis, axis, indexing="ij")
    rest = total - a - b
    keep = rest >= -1e-12
    return np.column_stack([a[keep], b[keep], np.maximum(rest[keep], 0.0)])


@pytest.mark.slow
def test_closed_form_beats_simplex_grid():
    """Because the objective separates over classes, sweep each class's
    constrained simplex on a 0.01 lattice and compare against the closed
    form, which must win everywhere."""
    rng = np.random.default_rng(42)
    for _ in range(5):
        losses, part, cfg = _random_instance(rng)
        omega_hat = analytic_weights(losses, part, cfg)
        best = full_objective(losses, omega_hat, 0.0, cfg)
        rho = cfg.rho_for(part.n_classes)
        for k, members in enumerate(part.classes):
            budget = rho[k] * members.size
            grid = _class_grid(budget, members.size)
            trial = np.tile(omega_hat, (grid.shape[0], 1))
            trial[:, members] = grid
            values = [full_objective(losses, t, 0.0, cfg) for t in trial]
            assert best <= min(values) + 1e-10


def test_collapse_identity_random_instances():
    """full_objective at the closed-form weights equals the collapsed loss
    plus the constant alpha * sum(n_k log n_k - n_k)."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        losses, part, cfg = _random_instance(rng)
        theta_sq = float(rng.uniform(0.0, 4.0))
        cfg = DrFitConfig(alpha=cfg.alpha, lam=0.5, rho=cfg.rho)
        omega_hat = analytic_weights(losses, part, cfg)
        lhs = full_objective(losses, omega_hat, theta_sq, cfg)
        rhs = reduced_loss(losses, theta_sq, part, cfg) + objective_constant(part, cfg)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_weights_shift_invariant_and_loss_shifts_linearly():
    """Adding a constant c to every loss in a class leaves the weights
    unchanged and moves the collapsed loss by rho_k * n_k * c."""
    rng = np.random.default_rng(3)
    losses, part, cfg = _random_instance(rng)
    shifted = losses.copy()
    members = part.classes[0]
    c = 0.37
    shifted[members] += c
    w0 = analytic_weights(losses, part, cfg)
    w1 = analytic_weights(shifted, part, cfg)
    assert np.allclose(w0, w1, atol=1e-12)
    rho = cfg.rho_for(part.n_classes)
    h0 = reduced_loss(losses, 0.0, part, cfg)
    h1 = reduced_loss(shifted, 0.0, part, cfg)
    assert math.isclose(h1 - h0, rho[0] * members.size * c, rel_tol=1e-10)


def test_weights_decrease_with_loss_within_class():
    losses = np.array([0.1, 0.9, 0.4, 1.3, 0.2, 0.8])
    labels = np.array([0, 0, 0, 1, 1, 1])
    part = ClassPartition.from_labels(labels)
    cfg = DrFitConfig(alpha=0.7, lam=0.0, rho=(1.2, 0.9))
    w = analytic_weights(losses, part, cfg)
    for members in part.classes:
        order = np.argsort(losses[members])
        assert np.all(np.diff(w[members][order]) < 0)
    # budgets: each class's weights sum to rho_k * n_k
    assert math.isclose(w[:3].sum(), 1.2 * 3, rel_tol=1e-12)
    assert math.isclose(w[3:].sum(), 0.9 * 3, rel_tol=1e-12)


def test_reduced_loss_grad_matches_finite_differences():
    """Linear per-example losses l_i = A_i . theta + c_i make the chain rule
    explicit: grad = omega @ A + lam * theta."""
    rng = np.random.default_rng(11)
    n, d = 7, 4
    a = rng.normal(size=(n, d))
    c = rng.uniform(0.0, 1.0, size=n)
    theta = rng.normal(size=d)
    labels = np.array([0, 0, 0, 0, 1, 1, 1])
    part = ClassPartition.from_labels(labels)
    cfg = DrFitConfig(alpha=0.8, lam=0.4, rho=(1.1, 0.9))

    losses = a @ theta + c
    grad = reduced_loss_grad(a, losses, theta, part, cfg)
    h = 1e-6
    fd = np.empty(d)
    for i in range(d):
        t_up, t_dn = theta.copy(), theta.copy()
        t_up[i] += h
        t_dn[i] -= h
        up = reduced_loss(a @ t_up + c, t_up @ t_up, part, cfg)
        dn = reduced_loss(a @ t_dn + c, t_dn @ t_dn, part, cfg)
        fd[i] = (up - dn) / (2 * h)
    assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-7


def test_partition_restrict_and_empty_class():
    part = ClassPartition([np.array([], dtype=np.int64), np.array([0, 1, 2])])
    assert part.n_classes == 2
    assert part.classes[0].size == 0
    cfg = DrFitConfig(alpha=1.0, lam=0.0, rho=(1.0, 1.0))
    with pytest.raises(ConfigError):
        analytic_weights(np.ones(3), part, cfg)
    with pytest.raises(ValueError):
        analytic_weights(np.ones(4), ClassPartition.from_labels(np.array([0, 1, 1])), cfg)


def test_scale_to_budgets_hand_example():
    """Pre-update weights (0.9, 0.55, 0.95) in one class with budget 1 are
    scaled by 3/2.4."""
    omega = np.array([0.9, 0.55, 0.95])
    scale_to_budgets(omega, np.zeros(3, dtype=int), np.array([1.0]))
    assert np.allclose(omega, [1.125, 0.6875, 1.1875], atol=1e-12)


def test_scale_to_budgets_rejects_fully_clipped_class():
    omega = np.array([0.0, 0.0])
    with pytest.raises(ValueError):
        scale_to_budgets(omega, np.zeros(2, dtype=int), np.array([1.0]))


def test_config_validation():
    with pytest.raises(ConfigError):
        DrFitConfig(alpha=0.0, lam=0.0, rho=None)
    with pytest.raises(ConfigError):
        DrFitConfig(alpha=1.0, lam=-0.1, rho=None)
    with pytest.raises(ConfigError):
        DrFitConfig(alpha=1.0, lam=0.0, rho=(1.0, -0.5))
    cfg = DrFitConfig(alpha=1.0, lam=0.0, rho=(1.25, 0.75))
    with pytest.raises(ConfigError):
        cfg.rho_for(3)
    assert np.allclose(DrFitConfig(alpha=1.0, lam=0.0, rho=None).rho_for(2), 1.0)


@st.composite
def _weight_problem(draw):
    """Losses, labels in [0, k) (a class may be absent) and positive rho."""
    losses = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30)))
    k = draw(st.integers(1, 3))
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=losses.size,
                                    max_size=losses.size)))
    rho = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k)))
    return losses, labels, rho


@settings(max_examples=200, deadline=None)
@given(problem=_weight_problem(), alpha=st.floats(0.1, 10.0))
def test_closed_form_weights_meet_every_budget(problem, alpha):
    losses, labels, rho = problem
    w = closed_form_weights(losses, labels, rho, alpha)
    for c in np.unique(labels):
        sel = labels == c
        assert math.isclose(w[sel].sum(), rho[c] * sel.sum(), rel_tol=1e-9)


@settings(max_examples=200, deadline=None)
@given(problem=_weight_problem(), alpha=st.floats(0.1, 10.0), data=st.data())
def test_padded_entries_get_no_weight_and_leave_the_budgets(problem, alpha, data):
    """Entries marked invalid (the padding of a stacked batch) get weight 0,
    and the valid ones get the weights of the batch without the padding."""
    losses, labels, rho = problem
    valid = np.array(data.draw(st.lists(st.booleans(), min_size=labels.size,
                                        max_size=labels.size)))
    w = closed_form_weights(losses, labels, rho, alpha, valid)
    assert np.all(w[~valid] == 0.0)
    for c in np.unique(labels[valid]):
        sel = valid & (labels == c)
        assert math.isclose(w[sel].sum(), rho[c] * sel.sum(), rel_tol=1e-9)
    if valid.any():
        np.testing.assert_allclose(w[valid], closed_form_weights(losses[valid], labels[valid],
                                                                  rho, alpha), rtol=1e-12)
    scaled = scale_to_budgets(losses + 1.0, labels, rho, valid)
    assert np.all(scaled[~valid] == 0.0)
    np.testing.assert_allclose(scaled[valid], scale_to_budgets(losses[valid] + 1.0, labels[valid],
                                                               rho), rtol=1e-12)


def test_weights_of_stacked_rows_equal_the_per_row_calls():
    rng = np.random.default_rng(3)
    losses = rng.uniform(0.0, 5.0, size=(4, 9))
    labels = rng.integers(2, size=(4, 9))
    rho = np.array([1.25, 0.8])
    stacked = closed_form_weights(losses, labels, rho, 0.7)
    scaled = scale_to_budgets(losses.copy(), labels, rho)
    shared = closed_form_weights(losses, labels[0], rho, 0.7)
    for r in range(4):
        assert np.array_equal(stacked[r], closed_form_weights(losses[r], labels[r], rho, 0.7))
        assert np.array_equal(scaled[r], scale_to_budgets(losses[r].copy(), labels[r], rho))
        assert np.array_equal(shared[r], closed_form_weights(losses[r], labels[0], rho, 0.7))
    losses[2] = 0.0
    with pytest.raises(ValueError) as err:
        scale_to_budgets(losses, labels, rho)
    assert err.value.bad.tolist() == [False, False, True, False]


@settings(max_examples=200, deadline=None)
@given(problem=_weight_problem(), alpha=st.floats(0.1, 10.0),
       shift=st.floats(-5.0, 5.0), pick=st.integers(0, 2))
def test_closed_form_weights_ignore_a_per_class_loss_shift(problem, alpha, shift, pick):
    losses, labels, rho = problem
    c = labels[pick % labels.size]
    shifted = np.where(labels == c, losses + shift, losses)
    np.testing.assert_allclose(
        closed_form_weights(shifted, labels, rho, alpha),
        closed_form_weights(losses, labels, rho, alpha),
        rtol=1e-12, atol=0,
    )


@settings(max_examples=200, deadline=None)
@given(problem=_weight_problem(), data=st.data())
def test_scale_to_budgets_is_idempotent(problem, data):
    _, labels, rho = problem
    omega = np.array(data.draw(st.lists(st.floats(0.01, 10.0), min_size=labels.size,
                                        max_size=labels.size)))
    once = scale_to_budgets(omega.copy(), labels, rho)
    twice = scale_to_budgets(once.copy(), labels, rho)
    np.testing.assert_allclose(twice, once, rtol=1e-12, atol=0)


@settings(max_examples=200, deadline=None)
@given(z=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=30),
       alpha=st.floats(0.1, 10.0), data=st.data())
def test_weights_of_logistic_losses_are_the_theory_weights_at_b_one_over_alpha(z, alpha, data):
    """The logistic loss is -log sigma2(sz) with s = 2y - 1, so the weights
    exp(-loss/alpha) of a class, normalised to its budget, are the
    normalised powers sigma2(sz)^b with b = 1/alpha."""
    z = np.array(z)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=z.size,
                                         max_size=z.size)))
    rho = np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=2)))
    net = MlpParams(weights=[z[:, None]], biases=[np.zeros(1)])
    losses = per_example_loss(mlp_forward(net, np.eye(z.size)), labels)
    power = np.exp(log_sigma2((2 * labels - 1) * z) / alpha)
    expected = np.empty_like(z)
    for c in np.unique(labels):
        sel = labels == c
        expected[sel] = rho[c] * sel.sum() * power[sel] / power[sel].sum()
    np.testing.assert_allclose(closed_form_weights(losses, labels, rho, alpha), expected,
                               rtol=1e-9, atol=0)
