"""Forward/backward checks for the dense network layer."""

import math

import numpy as np
import pytest

from drfit.nn import (
    MlpParams,
    NumericError,
    ShapeError,
    init_params,
    mlp_forward,
    per_example_loss,
    softmax_probs,
    weighted_backward,
)


def _seeded_net_and_batch(seed, layer_sizes, activation="relu", output="logistic"):
    """Net plus batch whose hidden pre-activations stay away from the relu
    kink, so finite differences of the loss are trustworthy."""
    rng = np.random.default_rng(seed)
    params = init_params(layer_sizes, seed=seed, activation=activation, output=output)
    for _ in range(50):
        x = rng.normal(size=(6, layer_sizes[0]))
        cache = mlp_forward(params, x)
        margin = min(np.abs(z).min() for z in cache.pre_acts)
        if activation != "relu" or margin > 1e-3:
            labels = rng.integers(params.n_classes, size=x.shape[0])
            return params, x, labels
    raise AssertionError("could not find a batch clear of activation kinks")


def _weighted_loss(params, x, labels, omega, lam):
    cache = mlp_forward(params, x)
    losses = per_example_loss(cache, labels)
    theta = params.flatten()
    return float(omega @ losses + 0.5 * lam * theta @ theta)


def _fd_gradient(params, x, labels, omega, lam, h=1e-6):
    theta = params.flatten()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        up = _weighted_loss(params.unflatten(theta + step), x, labels, omega, lam)
        dn = _weighted_loss(params.unflatten(theta - step), x, labels, omega, lam)
        grad[i] = (up - dn) / (2 * h)
    return grad


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "layer_sizes,activation,output",
    [
        ([3, 5, 1], "relu", "logistic"),
        ([3, 4, 3], "identity", "softmax"),
        ([2, 1], "relu", "logistic"),
    ],
)
def test_backward_matches_finite_differences(seed, layer_sizes, activation, output):
    params, x, labels = _seeded_net_and_batch(seed, layer_sizes, activation, output)
    rng = np.random.default_rng(seed + 100)
    omega = rng.uniform(0.2, 2.0, size=x.shape[0])
    lam = 0.3
    cache = mlp_forward(params, x)
    grad = weighted_backward(params, cache, labels, omega, lam)
    fd = _fd_gradient(params, x, labels, omega, lam)
    scale = np.maximum(np.abs(fd), 1.0)
    assert np.max(np.abs(grad - fd) / scale) < 1e-5


def test_forward_hand_value_logistic():
    """Single linear unit: z = w.x + b, scores (-z, +z), and the label-1 loss
    is log(1 + e^{-2z})."""
    params = MlpParams(
        weights=[np.array([[2.0], [-1.0]])],
        biases=[np.array([0.5])],
        output="logistic",
    )
    x = np.array([[1.0, 1.0], [0.0, 2.0]])
    cache = mlp_forward(params, x)
    z = np.array([1.5, -1.5])
    assert np.allclose(cache.scores, np.column_stack([-z, z]))
    loss1 = per_example_loss(cache, np.array([1, 1]))
    assert np.allclose(loss1, np.log1p(np.exp(-2 * z)))
    loss0 = per_example_loss(cache, np.array([0, 0]))
    assert np.allclose(loss0, np.log1p(np.exp(2 * z)))


def test_logistic_and_softmax_routes_agree():
    """A logistic net and the softmax net with mirrored columns give the
    same probabilities and losses."""
    rng = np.random.default_rng(5)
    w = rng.normal(size=(4, 1))
    b = rng.normal(size=1)
    x = rng.normal(size=(7, 4))
    labels = rng.integers(2, size=7)
    logistic = MlpParams(weights=[w], biases=[b], output="logistic")
    softmax = MlpParams(
        weights=[np.column_stack([-w[:, 0], w[:, 0]])],
        biases=[np.array([-b[0], b[0]])],
        output="softmax",
    )
    c1, c2 = mlp_forward(logistic, x), mlp_forward(softmax, x)
    assert np.allclose(c1.scores, c2.scores)
    assert np.allclose(softmax_probs(c1.scores), softmax_probs(c2.scores))
    assert np.allclose(per_example_loss(c1, labels), per_example_loss(c2, labels))


def test_softmax_probs_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(5, 3)) * 50
    p = softmax_probs(scores)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.allclose(p, softmax_probs(scores + 123.0))


def test_loss_equals_negative_log_probability():
    params = init_params([3, 4, 3], seed=2, output="softmax")
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 3))
    labels = rng.integers(3, size=6)
    cache = mlp_forward(params, x)
    p = softmax_probs(cache.scores)
    assert np.allclose(
        per_example_loss(cache, labels), -np.log(p[np.arange(6), labels])
    )


def test_flatten_unflatten_roundtrip():
    params = init_params([4, 6, 2], seed=9, output="softmax")
    vec = params.flatten()
    back = params.unflatten(vec)
    for w1, w2 in zip(params.weights, back.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(params.biases, back.biases):
        assert np.array_equal(b1, b2)
    assert params.n_params == vec.size == 4 * 6 + 6 + 6 * 2 + 2


def test_init_params_is_seeded_and_biases_zero():
    a = init_params([5, 3, 1], seed=7)
    b = init_params([5, 3, 1], seed=7)
    c = init_params([5, 3, 1], seed=8)
    assert np.array_equal(a.flatten(), b.flatten())
    assert not np.array_equal(a.flatten(), c.flatten())
    for bias in a.biases:
        assert np.all(bias == 0.0)
    bound = math.sqrt(6.0 / 5.0)
    assert np.all(np.abs(a.weights[0]) <= bound)


def test_shape_and_label_errors():
    params = init_params([3, 2, 1], seed=0)
    with pytest.raises(ShapeError):
        mlp_forward(params, np.zeros((4, 5)))
    cache = mlp_forward(params, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        per_example_loss(cache, np.array([0, 1, 2, 0]))
    with pytest.raises(ShapeError):
        MlpParams(weights=[np.zeros((3, 2))], biases=[np.zeros(3)])
    with pytest.raises(ShapeError):
        MlpParams(
            weights=[np.zeros((3, 2)), np.zeros((4, 1))],
            biases=[np.zeros(2), np.zeros(1)],
            output="logistic",
        )


def test_nonfinite_activations_raise():
    params = init_params([2, 3, 1], seed=1)
    x = np.array([[1.0, np.inf]])
    with pytest.raises(NumericError):
        mlp_forward(params, x)


@pytest.mark.parametrize(
    "layer_sizes,activation,output",
    [([3, 5, 1], "relu", "logistic"), ([3, 4, 3], "identity", "softmax")],
)
def test_stacked_kernels_equal_the_per_net_calls(layer_sizes, activation, output):
    """Nets stacked on a leading axis give, slice by slice, the forward
    pass, losses and gradients of the nets one at a time, both with one
    batch per net and with one batch shared by all of them."""
    rng = np.random.default_rng(7)
    nets = [init_params(layer_sizes, seed=s, activation=activation, output=output)
            for s in range(3)]
    flat = np.stack([p.flatten() for p in nets])
    stacked = nets[0].unflatten(flat)
    k = nets[0].n_classes
    x = rng.normal(size=(3, 6, layer_sizes[0]))
    labels = rng.integers(k, size=(3, 6))
    omega = rng.uniform(0.0, 2.0, size=(3, 6))
    cache = mlp_forward(stacked, x)
    losses = per_example_loss(cache, labels)
    grads = weighted_backward(stacked, cache, labels, omega, 0.3)
    shared = mlp_forward(stacked, x[0])
    shared_losses = per_example_loss(shared, labels[0])
    for r, net in enumerate(nets):
        one = mlp_forward(net, x[r])
        assert np.array_equal(cache.scores[r], one.scores)
        assert np.array_equal(losses[r], per_example_loss(one, labels[r]))
        assert np.array_equal(grads[r], weighted_backward(net, one, labels[r], omega[r], 0.3))
        alone = mlp_forward(net, x[0])
        assert np.array_equal(shared.scores[r], alone.scores)
        assert np.array_equal(shared_losses[r], per_example_loss(alone, labels[0]))
    assert np.array_equal(stacked.flatten(), flat)


def test_nonfinite_values_name_the_failed_nets():
    nets = [init_params([2, 3, 1], seed=s) for s in range(3)]
    nets[1].weights[1] *= np.inf
    stacked = nets[0].unflatten(np.stack([p.flatten() for p in nets]))
    with pytest.raises(NumericError) as err, np.errstate(invalid="ignore"):
        mlp_forward(stacked, np.ones((4, 2)))
    assert err.value.bad.tolist() == [False, True, False]
    assert "layer 1" in str(err.value)
