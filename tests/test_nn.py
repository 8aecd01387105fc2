"""Forward/backward checks for the dense network layer."""

import math

import numpy as np
import pytest
from scipy.special import expit, log_expit

from drfit.nn import (
    _ONE_THREAD_MACS,
    ForwardCache,
    MlpParams,
    NumericError,
    init_params,
    mlp_forward,
    one_thread_rows,
    per_example_loss,
    weighted_backward,
)
from drfit.theory import log_sigma2


def _softmax_oracle(z, labels, omega):
    """Loss and score gradient of the two-score softmax head over (-z, z):
    loss = logsumexp(scores) - scores[label], and dz = d_1 - d_0 for
    d = omega * (softmax(scores) - onehot(label))."""
    scores = np.stack([-z, z], axis=-1)
    top = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - top)
    lse = top[..., 0] + np.log(e.sum(axis=-1))
    picked = np.take_along_axis(scores, labels[..., None], axis=-1)[..., 0]
    d = e / e.sum(axis=-1, keepdims=True) - np.eye(2)[labels]
    d *= omega[..., None]
    return lse - picked, d[..., 1] - d[..., 0]


def _score_net(z):
    """A one-layer net that emits the scores z on the identity batch, so the
    gradient of its weights is the score gradient dz itself."""
    params = MlpParams(weights=[np.asarray(z, dtype=np.float64)[:, None]],
                       biases=[np.zeros(1)])
    return params, mlp_forward(params, np.eye(len(z)))


def _seeded_net_and_batch(seed, layer_sizes):
    """Net plus batch whose hidden pre-activations stay away from the relu
    kink, so finite differences of the loss are trustworthy."""
    rng = np.random.default_rng(seed)
    params = init_params(layer_sizes, seed=seed)
    for _ in range(50):
        x = rng.normal(size=(6, layer_sizes[0]))
        cache = mlp_forward(params, x)
        margin = min(np.abs(z).min() for z in cache.pre_acts)
        if margin > 1e-3:
            labels = rng.integers(2, size=x.shape[0])
            return params, x, labels
    raise AssertionError("could not find a batch clear of activation kinks")


def _weighted_loss(params, x, labels, omega, lam, head):
    cache = mlp_forward(params, x)
    if head == "logistic":
        losses = per_example_loss(cache, labels)
    else:
        losses, _ = _softmax_oracle(cache.scores, labels, omega)
    theta = params.flatten()
    return float(omega @ losses + 0.5 * lam * theta @ theta)


def _fd_gradient(params, x, labels, omega, lam, head, h=1e-6):
    theta = params.flatten()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        up = _weighted_loss(params.unflatten(theta + step), x, labels, omega, lam, head)
        dn = _weighted_loss(params.unflatten(theta - step), x, labels, omega, lam, head)
        grad[i] = (up - dn) / (2 * h)
    return grad


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "layer_sizes,head",
    [
        ([3, 5, 1], "logistic"),
        # differences of the two-score softmax loss of the oracle, not of
        # per_example_loss, so the gradient is checked against that head too
        ([3, 4, 1], "softmax"),
        ([2, 1], "logistic"),
    ],
    ids=["layer_sizes0-relu-logistic", "layer_sizes1-relu-softmax", "layer_sizes2-relu-logistic"],
)
def test_backward_matches_finite_differences(seed, layer_sizes, head):
    params, x, labels = _seeded_net_and_batch(seed, layer_sizes)
    rng = np.random.default_rng(seed + 100)
    omega = rng.uniform(0.2, 2.0, size=x.shape[0])
    lam = 0.3
    cache = mlp_forward(params, x)
    grad = weighted_backward(params, cache, labels, omega, lam)
    fd = _fd_gradient(params, x, labels, omega, lam, head)
    scale = np.maximum(np.abs(fd), 1.0)
    assert np.max(np.abs(grad - fd) / scale) < 1e-5


def test_forward_hand_value_logistic():
    """Single linear unit: the score is z = w.x + b, and the label-1 loss
    is log(1 + e^{-2z})."""
    params = MlpParams(
        weights=[np.array([[2.0], [-1.0]])],
        biases=[np.array([0.5])],
    )
    x = np.array([[1.0, 1.0], [0.0, 2.0]])
    cache = mlp_forward(params, x)
    z = np.array([1.5, -1.5])
    assert np.allclose(cache.scores, z)
    loss1 = per_example_loss(cache, np.array([1, 1]))
    assert np.allclose(loss1, np.log1p(np.exp(-2 * z)))
    loss0 = per_example_loss(cache, np.array([0, 0]))
    assert np.allclose(loss0, np.log1p(np.exp(2 * z)))


def test_logistic_and_softmax_routes_agree():
    """The closed-form logistic loss and score gradient equal those of the
    two-score softmax head over (-z, z)."""
    rng = np.random.default_rng(5)
    z = rng.uniform(-3.0, 3.0, size=200)
    labels = rng.integers(2, size=200)
    omega = rng.uniform(0.0, 2.0, size=200)
    params, cache = _score_net(z)
    assert np.array_equal(cache.scores, z)
    loss, dz = _softmax_oracle(z, labels, omega)
    assert np.allclose(per_example_loss(cache, labels), loss, rtol=1e-12, atol=0)
    grad = weighted_backward(params, cache, labels, omega)
    assert np.allclose(grad[:-1], dz, rtol=1e-12, atol=0)
    assert grad[-1] == pytest.approx(dz.sum(), rel=1e-12)


def test_loss_equals_negative_log_probability():
    """loss = -log sigma2(sz) with s = 2y - 1, sigma2(t) = e^t / (e^t + e^-t),
    the class probability of the theory module; loss and score gradient stay
    finite, with no floating-point exception, far out in both tails."""
    z = np.array([-800.0, -40.0, -3.0, -0.0, 0.0, 1e-300, 2.5, 40.0, 800.0])
    params, cache = _score_net(np.concatenate([z, z]))
    labels = np.repeat([0, 1], z.size)
    s = 2 * labels - 1
    omega = np.ones(labels.size)
    with np.errstate(all="raise"):
        loss = per_example_loss(cache, labels)
        grad = weighted_backward(params, cache, labels, omega)
    assert np.all(np.isfinite(loss)) and np.all(np.isfinite(grad))
    assert np.allclose(loss, -log_sigma2(s * cache.scores), rtol=1e-12, atol=0)
    # at z = -800 and 800: label 0, label 0, label 1, label 1
    far = [0, z.size - 1, z.size, -1]
    assert loss[far].tolist() == [0.0, 1600.0, 1600.0, 0.0]
    assert grad[:-1][far].tolist() == [0.0, 2.0, -2.0, 0.0]


_TAILS = [-800.0, 800.0, -745.2, 745.2, -709.8, 709.8, -37.0, 37.0, -0.0, 0.0,
          1e-300, -1e-300, 5e-324, -5e-324]


def test_loss_is_scipy_log_expit_to_the_bit():
    """np.logaddexp(0, -2sz) runs the branches of scipy's log_expit: the
    loss equals -log_expit(2sz) bit for bit, tails and signed zeros too."""
    rng = np.random.default_rng(11)
    z = np.concatenate([np.linspace(-1600.0, 1600.0, 64001), rng.standard_normal(20000) * 20,
                        _TAILS])
    cache = ForwardCache(inputs=z[:, None], pre_acts=[z[:, None]], acts=[z[:, None]], scores=z)
    for label in (0, 1):
        loss = per_example_loss(cache, np.full(z.size, label))
        expected = -log_expit((2.0 * label - 1.0) * 2.0 * z)
        assert np.array_equal(loss, expected)
        assert np.array_equal(np.signbit(loss), np.signbit(expected))


def test_score_gradient_sigmoid_matches_scipy_expit():
    """The score gradient -2s omega sigma(-2sz), with sigma(v) = 1/(1 + e^{-v})
    in numpy, is within 1e-15 relative of the same product with scipy's expit."""
    z = np.concatenate([np.linspace(-800.0, 800.0, 801), np.linspace(-40.0, 40.0, 401), _TAILS])
    params, cache = _score_net(z)
    omega = np.ones(z.size)
    for label in (0, 1):
        labels = np.full(z.size, label)
        signs = 2.0 - 4.0 * labels  # -2s
        grad = weighted_backward(params, cache, labels, omega)
        np.testing.assert_allclose(grad[:-1], signs * expit(signs * cache.scores),
                                   rtol=1e-15, atol=0)


def test_flatten_unflatten_roundtrip():
    params = init_params([4, 6, 1], seed=9)
    vec = params.flatten()
    back = params.unflatten(vec)
    for w1, w2 in zip(params.weights, back.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(params.biases, back.biases):
        assert np.array_equal(b1, b2)
    assert params.n_params == vec.size == 4 * 6 + 6 + 6 * 1 + 1


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
    with pytest.raises(ValueError, match=r"batch \(4, 5\) does not match input width 3"):
        mlp_forward(params, np.zeros((4, 5)))
    cache = mlp_forward(params, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        per_example_loss(cache, np.array([0, 1, 2, 0]))
    with pytest.raises(ValueError):  # a label must be a class, not a probability
        weighted_backward(params, cache, np.array([0.0, 0.5, 1.0, 1.0]), np.ones(4))
    with pytest.raises(ValueError):
        MlpParams(weights=[np.zeros((3, 2))], biases=[np.zeros(3)])
    with pytest.raises(ValueError):
        MlpParams(
            weights=[np.zeros((3, 2)), np.zeros((4, 1))],
            biases=[np.zeros(2), np.zeros(1)],
        )
    with pytest.raises(ValueError):  # the logistic head has one final unit
        MlpParams(weights=[np.zeros((3, 2))], biases=[np.zeros(2)])


def test_nonfinite_activations_raise():
    params = init_params([2, 3, 1], seed=1)
    x = np.array([[1.0, np.inf]])
    with pytest.raises(NumericError):
        mlp_forward(params, x)


@pytest.mark.parametrize(
    "layer_sizes",
    [[3, 5, 1], [3, 4, 1]],
    ids=["layer_sizes0-relu-logistic", "layer_sizes1-relu-logistic"],
)
def test_stacked_kernels_equal_the_per_net_calls(layer_sizes):
    """Nets stacked on a leading axis give, slice by slice, the forward
    pass, losses and gradients of the nets one at a time, both with one
    batch per net and with one batch shared by all of them."""
    rng = np.random.default_rng(7)
    nets = [init_params(layer_sizes, seed=s) for s in range(3)]
    flat = np.stack([p.flatten() for p in nets])
    stacked = nets[0].unflatten(flat)
    x = rng.normal(size=(3, 6, layer_sizes[0]))
    labels = rng.integers(2, size=(3, 6))
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


@pytest.mark.parametrize("n_in, n_out", [(196, 8), (8, 1), (64, 64), (512, 512), (513, 512),
                                         (2**18 + 1, 1)])
def test_one_thread_rows_bounds_a_product_by_the_one_thread_size(n_in, n_out):
    """rows > one_thread_rows(n_in, n_out) exactly when a product of that many
    rows passes the one-thread size, so a 1-row step through a layer past it
    keeps one shard, while mlp_forward still takes blocks of at least 1 row."""
    k = one_thread_rows(n_in, n_out)
    for rows in (1, max(k, 1), k + 1):
        assert (rows > k) == (rows * n_in * n_out > _ONE_THREAD_MACS)
    assert (k == 0) == (n_in * n_out > _ONE_THREAD_MACS)
