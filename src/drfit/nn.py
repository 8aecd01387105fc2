"""Dense feed-forward networks on numpy arrays.

Tiny networks, 64-bit floats, exact per-example losses and weighted
backpropagation. No autodiff framework: the gradient code is written out
and checked against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# OpenBLAS runs a product of at most 2**18 multiply-adds on one thread; larger
# ones wake worker threads that then spin through the steps' small products
_ONE_THREAD_MACS = 2**18


class NumericError(FloatingPointError):
    """A non-finite value; `bad` marks the failed nets of a stack."""

    def __init__(self, msg: str, bad: np.ndarray):
        super().__init__(msg)
        self.bad = bad

    def __reduce__(self):  # pickled with bad, which its constructor needs
        return type(self), (*self.args, self.bad)


@dataclass
class MlpParams:
    """Weights and biases of a dense feed-forward net with relu hidden units.

    weights[i] has shape (n_in, n_out); biases[i] has shape (n_out,).
    R nets stacked carry a leading axis: (R, n_in, n_out) and (R, n_out).
    The head is logistic: the final layer has a single unit z, the score,
    and P(y=1 | x) = e^z / (e^z + e^{-z}), the softmax of the class
    scores (-z, +z).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one bias vector per weight matrix")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim < 2 or b.shape != w.shape[:-2] + w.shape[-1:]:
                raise ValueError(f"layer {i}: weight {w.shape} vs bias {b.shape}")
            if i > 0 and self.weights[i - 1].shape[-1] != w.shape[-2]:
                raise ValueError(f"layer {i - 1} emits {self.weights[i - 1].shape[-1]} "
                                 f"features, layer {i} expects {w.shape[-2]}")
        if self.weights[-1].shape[-1] != 1:
            raise ValueError("the logistic head needs a single final unit")

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[-2]

    @property
    def n_params(self) -> int:
        """Parameters of one net."""
        return sum(w.shape[-2] * w.shape[-1] + b.shape[-1] for w, b in zip(self.weights, self.biases))

    def flatten(self) -> np.ndarray:
        """Flattened parameter vector, one row per stacked net; inverse of unflatten."""
        return np.concatenate([a for w, b in zip(self.weights, self.biases)
                               for a in (w.reshape(*w.shape[:-2], -1), b)], axis=-1)

    def unflatten(self, vec: np.ndarray) -> "MlpParams":
        """Parameters laid out as flatten() lays them out, one net per row of
        vec; the arrays are views of vec, so writes to either show in both."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape[-1:] != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {vec.shape}")
        return MlpParams(*self._views(vec))

    def _views(self, vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        weights, biases, k = [], [], 0
        for w, b in zip(self.weights, self.biases):
            n_w = w.shape[-2] * w.shape[-1]
            weights.append(vec[..., k : k + n_w].reshape(*vec.shape[:-1], *w.shape[-2:]))
            biases.append(vec[..., k + n_w : k + n_w + b.shape[-1]])
            k += n_w + b.shape[-1]
        return weights, biases

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_params(layer_sizes: list[int], seed: int) -> MlpParams:
    """Seeded He-style uniform initialisation, zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / n_in)
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpParams(weights, biases)


@dataclass
class ForwardCache:
    """Intermediate activations of one forward pass over a batch."""

    inputs: np.ndarray
    pre_acts: list[np.ndarray]
    acts: list[np.ndarray]
    scores: np.ndarray  # (..., n) the final unit z of each example


def one_thread_rows(n_in: int, n_out: int) -> int:
    """The most rows whose product through an n_in x n_out layer OpenBLAS
    runs on one thread; 0 when one row is already past it."""
    return _ONE_THREAD_MACS // (n_in * n_out)


def mlp_forward(params: MlpParams, batch: np.ndarray) -> ForwardCache:
    """Run the net on a batch (one example per row), keeping intermediates.
    Stacked nets take one batch per net, (R, n, n_in), or one batch shared
    by all of them, (n, n_in), which matmul broadcasts without copying."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != params.n_in:
        raise ValueError(f"batch {x.shape} does not match input width {params.n_in}")
    pre_acts, acts, a = [], [], x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        step = max(1, one_thread_rows(w.shape[-2], w.shape[-1]))
        if a.shape[-2] <= step:
            z = a @ w
        else:  # row blocks, of the same shapes alone and stacked
            lead = np.broadcast_shapes(a.shape[:-2], w.shape[:-2])  # a shared batch broadcasts
            z = np.empty((*lead, a.shape[-2], w.shape[-1]))
            for r in range(0, a.shape[-2], step):
                np.matmul(a[..., r : r + step, :], w, out=z[..., r : r + step, :])
        z += b[..., None, :]
        if not np.isfinite(z).all():  # name the layer and its failed nets
            raise NumericError(f"non-finite pre-activation at layer {i}",
                               ~np.isfinite(z).all(axis=(-2, -1)))
        pre_acts.append(z)
        a = z if i == len(params.weights) - 1 else np.maximum(z, 0.0)
        acts.append(a)
    return ForwardCache(inputs=x, pre_acts=pre_acts, acts=acts, scores=pre_acts[-1][..., 0])


class Signs(np.ndarray):
    """Labels y checked once, as -2s with s = 2y - 1 (the loss is softplus(-2s z)):
    per_example_loss and weighted_backward take them unchecked. Slices stay Signs."""


def label_signs(labels: np.ndarray) -> Signs:
    """The Signs of integer labels in [0, 2); ValueError for any other label."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" or labels.min(initial=0) < 0 or labels.max(initial=0) > 1:
        raise ValueError("labels must be integers in [0, 2)")
    return (2.0 - 4.0 * labels).view(Signs)


def _signs(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """-2s for labels or their Signs, as a plain array. Labels of shape (n,)
    are shared by all stacked nets, (R, n) give one row per net."""
    signs = labels if isinstance(labels, Signs) else label_signs(labels)
    if signs.shape != scores.shape[scores.ndim - signs.ndim :]:
        raise ValueError(f"labels {signs.shape} vs scores {scores.shape}")
    return signs.view(np.ndarray)


def per_example_loss(cache: ForwardCache, labels: np.ndarray) -> np.ndarray:
    """Cross-entropy loss per example: -log p(label) = log(1 + e^{-2sz})."""
    with np.errstate(under="ignore"):  # e^{-2sz} underflows where the loss is 0 or -2sz
        return np.logaddexp(0.0, _signs(cache.scores, labels) * cache.scores)


def weighted_backward(params: MlpParams, cache: ForwardCache, labels: np.ndarray,
                      omega: np.ndarray, lam: float = 0.0,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of sum_i omega_i * loss_i + (lam/2)*||theta||^2, flattened (one row
    per stacked net), written into out when given. Unchecked: a non-finite gradient
    makes the parameters it updates non-finite, which the next mlp_forward reports."""
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != cache.scores.shape:
        raise ValueError(f"omega {omega.shape} vs scores {cache.scores.shape}")
    if omega.min(initial=0.0) < 0:
        raise ValueError("observation weights must be nonnegative")
    # d/dz softplus(-2s z) = -2s sigma(-2s z); sigma(v) = 1/(1 + e^{-v}) saturates at 0 and 1
    signs = _signs(cache.scores, labels)
    with np.errstate(over="ignore", under="ignore"):
        d_z = (signs * omega * (1.0 / (1.0 + np.exp(signs * -cache.scores))))[..., None]
    grad = np.empty(cache.scores.shape[:-1] + (params.n_params,)) if out is None else out
    grads_w, grads_b = params._views(grad)
    for i in range(len(params.weights) - 1, -1, -1):
        a_prev = cache.inputs if i == 0 else cache.acts[i - 1]
        np.matmul(a_prev.swapaxes(-1, -2), d_z, out=grads_w[i])
        np.add.reduce(d_z, axis=-2, out=grads_b[i])
        if i > 0:  # the relu derivative, as 1.0 and 0.0
            d_z = (d_z @ params.weights[i].swapaxes(-1, -2)) * (cache.pre_acts[i - 1] > 0.0)
    if lam != 0.0:
        grad += lam * params.flatten()
    return grad
