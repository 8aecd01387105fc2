"""Dense feed-forward networks on numpy arrays.

Tiny networks, 64-bit floats, exact per-example losses and weighted
backpropagation. No autodiff framework: the gradient code is written out
and checked against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "identity")
OUTPUTS = ("logistic", "softmax")


class ShapeError(ValueError):
    pass


class NumericError(FloatingPointError):
    pass


@dataclass
class MlpParams:
    """Weights and biases of a dense feed-forward net.

    weights[i] has shape (n_in, n_out); biases[i] has shape (n_out,).
    With output="logistic" the final layer must have a single unit z and
    the two class scores are (-z, +z), so that
    P(y=1 | x) = e^z / (e^z + e^{-z}). With output="softmax" the final
    layer emits one score per class.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    output: str = "softmax"

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ShapeError("need one bias vector per weight matrix")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.output not in OUTPUTS:
            raise ValueError(f"unknown output kind {self.output!r}")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeError(f"layer {i}: weight {w.shape} vs bias {b.shape}")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ShapeError(
                    f"layer {i - 1} emits {self.weights[i - 1].shape[1]} features, "
                    f"layer {i} expects {w.shape[0]}"
                )
        if self.output == "logistic" and self.weights[-1].shape[1] != 1:
            raise ShapeError("logistic output requires a single final unit")

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_classes(self) -> int:
        return 2 if self.output == "logistic" else self.weights[-1].shape[1]

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def flatten(self) -> np.ndarray:
        """Flattened parameter vector; inverse of unflatten."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def unflatten(self, vec: np.ndarray) -> "MlpParams":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_params,):
            raise ShapeError(f"expected {self.n_params} parameters, got {vec.shape}")
        weights, biases, k = [], [], 0
        for w, b in zip(self.weights, self.biases):
            weights.append(vec[k : k + w.size].reshape(w.shape).copy())
            k += w.size
            biases.append(vec[k : k + b.size].copy())
            k += b.size
        return MlpParams(weights, biases, self.activation, self.output)

    def copy(self) -> "MlpParams":
        return MlpParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.activation,
            self.output,
        )


def init_params(
    layer_sizes: list[int],
    seed: int,
    activation: str = "relu",
    output: str = "logistic",
) -> MlpParams:
    """Seeded He-style uniform initialisation, zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / n_in)
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpParams(weights, biases, activation, output)


@dataclass
class ForwardCache:
    """Intermediate activations of one forward pass over a batch."""

    inputs: np.ndarray
    pre_acts: list[np.ndarray]
    acts: list[np.ndarray]
    scores: np.ndarray  # (n, K) class scores (logits)

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return z


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    return np.ones_like(z)


def mlp_forward(params: MlpParams, batch: np.ndarray) -> ForwardCache:
    """Run the net on a batch (one example per row), keeping intermediates."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.n_in:
        raise ShapeError(f"batch {x.shape} does not match input width {params.n_in}")
    pre_acts, acts = [], []
    a = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite pre-activation at layer {i}")
        pre_acts.append(z)
        a = z if i == last else _activate(z, params.activation)
        acts.append(a)
    if params.output == "logistic":
        z = pre_acts[-1]
        scores = np.concatenate((-z, z), axis=1)
    else:
        scores = pre_acts[-1]
    return ForwardCache(inputs=x, pre_acts=pre_acts, acts=acts, scores=scores)


def softmax_probs(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def per_example_loss(cache: ForwardCache, labels: np.ndarray) -> np.ndarray:
    """Cross-entropy loss per example: -log p(label)."""
    labels = np.asarray(labels)
    k = cache.scores.shape[1]
    if labels.shape != (cache.n,):
        raise ShapeError(f"labels {labels.shape} vs batch of {cache.n}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    # log-sum-exp with max subtraction; loss = lse(scores) - score[label]
    m = cache.scores.max(axis=1)
    lse = m + np.log(np.exp(cache.scores - m[:, None]).sum(axis=1))
    return lse - cache.scores[np.arange(cache.n), labels]


def weighted_backward(
    params: MlpParams,
    cache: ForwardCache,
    labels: np.ndarray,
    omega: np.ndarray,
    lam: float = 0.0,
) -> np.ndarray:
    """Gradient of sum_i omega_i * loss_i + (lam/2)*||theta||^2, flattened."""
    labels = np.asarray(labels)
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (cache.n,):
        raise ShapeError(f"omega {omega.shape} vs batch of {cache.n}")
    if (omega < 0).any():
        raise ValueError("observation weights must be nonnegative")

    d_scores = softmax_probs(cache.scores)
    d_scores[np.arange(cache.n), labels] -= 1.0
    d_scores *= omega[:, None]

    if params.output == "logistic":
        # scores are (-z, z): dz = dscore_1 - dscore_0
        d_z = (d_scores[:, 1] - d_scores[:, 0])[:, None]
    else:
        d_z = d_scores

    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    for i in range(len(params.weights) - 1, -1, -1):
        a_prev = cache.inputs if i == 0 else cache.acts[i - 1]
        grads_w[i] = a_prev.T @ d_z
        grads_b[i] = d_z.sum(axis=0)
        if not np.isfinite(grads_w[i]).all():
            raise NumericError(f"non-finite gradient at layer {i}")
        if i > 0:
            d_a = d_z @ params.weights[i].T
            d_z = d_a * _activate_grad(cache.pre_acts[i - 1], params.activation)

    parts = []
    for gw, gb in zip(grads_w, grads_b):
        parts.append(gw.ravel())
        parts.append(gb)
    grad = np.concatenate(parts)
    if lam != 0.0:
        grad += lam * params.flatten()
    return grad
