"""Population-level analysis of weighted logistic regression under label noise.

Everything here works with distributions rather than samples. The model is
the single-parameter logistic P(y=1 | x) = e^{s x} / (e^{s x} + e^{-s x})
(multivariate: s^T x). Three population estimators are provided:

  * the clean estimator s*, fitted as if labels were never flipped,
  * the noisy estimator s(0), plain logistic regression on flipped labels,
  * the weighted estimator s_w(b), which maximises

        O_b(s) = p_1 log E[(sigma2(s X_1))^b] + p_0 log E[(sigma2(-s X_0))^b]

    where sigma2(t) = e^t / (e^t + e^{-t}), X_k is the covariate
    distribution conditional on the (possibly wrong) label k, and
    b = 1/alpha is the reciprocal of the weight-penalty strength.

Expectations are evaluated by Gauss-Hermite / Gauss-Legendre quadrature or
exact summation for discrete distributions. Root searches expand a
bracket geometrically and then call scipy's brentq; a maximum bracketed on
a grid is refined by scipy's bounded Brent method. The 2-D estimator
maximises O_b by damped Newton steps with the exact 2x2 Hessian, which the
same quadrature pass as the value and gradient gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np
from scipy import optimize, special

from .data import spd_cholesky


class HypothesisViolation(RuntimeError):
    """A driver was asked to verify a statement whose premises fail."""


class DivergenceError(RuntimeError):
    """A score equation had no root inside the search bracket."""


class OptimisationError(RuntimeError):
    pass


DIVERGENT = math.inf

_BRACKET_LO = 1e-6
_BRACKET_CAP = 1e4
# grid points per weighted_objective_1d call in discontinuity_scan
_SCAN_BLOCK = 3072


# ---------------------------------------------------------------------------
# covariate distributions

@dataclass(frozen=True)
class Discrete:
    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("need matching nonempty atom and probability lists")
        if abs(sum(self.probs) - 1.0) > 1e-12 or min(self.probs) < 0:
            raise ValueError("atom probabilities must be nonnegative and sum to 1")


@dataclass(frozen=True)
class Gaussian:
    mean: float
    var: float

    def __post_init__(self):
        if not self.var > 0:
            raise ValueError("variance must be positive")


@dataclass(frozen=True)
class MvGaussian:
    mean: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        c = np.asarray(self.cov, dtype=float)
        if c.shape != (m.size, m.size) or spd_cholesky(c) is None:
            raise ValueError("covariance must be symmetric positive definite, matching the mean")
        object.__setattr__(self, "mean", tuple(float(v) for v in m))
        object.__setattr__(self, "cov", tuple(tuple(float(v) for v in row) for row in c))

    @property
    def dim(self) -> int:
        return len(self.mean)


@dataclass(frozen=True)
class MvUniformBox:
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(a), float(d)) for a, d in self.intervals)
        if any(not a < d for a, d in ivs):
            raise ValueError("every interval must have positive length")
        object.__setattr__(self, "intervals", ivs)

    @property
    def dim(self) -> int:
        return len(self.intervals)


@lru_cache(maxsize=32)
def negate(dist):
    """Distribution of -X; the 32 most recently negated are kept, so a
    problem's implicit class 0 is built once."""
    if isinstance(dist, Discrete):
        return Discrete(tuple(-v for v in dist.values), dist.probs)
    if isinstance(dist, Gaussian):
        return Gaussian(-dist.mean, dist.var)
    if isinstance(dist, MvGaussian):
        return MvGaussian(tuple(-v for v in dist.mean), dist.cov)
    if isinstance(dist, MvUniformBox):
        return MvUniformBox(tuple((-hi, -lo) for lo, hi in dist.intervals))
    raise TypeError(f"cannot negate {type(dist).__name__}")


# ---------------------------------------------------------------------------
# quadrature

# scipy's rules stay numerically stable at node counts where the
# polynomial-module versions overflow
@lru_cache(maxsize=32)
def nodes_weights(dist, nodes: int = 64):
    """Quadrature nodes and weights such that E[f(X)] ~= sum w_i f(x_i):
    Gauss-Hermite for Gaussians, Gauss-Legendre for boxes (both need at
    least 32 nodes), exact summation for discrete atoms, and tensor
    products of the 1-D rules in two dimensions.

    One-dimensional distributions give a vector of nodes; two-dimensional
    ones give an (m, 2) array. The 32 most recently used (dist, nodes)
    rules are kept, so each is built once, and their arrays are read-only.
    """
    if not isinstance(dist, Discrete) and nodes < 32:
        raise ValueError("continuous rules need at least 32 nodes")
    if isinstance(dist, (MvGaussian, MvUniformBox)) and dist.dim != 2:
        raise ValueError("tensor-product quadrature is limited to two dimensions")
    if isinstance(dist, Discrete):
        x, w = np.asarray(dist.values, dtype=float), np.asarray(dist.probs, dtype=float)
    elif isinstance(dist, Gaussian):
        t, w = special.roots_hermite(nodes)
        x, w = dist.mean + math.sqrt(2.0 * dist.var) * t, w / math.sqrt(math.pi)
    elif isinstance(dist, MvGaussian):
        t, w = special.roots_hermite(nodes)
        ti, tj = np.meshgrid(t, t, indexing="ij")
        z = np.column_stack([ti.ravel(), tj.ravel()]) * math.sqrt(2.0)
        chol = np.linalg.cholesky(np.asarray(dist.cov))
        x = np.asarray(dist.mean) + z @ chol.T
        w = np.outer(w, w).ravel() / math.pi
    elif isinstance(dist, MvUniformBox):
        t, w = special.roots_legendre(nodes)
        (a0, b0), (a1, b1) = dist.intervals
        x0 = 0.5 * (a0 + b0) + 0.5 * (b0 - a0) * t
        x1 = 0.5 * (a1 + b1) + 0.5 * (b1 - a1) * t
        xi, xj = np.meshgrid(x0, x1, indexing="ij")
        x = np.column_stack([xi.ravel(), xj.ravel()])
        w = 0.25 * np.outer(w, w).ravel()
    else:
        raise TypeError(f"no quadrature for {type(dist).__name__}")
    x.flags.writeable = w.flags.writeable = False
    return x, w


def expect(dist, f, nodes: int = 64) -> float | np.ndarray:
    """E[f(X)] by quadrature (exact for discrete X). f must accept arrays; an
    integrand of shape (nodes, k) gives the k column expectations as an array."""
    x, w = nodes_weights(dist, nodes)
    fx = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise FloatingPointError("integrand evaluated non-finite at a quadrature node")
    e = w @ fx
    return float(e) if fx.ndim == 1 else e


# ---------------------------------------------------------------------------
# numerically safe pieces of the logistic objective

def softplus(t):
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def log_sigma2(t):
    """log of sigma2(t) = e^t / (e^t + e^{-t}), stable for large |t|."""
    return -softplus(-2.0 * np.asarray(t, dtype=float))


def weight_kernel(t, b):
    """g(t, b) = e^{-2t} / (1 + e^{-2t})^{b+1}, stable for large |t|."""
    t = np.asarray(t, dtype=float)
    return np.exp(-2.0 * t - (b + 1.0) * softplus(-2.0 * t))


# ---------------------------------------------------------------------------
# population problems

@dataclass(frozen=True)
class PopulationProblem:
    """Clean class distributions plus a label-flip model.

    dist1 is the clean class-1 covariate distribution. dist0=None means
    the negation of dist1; pass it explicitly for asymmetric constructions.
    q is the flip probability, either one number for both classes or a
    (q_1, q_0) pair. p_star_1 is the clean prior of class 1.
    """

    dist1: object
    dist0: object | None = None
    p_star_1: float = 0.5
    q: float | tuple[float, float] = 0.0
    nodes: int = 64

    def __post_init__(self):
        if not 0 < self.p_star_1 < 1:
            raise ValueError("p_star_1 must lie strictly between 0 and 1")
        q1, q0 = self.rates
        if not (0 <= q1 < 0.5 and 0 <= q0 < 0.5):
            raise ValueError("flip rates must lie in [0, 0.5)")

    @property
    def rates(self) -> tuple[float, float]:
        if isinstance(self.q, tuple):
            return float(self.q[0]), float(self.q[1])
        return float(self.q), float(self.q)

    @property
    def clean0(self):
        return self.dist0 if self.dist0 is not None else negate(self.dist1)

    @property
    def label_priors(self) -> tuple[float, float]:
        """(p_1, p_0): marginal probabilities of the noisy labels."""
        q1, q0 = self.rates
        p1s, p0s = self.p_star_1, 1.0 - self.p_star_1
        p1 = p1s * (1 - q1) + p0s * q0
        return p1, 1.0 - p1

    def label_mixture(self, label: int) -> list[tuple[object, float]]:
        """Components (clean dist, weight) of X conditional on noisy label."""
        q1, q0 = self.rates
        p1s, p0s = self.p_star_1, 1.0 - self.p_star_1
        p1, p0 = self.label_priors
        if label == 1:
            return [(self.dist1, p1s * (1 - q1) / p1), (self.clean0, p0s * q0 / p1)]
        return [(self.dist1, p1s * q1 / p0), (self.clean0, p0s * (1 - q0) / p0)]

    @property
    def is_fully_symmetric(self) -> bool:
        q1, q0 = self.rates
        return self.dist0 is None and q1 == q0 and self.p_star_1 == 0.5

    def with_q(self, q) -> "PopulationProblem":
        return PopulationProblem(self.dist1, self.dist0, self.p_star_1, q, self.nodes)


def _mixture_expect(components, f, nodes: int) -> float:
    return sum(w * expect(d, f, nodes) for d, w in components)


# ---------------------------------------------------------------------------
# one-dimensional estimators

def _positive_root(score, what: str) -> float:
    """Smallest positive root of a score that starts positive near 0 and
    eventually turns negative; geometric expansion, then brentq, which
    takes the values at its bracket ends from the expansion."""
    score = cache(score)
    lo = _BRACKET_LO
    if score(lo) <= 0:
        # the root sits below the expansion start, or at 0 when the score
        # is not positive there either
        return 0.0 if score(0.0) <= 0 else optimize.brentq(score, 0.0, lo)
    hi = lo
    while hi < _BRACKET_CAP:
        hi *= 2.0
        if score(hi) <= 0:
            return optimize.brentq(score, hi / 2.0, hi)
    raise DivergenceError(f"{what}: score has no sign change below {_BRACKET_CAP:g}")


def clean_estimator_1d(prob: PopulationProblem, estimate=None) -> float:
    """Population logistic estimate with uncontaminated labels: the noisy
    estimate of the same problem without flips. estimate(prob, b), when
    given, stands in for weighted_estimator_1d."""
    m1 = expect(prob.dist1, lambda x: x, prob.nodes)
    m0 = expect(prob.clean0, lambda x: x, prob.nodes)
    if not m1 > 0:
        raise HypothesisViolation("clean class-1 covariate must have positive mean")
    if m0 > m1:
        raise HypothesisViolation("class means are ordered the wrong way")
    return (estimate or weighted_estimator_1d)(prob.with_q(0.0), 0.0)


def noisy_estimator_1d(prob: PopulationProblem) -> float:
    """Population logistic estimate with flipped labels: the weighted
    estimate at b = 0, where O_0 is the expected log-likelihood."""
    return weighted_estimator_1d(prob, 0.0)


def weighted_objective_1d(prob: PopulationProblem, b: float, s):
    """O_b(s) for all s at once, one (nodes x s) integrand per mixture component.
    At b = 0, the shifted expected log-likelihood: (1/b) O_b as b -> 0, up to constants."""
    p1, p0 = prob.label_priors
    s = np.asarray(s, dtype=float)

    def moment(label: int, t):
        def f(x):
            ls = log_sigma2(np.multiply.outer(x, t))
            return ls if b == 0.0 else np.exp(b * ls)
        return _mixture_expect(prob.label_mixture(label), f, prob.nodes)

    e1, e0 = moment(1, s), moment(0, -s)
    if b != 0.0:
        with np.errstate(divide="ignore"):  # an expectation underflowed to 0 gives -inf
            e1, e0 = np.log(e1), np.log(e0)
    out = p1 * e1 + p0 * e0
    return float(out) if s.ndim == 0 else out


def _refine_max(prob: PopulationProblem, b: float, lo: float, hi: float):
    """(argmax, max) of O_b on [lo, hi] by scipy's bounded Brent method.
    xatol=1e-11 leaves the stop to the method's own sqrt(eps) |s| term, the
    scale at which comparisons of O_b stop resolving s."""
    res = optimize.minimize_scalar(lambda s: -weighted_objective_1d(prob, b, s),
                                   bounds=(lo, hi), method="bounded", options={"xatol": 1e-11})
    return float(res.x), -float(res.fun)


def _m_function(prob: PopulationProblem, b: float):
    """M(b, s) = E[X_1 g(s X_1, b)] for the fully symmetric case; its
    smallest positive root is the weighted estimator."""
    mix1 = prob.label_mixture(1)

    def m(s: float) -> float:
        return _mixture_expect(mix1, lambda x: x * weight_kernel(s * x, b), prob.nodes)

    return m


def weighted_estimator_1d(prob: PopulationProblem, b: float) -> float:
    """s_w(b); returns DIVERGENT (math.inf) when no finite maximiser
    exists below the search cap, which is the expected outcome for b >= 1
    in the symmetric setting."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    if prob.is_fully_symmetric:
        m = _m_function(prob, b)
        try:
            return _positive_root(m, "weighted estimator")
        except DivergenceError:
            return DIVERGENT
    # general case: maximise O_b on a dense grid, then refine; the grid
    # starts at s = 0, the estimate where O_b does not rise from there
    grid = np.concatenate([[0.0], np.linspace(_BRACKET_LO, 30.0, 3001),
                           np.geomspace(30.0, _BRACKET_CAP, 200)])
    vals = weighted_objective_1d(prob, b, grid)
    k = int(np.argmax(vals))
    # a maximum the grid reaches at its last point, ties included, is the
    # s -> infinity limit: the profile can settle onto it to the last bit
    if k >= len(grid) - 2 or vals[-1] >= vals.max():
        return DIVERGENT
    if k == 0:
        return 0.0
    return _refine_max(prob, b, grid[k - 1], grid[k + 1])[0]


def find_bstar_1d(prob: PopulationProblem, estimate=None) -> float:
    """The b in [0, 1) at which the weighted estimator recovers the clean
    one. Uses that s_w(b) is increasing in b for symmetric problems.

    estimate(prob, b) stands in for weighted_estimator_1d; a caller that
    remembers its estimates (functools.cache) shares them with the search.
    Without one, the search makes each of its estimates once.

    The prose around the uniqueness result says "b* > 1" in one spot, but
    its own limit b -> 1 forces the crossing inside [0, 1) (equivalently
    alpha* > 1), so the search runs over [0, 1).
    """
    estimate = estimate or cache(weighted_estimator_1d)
    s_star = clean_estimator_1d(prob, estimate)
    s0 = estimate(prob, 0.0)
    tol = 1e-6  # an s(0) this close to s* already recovers it
    if s0 > s_star + tol:
        raise HypothesisViolation("unweighted estimate already exceeds the clean one")
    if abs(s0 - s_star) < tol:
        return 0.0  # b = 0 recovers s*; s0 above it leaves brentq no sign change
    lo, hi = 0.0, None
    b = 0.5
    while hi is None:
        sw = estimate(prob, b)
        if sw >= s_star:
            hi = b
        else:
            lo = b
            b = 0.5 * (1.0 + b)
            if 1.0 - b < 1e-12:
                raise DivergenceError("no b < 1 reaches the clean estimate")
    # a DIVERGENT estimate enters as the cap: a finite value keeps brentq
    # interpolating, where an infinite one leaves it bisection steps
    return optimize.brentq(lambda b: min(estimate(prob, b), _BRACKET_CAP) - s_star, lo, hi)


# ---------------------------------------------------------------------------
# multivariate Gaussian case

@dataclass(frozen=True)
class MvGaussianCase:
    """Closed-form pieces for Gaussian class-1 covariates with negated
    class 0: the common direction u of every weighted estimate, the clean
    optimum s_star = cov^{-1} mu, and the 1-D reduction along u."""

    u: tuple[float, ...]
    s_star: tuple[float, ...]
    reduction: PopulationProblem


def mv_gaussian_case(mu, cov, q, nodes: int = 64) -> MvGaussianCase:
    """The Gaussian case of mu, cov and flip rate q. The weighted estimate
    at b is weighted_estimator_1d(reduction, b) * u, and b* is
    find_bstar_1d(reduction). As b approaches 1 the reduction's integrand
    develops a boundary layer of width ~1/(2bs) that the default node
    budget under-resolves; trust this route for b up to around b*."""
    mu = np.asarray(mu, dtype=float)
    cov = np.asarray(cov, dtype=float)
    try:
        s_star = np.linalg.solve(cov, mu)
    except np.linalg.LinAlgError:
        raise ValueError("covariance matrix is singular") from None
    u = s_star / np.linalg.norm(s_star)
    # projection u^T X*_1 is Gaussian, so the whole problem collapses to 1-D
    reduction = PopulationProblem(
        Gaussian(float(u @ mu), float(u @ cov @ u)), q=q, nodes=nodes
    )
    return MvGaussianCase(tuple(u), tuple(s_star), reduction)


def w_identity_residual(mu, cov, nodes: int = 64) -> float:
    """E[W e^{-W} / (e^W + e^{-W})] for W = (cov^{-1} mu)^T X*_1, which is
    zero because W has equal mean and variance mu^T cov^{-1} mu."""
    mu = np.asarray(mu, dtype=float)
    cov = np.asarray(cov, dtype=float)
    m = float(mu @ np.linalg.solve(cov, mu))
    dist = Gaussian(m, m)
    return expect(dist, lambda w: w * np.exp(log_sigma2(-w)), nodes)


# ---------------------------------------------------------------------------
# general multivariate estimator (r = 2)

def _mv_terms(pts, wts, s, b: float):
    """One clean component's per-node terms, in its own node order: the
    integrands f1, f0 of E_1 and E_0 (log sigma2(+-t) at b = 0, sigma2(+-t)^b
    above), their gradient densities c1, c0 and their Hessian densities
    k1, k0, with t = s^T x."""
    # log_sigma2(+-t) = -softplus(-+u) with u = 2t; both share the
    # tail log1p(exp(-|u|)), bit for bit, since |-u| == |u|
    u = 2.0 * (pts @ s)
    tail = np.log1p(np.exp(-np.abs(u)))
    lp = -(np.maximum(-u, 0.0) + tail)
    ln = -(np.maximum(u, 0.0) + tail)
    del u, tail  # two fewer node arrays alive beside the terms
    sp, sn = np.exp(lp), np.exp(ln)
    if b == 0.0:
        # d/dt log sigma2(t) = 2 sigma2(-t), and
        # d2/dt2 log sigma2(+-t) = -4 sigma2(t) sigma2(-t) for both labels
        k = wts * sp * sn
        return lp, ln, wts * sn, wts * sp, k, k
    f1, f0 = np.exp(b * lp), np.exp(b * ln)
    del lp, ln
    c1, c0 = wts * f1 * sn, wts * f0 * sp
    # d/dt [sigma2(t)^b sigma2(-t)] = 2 sigma2(t)^b sigma2(-t) (b sigma2(-t) - sigma2(t))
    return f1, f0, c1, c0, c1 * (b * sn - sp), c0 * (b * sp - sn)


@lru_cache(maxsize=32)
def _mirrored(dist1, dist0, nodes: int) -> bool:
    """Whether dist0's rule is dist1's negated in reverse order, to the bit,
    weights reversed; checked once per pair of cached rules."""
    pts1, wts1 = nodes_weights(dist1, nodes)
    pts0, wts0 = nodes_weights(dist0, nodes)
    return bool(np.array_equal(pts0, -pts1[::-1]) and np.array_equal(wts0, wts1[::-1]))


def _mv_neg_objective(prob: PopulationProblem, b: float):
    """Returns f(s) = -O_b(s) with its gradient and its 2x2 Hessian, from
    one quadrature pass. The clean class-1 component enters the label-1
    and label-0 mixtures at weights m11 and m01, the clean class-0 one at
    m10 and m00.

    When class 0's nodes mirror class 1's (negated, in reverse order, to
    the bit, as for every rule here with dist0=None), class 0's terms are
    class 1's reversed with the labels swapped. Its value and gradient
    sums run over reversed copies in its own node order, which keeps their
    bits; x x^T is even, so its Hessian terms fold into class 1's."""
    d1 = prob.dist1
    if not isinstance(d1, (MvGaussian, MvUniformBox)):
        raise TypeError("multivariate estimation needs a 2-D covariate distribution")
    if d1.dim != 2:
        raise ValueError("only r = 2 is supported")
    p1, p0 = prob.label_priors
    (_, m11), (_, m10) = prob.label_mixture(1)
    (_, m01), (_, m00) = prob.label_mixture(0)
    pts1, wts1 = nodes_weights(d1, prob.nodes)
    pts0, wts0 = nodes_weights(prob.clean0, prob.nodes)
    mirrored = _mirrored(d1, prob.clean0, prob.nodes)

    def fgh(s):
        f1, f0, c1, c0, k1, k0 = _mv_terms(pts1, wts1, s, b)
        e1, e0 = m11 * (wts1 @ f1), m01 * (wts1 @ f0)
        g1, g0 = m11 * c1 @ pts1, m01 * c0 @ pts1
        if mirrored:
            e1 += m10 * (wts0 @ f0[::-1].copy())
            e0 += m00 * (wts0 @ f1[::-1].copy())
            g1 += m10 * c0[::-1] @ pts0
            g0 += m00 * c1[::-1] @ pts0
            del f1, f0, c1, c0
            if b == 0.0:
                k = _weighted_xxt(k1, pts1)
                h1, h0 = (m11 + m10) * k, (m01 + m00) * k
            else:
                h1 = _weighted_xxt(m11 * k1 + m10 * k0, pts1)
                h0 = _weighted_xxt(m01 * k0 + m00 * k1, pts1)
        else:
            h1, h0 = m11 * _weighted_xxt(k1, pts1), m01 * _weighted_xxt(k0, pts1)
            f1, f0, c1, c0, k1, k0 = _mv_terms(pts0, wts0, s, b)
            e1 += m10 * (wts0 @ f1)
            e0 += m00 * (wts0 @ f0)
            g1 += m10 * c1 @ pts0
            g0 += m00 * c0 @ pts0
            h1 += m10 * _weighted_xxt(k1, pts0)
            h0 += m00 * _weighted_xxt(k0, pts0)
        if b == 0.0:
            h = 4.0 * (p1 * h1 + p0 * h0)
            return -(p1 * e1 + p0 * e0), -(p1 * (2.0 * g1) + p0 * (-2.0 * g0)), h
        val = p1 * math.log(e1) + p0 * math.log(e0)
        grad = p1 * (2.0 * b * g1) / e1 + p0 * (-2.0 * b * g0) / e0
        # hess log E = hess E / E - grad E grad E^T / E^2, with
        # hess E_1 = 4b E_1[...] x x^T and grad E_1 = 2b E_1[...] x (E_0 mirrored)
        q1, q0 = (2.0 * b / e1) * g1, (2.0 * b / e0) * g0
        h = (p1 * ((4.0 * b / e1) * h1 - np.outer(q1, q1))
             + p0 * ((4.0 * b / e0) * h0 - np.outer(q0, q0)))
        return -val, -grad, -h

    return fgh


def _weighted_xxt(d, pts) -> np.ndarray:
    """sum_i d_i x_i x_i^T over the rows x_i of pts, by three dot products;
    its off-diagonal entries are one number, so it is exactly symmetric."""
    x0, x1 = pts[:, 0], pts[:, 1]
    dx0 = d * x0
    off = dx0 @ x1
    return np.array([[dx0 @ x0, off], [off, (d * x1) @ x1]])


_EPS = float(np.finfo(float).eps)
_NEWTON_MESSAGES = ("gradient norm at most gtol", "maxiter steps taken",
                    "no step along the Newton direction is acceptable")


def _newton(fun, x0, args=(), gtol=1e-12, maxiter=1000, **_):
    """Damped Newton minimisation of a 2-D function, as a custom method
    for optimize.minimize; fun(x) returns (value, gradient, Hessian).

    Where the Hessian H is not safely positive definite, it is shifted by
    tau I so that its smallest eigenvalue becomes max(|lambda_min|,
    1e-8 |lambda_max|); the 2x2 system is solved in closed form. The step
    is halved until the Armijo condition holds. Near the optimum the
    predicted decrease falls below the rounding of the value, so a step
    that leaves the value within rounding and shrinks |g| is accepted too.
    Stops at |g| <= gtol, after maxiter steps, or when 60 halvings find
    no acceptable step.
    """
    x = np.array(x0, dtype=float)  # a copy: the result never aliases the start
    f, g, h = fun(x, *args)
    nfev, nit, status = 1, 0, 0
    while True:
        gnorm = math.hypot(g[0], g[1])
        if gnorm <= gtol:
            break
        if nit == maxiter:
            status = 1
            break
        a, c, o = h[0, 0], h[1, 1], h[0, 1]
        half = math.hypot(0.5 * (a - c), o)
        lo, hi = 0.5 * (a + c) - half, 0.5 * (a + c) + half
        tau = max(0.0, max(abs(lo), 1e-8 * abs(hi)) - lo)
        a, c = a + tau, c + tau
        det = a * c - o * o
        if det > 0.0 and math.isfinite(det):
            p = np.array([o * g[1] - c * g[0], o * g[0] - a * g[1]]) / det
        else:
            p = -g
        slope = float(g @ p)
        t = 1.0
        for _ in range(60):
            xt = x + t * p
            ft, gt, ht = fun(xt, *args)
            nfev += 1
            if ft <= f + 1e-4 * t * slope or (
                    ft - f <= 4.0 * _EPS * abs(f) and math.hypot(gt[0], gt[1]) < gnorm):
                break
            t *= 0.5
        else:
            status = 2
            break
        x, f, g, h = xt, ft, gt, ht
        nit += 1
    return optimize.OptimizeResult(x=x, fun=f, jac=g, nit=nit, nfev=nfev,
                                   status=status, success=status == 0,
                                   message=_NEWTON_MESSAGES[status])


_MV_START_SCALES = (0.1, 1.0, 5.0)


def _mv_maximise(prob: PopulationProblem, b: float, starts=None):
    """general_mv_estimator's search; also returns the Newton iterations it
    took over all starts and the largest final gradient norm among them."""
    fgh = _mv_neg_objective(prob, b)
    if starts is None:
        starts = [c * np.ones(2) for c in _MV_START_SCALES]
    best, best_val, best_grad, converged = None, math.inf, math.inf, False
    nit, max_grad = 0, 0.0
    for x0 in starts:
        res = optimize.minimize(fgh, np.asarray(x0, dtype=float), method=_newton,
                                options={"gtol": 1e-12, "maxiter": 1000})
        grad_norm = float(np.linalg.norm(res.jac))
        nit += res.nit
        max_grad = max(max_grad, grad_norm)
        # values within rounding of each other (as _newton judges it) do not
        # rank the starts; among them the better converged solve wins
        tied = abs(res.fun - best_val) <= 4.0 * _EPS * abs(res.fun)
        if (grad_norm < best_grad) if tied else (res.fun < best_val):
            best, best_val, best_grad = res.x, res.fun, grad_norm
        # a solve can stop short of gtol at the gradient's rounding floor,
        # at an excellent point, so judge convergence by the gradient
        # rather than the status flag
        if grad_norm < 1e-6:
            converged = True
    if best is None or float(np.linalg.norm(best)) > _BRACKET_CAP:
        raise OptimisationError("no finite maximiser found")
    if not converged:
        raise OptimisationError("Newton ascent did not reach a stationary point")
    return best, nit, max_grad


def general_mv_estimator(prob: PopulationProblem, b: float, starts=None) -> np.ndarray:
    """Maximise O_b(s) over s in R^2 by damped Newton ascent with the exact
    Hessian from several starting points; returns the best stationary
    point found."""
    return _mv_maximise(prob, b, starts)[0]


@dataclass(frozen=True)
class MvBstarResult:
    b_star: float
    ratio: float
    newton_iterations: int
    max_grad_norm: float


def find_mv_bstar(prob: PopulationProblem, tol: float = 1e-4) -> MvBstarResult:
    """Search b in [0, 0.95] for the weighted estimate closest to the
    clean optimum; reports the distance ratio against the unweighted one,
    with the Newton iterations of every solve of the search and the
    largest final gradient norm among them."""
    nit, max_grad = 0, 0.0

    def solve(p: PopulationProblem, b: float, starts=None) -> np.ndarray:
        nonlocal nit, max_grad
        s, n, g = _mv_maximise(p, b, starts)
        nit, max_grad = nit + n, max(max_grad, g)
        return s

    s_star = solve(prob.with_q(0.0), 0.0)
    s0 = solve(prob, 0.0)
    d0 = float(np.linalg.norm(s0 - s_star))
    if d0 == 0.0:
        return MvBstarResult(0.0, 0.0, nit, max_grad)

    def dist(b: float) -> float:
        sb = solve(prob, b, starts=[s_star, 0.5 * s_star + 0.5 * s0])
        return float(np.linalg.norm(sb - s_star))

    b_star = optimize.minimize_scalar(dist, bounds=(0.0, 0.95), method="bounded",
                                      options={"xatol": tol}).x
    s_best = solve(prob, b_star, starts=[s_star])
    ratio = float(np.linalg.norm(s_best - s_star)) / d0
    return MvBstarResult(float(b_star), ratio, nit, max_grad)


# ---------------------------------------------------------------------------
# discontinuity scan over alpha for discrete problems

@dataclass(frozen=True)
class ScanEntry:
    alpha: float
    b: float
    argmax: float
    local_maxima: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ScanReport:
    entries: tuple[ScanEntry, ...]
    jump_alpha: float | None

    @property
    def max_local_maxima(self) -> int:
        return max(len(e.local_maxima) for e in self.entries)


def discontinuity_scan(prob: PopulationProblem, alpha_grid, grid_points: int = 6001) -> ScanReport:
    """Track the global maximiser of O_{1/alpha} over an alpha grid and
    report where (if anywhere) it jumps between local-maximum branches.

    A dense s grid on (0, 30] locates candidate maxima; each is refined by scipy's
    bounded Brent method. An argmax move of more than max(0.05, 25%) between
    neighbouring alphas counts as a jump.

    The profile is evaluated through the problem's own quadrature rule.
    For continuous distributions the integrand's transition layer narrows
    like 1/(2bs), so far tails need a node budget that resolves it;
    discrete mixtures are summed exactly and are safe at any range.
    """
    alphas = [float(a) for a in alpha_grid]
    if any(a <= 0 for a in alphas):
        raise ValueError("alpha grid must be positive")
    grid = np.linspace(_BRACKET_LO, 30.0, grid_points)
    # Whole, the grid's (3, 6001) temporaries pass glibc's 128 KiB mmap threshold and
    # fault in again on every call; a block's (3, 3072) ones stay below it. Blocks start
    # at multiples of the SIMD and BLAS block widths, so every value keeps its bits
    # (halves of 3001 and 3000 points move the 3001st value by an ulp at some alphas).
    blocks = [grid[i : i + _SCAN_BLOCK] for i in range(0, grid.size, _SCAN_BLOCK)]
    entries = []
    for a in alphas:
        b = 1.0 / a
        vals = np.concatenate([weighted_objective_1d(prob, b, g) for g in blocks])
        peaks, inner = [], vals[1:-1]
        rises = (inner > vals[:-2] + 1e-13) & (inner > vals[2:] + 1e-13)
        for i in np.flatnonzero(rises) + 1:
            peaks.append(_refine_max(prob, b, grid[i - 1], grid[i + 1]))
        # Still rising at the edge of the grid means a divergent branch,
        # but the far tail of a settled profile is flat to machine noise,
        # so demand a rise that clears the quadrature noise floor. A
        # maximum reached at the last point, ties included, is divergent
        # too: the profile can equal its s -> infinity limit to the bit.
        if vals[-1] >= vals.max() or (
                vals[-1] > vals[-2] and vals[-1] - np.min(vals[-32:]) > 1e-9):
            peaks.append((math.inf, float(vals[-1])))
        if not peaks:
            k = int(np.argmax(vals))
            peaks.append((float(grid[k]), float(vals[k])))
        argmax = max(peaks, key=lambda p: p[1])[0]
        entries.append(ScanEntry(a, b, argmax, tuple(peaks)))

    jump_alpha = None
    for prev, cur in zip(entries, entries[1:]):
        x, y = prev.argmax, cur.argmax
        if math.isinf(x) != math.isinf(y):
            jump_alpha = 0.5 * (prev.alpha + cur.alpha)
            break
        if not math.isinf(x) and abs(y - x) > max(0.05, 0.25 * abs(x)):
            jump_alpha = 0.5 * (prev.alpha + cur.alpha)
            break
    return ScanReport(tuple(entries), jump_alpha)
