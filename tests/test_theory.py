"""Population-level estimators, quadrature, and the weighting analysis.

Reference values marked "quad" come from adaptive integration
(scipy.integrate.quad to 1e-12) plus brentq root finding on independently
written integrands, so they do not share code with the package routines.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from drfit import theory
from drfit.cli import counterexample_problem
from drfit.theory import (
    DIVERGENT,
    Discrete,
    DivergenceError,
    Gaussian,
    HypothesisViolation,
    MvGaussian,
    MvUniformBox,
    PopulationProblem,
    QuadratureRule,
    Uniform,
    clean_estimator_1d,
    discontinuity_scan,
    expect,
    find_bstar_1d,
    general_mv_estimator,
    mv_gaussian_case,
    negate,
    nodes_weights,
    noisy_estimator_1d,
    softplus,
    w_identity_residual,
    weight_kernel,
    weighted_estimator_1d,
    weighted_objective_1d,
)

GAUSS_PROB = PopulationProblem(Gaussian(1.0, 1.0), q=0.2)


# ---------------------------------------------------------------------------
# quadrature


def test_gaussian_moments():
    d = Gaussian(1.3, 2.2)
    assert abs(expect(d, lambda x: x) - 1.3) < 1e-12
    assert abs(expect(d, lambda x: x * x) - (2.2 + 1.3**2)) < 1e-10


def test_uniform_second_moment():
    # uniform(-1, 3): mean 1, variance 16/12, so E[x^2] = 7/3
    d = Uniform(-1.0, 3.0)
    assert abs(expect(d, lambda x: x * x) - 7.0 / 3.0) < 1e-10


def test_discrete_expectation_is_exact():
    d = Discrete((-2.0, 2.0), (0.5, 0.5))
    assert expect(d, np.tanh) == pytest.approx(0.0, abs=1e-15)
    d2 = Discrete((-1.0, 1.0, 10.0), (0.1, 0.1, 0.8))
    assert expect(d2, lambda x: x) == pytest.approx(8.0, abs=1e-12)


def test_correlated_gaussian_cross_moment():
    d = MvGaussian(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert abs(expect(d, lambda x: x[..., 0] * x[..., 1]) - 0.5) < 1e-10
    assert abs(expect(d, lambda x: x[..., 0] ** 2) - 1.0) < 1e-10


def test_uniform_box_product_moment():
    d = MvUniformBox([[-1.0, 3.0], [-2.0, 4.0]])
    assert abs(expect(d, lambda x: x[..., 0] * x[..., 1]) - 1.0) < 1e-10


def test_node_doubling_is_stable():
    d = Gaussian(1.0, 1.0)
    # polynomials are integrated exactly at any admissible node count
    poly = lambda x: x**3 + 2.0 * x
    a64 = expect(d, poly, QuadratureRule(nodes=64))
    a128 = expect(d, poly, QuadratureRule(nodes=128))
    assert a64 == pytest.approx(4.0 + 2.0, abs=1e-10)
    assert a128 == pytest.approx(a64, abs=1e-10)
    f = lambda x: np.tanh(2.0 * x)
    a = expect(d, f, QuadratureRule(nodes=64))
    b = expect(d, f, QuadratureRule(nodes=128))
    assert abs(a - b) < 1e-5


def test_quadrature_validation():
    with pytest.raises(ValueError):
        QuadratureRule(nodes=16)
    x, w = nodes_weights(Gaussian(0.0, 1.0), QuadratureRule(nodes=64))
    assert x.shape == w.shape == (64,)
    assert abs(w.sum() - 1.0) < 1e-12
    with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
        expect(Gaussian(0.0, 1.0), lambda x: np.log(x))


def test_expect_over_a_trailing_axis():
    """An integrand of shape (nodes, k) gives k expectations at once."""
    for d in (Gaussian(0.5, 2.0), Discrete((-1.0, 1.0, 10.0), (0.1, 0.1, 0.8))):
        scales = np.array([0.1, 1.0, 3.0])
        cols = expect(d, lambda x: np.tanh(np.multiply.outer(x, scales)))
        assert isinstance(cols, np.ndarray) and cols.shape == (3,)
        each = [expect(d, lambda x: np.tanh(c * x)) for c in scales]
        np.testing.assert_allclose(cols, each, rtol=0, atol=1e-15)
        assert isinstance(expect(d, np.tanh), float)

        def one_bad_entry(x):
            fx = np.column_stack([x, x * x])
            fx[-1, 1] = np.nan
            return fx

        with pytest.raises(FloatingPointError):
            expect(d, one_bad_entry)


def test_negate_flips_the_distribution():
    d = Gaussian(1.5, 0.7)
    nd = negate(d)
    assert abs(expect(nd, lambda x: x) + 1.5) < 1e-12
    dd = negate(Discrete((-1.0, 2.0), (0.25, 0.75)))
    assert abs(expect(dd, lambda x: x) + 1.25) < 1e-12


@pytest.mark.parametrize("nodes", [32, 64, 96])
@pytest.mark.parametrize(
    "dist",
    [
        Gaussian(0.37, 2.1),
        Uniform(-1.0, 3.0),
        MvGaussian((0.3, -1.7), ((2.0, -0.4), (-0.4, 1.5))),
        MvUniformBox([[-1.0, 3.0], [-0.25, 1.25]]),
    ],
    ids=["gaussian", "uniform", "mv-gaussian", "mv-box"],
)
def test_negation_mirrors_the_quadrature_nodes(dist, nodes):
    """-X's nodes are X's negated in reverse order and its weights X's
    reversed, to the bit: the 2-D objective evaluates -X's integrands on
    X's nodes."""
    rule = QuadratureRule(nodes)
    pts, wts = nodes_weights(dist, rule)
    neg_pts, neg_wts = nodes_weights(negate(dist), rule)
    assert np.array_equal(neg_pts, -pts[::-1])
    assert np.array_equal(neg_wts, wts[::-1])


# ---------------------------------------------------------------------------
# stable primitives


def test_softplus_and_weight_kernel_extremes():
    assert softplus(800.0) == pytest.approx(800.0)
    assert softplus(-800.0) == pytest.approx(0.0, abs=1e-300)
    assert softplus(0.0) == pytest.approx(math.log(2.0))
    # w(t, b) = e^{-2t} (1 + e^{-2t})^{-(b+1)} without overflow either way
    assert np.isfinite(weight_kernel(-500.0, 0.5))
    assert weight_kernel(500.0, 0.5) == pytest.approx(0.0, abs=1e-300)
    assert weight_kernel(0.0, 1.0) == pytest.approx(0.25)
    t = 0.3
    by_hand = math.exp(-2 * t) / (1 + math.exp(-2 * t)) ** 1.5
    assert weight_kernel(t, 0.5) == pytest.approx(by_hand, rel=1e-12)


# ---------------------------------------------------------------------------
# problem construction


def test_problem_validation():
    with pytest.raises(ValueError):
        PopulationProblem(Gaussian(1.0, 1.0), q=0.5)
    with pytest.raises(ValueError):
        PopulationProblem(Gaussian(1.0, 1.0), p_star_1=1.0)


def test_label_mixture_weights_sum_to_one():
    prob = PopulationProblem(
        Discrete((-1.0, 1.0, 10.0), (0.1, 0.1, 0.8)),
        dist0=Discrete((-1.0, 1.0), (0.5, 0.5)),
        q=(0.2, 0.1),
        p_star_1=0.4,
    )
    for label in (0, 1):
        weights = [w for _, w in prob.label_mixture(label)]
        assert sum(weights) == pytest.approx(1.0, rel=1e-12)
    p1, p0 = prob.label_priors
    assert p1 == pytest.approx(0.4 * 0.8 + 0.6 * 0.1)
    assert p1 + p0 == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# one-dimensional estimators


def test_clean_estimator_recovers_unit_signal():
    assert abs(clean_estimator_1d(GAUSS_PROB) - 1.0) < 1e-9


def test_noisy_estimator_shrinks_toward_zero():
    # quad: population logistic fits under symmetric label flips
    targets = {0.1: 0.563342647774, 0.2: 0.355326358322, 0.3: 0.214499841041}
    for q, target in targets.items():
        est = noisy_estimator_1d(GAUSS_PROB.with_q(q))
        assert est == pytest.approx(target, abs=1e-8)
        assert est < 1.0


def test_weighted_estimator_against_reference_roots():
    # quad: roots of E[x w(sx, b)] over the label-1 mixture
    targets = {
        0.0: 0.355326358322,
        0.3: 0.539269013,
        0.5: 0.827630033,
        0.6: 1.117254829,
    }
    for b, target in targets.items():
        assert weighted_estimator_1d(GAUSS_PROB, b) == pytest.approx(
            target, rel=1e-6
        )


def test_weighted_estimator_at_b_zero_matches_plain_noisy_fit():
    assert weighted_estimator_1d(GAUSS_PROB, 0.0) == pytest.approx(
        noisy_estimator_1d(GAUSS_PROB), abs=1e-8
    )


def test_weighted_estimate_increases_with_b():
    grid = np.arange(0.0, 0.76, 0.15)
    values = [weighted_estimator_1d(GAUSS_PROB, b) for b in grid]
    assert all(np.diff(values) > 0)


def test_divergence_at_and_above_one():
    for b in (1.0, 1.5):
        assert weighted_estimator_1d(GAUSS_PROB, b) == DIVERGENT
        assert math.isinf(DIVERGENT)
        s_grid = np.linspace(0.01, 30.0, 400)
        values = weighted_objective_1d(GAUSS_PROB, b, s_grid)
        assert np.all(np.diff(values) > 0)


def test_objective_value_at_reference_point():
    # quad: mixture objective for the heavy-tail discrete pair, q = 0.2
    prob = PopulationProblem(
        Discrete((-1.0, 1.0, 10.0), (0.1, 0.1, 0.8)),
        dist0=Discrete((-1.0, 1.0), (0.5, 0.5)),
        q=0.2,
    )
    value = weighted_objective_1d(prob, 1.0 / 1.6, 0.1265)
    assert value == pytest.approx(-0.362022143058, abs=1e-9)
    assert isinstance(value, float)


COUNTEREXAMPLE_PROB = PopulationProblem(
    Discrete((-1.0, 1.0, 10.0), (0.1, 0.1, 0.8)),
    dist0=Discrete((-1.0, 1.0), (0.5, 0.5)),
    q=0.2,
)


@pytest.mark.parametrize(
    "prob",
    [
        COUNTEREXAMPLE_PROB,
        GAUSS_PROB,
        PopulationProblem(Gaussian(1.0, 1.0), q=(0.3, 0.1)),
        PopulationProblem(Uniform(0.0, 2.0), q=0.2),
    ],
    ids=["counterexample", "gaussian", "gaussian-asymmetric-q", "uniform"],
)
def test_objective_over_a_grid_matches_pointwise(prob):
    grid = np.linspace(1e-6, 30.0, 301)
    for b in (0.0, 0.3, 1.0 / 1.6, 0.9):
        together = weighted_objective_1d(prob, b, grid)
        pointwise = [weighted_objective_1d(prob, b, float(s)) for s in grid]
        assert all(isinstance(v, float) for v in pointwise)
        np.testing.assert_allclose(together, pointwise, rtol=0, atol=1e-13)


def test_objective_of_an_underflowed_expectation_is_minus_infinity():
    # one atom at 1, no flips: at s = -1000 every sigma2(s x)^b underflows
    prob = PopulationProblem(Discrete((1.0,), (1.0,)), q=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert weighted_objective_1d(prob, 1.0, -1000.0) == -math.inf
        values = weighted_objective_1d(prob, 1.0, np.array([-1000.0, 1.0]))
    assert values[0] == -math.inf and np.isfinite(values[1])


def test_bstar_restores_the_clean_optimum():
    b_star = find_bstar_1d(GAUSS_PROB)
    assert b_star == pytest.approx(0.565918019, abs=2e-6)
    assert abs(weighted_estimator_1d(GAUSS_PROB, b_star) - 1.0) < 1e-6


def test_bstar_vanishes_without_noise():
    """No flips, nothing to correct: s(0) equals s*, so the crossing sits
    exactly at b = 0, with no sign change left to bracket."""
    assert find_bstar_1d(PopulationProblem(Gaussian(1.0, 1.0), q=0.0)) == 0.0


def test_bstar_is_zero_when_the_unweighted_estimate_is_within_tol(monkeypatch):
    """s(0) a rounding step above s* gives the bracket [0, 0.5] no sign
    change; within tol, b = 0 already recovers s*."""
    s0 = weighted_estimator_1d(GAUSS_PROB, 0.0)
    monkeypatch.setattr(theory, "clean_estimator_1d",
                        lambda prob, estimate=None: s0 * (1.0 - 1e-12))
    assert find_bstar_1d(GAUSS_PROB) == 0.0


def test_bstar_search_survives_a_divergent_bracket_end(monkeypatch):
    """The expansion brackets b* in [0.5, 0.75]; with every estimate above
    b = 0.6 reported DIVERGENT, the root search must still return a finite
    b* whose estimate recovers s*."""
    real = theory.weighted_estimator_1d
    divergent = []

    def diverging_above(prob, b):
        if b > 0.6:
            divergent.append(b)
            return DIVERGENT
        return real(prob, b)

    monkeypatch.setattr(theory, "weighted_estimator_1d", diverging_above)
    b_star = find_bstar_1d(GAUSS_PROB)
    assert divergent, "no estimate in the search was divergent"
    assert math.isfinite(b_star) and 0.5 < b_star < 0.6
    assert abs(real(GAUSS_PROB, b_star) - clean_estimator_1d(GAUSS_PROB)) < 1e-6


def _quad_logistic_root(dist1, dist0, p_star_1, q1, q0):
    """quad: root in s of p1 m1 - p0 m0 - E[x tanh(s x)] for Gaussian
    classes, with the noisy-label moments written out from the rates."""
    p0s = 1.0 - p_star_1
    (mu1, v1), (mu0, v0) = (dist1.mean, dist1.var), (dist0.mean, dist0.var)
    # p1 m1 - p0 m0 = E[x; label 1] - E[x; label 0]
    contrast = p_star_1 * (1 - 2 * q1) * mu1 - p0s * (1 - 2 * q0) * mu0

    def gauss_moment(mu, var, s):
        pdf = lambda x: math.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2 * math.pi * var)
        return integrate.quad(lambda x: pdf(x) * x * math.tanh(s * x), -math.inf, math.inf,
                              epsabs=1e-13, epsrel=1e-12)[0]

    def score(s):
        return contrast - (p_star_1 * gauss_moment(mu1, v1, s) + p0s * gauss_moment(mu0, v0, s))

    return optimize.brentq(score, 1e-3, 50.0, xtol=1e-13)


@pytest.mark.parametrize(
    "prob",
    [
        PopulationProblem(Gaussian(1.0, 1.0), q=(0.3, 0.1), p_star_1=0.4),
        PopulationProblem(Gaussian(1.0, 1.0), dist0=Gaussian(-0.5, 1.5), q=(0.2, 0.1),
                          p_star_1=0.4),
    ],
    ids=["asymmetric-q", "explicit-dist0"],
)
def test_asymmetric_clean_and_noisy_estimates_match_quad_roots(prob):
    """Off the symmetric route, both estimates come from the grid search on
    O_0, whose maximiser is the root of the log-likelihood score."""
    q1, q0 = prob.rates
    noisy = _quad_logistic_root(prob.dist1, prob.clean0, prob.p_star_1, q1, q0)
    clean = _quad_logistic_root(prob.dist1, prob.clean0, prob.p_star_1, 0.0, 0.0)
    assert noisy_estimator_1d(prob) == pytest.approx(noisy, abs=1e-7)
    assert clean_estimator_1d(prob) == pytest.approx(clean, abs=1e-7)


def test_grid_estimate_is_refined_inside_its_bracket(monkeypatch):
    """The general-case estimate lies between the grid neighbours of the
    grid argmax and is no lower there than any of those three grid points."""
    prob = PopulationProblem(Gaussian(1.0, 1.0), q=(0.3, 0.1))
    profiles = []

    def recording(p, b, s):
        out = weighted_objective_1d(p, b, s)
        if np.ndim(s):
            profiles.append((np.asarray(s), out))
        return out

    monkeypatch.setattr(theory, "weighted_objective_1d", recording)
    for b in (0.0, 0.3, 0.6):
        profiles.clear()
        s = weighted_estimator_1d(prob, b)
        (grid, vals), = profiles
        k = int(np.argmax(vals))
        lo, hi = max(k - 1, 0), k + 1
        assert grid[lo] <= s <= grid[hi], b
        assert weighted_objective_1d(prob, b, s) >= vals[lo:hi + 1].max(), b


def test_grid_estimate_is_zero_where_the_profile_does_not_rise():
    """Here the flipped class-1 labels put more covariate mass on label 0
    than on label 1 (noisy label contrast p1 m1 - p0 m0 = -0.19), so O_0
    falls from s = 0 on and the estimate is exactly 0, as on the
    symmetric route."""
    prob = PopulationProblem(Gaussian(0.6, 1.0), dist0=Gaussian(0.5, 1.0), q=(0.4, 0.0))
    assert noisy_estimator_1d(prob) == 0.0


def test_hypothesis_checks_on_signal_sign():
    with pytest.raises(HypothesisViolation):
        clean_estimator_1d(PopulationProblem(Gaussian(-1.0, 1.0), q=0.1))


# ---------------------------------------------------------------------------
# multivariate case


def test_gaussian_case_geometry():
    mu = np.ones(2)
    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    case = mv_gaussian_case(mu, cov, q=0.2)
    assert np.allclose(case.s_star, 0.7 / 0.91, atol=1e-12)
    assert np.allclose(case.u, 1.0 / math.sqrt(2.0), atol=1e-12)
    red = case.reduction.dist1
    assert red.mean == pytest.approx(math.sqrt(2.0))
    assert red.var == pytest.approx(1.3)


def test_gaussian_case_bstar_and_recovery():
    # quad: b solving c_w(b) = |cov^{-1} mu| on the 1-D reduction
    case = mv_gaussian_case(np.ones(2), np.array([[1.0, 0.3], [0.3, 1.0]]), q=0.2)
    b_star = case.find_bstar()
    assert b_star == pytest.approx(0.600360782, abs=2e-6)
    c_star = math.hypot(0.7 / 0.91, 0.7 / 0.91)
    assert case.c_hat(b_star) == pytest.approx(c_star, abs=1e-6)


def test_full_optimiser_matches_closed_form_when_clean():
    mu = np.ones(2)
    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    clean = PopulationProblem(MvGaussian(mu, cov), q=0.0)
    s_hat = general_mv_estimator(clean, 0.0)
    assert np.allclose(s_hat, np.linalg.solve(cov, mu), atol=1e-8)


def test_full_optimiser_stays_on_the_common_direction():
    prob = PopulationProblem(
        MvGaussian(np.ones(2), np.array([[1.0, 0.3], [0.3, 1.0]])), q=0.2
    )
    u = np.full(2, 1.0 / math.sqrt(2.0))
    for b in (0.0, 0.5):
        s_hat = np.asarray(general_mv_estimator(prob, b))
        angle = math.acos(
            np.clip(s_hat @ u / np.linalg.norm(s_hat), -1.0, 1.0)
        )
        assert angle < 1e-5


def test_reduction_agrees_with_full_optimiser_at_moderate_b():
    case = mv_gaussian_case(np.ones(2), np.array([[1.0, 0.3], [0.3, 1.0]]), q=0.2)
    prob = PopulationProblem(
        MvGaussian(np.ones(2), np.array([[1.0, 0.3], [0.3, 1.0]])), q=0.2
    )
    for b in (0.3, 0.6):
        one_d = case.estimate(b)
        two_d = np.asarray(general_mv_estimator(prob, b))
        assert np.linalg.norm(one_d - two_d) < 1e-4


def test_w_identity_residual_vanishes():
    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    assert abs(w_identity_residual(np.ones(2), cov)) < 1e-6
    cov2 = np.array([[2.0, -0.4], [-0.4, 1.5]])
    assert abs(w_identity_residual(np.array([0.5, 1.0]), cov2)) < 1e-6


def test_box_problems_regression_values():
    """Pin the uniform-box search results so quadrature or optimiser
    changes that move them are caught. Values are stable under node
    doubling (64 vs 128 per axis agree to ~1e-4)."""
    box_a = PopulationProblem(MvUniformBox([[-1.0, 3.0], [-2.0, 4.0]]), q=0.2)
    res_a = theory.find_mv_bstar(box_a)
    assert res_a.b_star == pytest.approx(0.604474, abs=2e-3)
    assert res_a.ratio == pytest.approx(0.048237, abs=1e-3)
    box_b = PopulationProblem(MvUniformBox([[-1.0, 3.0], [-0.25, 1.25]]), q=0.2)
    res_b = theory.find_mv_bstar(box_b)
    assert res_b.b_star == pytest.approx(0.654755, abs=2e-3)
    assert res_b.ratio == pytest.approx(0.017084, abs=1e-3)


def test_counterexample_landscape_regression_values():
    """Pin the criterion-07 landscape of the report's construction: one
    maximum at every alpha of the report grid, whose argmax falls
    smoothly. At alpha 0.95 and 1.0 the profile rises to its s -> infinity
    limit and equals it to the last bit from s = 18.2 and s = 1.82 on, so
    both are divergent; the only jump is to a finite argmax at alpha 1.01."""
    prob = counterexample_problem()
    scan = discontinuity_scan(prob, np.arange(1.54, 1.69 + 0.005, 0.01))
    assert len(scan.entries) == 16
    assert scan.max_local_maxima == 1
    assert scan.jump_alpha is None
    argmaxes = [e.argmax for e in scan.entries]
    assert all(np.diff(argmaxes) < 0)
    assert argmaxes[0] == pytest.approx(0.1318, abs=1e-4)
    assert argmaxes[-1] == pytest.approx(0.1200, abs=1e-4)
    edge = discontinuity_scan(prob, [0.95, 1.0])
    assert edge.jump_alpha is None
    assert math.isinf(edge.entries[0].argmax)
    assert math.isinf(edge.entries[1].argmax)
    assert discontinuity_scan(prob, [1.0, 1.01]).jump_alpha == pytest.approx(1.005)


def test_weighted_estimator_is_divergent_on_a_settled_plateau():
    """The general-case grid search must not report the first point of a
    profile that equals its s -> infinity limit to the bit as a maximiser."""
    assert weighted_estimator_1d(counterexample_problem(), 1.0 / 0.95) == DIVERGENT


def _hand_mv_neg_objective(prob, b):
    """-O_b(s) and its gradient with the label-flip weights written out
    from the rates and priors instead of taken from label_mixture."""
    rule = prob.rule
    pts1, wts1 = nodes_weights(prob.dist1, rule)
    pts0, wts0 = nodes_weights(prob.clean0, rule)
    q1, q0 = prob.rates
    p1s, p0s = prob.p_star_1, 1.0 - prob.p_star_1
    p1, p0 = prob.label_priors
    m11, m10 = p1s * (1 - q1) / p1, p0s * q0 / p1
    m01, m00 = p1s * q1 / p0, p0s * (1 - q0) / p0
    ls = theory.log_sigma2

    def fg(s):
        t1 = pts1 @ s
        t0 = pts0 @ s
        if b == 0.0:
            e1 = m11 * (wts1 @ ls(t1)) + m10 * (wts0 @ ls(t0))
            e0 = m01 * (wts1 @ ls(-t1)) + m00 * (wts0 @ ls(-t0))
            g1 = 2.0 * (m11 * (wts1 * np.exp(ls(-t1))) @ pts1
                        + m10 * (wts0 * np.exp(ls(-t0))) @ pts0)
            g0 = -2.0 * (m01 * (wts1 * np.exp(ls(t1))) @ pts1
                         + m00 * (wts0 * np.exp(ls(t0))) @ pts0)
            return -(p1 * e1 + p0 * e0), -(p1 * g1 + p0 * g0)
        w1p = np.exp(b * ls(t1))
        w0p = np.exp(b * ls(t0))
        w1n = np.exp(b * ls(-t1))
        w0n = np.exp(b * ls(-t0))
        e1 = m11 * (wts1 @ w1p) + m10 * (wts0 @ w0p)
        e0 = m01 * (wts1 @ w1n) + m00 * (wts0 @ w0n)
        de1 = 2.0 * b * (m11 * (wts1 * w1p * np.exp(ls(-t1))) @ pts1
                         + m10 * (wts0 * w0p * np.exp(ls(-t0))) @ pts0)
        de0 = -2.0 * b * (m01 * (wts1 * w1n * np.exp(ls(t1))) @ pts1
                          + m00 * (wts0 * w0n * np.exp(ls(t0))) @ pts0)
        val = p1 * math.log(e1) + p0 * math.log(e0)
        grad = p1 * de1 / e1 + p0 * de0 / e0
        return -val, -grad

    return fg


_MV_COV = ((1.0, 0.3), (0.3, 1.0))
_MV_PROBLEMS = {
    "gaussian": PopulationProblem(MvGaussian((1.0, 1.0), _MV_COV), q=0.2),
    "box1": PopulationProblem(MvUniformBox([[-1.0, 3.0], [-2.0, 4.0]]), q=0.2),
    "box2": PopulationProblem(MvUniformBox([[-1.0, 3.0], [-0.25, 1.25]]), q=0.2),
    "explicit-dist0": PopulationProblem(
        MvGaussian((1.0, 1.0), _MV_COV),
        dist0=MvGaussian((-0.5, -1.0), ((1.5, 0.2), (0.2, 0.8))),
        q=(0.2, 0.1),
        p_star_1=0.4,
    ),
}


@pytest.mark.parametrize("prob", _MV_PROBLEMS.values(), ids=_MV_PROBLEMS.keys())
def test_mv_objective_equals_hand_derived_weights(prob):
    for b in (0.0, 0.3, 0.6, 0.9):
        fg = theory._mv_neg_objective(prob, b)
        ref = _hand_mv_neg_objective(prob, b)
        for s in ((0.1, 0.1), (0.8, 0.6), (-0.3, 2.0), (4.0, 1.5)):
            s = np.asarray(s)
            (val, grad, _), (ref_val, ref_grad) = fg(s), ref(s)
            assert val == ref_val, (b, s)
            assert np.array_equal(grad, ref_grad), (b, s)


@pytest.mark.parametrize("prob", _MV_PROBLEMS.values(), ids=_MV_PROBLEMS.keys())
def test_mv_hessian_matches_central_differences_of_the_gradient(prob):
    """Central differences with step 1e-5 agree with the closed-form
    Hessian to about 1e-9 relative here; 1e-6 leaves room for rounding."""
    step = 1e-5
    for b in (0.0, 0.3, 0.6, 0.9):
        fgh = theory._mv_neg_objective(prob, b)
        for s in ((0.1, 0.1), (0.8, 0.6), (-0.3, 2.0), (4.0, 1.5)):
            s = np.asarray(s)
            hess = fgh(s)[2]
            assert hess.shape == (2, 2)
            assert hess[0, 1] == hess[1, 0], (b, s)
            fd = np.column_stack([(fgh(s + step * e)[1] - fgh(s - step * e)[1]) / (2 * step)
                                  for e in np.eye(2)])
            assert np.abs(hess - fd).max() <= 1e-6 * np.abs(hess).max(), (b, s)


@pytest.mark.parametrize(
    "prob",
    [
        PopulationProblem(MvGaussian((1.0, 1.0), _MV_COV), q=0.2),
        PopulationProblem(MvUniformBox([[-1.0, 3.0], [-2.0, 4.0]]), q=0.2),
    ],
    ids=["gaussian", "box1"],
)
@settings(max_examples=150, deadline=None)
@given(
    b=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    s=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
)
def test_mv_objective_is_bit_identical_far_out(prob, b, s):
    """Out to |s| = 40, where exp(-|2t|) underflows at the outer Gaussian
    nodes, the shared log-sigmoid tail still gives the plain formula's bits."""
    fg, ref = theory._mv_neg_objective(prob, b), _hand_mv_neg_objective(prob, b)
    s = np.asarray(s)
    (val, grad, _), (ref_val, ref_grad) = fg(s), ref(s)
    assert val == ref_val
    assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("prob", [_MV_PROBLEMS["gaussian"], _MV_PROBLEMS["box1"]],
                         ids=["gaussian", "box1"])
@settings(max_examples=150, deadline=None)
@given(
    b=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    s=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
)
def test_mv_hessian_is_finite_and_symmetric_far_out(prob, b, s):
    hess = theory._mv_neg_objective(prob, b)(np.asarray(s))[2]
    assert np.all(np.isfinite(hess))
    assert hess[0, 1] == hess[1, 0]


def _bfgs_oracle(fgh, x0):
    """scipy's BFGS on the value and gradient alone: the quasi-Newton
    search the Newton solve replaced, kept as an independent check."""
    return optimize.minimize(lambda s: fgh(s)[:2], x0, jac=True, method="BFGS",
                             options={"gtol": 1e-12, "maxiter": 1000})


@pytest.mark.parametrize("name", ["gaussian", "box1", "box2"])
def test_newton_solve_agrees_with_a_bfgs_oracle(name):
    """From every default start, the Newton solve lands where BFGS does,
    to 1e-7 relative, ends with |g| <= 1e-8 and is no worse in value. The
    oracle, not the Newton solve, sets the tolerance: BFGS stops on
    precision loss with |g| up to ~1e-10, which along the flat direction
    of the Gaussian problem at b = 0.9 leaves it ~3e-7 from the point.
    Newton steps converge quadratically, so a solve that needs more than
    20 of them (13 at most here) has lost its step rule."""
    prob = _MV_PROBLEMS[name]
    for b in (0.0, 0.3, 0.6, 0.9):
        fgh = theory._mv_neg_objective(prob, b)
        for scale in theory._MV_START_SCALES:
            x0 = scale * np.ones(2)
            res = optimize.minimize(fgh, x0, method=theory._newton,
                                    options={"gtol": 1e-12, "maxiter": 1000})
            oracle = _bfgs_oracle(fgh, x0)
            np.testing.assert_allclose(res.x, oracle.x, rtol=1e-7, err_msg=f"b={b} x0={x0}")
            assert np.linalg.norm(res.jac) <= 1e-8, (b, x0)
            assert res.nit <= 20, (b, x0)
            assert res.fun <= oracle.fun + 1e-15, (b, x0)
            assert np.array_equal(res.x, theory.general_mv_estimator(prob, b, starts=[x0]))


# ---------------------------------------------------------------------------
# objective-profile scanning


# A 512-node rule keeps the profile's far tail resolved out to s_max so
# the scan sees the true settled shape rather than quadrature drift.
GAUSS_PROB_FINE = PopulationProblem(Gaussian(1.0, 1.0), q=0.2, nodes=512)


def test_scan_flags_the_divergence_edge():
    """Crossing 1/alpha = 1 flips the profile from an interior peak to a
    rising tail, which the scan must report as a jump."""
    scan = discontinuity_scan(GAUSS_PROB, np.array([0.95, 2.0]))
    assert scan.jump_alpha == pytest.approx((0.95 + 2.0) / 2)
    assert math.isinf(scan.entries[0].argmax)
    assert math.isfinite(scan.entries[1].argmax)
    assert scan.entries[1].argmax == pytest.approx(
        weighted_estimator_1d(GAUSS_PROB, 0.5), rel=1e-3
    )


def test_scan_is_quiet_on_a_smooth_family():
    grid = np.array([2.0, 2.1, 2.2])
    scan = discontinuity_scan(GAUSS_PROB_FINE, grid)
    assert scan.jump_alpha is None
    assert scan.max_local_maxima == 1
    argmaxes = [e.argmax for e in scan.entries]
    assert all(np.diff(argmaxes) < 0)  # larger alpha, weaker weighting


@pytest.mark.parametrize(
    "prob, alphas",
    [
        (counterexample_problem(), np.arange(1.54, 1.69 + 0.005, 0.01)),
        (GAUSS_PROB_FINE, np.array([2.0, 2.1, 2.2])),
    ],
    ids=["criterion-07", "gauss-fine"],
)
def test_scan_refines_every_peak_inside_its_grid_bracket(prob, alphas):
    """Each finite local maximum comes from one strict rise of the default
    s grid at index i; its refined argmax lies in [grid[i-1], grid[i+1]]
    and its value, O_b at that argmax, is no lower than at those three
    grid points."""
    grid = np.linspace(1e-6, 30.0, 6001)
    scan = discontinuity_scan(prob, alphas)
    for e in scan.entries:
        vals = weighted_objective_1d(prob, e.b, grid)
        inner = vals[1:-1]
        rises = np.flatnonzero((inner > vals[:-2] + 1e-13) & (inner > vals[2:] + 1e-13)) + 1
        peaks = [p for p in e.local_maxima if math.isfinite(p[0])]
        assert len(peaks) == len(rises) >= 1, e.alpha
        for i, (s, v) in zip(rises, peaks):
            assert grid[i - 1] <= s <= grid[i + 1], e.alpha
            assert v == weighted_objective_1d(prob, e.b, s), e.alpha
            assert v >= vals[i - 1:i + 2].max(), e.alpha
