"""Acceptance checklist.

One test per numbered acceptance criterion, each printing a single
PASS/FAIL line with the measured quantities at the criterion's stated
tolerance. Criteria 1-8 are population-level or gradient checks; criteria
9-13 run the desk-scale training experiments on MNIST 1-vs-7 (the real
files when DRFIT_DATA_ROOT points at them, a rendered stand-in corpus
otherwise) and on synthetic Gaussians.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from drfit.core import DrFitConfig, analytic_weights, reduced_loss, reduced_loss_grad
from drfit.data import (
    NoiseSpec,
    estimate_rho,
    inject_label_noise,
    synthetic_gaussian_2class,
)
from drfit.metrics import detection_auc
from drfit.nn import init_params, mlp_forward, per_example_loss, weighted_backward
from drfit.train import TrainConfig, train
from drfit import theory
from drfit.cli import counterexample_problem, load_config, run_training_experiment

from _objective import full_objective, objective_constant
from _surrogate import mnist_root


def _check(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {verdict}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# theory suite


def _xlogx(x):
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def _class_grid(total, size, step=0.01):
    axis = np.arange(0.0, total + step / 2, step)
    if size == 2:
        first = axis[axis <= total]
        return np.column_stack([first, total - first])
    a, b = np.meshgrid(axis, axis, indexing="ij")
    rest = total - a - b
    keep = rest >= -1e-12
    return np.column_stack([a[keep], b[keep], np.maximum(rest[keep], 0.0)])


def test_criterion_01_closed_form_weights_are_optimal():
    """On 20 random small instances the closed-form weights beat every
    0.01-step point of the constrained simplex, and the collapsed-loss
    identity holds to 1e-10 relative."""
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    grid_points = 0
    for _ in range(20):
        k = int(rng.integers(1, 3))
        sizes = rng.integers(2, 4, size=k)
        labels = np.repeat(np.arange(k), sizes)
        losses = rng.uniform(0.0, 2.0, size=labels.size)
        rho = tuple(float(r) for r in rng.uniform(0.7, 1.3, size=k))
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        cfg = DrFitConfig(alpha=alpha, lam=0.3, rho=rho)
        omega_hat = analytic_weights(losses, labels, cfg)
        theta_sq = float(rng.uniform(0.0, 4.0))

        # the objective separates over classes, so sweep each class alone
        for c in range(k):
            members = np.flatnonzero(labels == c)
            grid = _class_grid(rho[c] * members.size, members.size)
            grid_points += grid.shape[0]
            l_c = losses[members]
            vals = grid @ l_c + alpha * np.sum(_xlogx(grid) - grid, axis=1)
            mine = float(
                omega_hat[members] @ l_c
                + alpha * np.sum(_xlogx(omega_hat[members]) - omega_hat[members])
            )
            assert mine <= vals.min() + 1e-10
            # spot check through the full objective at the grid's best point
            trial = omega_hat.copy()
            trial[members] = grid[int(np.argmin(vals))]
            assert full_objective(losses, omega_hat, theta_sq, cfg) <= (
                full_objective(losses, trial, theta_sq, cfg) + 1e-10
            )

        lhs = full_objective(losses, omega_hat, theta_sq, cfg)
        rhs = reduced_loss(losses, theta_sq, labels, cfg) + objective_constant(labels, cfg)
        gap = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-10

    _check(
        1,
        True,
        f"closed form beat {grid_points} simplex grid points over 20 instances; "
        f"worst identity gap {worst_gap:.2e} (tol 1e-10)",
    )


GAUSS = theory.PopulationProblem(theory.Gaussian(1.0, 1.0), q=0.2)


def test_criterion_02_label_noise_shrinks_the_fit():
    s_star = theory.clean_estimator_1d(GAUSS)
    ests = {q: theory.noisy_estimator_1d(GAUSS.with_q(q)) for q in (0.1, 0.2, 0.3)}
    ok = abs(s_star - 1.0) <= 1e-6 and all(e < 1.0 for e in ests.values())
    _check(
        2,
        ok,
        f"clean fit {s_star:.8f} (target 1 to 1e-6); noisy fits "
        + ", ".join(f"q={q}: {e:.5f}" for q, e in ests.items())
        + " all below 1",
    )


def test_criterion_03_heavy_weighting_diverges():
    s_grid = np.linspace(0.01, 30.0, 400)
    details = []
    ok = True
    for b in (1.0, 1.5):
        est = theory.weighted_estimator_1d(GAUSS, b)
        vals = theory.weighted_objective_1d(GAUSS, b, s_grid)
        rising = bool(np.all(np.diff(vals) > 0))
        ok = ok and math.isinf(est) and rising
        details.append(f"b={b}: estimate diverges, objective rising={rising}")
    _check(3, ok, "; ".join(details))


def test_criterion_04_estimate_grows_with_b_and_bstar_lands():
    grid = [round(0.1 * k, 10) for k in range(10)] + [0.95]
    values = [theory.weighted_estimator_1d(GAUSS, b) for b in grid]
    increasing = bool(np.all(np.diff(values) > 0))
    ratio = values[-1] / values[0]
    b_star = theory.find_bstar_1d(GAUSS)
    residual = abs(theory.weighted_estimator_1d(GAUSS, b_star) - theory.clean_estimator_1d(GAUSS))
    ok = increasing and ratio > 3.0 and residual < 1e-6
    _check(
        4,
        ok,
        f"estimate strictly increasing over b grid: {increasing}; "
        f"growth ratio {ratio:.1f} (>3); b*={b_star:.6f} residual {residual:.2e} (<1e-6)",
    )


def test_criterion_05_gaussian_geometry_and_reduction():
    mu = np.ones(2)
    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    prob = theory.PopulationProblem(theory.MvGaussian(mu, cov), q=0.2)
    case = theory.mv_gaussian_case(mu, cov, q=0.2)
    u = np.asarray(case.u)

    clean = theory.PopulationProblem(theory.MvGaussian(mu, cov), q=0.0)
    s_clean = np.asarray(theory.general_mv_estimator(clean, 0.0))
    star_err = float(np.max(np.abs(s_clean - np.linalg.solve(cov, mu))))

    worst_angle = 0.0
    for b in (0.0, 0.3, 0.6, 0.9):
        s_hat = np.asarray(theory.general_mv_estimator(prob, b))
        cosine = float(np.clip(s_hat @ u / np.linalg.norm(s_hat), -1.0, 1.0))
        worst_angle = max(worst_angle, math.acos(cosine))

    b_star = theory.find_bstar_1d(case.reduction)
    on_u = theory.weighted_estimator_1d(case.reduction, b_star) * u
    gap = float(np.linalg.norm(on_u - np.asarray(theory.general_mv_estimator(prob, b_star))))
    ok = star_err <= 1e-5 and worst_angle <= 1e-3 and gap <= 1e-4
    _check(
        5,
        ok,
        f"clean optimum error {star_err:.2e} (<=1e-5); worst direction angle "
        f"{worst_angle:.2e} rad (<=1e-3); reduction vs full gap {gap:.2e} at "
        f"b*={b_star:.5f} (<=1e-4)",
    )


def test_criterion_06_uniform_box_reference_numbers():
    box_a = theory.PopulationProblem(theory.MvUniformBox([[-1.0, 3.0], [-2.0, 4.0]]), q=0.2)
    res_a = theory.find_mv_bstar(box_a)
    box_b = theory.PopulationProblem(theory.MvUniformBox([[-1.0, 3.0], [-0.25, 1.25]]), q=0.2)
    res_b = theory.find_mv_bstar(box_b)
    ok = (
        abs(res_a.ratio - 0.064) <= 0.005
        and abs(res_a.b_star - 0.54) <= 0.05
        and abs(res_b.ratio - 0.046) <= 0.005
    )
    _check(
        6,
        ok,
        f"tall box ratio {res_a.ratio:.4f} (target 0.064+-0.005) at "
        f"b*={res_a.b_star:.4f} (target 0.54+-0.05); thin box ratio "
        f"{res_b.ratio:.4f} (target 0.046+-0.005)",
    )


def test_criterion_07_objective_develops_two_maxima():
    scan = theory.discontinuity_scan(counterexample_problem(), np.arange(1.54, 1.6951, 0.01))
    jump = scan.jump_alpha
    ok = (
        jump is not None
        and abs(jump - 1.62) <= 0.02
        and scan.max_local_maxima >= 2
    )
    _check(
        7,
        ok,
        f"argmax jump at alpha={jump} (target 1.62+-0.02); "
        f"most local maxima seen {scan.max_local_maxima} (target >=2)",
    )


def _kink_free_batch(seed, layer_sizes):
    rng = np.random.default_rng(seed)
    params = init_params(layer_sizes, seed=seed)
    for _ in range(50):
        x = rng.normal(size=(8, layer_sizes[0]))
        cache = mlp_forward(params, x)
        if min(np.abs(z).min() for z in cache.pre_acts) > 1e-3:
            labels = rng.integers(2, size=8)
            while np.unique(labels).size < 2:
                labels = rng.integers(2, size=8)
            return params, x, labels
    raise AssertionError("no batch clear of activation kinks")


def test_criterion_08_gradients_match_finite_differences():
    shapes = [[4, 8, 1], [6, 10, 1], [3, 6, 1], [5, 12, 1], [7, 9, 1]]
    worst = 0.0
    for seed in range(10):
        layer_sizes = shapes[seed % len(shapes)]
        params, x, labels = _kink_free_batch(seed, layer_sizes)
        assert params.n_params <= 200
        rng = np.random.default_rng(seed + 500)
        omega = rng.uniform(0.2, 2.0, size=8)
        lam = 0.25
        theta = params.flatten()

        cache = mlp_forward(params, x)
        grad = weighted_backward(params, cache, labels, omega, lam)

        def weighted_loss(vec):
            c = mlp_forward(params.unflatten(vec), x)
            return float(omega @ per_example_loss(c, labels) + 0.5 * lam * vec @ vec)

        h = 1e-6
        fd = np.empty_like(theta)
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            fd[i] = (weighted_loss(theta + e) - weighted_loss(theta - e)) / (2 * h)
        err = float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)))
        worst = max(worst, err)
        assert err < 1e-5

        # collapsed-loss gradient against differences of the collapsed loss
        cfg = DrFitConfig(alpha=0.8, lam=lam, rho=None)
        losses = per_example_loss(cache, labels)
        per_grad = np.stack(
            [
                weighted_backward(params, cache, labels, np.eye(8)[i], 0.0)
                for i in range(8)
            ]
        )
        g2 = reduced_loss_grad(per_grad, losses, theta, labels, cfg)

        def collapsed(vec):
            c = mlp_forward(params.unflatten(vec), x)
            return reduced_loss(per_example_loss(c, labels), float(vec @ vec), labels, cfg)

        fd2 = np.empty_like(theta)
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            fd2[i] = (collapsed(theta + e) - collapsed(theta - e)) / (2 * h)
        err2 = float(np.max(np.abs(g2 - fd2) / np.maximum(np.abs(fd2), 1.0)))
        worst = max(worst, err2)
        assert err2 < 1e-5
    _check(8, True, f"10 nets, worst relative gradient error {worst:.2e} (<1e-5)")


# ---------------------------------------------------------------------------
# training suite


def _mnist_cfg(out_dir, root, solver="analytic", rho="auto"):
    cfg = load_config(
        None,
        [
            "kind=mnist-1v7",
            f"data.root={root}",
            "data.subsample=2000",
            "data.hidden=[8]",
            "noise.rates=[0.3,0.1]",
            "noise.seed=0",
            "drfit.alpha=0.25",
            "drfit.lam=0.0",
            f"drfit.rho={json.dumps(rho)}",
            "replications=10",
            "train.epochs=200",
            "train.batch_size=64",
            "train.theta_lr=0.01",
            "train.seed=100",
            f"train.solver={solver}",
        ],
    )
    cfg["output_dir"] = str(out_dir)
    return cfg


@pytest.fixture(scope="module")
def mnist_runs(tmp_path_factory):
    root, source = mnist_root()
    base = tmp_path_factory.mktemp("mnist")
    runs = {"source": source, "base": base}
    for name, solver, rho in [
        ("analytic", "analytic", "auto"),
        ("plain", "plain", "auto"),
        ("analytic_flat", "analytic", None),
        ("plain_flat", "plain", None),
        ("analytic_repeat", "analytic", "auto"),
    ]:
        out = base / name
        runs[name] = run_training_experiment(_mnist_cfg(out, root, solver, rho), quiet=True)
        runs[f"{name}_dir"] = out
    print(f"training data source: {source}")
    return runs


def _best_pair_from_curve(out_dir):
    with open(Path(out_dir) / "separation_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    pairs = [(float(r["correct_kept"]), float(r["mislabelled_caught"])) for r in rows]
    return max(pairs, key=lambda p: min(p))


@pytest.mark.slow
def test_criterion_09_weighting_prevents_the_late_slide(mnist_runs):
    an, pl = mnist_runs["analytic"], mnist_runs["plain"]
    drop_an = an["mean_peak_test_acc"] - an["mean_final_test_acc"]
    drop_pl = pl["mean_peak_test_acc"] - pl["mean_final_test_acc"]
    ok = drop_an <= 0.01 and drop_pl >= 0.03
    _check(
        9,
        ok,
        f"weighted: peak {an['mean_peak_test_acc']:.4f} final "
        f"{an['mean_final_test_acc']:.4f} (drop {100 * drop_an:.2f} pts <= 1); "
        f"baseline drop {100 * drop_pl:.2f} pts (>= 3) "
        f"[data: {mnist_runs['source']}]",
    )


@pytest.mark.slow
def test_criterion_10_weights_expose_the_flipped_labels(mnist_runs):
    an = mnist_runs["analytic"]
    min_auc = min(an["per_run_auc"])
    kept, caught = _best_pair_from_curve(mnist_runs["analytic_dir"])
    ok = min_auc >= 0.95 and kept >= 0.90 and caught >= 0.90
    _check(
        10,
        ok,
        f"per-run detection AUC min {min_auc:.4f} (>=0.95); best threshold keeps "
        f"{100 * kept:.1f}% correct and catches {100 * caught:.1f}% flipped (>=90/90)",
    )


@pytest.fixture(scope="module")
def solver_agreement():
    ds = synthetic_gaussian_2class(400, [1.0, 1.0], [[1.0, 0.3], [0.3, 1.0]], seed=7)
    noisy = inject_label_noise(ds, NoiseSpec(rates=(0.2, 0.2), seed=7))
    rho = estimate_rho(np.bincount(noisy.true_labels), (0.2, 0.2))
    dr = DrFitConfig(alpha=0.35, lam=0.0, rho=tuple(rho))
    init = init_params([2, 8, 1], seed=3)
    kw = dict(epochs=3000, batch_size=400, theta_lr=0.001, seed=11)
    _, w_an, _ = train(noisy, dr, TrainConfig(solver="analytic", **kw), init)
    _, w_num, _ = train(
        noisy, dr, TrainConfig(solver="numeric", omega_lr=0.02, burn_in=3, **kw), init
    )
    return noisy, w_an, w_num


@pytest.mark.slow
def test_criterion_11_both_solvers_rank_examples_alike(solver_agreement):
    """Within each class, count ordered pairs the two final weight vectors
    rank in strictly opposite directions; ties never disagree."""
    noisy, w_an, w_num = solver_agreement
    disagree = 0
    total = 0
    for c in (0, 1):
        idx = np.flatnonzero(noisy.labels == c)
        da = np.sign(w_an[idx][:, None] - w_an[idx][None, :])
        dn = np.sign(w_num[idx][:, None] - w_num[idx][None, :])
        upper = np.triu_indices(idx.size, k=1)
        disagree += int(np.sum((da[upper] * dn[upper]) < 0))
        total += upper[0].size
    agreement = 1.0 - disagree / total
    ok = agreement >= 0.95
    _check(
        11,
        ok,
        f"pairwise ranking agreement {100 * agreement:.2f}% over {total} "
        f"within-class pairs (>=95%)",
    )


@pytest.mark.slow
def test_criterion_12_budget_arithmetic_and_flat_budget_run(mnist_runs):
    rho = estimate_rho((1000, 1000), (0.3, 0.1))
    arithmetic_ok = abs(rho[0] - 1.25) < 1e-10 and abs(rho[1] - 5.0 / 6.0) < 1e-10
    # the budgets of the drfit.rho=null runs below
    flat = DrFitConfig(alpha=0.25, rho=None).rho_for(2)
    flat_ok = np.allclose(flat, 1.0)

    an, pl = mnist_runs["analytic_flat"], mnist_runs["plain_flat"]
    drop_an = an["mean_peak_test_acc"] - an["mean_final_test_acc"]
    drop_pl = pl["mean_peak_test_acc"] - pl["mean_final_test_acc"]
    min_auc = min(an["per_run_auc"])
    kept, caught = _best_pair_from_curve(mnist_runs["analytic_flat_dir"])
    ok = (
        arithmetic_ok
        and flat_ok
        and drop_an <= 0.01
        and drop_pl >= 0.03
        and min_auc >= 0.90
        and kept >= 0.90
        and caught >= 0.90
    )
    _check(
        12,
        ok,
        f"budgets (1.25, 0.8333..) to 1e-10: {arithmetic_ok}; flat-budget run: "
        f"weighted drop {100 * drop_an:.2f} pts (<=1), baseline drop "
        f"{100 * drop_pl:.2f} pts (>=3), AUC min {min_auc:.4f} (>=0.90), "
        f"pair {100 * kept:.1f}/{100 * caught:.1f} (>=90/90)",
    )


def _metric_blobs(out_dir):
    out = Path(out_dir)
    names = [
        "accuracy_by_epoch.csv",
        "weight_histogram.csv",
        "separation_curve.csv",
        "extreme_examples.csv",
        "summary.json",
        "train_snapshot.csv",
    ]
    blobs = {n: (out / n).read_bytes() for n in names}
    for run in sorted(out.glob("*-seed*")):
        for n in ("trace.csv", "omega.csv"):
            blobs[f"{run.name}/{n}"] = (run / n).read_bytes()
    return blobs


@pytest.mark.slow
def test_criterion_13_reruns_are_byte_identical(mnist_runs):
    a = _metric_blobs(mnist_runs["analytic_dir"])
    b = _metric_blobs(mnist_runs["analytic_repeat_dir"])
    same = a.keys() == b.keys() and all(a[k] == b[k] for k in a)
    differing = [k for k in a if a.get(k) != b.get(k)]
    _check(
        13,
        same,
        f"{len(a)} metric files byte-identical across repeated runs"
        + (f"; differing: {differing}" if differing else ""),
    )
