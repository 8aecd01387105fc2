"""Experiment runner: configuration files, replication sweeps, theory
reports, and machine-readable outputs.

Configs are JSON with nested sections (documented in the README); flags
of the form --set a.b=value override file values. Every experiment
writes the fully-resolved config next to its outputs, and each training
run gets its own directory named by config digest and seed.

Exit codes: 0 success, 2 invalid configuration, 3 data problem,
4 training failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import ConfigError, DrFitConfig
from .data import (
    DataError,
    LabeledDataset,
    NoiseSpec,
    estimate_rho,
    inject_label_noise,
    load_dataset_csv,
    load_mnist_idx,
    prepare_ones_vs_sevens,
    save_dataset_csv,
    spd_cholesky,
    stratified_indices,
    stratified_split,
    synthetic_gaussian_2class,
)
from .nn import _ONE_THREAD_MACS, init_params
from .train import TRACE_COLUMNS, TrainConfig, TrainingError, train
from .metrics import crash_detector, detection_auc, separation_curve, weight_histogram

DATA_ROOT_ENV = "DRFIT_DATA_ROOT"

# the kinds that train nets, KINDS[:2], come first
KINDS = (
    "mnist-1v7",
    "synthetic-train",
    "theory-1d",
    "theory-mv",
    "theory-counterexample",
)

_DEFAULTS = {
    "kind": None,
    "output_dir": "runs/out",
    "replications": 1,
    "drfit": {"alpha": 1.0, "lam": 0.0, "rho": "auto"},
    "train": {
        "epochs": 20,
        "batch_size": 64,
        "theta_lr": 0.05,
        "omega_lr": 0.1,
        "burn_in": 3,
        "update_frequency": 1,
        "seed": 0,
        "solver": "analytic",
    },
    "noise": {"rates": [0.3, 0.1], "seed": 0},
    "data": {
        "root": None,
        "snapshot": None,
        "test_snapshot": None,
        "subsample": 2000,
        "val_fraction": 0.1,
        "hidden": [8],
        "n": 400,
        "mu": [1.0, 1.0],
        "cov": [[1.0, 0.3], [0.3, 1.0]],
    },
    "theory": {
        "q": 0.2,
        "mean": 1.0,
        "var": 1.0,
        "mu": [1.0, 1.0],
        "cov": [[1.0, 0.3], [0.3, 1.0]],
        "nodes": 64,
    },
    "sweep": {"alpha_grid": [1.0, 2.0, 4.0], "lam_grid": [0.0]},
}


# ---------------------------------------------------------------------------
# configuration plumbing

def _merge(cfg: dict, extra: dict, where: str, defaults: dict = _DEFAULTS, prefix: str = ""):
    """Merge extra into cfg along the defaults tree, an object value into its
    section; a key the defaults do not define, or an object aimed at a section
    that is not one, is a ConfigError naming where."""
    for k, v in extra.items():
        if k not in defaults:
            raise ConfigError(f"unknown config key {prefix + k!r} in {where}")
        if isinstance(v, dict) and isinstance(defaults[k], dict):
            if not isinstance(cfg[k], dict):
                raise ConfigError(f"config key {prefix + k!r} is not an object, for {where}")
            _merge(cfg[k], v, where, defaults[k], f"{prefix}{k}.")
        else:
            cfg[k] = v


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Defaults, then the JSON file, then each key=value override, each
    merged by _merge."""
    cfg = copy.deepcopy(_DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except FileNotFoundError:
            raise DataError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config root must be a JSON object")
        _merge(cfg, file_cfg, path)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
        for p in reversed(key.split(".")):
            value = {p: value}
        _merge(cfg, value, f"override {item!r}")
    return cfg


def _typed(value, default, key: str = ""):
    """value converted to the type of its default: an object key by key (a
    key its default lacks, or one it has and the value lacks, is a
    ConfigError), a list item by item after the default's first item, a
    number by the default's type (finite, and whole for an int key); a str
    default takes a string, a None default a string or null."""
    kind = type(default)
    if kind in (dict, list) and not isinstance(value, kind):
        raise ConfigError(f"{key} must be a {kind.__name__}, got {value!r}")
    if kind is dict:
        keys = {k: f"{key}.{k}".lstrip(".") for k in {**default, **value}}
        if unknown := [keys[k] for k in value if k not in default]:
            raise ConfigError(f"unknown config key {unknown[0]!r}")
        if missing := [keys[k] for k in default if k not in value]:
            raise ConfigError(f"missing config key {missing[0]!r}")
        return {k: _typed(v, default[k], keys[k]) for k, v in value.items()}
    if kind is list:
        return [_typed(v, default[0], key) for v in value]
    if kind not in (int, float):
        # a path or name; drfit.rho also takes a list or null, checked in validate_config
        if key != "drfit.rho" and not (isinstance(value, str) or value is None and default is None):
            raise ConfigError(f"{key} must be a string{' or null' if default is None else ''}, "
                              f"got {value!r}")
        return value
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    # a bool is an int to Python, but no number key takes one
    if (number is None or isinstance(value, bool) or not math.isfinite(number)
            or isinstance(value, float) and number != value):
        raise ConfigError(f"{key} must be a finite {kind.__name__}, got {value!r}")
    return number


def validate_config(cfg: dict) -> dict:
    """The config with every value converted to the type of its default,
    after range checks on what the runners read, so that a bad value is a
    ConfigError before any directory is created."""
    if cfg.get("kind") not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {cfg.get('kind')!r}")
    cfg = _typed(cfg, _DEFAULTS)
    d, rates, rho, sweep = cfg["data"], cfg["noise"]["rates"], cfg["drfit"]["rho"], cfg["sweep"]
    t = cfg["theory"]
    try:
        TrainConfig(**cfg["train"])
        DrFitConfig(cfg["drfit"]["alpha"], cfg["drfit"]["lam"], rho if isinstance(rho, list) else None)
        [DrFitConfig(a, lam) for a in sweep["alpha_grid"] for lam in sweep["lam_grid"]]
        _noise_spec(cfg)
        data_chol, theory_chol = spd_cholesky(d["cov"]), spd_cholesky(t["cov"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid setting: {exc}") from exc
    for ok, message in (
        (cfg["replications"] >= 1, "replications must be at least 1"),
        (len(rates) == 2, "noise.rates needs one rate per class, 2 in all"),
        (rho in ("auto", None) or isinstance(rho, list) and len(rho) == len(rates)
         and not any(isinstance(r, bool) for r in rho),
         "drfit.rho must be 'auto', null or one positive number per noise rate"),
        (0 < d["val_fraction"] < 1, "data.val_fraction must lie in (0, 1)"),
        (d["n"] > 0 and d["n"] % 2 == 0, "data.n must be a positive even number"),
        (data_chol is not None and len(data_chol) == len(d["mu"]),
         "data.cov must be symmetric positive definite, one row per entry of data.mu"),
        (all(h >= 1 for h in d["hidden"]), "data.hidden widths must be at least 1"),
        (d["subsample"] >= 1, "data.subsample must be at least 1"),
        (t["nodes"] >= 32, "theory.nodes must be at least 32"),
        (0 <= t["q"] < 0.5, "theory.q must lie in [0, 0.5)"),
        (t["mean"] > 0, "theory.mean must be positive"),
        (t["var"] > 0, "theory.var must be positive"),
        (len(t["mu"]) == 2 and any(t["mu"]), "theory.mu must be two numbers, not both 0"),
        (theory_chol is not None and len(theory_chol) == 2,
         "theory.cov must be a symmetric positive definite 2x2 matrix"),
    ):
        if not ok:
            raise ConfigError(message)
    return cfg


def config_digest(cfg: dict) -> str:
    """Stable digest of everything that affects results (output location
    excluded); key order in the source file does not matter."""
    stripped = {k: v for k, v in cfg.items() if k != "output_dir"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _drfit_config(cfg: dict, ds: LabeledDataset) -> DrFitConfig:
    section = cfg["drfit"]
    rho = section["rho"]
    if rho == "auto":
        rates = cfg["noise"]["rates"]
        sizes = np.bincount(
            ds.true_labels if ds.true_labels is not None else ds.labels,
            minlength=len(rates),
        )
        rho = estimate_rho(sizes, rates)
    return DrFitConfig(alpha=section["alpha"], lam=section["lam"], rho=rho)


def data_root(cfg: dict) -> Path:
    root = cfg["data"]["root"] or os.environ.get(DATA_ROOT_ENV)
    if not root:
        raise DataError(
            f"no data root: set data.root in the config or the {DATA_ROOT_ENV} variable"
        )
    return Path(root)


# ---------------------------------------------------------------------------
# dataset assembly

def _subsample(labels: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Ascending positions of a stratified subsample of n of the labels."""
    if n >= labels.size:
        return np.arange(labels.size)
    frac = n / labels.size
    return stratified_indices(labels, [frac, 1.0 - frac], seed=seed)[0]


def _noise_spec(cfg: dict) -> NoiseSpec:
    return NoiseSpec(tuple(cfg["noise"]["rates"]), cfg["noise"]["seed"])


def _noisy_mnist_train(cfg: dict, root: Path, noise: NoiseSpec) -> LabeledDataset:
    """The MNIST training files, filtered to 1-vs-7, subsampled, and
    relabelled by the given noise. The subsample depends on the labels
    alone, so only its images are scaled and pooled."""
    imgs, labs = load_mnist_idx(root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte")
    rows = np.flatnonzero((labs == 1) | (labs == 7))
    rows = rows[_subsample((labs[rows] == 7).astype(int), cfg["data"]["subsample"], noise.seed)]
    clean = prepare_ones_vs_sevens(imgs[rows], labs[rows])
    return inject_label_noise(clean, noise)


def _mnist_sets(cfg: dict, noise: NoiseSpec):
    """The noisy training set (a snapshot or the MNIST files) and the clean
    test set."""
    d = cfg["data"]
    if d["snapshot"]:
        noisy = load_dataset_csv(d["snapshot"])
        if noisy.true_labels is None:
            raise DataError("snapshot lacks true labels; run mnist-prep first")
        return noisy, load_dataset_csv(d["test_snapshot"]) if d["test_snapshot"] else None
    root = data_root(cfg)
    noisy = _noisy_mnist_train(cfg, root, noise)
    timgs, tlabs = load_mnist_idx(root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte")
    return noisy, prepare_ones_vs_sevens(timgs, tlabs)


def _synthetic_sets(cfg: dict, noise: NoiseSpec):
    d = cfg["data"]
    clean = synthetic_gaussian_2class(d["n"], d["mu"], d["cov"], seed=noise.seed)
    test = synthetic_gaussian_2class(d["n"], d["mu"], d["cov"], seed=noise.seed + 1000)
    return inject_label_noise(clean, noise), test


def build_datasets(cfg: dict):
    """Noisy train/val (carved after noise injection) plus the clean test set."""
    noise = _noise_spec(cfg)
    if cfg["kind"] == "mnist-1v7":
        noisy, test = _mnist_sets(cfg, noise)
    elif cfg["kind"] == "synthetic-train":
        noisy, test = _synthetic_sets(cfg, noise)
    else:
        raise ConfigError(f"kind {cfg['kind']} does not define datasets")
    vf = cfg["data"]["val_fraction"]
    train_ds, val_ds = stratified_split(noisy, [1.0 - vf, vf], seed=noise.seed + 1)
    return train_ds, val_ds, test


# ---------------------------------------------------------------------------
# training artifacts

@contextmanager
def _replacing(path):
    """A temporary path beside `path` for the block to write; os.replace
    moves it onto `path` when the block completes and it is removed when
    the block raises, so no reader ever sees a half-written artifact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path, header, rows) -> None:
    with _replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path, obj) -> None:
    with _replacing(path) as tmp, open(tmp, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _epoch_rows(trace: dict):
    """One CSV row per epoch of a trace's (epochs,) columns, blank for a
    column the trace lacks; no rows for an empty dict."""
    for e in range(len(trace.get("train_loss", ()))):
        yield [e + 1, *(repr(float(trace[k][e])) if k in trace else "" for k in TRACE_COLUMNS)]


def _write_detection(out: Path, omega, mask, bins: int = 50) -> None:
    """weight_histogram.csv and separation_curve.csv of the weights, in out."""
    hist = weight_histogram(omega, mask, bins)
    edges = list(map(repr, hist.edges.tolist()))
    _write_csv(out / "weight_histogram.csv",
               ["bin_lo", "bin_hi", "correct_count", "mislabelled_count"],
               zip(edges, edges[1:], hist.correct_counts.tolist(),
                   hist.mislabelled_counts.tolist()))
    curve = separation_curve(omega, mask)
    _write_csv(out / "separation_curve.csv", ["threshold", "correct_kept", "mislabelled_caught"],
               zip(*(map(repr, a.tolist())
                     for a in (curve.thresholds, curve.correct_kept, curve.mislabelled_caught))))


def _read_omega_csv(path) -> np.ndarray:
    """The weights of a run's omega.csv; a row that is not an index and a
    numeric weight is a DataError naming the file and the line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    omega = []
    for line, r in enumerate(rows, start=2):
        try:
            if len(r) != 2:
                raise ValueError(f"{len(r)} cells for 2 columns")
            omega.append(float(r[1]))
        except ValueError as exc:
            raise DataError(f"{path}, line {line}: {exc}") from None
    return np.array(omega)


def _validate_training(cfg: dict) -> dict:
    """validate_config's result, for a kind that trains nets."""
    cfg = validate_config(cfg)
    if cfg["kind"] not in KINDS[:2]:
        raise ConfigError(f"kind {cfg['kind']} does not train; training kinds are {KINDS[:2]}")
    return cfg


def _train_shards(train_ds, dr, base: TrainConfig, layer_sizes, n: int, val, test) -> list:
    """train's results for n nets, net r from init_params(layer_sizes, base.seed + r),
    in net order. The nets are split into one contiguous shard per CPU of the
    affinity set: the caller trains the first, forked workers the others. A step
    whose product needs more than one BLAS thread keeps one shard, as its threads
    would oversubscribe the CPUs that other shards run on. Workers write no file;
    an exception of theirs is raised here with its type."""
    step_macs = max(min(base.batch_size, train_ds.n) * a * b
                    for a, b in zip(layer_sizes, layer_sizes[1:]))
    shards = 1 if step_macs > _ONE_THREAD_MACS else min(len(os.sched_getaffinity(0)), n)
    bounds = [n * k // shards for k in range(shards + 1)]

    def shard(a: int, b: int) -> list:
        # net a + r of the shard draws from default_rng(tr.seed + r), as in one stack
        tr = dataclasses.replace(base, seed=base.seed + a)
        return train(train_ds, dr, tr, [init_params(layer_sizes, seed=tr.seed + r)
                                        for r in range(b - a)], val=val, test=test)

    if shards == 1:
        return shard(0, n)
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for a, b in zip(bounds[1:], bounds[2:]):
            reader, writer = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_shard_worker, args=(writer, shard, a, b), daemon=True)
            worker.start()
            writer.close()  # the worker holds the only writer: its death is an EOF here
            workers.append((worker, reader))
        results = shard(0, bounds[1])
        for worker, reader in workers:
            try:
                reply = reader.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(f"a training worker exited with code {worker.exitcode} "
                                   f"before sending its results") from None
            if isinstance(reply, BaseException):
                raise reply
            results += reply
        return results
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, reader in workers:
            worker.join()
            reader.close()


def _shard_worker(writer, shard, a: int, b: int) -> None:
    """Send shard(a, b), or the exception it raised, through writer."""
    try:
        reply = shard(a, b)
    except BaseException as exc:  # noqa: BLE001 - raised in the parent
        reply = exc
    writer.send(reply)


def run_training_experiment(cfg: dict, quiet: bool = False) -> dict:
    """Replication-many seeded runs plus aggregate CSVs. Returns the
    summary dictionary (also written to summary.json)."""
    cfg = _validate_training(cfg)
    base = TrainConfig(**cfg["train"])
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    digest = config_digest(cfg)
    _write_json(out / "resolved_config.json", cfg)

    train_ds, val_ds, test_ds = build_datasets(cfg)
    if train_ds.mislabel_mask is not None:
        with _replacing(out / "train_snapshot.csv") as tmp:
            save_dataset_csv(train_ds, tmp)
    dr = _drfit_config(cfg, train_ds)
    layer_sizes = [train_ds.n_features, *cfg["data"]["hidden"], 1]

    seeds = [base.seed + r for r in range(cfg["replications"])]
    t0 = time.perf_counter()
    results = _train_shards(train_ds, dr, base, layer_sizes, len(seeds), val_ds, test_ds)
    wall_time_s = time.perf_counter() - t0
    runs, omegas, failures = [], [], []
    for seed, result in zip(seeds, results):
        run_dir = out / f"{digest}-seed{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        record = {
            "digest": digest,
            "seed": seed,
            "solver": base.solver,
            "error": None,
            "crash": None,
            "final_test_acc": None,
            "peak_test_acc": None,
            "final_val_acc": None,
            "detection_auc": None,
            "weights_file": "omega.csv",
            "trace_file": "trace.csv",
            "wall_time_s": wall_time_s,
        }
        if isinstance(result, TrainingError):
            record["error"] = str(result)
            failures.append(record)
        else:
            _, omega, trace = result
            _write_csv(run_dir / "trace.csv", ["epoch", *TRACE_COLUMNS], _epoch_rows(trace))
            _write_csv(run_dir / "omega.csv", ["index", "omega"],
                       enumerate(map(repr, map(float, omega))))
            omegas.append(omega)
            # the validation set is always carved out; the test set may be absent
            record["crash"] = base.epochs > 0 and crash_detector(trace["val_acc"], 0.5)
            if base.epochs:
                record["final_val_acc"] = float(trace["val_acc"][-1])
            if base.epochs and "test_acc" in trace:
                record["final_test_acc"] = float(trace["test_acc"][-1])
                record["peak_test_acc"] = float(trace["test_acc"].max())
            if train_ds.mislabel_mask is not None and train_ds.mislabel_mask.any():
                record["detection_auc"] = detection_auc(omega, train_ds.mislabel_mask)
            runs.append((trace, record))
        _write_json(run_dir / "record.json", record)
        if not quiet:
            status = record["error"] or f"final test acc {record['final_test_acc']}"
            print(f"run seed={seed}: {status}")

    summary = _aggregate_training(cfg, out, train_ds, runs, omegas, failures)
    if not quiet:
        print(f"artifacts in {out}")
    return summary


def _aggregate_training(cfg, out: Path, train_ds, runs, omegas, failures) -> dict:
    # np.mean's pairwise sum over a contiguous run axis, as for one epoch's list
    means = {k: np.stack([t[k] for t, _ in runs], axis=-1).mean(axis=-1)
             for k in (runs[0][0] if runs else ())}
    _write_csv(out / "accuracy_by_epoch.csv", ["epoch", *(f"mean_{k}" for k in TRACE_COLUMNS)],
               _epoch_rows(means))

    summary = {
        "digest": config_digest(cfg),
        "runs": len(runs),
        "failures": len(failures),
        "crashes": sum(1 for _, r in runs if r["crash"]),
        "mean_final_test_acc": None,
        "mean_peak_test_acc": None,
        "mean_final_val_acc": None,
        "per_run_auc": [r["detection_auc"] for _, r in runs],
        "mean_weight_auc": None,
    }
    finals = [r["final_test_acc"] for _, r in runs if r["final_test_acc"] is not None]
    peaks = [r["peak_test_acc"] for _, r in runs if r["peak_test_acc"] is not None]
    vals = [r["final_val_acc"] for _, r in runs if r["final_val_acc"] is not None]
    if finals:
        summary["mean_final_test_acc"] = float(np.mean(finals))
    if peaks:
        summary["mean_peak_test_acc"] = float(np.mean(peaks))
    if vals:
        summary["mean_final_val_acc"] = float(np.mean(vals))

    mask = train_ds.mislabel_mask
    if omegas and mask is not None and mask.any():
        mean_omega = np.mean(np.stack(omegas), axis=0)
        _write_detection(out, mean_omega, mask)
        summary["mean_weight_auc"] = detection_auc(mean_omega, mask)
        order = np.argsort(mean_omega)
        k = min(10, len(order))
        _write_csv(out / "extreme_examples.csv",
                   ["rank", "kind", "index", "mean_omega", "label", "true_label"],
                   ([rank, kind, i, repr(float(mean_omega[i])), int(train_ds.labels[i]),
                     int(train_ds.true_labels[i])]
                    for kind, ends in (("lowest", order[:k]), ("highest", order[::-1][:k]))
                    for rank, i in enumerate(ends.tolist())))
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# theory reports

def _entry(key, value, target=None, tol=None, passed=None):
    return {"key": key, "value": value, "target": target, "tolerance": tol, "pass": passed}


def _report_theory_1d(cfg: dict) -> list[dict]:
    from . import theory

    t = cfg["theory"]
    prob = theory.PopulationProblem(
        theory.Gaussian(t["mean"], t["var"]), q=t["q"], nodes=t["nodes"]
    )
    entries = []
    # each (problem, b) estimate is made once in this report, and no longer remembered
    estimate = functools.cache(theory.weighted_estimator_1d)
    s_star = theory.clean_estimator_1d(prob, estimate)
    grid = [round(0.05 * i, 2) for i in range(20)]
    sw = [estimate(prob, b) for b in grid]
    s_noisy = sw[0]  # the noisy estimate is the weighted one at b = 0
    entries.append(_entry("s_star", s_star))
    entries.append(
        _entry("noisy_underestimates", s_noisy, target=f"< {s_star}", passed=s_noisy < s_star)
    )
    increasing = all(a < b for a, b in zip(sw, sw[1:]))
    entries.append(_entry("s_w_increasing_in_b", increasing, target=True, passed=increasing))
    ratio = sw[-1] / sw[0]
    entries.append(_entry("s_w_growth_ratio", ratio, target="> 3", passed=ratio > 3))
    for b in (1.0, 1.5):
        d = estimate(prob, b)
        entries.append(
            _entry(f"divergent_at_b_{b}", "divergent" if math.isinf(d) else d,
                   target="divergent", passed=math.isinf(d))
        )
    try:
        b_star = theory.find_bstar_1d(prob, estimate=estimate)
        resid = abs(estimate(prob, b_star) - s_star)
        entries.append(_entry("b_star", b_star))
        entries.append(_entry("b_star_residual", resid, tol=1e-6, passed=resid < 1e-6))
    except (theory.HypothesisViolation, theory.DivergenceError) as exc:
        entries.append(_entry("b_star", None, target=str(exc), passed=False))
    return entries


def _report_theory_mv(cfg: dict) -> list[dict]:
    from . import theory

    t = cfg["theory"]
    q, nodes = t["q"], t["nodes"]
    mu, cov = np.asarray(t["mu"]), np.asarray(t["cov"])
    entries = []

    try:
        case = theory.mv_gaussian_case(mu, cov, q, nodes=nodes)
        gauss = theory.MvGaussian(tuple(mu), tuple(map(tuple, cov)))
        clean = theory.PopulationProblem(gauss, q=0.0, nodes=nodes)
        s_star_opt = theory.general_mv_estimator(clean, 0.0)
        err = float(np.linalg.norm(s_star_opt - np.asarray(case.s_star)))
        entries.append(_entry("gaussian_s_star_error", err, tol=1e-5, passed=err < 1e-5))
        resid = theory.w_identity_residual(mu, cov, nodes=nodes)
        entries.append(_entry("w_identity_residual", resid, tol=1e-6, passed=abs(resid) < 1e-6))

        noisy = theory.PopulationProblem(gauss, q=q, nodes=nodes)
        u = np.asarray(case.u)
        for b in (0.0, 0.3, 0.6, 0.9):
            s_b = theory.general_mv_estimator(noisy, b)
            # atan2 keeps the digits that acos of a cosine near 1 loses
            angle = math.atan2(abs(float(s_b[0] * u[1] - s_b[1] * u[0])), abs(float(s_b @ u)))
            entries.append(_entry(f"direction_angle_b_{b}", angle, tol=1e-3, passed=angle < 1e-3))
        # the coefficient at b* is an estimate the b* search has made
        estimate = functools.cache(theory.weighted_estimator_1d)
        b_star = theory.find_bstar_1d(case.reduction, estimate=estimate)
        entries.append(_entry("b_star", b_star))
        s_bstar = theory.general_mv_estimator(noisy, b_star)
        gap = abs(float(s_bstar @ u) - estimate(case.reduction, b_star))
        entries.append(_entry("reduction_gap_at_b_star", gap, tol=1e-4, passed=gap < 1e-4))
    except theory.OptimisationError as exc:
        entries.append(_entry("gaussian_case", None, target=str(exc), passed=False))

    # each box beside the ratio and b* it is checked against, both computed at q = 0.2
    for name, box, target_ratio, target_b in (
            ("box1", ((-1.0, 3.0), (-2.0, 4.0)), 0.064, 0.54),
            ("box2", ((-1.0, 3.0), (-0.25, 1.25)), 0.046, None)):
        prob = theory.PopulationProblem(theory.MvUniformBox(box), q=0.2, nodes=nodes)
        try:
            res = theory.find_mv_bstar(prob, tol=2e-3)
        except theory.OptimisationError as exc:
            entries.append(_entry(f"{name}_b_star", None, target=str(exc), passed=False))
            continue
        entries.append(
            _entry(f"{name}_ratio", res.ratio, target=target_ratio, tol=0.005,
                   passed=abs(res.ratio - target_ratio) <= 0.005)
        )
        if target_b is not None:
            entries.append(
                _entry(f"{name}_b_star", res.b_star, target=target_b, tol=0.05,
                       passed=abs(res.b_star - target_b) <= 0.05)
            )
        else:
            entries.append(_entry(f"{name}_b_star", res.b_star))
        entries.append(_entry(f"{name}_newton_iterations", res.newton_iterations))
        entries.append(_entry(f"{name}_max_grad_norm", res.max_grad_norm))
    return entries


def counterexample_problem(q: float = 0.2) -> theory.PopulationProblem:
    """Two-atom class 0 against a three-atom class 1 with a heavy far atom;
    atoms are summed exactly, so no node count reaches a result."""
    from . import theory

    dist1 = theory.Discrete((-1.0, 1.0, 10.0), (0.1, 0.1, 0.8))
    dist0 = theory.Discrete((-1.0, 1.0), (0.5, 0.5))
    return theory.PopulationProblem(dist1, dist0=dist0, q=q)


def _report_theory_counterexample() -> list[dict]:
    from . import theory

    # the jump target, 1.62 +- 0.02, and the grid of alphas around it, both at q = 0.2
    jump, lo, hi, step = 1.62, 1.54, 1.69, 0.01
    report = theory.discontinuity_scan(counterexample_problem(), np.arange(lo, hi + step / 2, step))
    found = report.jump_alpha
    return [
        _entry("alpha_grid", f"[{lo}, {hi}] step {step}"),
        _entry("max_local_maxima", report.max_local_maxima, target=">= 2",
               passed=report.max_local_maxima >= 2),
        _entry("jump_alpha", found, target=jump, tol=0.02,
               passed=found is not None and abs(found - jump) <= 0.02),
        *(_entry(f"argmax_alpha_{e.alpha:.4g}", e.argmax) for e in report.entries),
    ]


def run_theory_report(cfg: dict) -> list[dict]:
    cfg = validate_config(cfg)
    kind = cfg["kind"]
    if kind == "theory-1d":
        entries = _report_theory_1d(cfg)
    elif kind == "theory-mv":
        entries = _report_theory_mv(cfg)
    elif kind == "theory-counterexample":
        entries = _report_theory_counterexample()
    else:
        raise ConfigError(f"kind {kind} is not a theory scenario")
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "resolved_config.json", cfg)
    _write_json(out / "report.json", entries)
    _write_csv(out / "report.csv", ["key", "value", "target", "tolerance", "pass"],
               ([e["key"], e["value"], e["target"], e["tolerance"], e["pass"]] for e in entries))
    for e in entries:
        if e["pass"] is None:
            print(f"INFO {e['key']} = {e['value']}")
        else:
            word = "PASS" if e["pass"] else "FAIL"
            suffix = "" if e["target"] is None else f" (target {e['target']})"
            print(f"{word} {e['key']} = {e['value']}{suffix}")
    return entries


# ---------------------------------------------------------------------------
# hyperparameter sweep

def run_sweep(cfg: dict) -> dict:
    cfg = _validate_training(cfg)
    alphas = cfg["sweep"]["alpha_grid"]
    lams = cfg["sweep"]["lam_grid"]
    if not alphas or not lams:
        raise ConfigError("sweep grids must be nonempty")
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    rows, best = [], None
    for alpha in alphas:
        for lam in lams:
            sub = copy.deepcopy(cfg)
            sub["drfit"]["alpha"] = alpha
            sub["drfit"]["lam"] = lam
            sub["output_dir"] = str(out / f"alpha{alpha}-lam{lam}")
            summary = run_training_experiment(sub, quiet=True)
            all_crashed = summary["runs"] > 0 and summary["crashes"] == summary["runs"]
            row = {
                "alpha": alpha,
                "lam": lam,
                "mean_val_acc": summary["mean_final_val_acc"],
                "crashes": summary["crashes"],
                "runs": summary["runs"],
                "all_crashed": all_crashed,
            }
            rows.append(row)
            if all_crashed or row["mean_val_acc"] is None:
                continue
            # ties break toward stronger regularisation: larger alpha, then lam
            key = (row["mean_val_acc"], row["alpha"], row["lam"])
            if best is None or key > (best["mean_val_acc"], best["alpha"], best["lam"]):
                best = row
    _write_csv(out / "sweep_table.csv",
               ["alpha", "lam", "mean_val_acc", "crashes", "runs", "all_crashed"],
               ([repr(r["alpha"]), repr(r["lam"]),
                 "" if r["mean_val_acc"] is None else repr(r["mean_val_acc"]),
                 r["crashes"], r["runs"], r["all_crashed"]] for r in rows))
    result = {"best": best, "table": rows}
    _write_json(out / "best.json", result)
    if best is None:
        print("sweep: every grid point crashed or failed")
    else:
        print(f"sweep best: alpha={best['alpha']} lam={best['lam']} "
              f"val_acc={best['mean_val_acc']:.4f}")
    return result


# ---------------------------------------------------------------------------
# detect and mnist-prep

def run_detect(run_dir: str, snapshot: str, bins: int = 50) -> dict:
    if bins < 2:
        raise ConfigError("--bins must be at least 2")
    run = Path(run_dir)
    omega_file = run / "omega.csv"
    if not omega_file.exists():
        raise DataError(f"no omega.csv in {run_dir}")
    omega = _read_omega_csv(omega_file)
    ds = load_dataset_csv(snapshot)
    if ds.mislabel_mask is None:
        raise DataError("snapshot has no mislabel mask")
    if ds.mislabel_mask.all() or not ds.mislabel_mask.any():
        raise DataError(f"{snapshot}: detection needs flipped and clean labels, "
                        f"and {int(ds.mislabel_mask.sum())} of {ds.n} are flipped")
    if len(omega) != ds.n:
        raise DataError("weights and snapshot have different lengths")
    auc = detection_auc(omega, ds.mislabel_mask)
    _write_detection(run, omega, ds.mislabel_mask, bins)
    print(f"detection AUC {auc:.4f}")
    return {"auc": auc}


def run_mnist_prep(cfg: dict, out_path: str) -> None:
    cfg = validate_config(cfg)
    if cfg["kind"] != "mnist-1v7":
        raise ConfigError(f"mnist-prep reads MNIST, kind mnist-1v7, not kind {cfg['kind']}")
    noisy = _noisy_mnist_train(cfg, data_root(cfg), _noise_spec(cfg))
    with _replacing(out_path) as tmp:
        save_dataset_csv(noisy, tmp)
    flips = int(noisy.mislabel_mask.sum())
    print(f"wrote {noisy.n} examples ({flips} flipped) to {out_path}")


# ---------------------------------------------------------------------------
# entry point

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (dotted path); flags win over the file",
    )
    p.add_argument("--output-dir", help="shorthand for --set output_dir=...")
    p.add_argument("--kind", help="shorthand for --set kind=...")


# the kind a command runs when neither --kind nor the config names one
_DEFAULT_KINDS = {"train": "synthetic-train", "sweep": "synthetic-train", "mnist-prep": "mnist-1v7"}


def _resolved(args) -> dict:
    cfg = load_config(args.config, args.overrides)
    if args.output_dir:
        cfg["output_dir"] = args.output_dir
    if args.kind:
        cfg["kind"] = args.kind
    if cfg["kind"] is None:
        cfg["kind"] = _DEFAULT_KINDS.get(args.command)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="drfit",
        description="Noise-robust weighted training experiments and theory checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run seeded training replications")
    _add_common(p_train)

    p_theory = sub.add_parser("theory", help="run a population-level report")
    _add_common(p_theory)

    p_sweep = sub.add_parser("sweep", help="grid-search alpha and lambda")
    _add_common(p_sweep)

    p_detect = sub.add_parser("detect", help="re-run detection metrics on stored weights")
    p_detect.add_argument("run_dir")
    p_detect.add_argument("snapshot", help="dataset snapshot CSV with mask")
    p_detect.add_argument("--bins", type=int, default=50)

    p_prep = sub.add_parser("mnist-prep", help="ingest, filter, inject noise, snapshot")
    _add_common(p_prep)
    p_prep.add_argument("--out", required=True, help="snapshot CSV path")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            summary = run_training_experiment(_resolved(args))
            if summary["runs"] == 0:
                print(f"training error: all {summary['failures']} replications failed",
                      file=sys.stderr)
                return 4
        elif args.command == "theory":
            run_theory_report(_resolved(args))
        elif args.command == "sweep":
            result = run_sweep(_resolved(args))
            if all(row["runs"] == 0 for row in result["table"]):
                print("training error: no grid point finished a replication",
                      file=sys.stderr)
                return 4
        elif args.command == "detect":
            run_detect(args.run_dir, args.snapshot, args.bins)
        elif args.command == "mnist-prep":
            run_mnist_prep(_resolved(args), args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
