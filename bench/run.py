"""drfit benchmark: four workloads through the public entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workloads (see WORKLOADS) call
``drfit.cli.run_training_experiment`` and ``drfit.cli.run_theory_report``
in one process, as a closed loop: each call starts when the previous one
has returned. Every call of a run gets the same inputs, made from --seed,
so every call must write the same result files.

Untraced (--trace 0) the last stdout line carries the end-to-end metrics:
set-up time, the median wall time of one call, and peak resident memory.
Traced (--trace 1) the layer hooks of tracing.py are installed on some
calls and the line carries the per-layer metrics instead; untraced calls
in the same run give the process metrics and the tracing overhead.

All inputs and outputs live under .bench_work/ in the repository root,
which the run removes when it ends. The digit corpus is rendered from the
seed by the renderer in tests/_surrogate.py; the shared corpus cache of the
test suite and the DRFIT_DATA_ROOT variable are never used.

CPUs cannot be pinned and file caches cannot be dropped where this was
written, so every timing is a median over calls, and the machine facts
(load average included) are printed with every result.
"""

import sys

sys.dont_write_bytecode = True  # every run compiles the same sources

import time

T_PROCESS = time.perf_counter()

import argparse
import copy
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from drfit import cli
from drfit.cli import DATA_ROOT_ENV

if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"drfit was imported from {cli.__file__}, not from this checkout")

import machine
import tracing

# A run makes at least this many calls: two give the byte-identity check,
# three a median that one slow call cannot move.
MIN_CALLS = 3
# Set-up is repeated and its median reported, so that a slow first render
# does not decide the figure.
SETUP_REPEATS = 3

MNIST_REPLICATIONS = 2
MNIST_SIZES = (1800, 200, 1000)  # train, val, test after the 1-vs-7 split

# The files criterion 13 of the acceptance suite compares; record.json
# holds wall time and is left out.
TRAINING_FILES = (
    "accuracy_by_epoch.csv",
    "weight_histogram.csv",
    "separation_curve.csv",
    "extreme_examples.csv",
    "summary.json",
    "train_snapshot.csv",
)
RUN_FILES = ("trace.csv", "omega.csv")

# Report entries that fail at the commit that defined this benchmark
# (criteria 06 and 07); they do not count as failed operations. Every
# other entry with a pass/fail verdict must pass.
KNOWN_FAILURES = {
    "theory-mv": {"box1_ratio", "box1_b_star", "box2_ratio"},
    "theory-counterexample": {"max_local_maxima", "jump_alpha"},
}
# Entries with a verdict, per report, at that commit: none may go missing,
# and no report may shrink below its length then (the counterexample report
# has one argmax entry per alpha of its grid).
CHECKED_ENTRIES = {
    "theory-1d": {
        "noisy_underestimates", "s_w_increasing_in_b", "s_w_growth_ratio",
        "divergent_at_b_1.0", "divergent_at_b_1.5", "b_star_residual",
    },
    "theory-mv": {
        "gaussian_s_star_error", "w_identity_residual", "direction_angle_b_0.0",
        "direction_angle_b_0.3", "direction_angle_b_0.6", "direction_angle_b_0.9",
        "reduction_gap_at_b_star", "box1_ratio", "box1_b_star", "box2_ratio",
    },
    "theory-counterexample": {"max_local_maxima", "jump_alpha"},
}
REPORT_LENGTHS = {"theory-1d": 8, "theory-mv": 12, "theory-counterexample": 19}

# Quality floors for the training workloads, set below every one of the
# seeds tried when the benchmark was defined (lowest seen: mnist-train
# 0.936 and 0.971, synthetic-numeric 0.855 and 0.890): a faster program
# must still learn.
QUALITY_FLOORS = {
    "mnist-train": {"test_acc": 0.9, "weight_auc": 0.93},
    "synthetic-numeric": {"test_acc": 0.8, "weight_auc": 0.85},
}
# summary.json keys behind the quality figures
SUMMARY_KEYS = {"test_acc": "mean_final_test_acc", "weight_auc": "mean_weight_auc"}

# Figures printed for a human next to the metrics line; they are not
# end-to-end metrics because each exists on only some workloads (and
# report_pass is 0 on theory-scan, whose two verdicts are known failures).
FIGURE_UNITS = {
    "examples_per_s": "examples/s",
    "test_acc": "fraction",
    "weight_auc": "fraction",
    "report_pass": "count",
}

# Spans each workload must fire on every traced call; a hook bound to a
# name the program no longer calls fails here instead of reporting 0 s.
FIRES = {
    "mnist-train": (
        "cli.entry", "train.train", "train.eval", "nn.forward", "nn.loss",
        "nn.backward", "nn.params", "core.weights", "data.build",
        "data.snapshot", "metrics",
    ),
    "synthetic-numeric": (
        "cli.entry", "train.train", "train.eval", "nn.forward", "nn.loss",
        "nn.backward", "nn.params", "data.build", "data.snapshot", "metrics",
    ),
    "theory-scan": (
        "cli.entry", "theory.scan", "theory.objective_1d", "theory.expect",
        "theory.nodes",
    ),
    "theory-mv": (
        "cli.entry", "theory.root", "theory.bfgs", "theory.mv_bstar",
        "theory.expect", "theory.nodes",
    ),
}


class CheckFailed(Exception):
    """An output of the program is not what the benchmark expects."""


def _load_surrogate():
    """tests/_surrogate.py, imported from its file (tests/ is no package)."""
    spec = importlib.util.spec_from_file_location(
        "_surrogate", ROOT / "tests" / "_surrogate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# workloads


class Training:
    """One call is one run_training_experiment; one operation is one
    replication."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed

    def config(self, corpus: Path | None) -> dict:
        s = self.seed
        if self.name == "mnist-train":
            # the acceptance MNIST-1v7 config, analytic solver, rho auto
            sets = [
                "kind=mnist-1v7", f"data.root={corpus}", "data.subsample=2000",
                "data.hidden=[8]", "noise.rates=[0.3,0.1]", f"noise.seed={s}",
                "drfit.alpha=0.25", "drfit.lam=0.0", 'drfit.rho="auto"',
                f"replications={MNIST_REPLICATIONS}", "train.epochs=200",
                "train.batch_size=64", "train.theta_lr=0.01", f"train.seed={s}",
                "train.solver=analytic",
            ]
        else:
            # criterion 11's numeric-solver settings, full batch
            sets = [
                "kind=synthetic-train", "data.n=400", "data.hidden=[8]",
                "noise.rates=[0.2,0.2]", f"noise.seed={s}", "drfit.alpha=0.35",
                "drfit.lam=0.0", 'drfit.rho="auto"', "replications=1",
                "train.epochs=3000", "train.batch_size=400", "train.theta_lr=0.001",
                "train.omega_lr=0.02", "train.burn_in=3", f"train.seed={s}",
                "train.solver=numeric",
            ]
        return cli.load_config(None, sets)

    def setup(self, work: Path) -> None:
        corpus = None
        if self.name == "mnist-train":
            corpus = work / "corpus"
            _load_surrogate()._build(corpus, seed=self.seed)
        self.cfg = cli.validate_config(self.config(corpus))
        train_ds, val_ds, test_ds = cli.build_datasets(self.cfg)
        self.n_train = train_ds.n
        if self.name == "mnist-train":
            sizes = (train_ds.n, val_ds.n, test_ds.n)
            if sizes != MNIST_SIZES:
                raise CheckFailed(f"train/val/test sizes {sizes}, expected {MNIST_SIZES}")

    @property
    def ops_per_call(self) -> int:
        return int(self.cfg["replications"])

    def examples_per_call(self) -> int:
        return self.n_train * int(self.cfg["train"]["epochs"]) * self.ops_per_call

    def call(self, out: Path):
        cfg = copy.deepcopy(self.cfg)
        cfg["output_dir"] = str(out)
        return cli.run_training_experiment(cfg, quiet=True)

    def check(self, out: Path, summary) -> tuple[dict, dict]:
        """Returns the bytes of each compared file and the quality figures."""
        epochs = int(self.cfg["train"]["epochs"])
        if summary["failures"] or summary["runs"] != self.ops_per_call:
            raise CheckFailed(f"{summary['failures']} of {self.ops_per_call} replications failed")
        blobs = {n: (out / n).read_bytes() for n in TRAINING_FILES}
        runs = sorted(p for p in out.iterdir() if p.is_dir())
        if len(runs) != self.ops_per_call:
            raise CheckFailed(f"{len(runs)} run directories, expected {self.ops_per_call}")
        for run in runs:
            for n in RUN_FILES:
                blobs[f"{run.name}/{n}"] = (run / n).read_bytes()
            _expect_rows(blobs[f"{run.name}/trace.csv"], epochs, f"{run.name}/trace.csv")
            _expect_rows(blobs[f"{run.name}/omega.csv"], self.n_train, f"{run.name}/omega.csv")
        _expect_rows(blobs["accuracy_by_epoch.csv"], epochs, "accuracy_by_epoch.csv")
        quality = {k: summary[SUMMARY_KEYS[k]] for k in QUALITY_FLOORS[self.name]}
        for key, floor in QUALITY_FLOORS[self.name].items():
            if quality[key] is None or not quality[key] >= floor:
                raise CheckFailed(f"{key} = {quality[key]} is below {floor}")
        return blobs, quality


class Theory:
    """One call runs the workload's reports; one operation is one report.
    The reports have no random input, so the seed changes nothing here."""

    KINDS = {"theory-scan": ("theory-counterexample",), "theory-mv": ("theory-1d", "theory-mv")}

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed

    def setup(self, work: Path) -> None:
        self.cfgs = [cli.validate_config(cli.load_config(None, [f"kind={k}"]))
                     for k in self.KINDS[self.name]]

    @property
    def ops_per_call(self) -> int:
        return len(self.cfgs)

    def examples_per_call(self) -> None:
        return None

    def call(self, out: Path):
        reports = []
        for cfg in self.cfgs:
            cfg = copy.deepcopy(cfg)
            cfg["output_dir"] = str(out / cfg["kind"])
            with contextlib.redirect_stdout(io.StringIO()):
                reports.append(cli.run_theory_report(cfg))
        return reports

    def check(self, out: Path, reports) -> tuple[dict, dict]:
        """Returns the bytes of each report file and the count of passing
        verdicts."""
        blobs, passed = {}, 0
        for cfg, entries in zip(self.cfgs, reports):
            kind = cfg["kind"]
            blobs[f"{kind}/report.json"] = (out / kind / "report.json").read_bytes()
            verdicts = {e["key"]: e["pass"] for e in entries if e["pass"] is not None}
            known = KNOWN_FAILURES.get(kind, set())
            bad = sorted(k for k, ok in verdicts.items() if not ok and k not in known)
            missing = sorted(CHECKED_ENTRIES[kind] - verdicts.keys())
            if bad or missing or len(entries) < REPORT_LENGTHS[kind]:
                raise CheckFailed(f"{kind}: failing {bad}, missing {missing}, "
                                  f"{len(entries)} entries (at least {REPORT_LENGTHS[kind]})")
            passed += sum(1 for ok in verdicts.values() if ok)
        return blobs, {"report_pass": passed}


def _expect_rows(blob: bytes, rows: int, what: str) -> None:
    got = blob.count(b"\n") - 1  # header line
    if got != rows:
        raise CheckFailed(f"{what} has {got} rows, expected {rows}")


WORKLOADS = {
    "mnist-train": Training,
    "synthetic-numeric": Training,
    "theory-scan": Theory,
    "theory-mv": Theory,
}


# ---------------------------------------------------------------------------
# measurement


# record.json holds wall time, whose printed length varies, and
# resolved_config.json holds absolute paths, which differ between checkouts.
UNCOUNTED = {"record.json", "resolved_config.json"}


def _written_bytes(out: Path) -> int:
    """Bytes of the result files the call wrote."""
    return sum(p.stat().st_size for p in out.rglob("*")
               if p.is_file() and p.name not in UNCOUNTED)


def _digest(blobs: dict) -> dict:
    return {k: hashlib.sha256(v).hexdigest() for k, v in blobs.items()}


def run(args) -> dict:
    load_start = machine.loadavg()
    os.environ.pop(DATA_ROOT_ENV, None)
    import_s = time.perf_counter() - T_PROCESS

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(args, work, import_s, load_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def _measure(args, work: Path, import_s: float, load_start) -> dict:
    wl = WORKLOADS[args.workload](args.workload, args.seed)
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = []
    for k in range(repeats):
        t = time.perf_counter()
        wl.setup(work / f"setup{k}")
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    tracer = tracing.Tracer() if args.trace else None
    problems = []
    reference = None
    walls = {False: [], True: []}
    cpus = []
    layers = []
    attempted = failed = 0
    quality = {}
    start = time.perf_counter()
    i = 0
    while True:
        calls = len(walls[False]) + len(walls[True])
        enough = calls >= MIN_CALLS and (len(walls[True]) >= 2 or not args.trace)
        if enough and time.perf_counter() - start >= args.seconds:
            break
        traced = bool(args.trace) and i % 4 in (1, 2)  # u t t u u t t u ...
        out = work / "call"
        i += 1
        if traced:
            tracer.reset()
            try:
                tracer.install()
            except tracing.HookError as exc:
                problems.append(str(exc))
                break
        attempted += wl.ops_per_call
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if traced:
                with tracer.span(tracing.ENTRY):
                    result = wl.call(out)
            else:
                result = wl.call(out)
        except Exception as exc:  # a raising call fails its operations
            failed += wl.ops_per_call
            problems.append(f"call {i - 1} raised {type(exc).__name__}: {exc}")
            result = None
        finally:
            walls[traced].append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
        if result is None:
            shutil.rmtree(out, ignore_errors=True)
            break
        if not traced:
            cpus.append(time.process_time() - c0)
        try:
            blobs, quality = wl.check(out, result)
            digest = _digest(blobs)
            if reference is None:
                reference = digest
            elif digest != reference:
                differ = sorted(k for k in reference.keys() | digest.keys()
                                if reference.get(k) != digest.get(k))
                raise CheckFailed(f"result files differ from the first call: {differ}")
        except (CheckFailed, OSError) as exc:  # fails every operation of the call
            failed += wl.ops_per_call
            problems.append(f"call {i - 1}: {exc}")
        if traced:
            red = tracer.reduce()
            layers.append(dict(tracing.layer_metrics(red, _written_bytes(out)),
                               _calls=red["calls"], _spans=tracing.span_table(red)))
        shutil.rmtree(out, ignore_errors=True)

    if args.trace:
        problems += _self_test(args.workload, layers)
        metrics = _layer_summary(layers, walls, cpus)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        spans = layers[-1]["_spans"] if layers else {}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    figures = dict(quality)
    examples = wl.examples_per_call()
    if examples:
        figures["examples_per_s"] = examples / statistics.median(walls[False])
    facts = machine.facts()
    facts["loadavg_start"] = load_start
    facts["loadavg_end"] = machine.loadavg()
    print("# machine " + json.dumps(facts, sort_keys=True))
    print("# calls " + json.dumps({"untraced_s": walls[False], "traced_s": walls[True],
                                   "import_s": import_s, "setup_repeats_s": setups}))
    if args.trace:
        print("# spans " + json.dumps(spans, sort_keys=True))
    shown = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    shown += [(k, figures[k], FIGURE_UNITS[k]) for k in sorted(figures)]
    print("# " + " | ".join(f"{k} = {v:.6g} {u}" for k, v, u in shown))
    for p in problems:
        print(f"# problem: {p}", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _self_test(workload: str, layers: list) -> list:
    """Span-firing and exact-count checks over the traced calls."""
    problems = []
    for n, layer in enumerate(layers):
        silent = [s for s in FIRES[workload] if layer["_calls"][s] == 0]
        if silent:
            problems.append(f"traced call {n}: spans never fired: {silent}")
    for name in tracing.EXACT:
        values = [layer[name] for layer in layers]
        if len(set(values)) > 1:
            problems.append(f"exact counter {name} differs between traced calls: {values}")
    return problems


def _layer_summary(layers: list, walls: dict, cpus: list) -> dict:
    """Medians of the traced calls' times, the exact counts of the first
    traced call, and the process figures of the untraced calls. A run cut
    short by a failure reports 0 for what it could not measure."""
    out = {}
    for name, _, exact in tracing.LAYER_METRICS:
        if name.startswith("proc.") or name == "trace_overhead_s":
            continue
        values = [layer[name] for layer in layers] or [0]
        out[name] = values[0] if exact else statistics.median(values)
    wall_u = statistics.median(walls[False])
    cpu_s = statistics.median(cpus) if cpus else 0.0
    out["proc.cpu_s"] = cpu_s
    out["proc.cpu_util"] = cpu_s / wall_u
    out["trace_overhead_s"] = statistics.median(walls[True]) - wall_u if walls[True] else 0.0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
