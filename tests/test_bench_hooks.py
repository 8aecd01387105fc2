"""The benchmark's layer hooks still resolve against the program.

bench/tracing.py patches public names where their callers look them up;
a refactor that removes or renames one of them must fail here rather
than only in a traced benchmark run.
"""

import ast
import collections
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from _surrogate import write_idx_images, write_idx_labels

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACING = _BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fires() -> dict:
    """FIRES of bench/run.py, the spans each workload's traced call must
    fire; read with ast, since importing the script runs its set-up."""
    for node in ast.parse((_BENCH / "run.py").read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["FIRES"]:
            return ast.literal_eval(node.value)
    raise LookupError("bench/run.py defines no FIRES")


def _resolve(module_name, path):
    """(owner, attribute) of a hook's target; None where a name is gone,
    so that install() is what reports it."""
    module = importlib.import_module(module_name)
    head, _, tail = path.partition(".")
    owner = getattr(module, head, None)
    return owner, (getattr(owner, tail, None) if tail else None)


def test_every_hook_installs_and_is_restored():
    tracing = _load_tracing()
    before = [_resolve(m, p) for m, p, _ in tracing.HOOKS]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises HookError if a hooked name is gone
        during = [_resolve(m, p) for m, p, _ in tracing.HOOKS]
        assert all(b != d for b, d in zip(before, during))
    finally:
        tracer.uninstall()
    after = [_resolve(m, p) for m, p, _ in tracing.HOOKS]
    for (m, p, _), (owner0, attr0), (owner1, attr1) in zip(tracing.HOOKS, before, after):
        assert owner1 is owner0, f"{m}.{p} not restored"
        assert attr1 is attr0, f"{m}.{p} not restored"


def test_theory_scan_spans_fire():
    """The scan's objective must keep going through expect and
    nodes_weights, or the traced benchmark loses its theory layers."""
    tracing = _load_tracing()
    theory = importlib.import_module("drfit.theory")
    prob = importlib.import_module("drfit.cli").counterexample_problem()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        theory.discontinuity_scan(prob, [1.55, 1.6], grid_points=301)
    finally:
        tracer.uninstall()
    calls = tracer.reduce()["calls"]
    for span in ("theory.scan", "theory.objective_1d", "theory.expect", "theory.nodes"):
        assert calls[span] > 0, f"span {span} did not fire"


def test_theory_mv_spans_fire():
    """The 1-D root searches must keep going through expect, and the b*
    search through optimize.minimize, or the traced theory-mv benchmark
    loses its layers; two traced calls must count alike."""
    tracing = _load_tracing()
    theory = importlib.import_module("drfit.theory")
    cli = importlib.import_module("drfit.cli")
    cfg = cli.validate_config(cli.load_config(None, ["kind=theory-1d"]))
    box = theory.PopulationProblem(theory.MvUniformBox([[-1.0, 3.0], [-2.0, 4.0]]),
                                   q=0.2, nodes=32)
    exact = []
    for _ in range(2):
        tracer = tracing.Tracer()
        try:
            tracer.install()
            cli._report_theory_1d(cfg)
            theory.find_mv_bstar(box, tol=2e-3)
        finally:
            tracer.uninstall()
        red = tracer.reduce()
        for span in ("theory.root", "theory.bfgs", "theory.mv_bstar", "theory.expect",
                     "theory.nodes"):
            assert red["calls"][span] > 0, f"span {span} did not fire"
        layers = tracing.layer_metrics(red, 0)
        exact.append({name: layers[name] for name in tracing.EXACT})
    assert exact[0]["theory.bfgs_nit"] > 0 and exact[0]["theory.bfgs_nfev"] > 0
    assert exact[0] == exact[1]


@pytest.mark.parametrize("solver", ["analytic", "numeric"])
def test_training_spans_fire(tmp_path, solver):
    """A tiny run of each training workload's solver fires every span the
    traced benchmark requires of that workload (FIRES in bench/run.py),
    except cli.entry, which the benchmark opens itself; a refactor that
    stops calling a hooked name fails here, not only in a traced run."""
    tracing = _load_tracing()
    cli = importlib.import_module("drfit.cli")
    batch = 16 if solver == "analytic" else 40
    cfg = cli.load_config(None, [
        "kind=synthetic-train", "data.n=40", "data.hidden=[4]", "replications=2",
        "train.epochs=3", f"train.batch_size={batch}", "train.burn_in=1",
        f"train.solver={solver}", f"output_dir={tmp_path / solver}",
    ])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        cli.run_training_experiment(cfg, quiet=True)
    finally:
        tracer.uninstall()
    calls = tracer.reduce()["calls"]
    workload = {"analytic": "mnist-train", "numeric": "synthetic-numeric"}[solver]
    spans = [s for s in _fires()[workload] if s != tracing.ENTRY]
    assert "train.eval" in spans and "nn.backward" in spans
    silent = [s for s in spans if calls[s] == 0]
    assert not silent, f"spans never fired: {silent}"


def test_mnist_ingestion_spans_fire(tmp_path, monkeypatch):
    """data.build times MNIST ingestion only while drfit.cli calls
    load_mnist_idx and prepare_ones_vs_sevens by those names: a tiny
    kind=mnist-1v7 run on an IDX corpus calls each hooked name once for
    the training files and once for the test files, and fires every span
    the traced mnist-train workload requires."""
    tracing = _load_tracing()
    cli = importlib.import_module("drfit.cli")
    rng = np.random.default_rng(0)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for stem, n in (("train", 120), ("t10k", 40)):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        write_idx_images(corpus / f"{stem}-images-idx3-ubyte", images)
        labels = rng.permutation(np.resize(np.array([1, 7, 3], dtype=np.uint8), n))
        write_idx_labels(corpus / f"{stem}-labels-idx1-ubyte", labels)

    called = collections.Counter()

    def counting(name):
        fn = getattr(cli, name)

        def counted(*args, **kwargs):
            called[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in ("load_mnist_idx", "prepare_ones_vs_sevens"):
        monkeypatch.setattr(cli, name, counting(name))
    cfg = cli.load_config(None, [
        "kind=mnist-1v7", f"data.root={corpus}", "data.subsample=60", "data.hidden=[4]",
        "replications=1", "train.epochs=2", "train.batch_size=16", "train.burn_in=1",
        f"output_dir={tmp_path / 'run'}",
    ])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        cli.run_training_experiment(cfg, quiet=True)
    finally:
        tracer.uninstall()
    assert called == {"load_mnist_idx": 2, "prepare_ones_vs_sevens": 2}
    calls = tracer.reduce()["calls"]
    silent = [s for s in _fires()["mnist-train"] if s != tracing.ENTRY and calls[s] == 0]
    assert not silent, f"spans never fired: {silent}"
