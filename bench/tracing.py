"""Layer spans for the drfit benchmark, recorded from outside the program.

Each hook replaces one public name *where its caller looks it up*: the
training loop in ``drfit.train`` imported ``mlp_forward`` by name, so the
span wraps ``drfit.train.mlp_forward``, not ``drfit.nn.mlp_forward``.
Modules are taken from ``importlib.import_module`` because the package
re-exports the function ``train``, which shadows the ``drfit.train``
submodule as an attribute of ``drfit``.

Spans are kept in flat arrays while a call runs (name, parent, start,
end) and are reduced only after the call returns. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute path, span). The attribute path is resolved on the
# module; "Class.method" patches the class, "submodule.func" replaces the
# module's reference to the submodule by a proxy, so scipy itself is never
# patched.
HOOKS = (
    ("drfit.cli", "train", "train.train"),
    ("drfit.train", "evaluate", "train.eval"),
    ("drfit.train", "mean_loss", "train.eval"),
    ("drfit.train", "mlp_forward", "nn.forward"),
    ("drfit.train", "per_example_loss", "nn.loss"),
    ("drfit.train", "weighted_backward", "nn.backward"),
    ("drfit.nn", "MlpParams.flatten", "nn.params"),
    ("drfit.nn", "MlpParams.unflatten", "nn.params"),
    ("drfit.nn", "MlpParams.copy", "nn.params"),
    ("drfit.train", "analytic_weights", "core.weights"),
    ("drfit.cli", "load_mnist_idx", "data.build"),
    ("drfit.cli", "prepare_ones_vs_sevens", "data.build"),
    ("drfit.cli", "synthetic_gaussian_2class", "data.build"),
    ("drfit.cli", "inject_label_noise", "data.build"),
    ("drfit.cli", "stratified_split", "data.build"),
    ("drfit.cli", "estimate_rho", "data.build"),
    ("drfit.cli", "save_dataset_csv", "data.snapshot"),
    ("drfit.cli", "detection_auc", "metrics"),
    ("drfit.cli", "weight_histogram", "metrics"),
    ("drfit.cli", "separation_curve", "metrics"),
    ("drfit.cli", "crash_detector", "metrics"),
    ("drfit.theory", "weighted_objective_1d", "theory.objective_1d"),
    ("drfit.theory", "expect", "theory.expect"),
    ("drfit.theory", "nodes_weights", "theory.nodes"),
    ("drfit.theory", "discontinuity_scan", "theory.scan"),
    ("drfit.theory", "clean_estimator_1d", "theory.root"),
    ("drfit.theory", "noisy_estimator_1d", "theory.root"),
    ("drfit.theory", "weighted_estimator_1d", "theory.root"),
    ("drfit.theory", "find_bstar_1d", "theory.root"),
    ("drfit.theory", "optimize.minimize", "theory.bfgs"),
    ("drfit.theory", "find_mv_bstar", "theory.mv_bstar"),
)

# The benchmark opens this span itself around the public entry point.
ENTRY = "cli.entry"

SPANS = tuple(dict.fromkeys([ENTRY] + [span for _, _, span in HOOKS]))

# (name, unit, exact). Exact counters must repeat bit for bit between two
# traced calls of the same inputs; times never do.
LAYER_METRICS = (
    ("train.steps", "count", True),
    ("train.step_us", "us", False),
    ("train.self_s", "s", False),
    ("train.eval_s", "s", False),
    ("train.eval_calls", "count", True),
    ("nn.forward_s", "s", False),
    ("nn.forward_calls", "count", True),
    ("nn.forward_rows", "count", True),
    ("nn.loss_s", "s", False),
    ("nn.backward_s", "s", False),
    ("nn.params_s", "s", False),
    ("core.weights_s", "s", False),
    ("core.weights_calls", "count", True),
    ("data.build_s", "s", False),
    ("data.snapshot_s", "s", False),
    ("metrics.s", "s", False),
    ("cli.artifacts_s", "s", False),
    ("cli.bytes_written", "bytes", True),
    ("theory.objective_1d_s", "s", False),
    ("theory.objective_1d_points", "count", True),
    ("theory.expect_s", "s", False),
    ("theory.expect_calls", "count", True),
    ("theory.nodes_s", "s", False),
    ("theory.scan_s", "s", False),
    ("theory.root_s", "s", False),
    ("theory.bfgs_s", "s", False),
    ("theory.bfgs_calls", "count", True),
    ("theory.bfgs_nit", "count", True),
    ("theory.bfgs_nfev", "count", True),
    ("theory.mv_bstar_s", "s", False),
    ("proc.cpu_s", "s", False),
    ("proc.cpu_util", "fraction", False),
    ("trace_overhead_s", "s", False),
)

EXACT = tuple(name for name, _, exact in LAYER_METRICS if exact)


def _count_rows(counts, args, kwargs, result):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    counts["rows"] += int(np.shape(batch)[0])


def _count_points(counts, args, kwargs, result):
    s = args[2] if len(args) > 2 else kwargs["s"]
    counts["points"] += int(np.size(s))


def _count_bfgs(counts, args, kwargs, result):
    counts["nit"] += int(result.nit)
    counts["nfev"] += int(result.nfev)


_COUNTERS = {
    "nn.forward": _count_rows,
    "theory.objective_1d": _count_points,
    "theory.bfgs": _count_bfgs,
}


class HookError(LookupError):
    """A hooked name no longer exists where its caller looked it up."""


class _ModuleProxy(types.SimpleNamespace):
    """Stands in for a module reference, overriding some of its names."""

    def __init__(self, module, **overrides):
        super().__init__(**overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Installs the hooks, records spans while installed, and reduces
    them to per-span totals."""

    def __init__(self):
        self._sid = {name: i for i, name in enumerate(SPANS)}
        self._undo = []
        self.reset()

    def reset(self) -> None:
        self._names = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self.counts = {"rows": 0, "points": 0, "nit": 0, "nfev": 0}

    def _wrap(self, fn, span):
        sid = self._sid[span]
        count = _COUNTERS.get(span)
        clock = time.perf_counter

        # bookkeeping inlined rather than built on span(): this wrapper runs
        # about 800k times per theory-scan call
        def traced(*args, **kwargs):
            i = len(self._starts)
            self._names.append(sid)
            self._parents.append(self._stack[-1])
            self._starts.append(clock())
            self._ends.append(0.0)
            self._stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._ends[i] = clock()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own call."""
        i = len(self._starts)
        self._names.append(self._sid[name])
        self._parents.append(self._stack[-1])
        self._starts.append(time.perf_counter())
        self._ends.append(0.0)
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self._ends[i] = time.perf_counter()

    def install(self) -> None:
        """Patch every hook. A name that no longer resolves raises
        HookError, so a renamed function cannot silently report zero time."""
        try:
            for module_name, path, span in HOOKS:
                module = importlib.import_module(module_name)
                head, _, tail = path.partition(".")
                try:
                    owner = getattr(module, head)
                    original = getattr(owner, tail) if tail else owner
                except AttributeError:
                    raise HookError(f"span {span}: {module_name}.{path} does not exist") from None
                if not tail:
                    setattr(module, head, self._wrap(original, span))
                    self._undo.append((module, head, original))
                elif isinstance(owner, types.ModuleType):
                    proxy = _ModuleProxy(owner, **{tail: self._wrap(original, span)})
                    setattr(module, head, proxy)
                    self._undo.append((module, head, owner))
                else:
                    setattr(owner, tail, self._wrap(original, span))
                    self._undo.append((owner, tail, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def reduce(self) -> dict:
        """Per span name: calls, total seconds, self seconds; plus the
        outermost time of theory.root (estimators nest inside b* search)."""
        # copies, not views: an array exporting its buffer cannot grow
        names = np.array(self._names, dtype=np.int64)
        parents = np.array(self._parents, dtype=np.int64)
        dur = np.array(self._ends) - np.array(self._starts)
        n_span = len(SPANS)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=names.size)
        own = dur - child
        calls = np.bincount(names, minlength=n_span)
        total = np.bincount(names, weights=dur, minlength=n_span)
        self_s = np.bincount(names, weights=own, minlength=n_span)

        root = self._sid["theory.root"]
        outer = 0.0
        for i in np.flatnonzero(names == root):
            p = parents[i]
            while p >= 0 and names[p] != root:
                p = parents[p]
            if p < 0:
                outer += float(dur[i])
        return {
            "calls": {s: int(calls[k]) for s, k in self._sid.items()},
            "total": {s: float(total[k]) for s, k in self._sid.items()},
            "self": {s: float(self_s[k]) for s, k in self._sid.items()},
            "root_outer": outer,
            "counts": dict(self.counts),
        }


def span_table(red: dict) -> dict:
    """Calls, total and self seconds of every span that fired."""
    return {s: [red["calls"][s], round(red["total"][s], 6), round(red["self"][s], 6)]
            for s in SPANS if red["calls"][s]}


def layer_metrics(red: dict, bytes_written: int) -> dict:
    """The per-layer metrics of one traced call, without the process
    metrics, which the caller measures on untraced calls."""
    calls, total, own, counts = red["calls"], red["total"], red["self"], red["counts"]
    steps = calls["nn.backward"]
    step_s = total["train.train"] - total["train.eval"]
    return {
        "train.steps": steps,
        "train.step_us": step_s / steps * 1e6 if steps else 0.0,
        "train.self_s": own["train.train"],
        "train.eval_s": total["train.eval"],
        "train.eval_calls": calls["train.eval"],
        "nn.forward_s": total["nn.forward"],
        "nn.forward_calls": calls["nn.forward"],
        "nn.forward_rows": counts["rows"],
        "nn.loss_s": total["nn.loss"],
        "nn.backward_s": total["nn.backward"],
        "nn.params_s": total["nn.params"],
        "core.weights_s": total["core.weights"],
        "core.weights_calls": calls["core.weights"],
        "data.build_s": total["data.build"],
        "data.snapshot_s": total["data.snapshot"],
        "metrics.s": total["metrics"],
        "cli.artifacts_s": own[ENTRY],
        "cli.bytes_written": bytes_written,
        "theory.objective_1d_s": total["theory.objective_1d"],
        "theory.objective_1d_points": counts["points"],
        "theory.expect_s": total["theory.expect"],
        "theory.expect_calls": calls["theory.expect"],
        "theory.nodes_s": total["theory.nodes"],
        "theory.scan_s": total["theory.scan"],
        "theory.root_s": red["root_outer"],
        "theory.bfgs_s": total["theory.bfgs"],
        "theory.bfgs_calls": calls["theory.bfgs"],
        "theory.bfgs_nit": counts["nit"],
        "theory.bfgs_nfev": counts["nfev"],
        "theory.mv_bstar_s": total["theory.mv_bstar"],
    }
