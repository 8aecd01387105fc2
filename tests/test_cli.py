"""Config plumbing, run artifacts, sweeps, and exit codes."""

import csv
import hashlib
import json
import multiprocessing
import os
import re
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drfit.cli as cli
from drfit import data, nn, theory
from drfit.cli import (
    ConfigError,
    config_digest,
    load_config,
    main,
    run_detect,
    run_sweep,
    run_training_experiment,
    validate_config,
)
from drfit.data import (
    DataError,
    LabeledDataset,
    NoiseSpec,
    inject_label_noise,
    load_dataset_csv,
    load_mnist_idx,
    prepare_ones_vs_sevens,
    save_dataset_csv,
    stratified_split,
)

from _surrogate import _FILES, _build, mnist_root


def _synth_cfg(out_dir, **extra):
    overrides = [
        "kind=synthetic-train",
        "replications=2",
        "data.n=120",
        "train.epochs=3",
        "train.batch_size=32",
        "train.theta_lr=0.005",
        "noise.rates=[0.2,0.2]",
    ] + [f"{k}={v}" for k, v in extra.items()]
    cfg = load_config(None, overrides)
    cfg["output_dir"] = str(out_dir)
    return cfg


# ---------------------------------------------------------------------------
# config handling


def test_digest_ignores_key_order_and_output_dir():
    cfg = _synth_cfg("/tmp/a")
    d = config_digest(cfg)
    assert len(d) == 12 and all(c in "0123456789abcdef" for c in d)
    reordered = dict(reversed(list(cfg.items())))
    reordered["output_dir"] = "/somewhere/else"
    assert config_digest(reordered) == d
    changed = _synth_cfg("/tmp/a")
    changed["drfit"]["alpha"] = 2.0
    assert config_digest(changed) != d
    changed2 = _synth_cfg("/tmp/a")
    changed2["train"]["seed"] = 99
    assert config_digest(changed2) != d


def test_set_overrides_beat_the_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"drfit": {"alpha": 0.7}, "train": {"epochs": 9}}))
    cfg = load_config(str(path), ["drfit.alpha=0.9", "train.batch_size=8"])
    assert cfg["drfit"]["alpha"] == 0.9
    assert cfg["train"]["epochs"] == 9
    assert cfg["train"]["batch_size"] == 8
    # values parse as JSON when possible, else stay strings
    cfg2 = load_config(None, ["sweep.alpha_grid=[0.1,0.2]", "kind=mnist-1v7"])
    assert cfg2["sweep"]["alpha_grid"] == [0.1, 0.2]
    assert cfg2["kind"] == "mnist-1v7"


def test_validate_config_rejects_unknown_kind():
    cfg = load_config(None, ["kind=bogus"])
    with pytest.raises(ConfigError):
        validate_config(cfg)
    with pytest.raises(ConfigError):
        validate_config(load_config(None, ["kind=synthetic-train", "replications=0"]))


def test_malformed_override_is_a_config_error():
    with pytest.raises(ConfigError):
        load_config(None, ["no-equals-sign"])


def test_unknown_override_key_is_a_config_error():
    with pytest.raises(ConfigError, match="train.epoch"):
        load_config(None, ["kind=synthetic-train", "train.epoch=50"])
    with pytest.raises(ConfigError, match="theory.alpha_setp"):
        load_config(None, ["theory.alpha_setp=0.5"])
    with pytest.raises(ConfigError, match="train.epoch"):
        load_config(None, ['train={"epoch": 50}'])


def test_unknown_config_file_key_is_a_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"epochs": 9, "epoch": 50}}))
    with pytest.raises(ConfigError, match="train.epoch"):
        load_config(str(path), [])
    path.write_text(json.dumps({"trian": {"epochs": 9}}))
    with pytest.raises(ConfigError, match="trian"):
        load_config(str(path), [])


def test_unknown_override_key_exits_2(tmp_path, capsys):
    # train.update_frequency: a key that configs written for earlier versions may still set
    for key in ("train.epoch", "train.update_frequency"):
        argv = ["train", "--output-dir", str(tmp_path / "out"), "--set", f"{key}=2"]
        assert main(argv) == 2
        assert not any(tmp_path.iterdir())
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_keys_read_by_the_runners_are_defined():
    cfg = load_config(None, ["sweep.lam_grid=[0.5]", "data.test_snapshot=x.csv"])
    assert cfg["sweep"]["lam_grid"] == [0.5]
    assert cfg["data"]["test_snapshot"] == "x.csv"


def test_object_override_merges_into_its_section():
    cfg = load_config(None, ['drfit={"alpha": 0.5}'])
    assert cfg["drfit"] == {"alpha": 0.5, "lam": 0.0, "rho": "auto"}
    cfg = load_config(None, ['data={"mu": [2.0, 0.0]}', "data.n=50"])
    assert cfg["data"]["mu"] == [2.0, 0.0] and cfg["data"]["n"] == 50
    assert cfg["data"]["hidden"] == [8]
    with pytest.raises(ConfigError, match="drfit.alhpa"):
        load_config(None, ['drfit={"alhpa": 0.5}'])


# every runner, with a kind it runs
_RUNNERS = pytest.mark.parametrize("kind, runner", [
    ("synthetic-train", "run_training_experiment"), ("synthetic-train", "run_sweep"),
    *((k, "run_theory_report") for k in ("theory-1d", "theory-mv", "theory-counterexample")),
])


@pytest.mark.parametrize("key, value", [("train.epoch", 50), ("theory.nodez", "64"),
                                        ("data.hiden", [4]), ("outptu_dir", "elsewhere")])
@_RUNNERS
def test_an_unknown_key_of_a_config_built_in_code_fails_before_any_directory(tmp_path, kind,
                                                                            runner, key, value):
    """validate_config walks the defaults tree as load_config does, so a
    runner given a dict with a key that no default defines rejects it."""
    run = getattr(cli, runner)
    cfg = load_config(None, [f"kind={kind}"])
    cfg["output_dir"] = str(tmp_path / "out")
    *path, leaf = key.split(".")
    node = cfg
    for p in path:
        node = node[p]
    node[leaf] = value
    with pytest.raises(ConfigError, match=f"^unknown config key {re.escape(repr(key))}$"):
        run(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["data", "theory.nodes"])
@_RUNNERS
def test_a_missing_key_of_a_config_built_in_code_fails_before_any_directory(tmp_path, kind,
                                                                           runner, key):
    """A runner given a dict that lacks a key the defaults define names the
    first such key, in the defaults' order, instead of failing on a lookup."""
    cfg = load_config(None, [f"kind={kind}"])
    cfg["output_dir"] = str(tmp_path / "out")
    *path, leaf = key.split(".")
    node = cfg
    for p in path:
        node = node[p]
    del node[leaf]
    with pytest.raises(ConfigError, match=f"^missing config key {re.escape(repr(key))}$"):
        getattr(cli, runner)(cfg)
    with pytest.raises(ConfigError, match="^missing config key 'replications'$"):
        getattr(cli, runner)({"kind": kind, "output_dir": str(tmp_path / "out")})
    assert not (tmp_path / "out").exists()


def _leaf_keys(tree, prefix=""):
    for k, v in tree.items():
        yield from _leaf_keys(v, f"{prefix}{k}.") if isinstance(v, dict) else [prefix + k]


def test_every_default_key_is_in_the_readme_configuration_table():
    """The README's configuration table names every leaf of the defaults, in
    its `a.b` / `c` shorthand for keys of one section, and names no key that
    the defaults lack."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    named = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            first, *rest = re.findall(r"`([^`]+)`", row.split("|")[1])
            section = first.rpartition(".")[0]
            named |= {first, *(f"{section}.{k}" for k in rest)}
    leaves = set(_leaf_keys(cli._DEFAULTS))
    assert sorted(leaves - named) == []
    assert sorted(named - leaves) == []


def test_bad_value_type_exits_2_before_any_artifact(tmp_path):
    for k, bad in enumerate(
        ["train.epochs=abc", "train.batch_size=[4]", "train.solver=magic",
         "drfit.alpha=abc", "drfit.lam=null",
         # int(True) is 1 and float(True) 1.0, but a bool is no number
         "train.epochs=true", "drfit.alpha=true"]
    ):
        out = tmp_path / f"out{k}"
        assert main(["train", "--output-dir", str(out), "--set", bad]) == 2, bad
        assert not out.exists(), bad
    for k, argv in enumerate(
        [["train", "--set", 'data.hidden=["x"]', "--set", "train.epochs=1"],
         ["train", "--set", "replications=abc"],
         ["theory", "--kind", "theory-1d", "--set", "theory.nodes=abc"],
         ["theory", "--kind", "theory-1d", "--set", "theory.q=abc"],
         ["sweep", "--set", "train.epochs=abc"],
         *(["train", "--set", bad, "--set", "train.epochs=1"]
           for bad in ["data.n=abc", "data.val_fraction=abc", 'data.mu=[1,"a"]',
                       'data.cov=[[1,0],[0,"a"]]', "data.subsample=abc",
                       "noise.seed=abc", 'noise.rates=["x"]', "data.hidden=[true]"])]
    ):
        out = tmp_path / f"late{k}"
        assert main([*argv, "--output-dir", str(out)]) == 2, argv
        assert not out.exists(), argv
    snap = tmp_path / "prep.csv"
    assert main(["mnist-prep", "--out", str(snap), "--set", "noise.seed=abc"]) == 2
    assert not snap.exists()


def test_out_of_range_value_exits_2_before_any_artifact(tmp_path):
    bad_values = [
        "noise.rates=[0.6,0.1]", "noise.rates=[0.1]", "data.val_fraction=1.5",
        "data.val_fraction=0", "data.n=-5", "data.n=7", "data.cov=[[1,2],[2,1]]",
        # Cholesky reads the lower triangle alone, so a check on it would pass this one
        "data.cov=[[1,0.3],[0.2,1]]",
        "data.mu=[1,1,1]", "data.cov=[[1,0],[0]]", "data.hidden=[0]",
        'drfit.rho=["x"]', "drfit.rho=[-1,1]", "drfit.rho=[0.5]", "drfit.rho=5",
        "drfit.rho=magic", "drfit.rho=[true,true]",
        # an int key takes only whole numbers, every number key only finite ones
        "train.epochs=2.5", "replications=1.5", "data.n=1e400", "noise.seed=0.5",
        "drfit.lam=NaN", "train.omega_lr=Infinity", "data.cov=[[NaN,0],[0,1]]",
    ]
    for k, bad in enumerate(bad_values):
        out = tmp_path / f"out{k}"
        argv = ["train", "--output-dir", str(out), "--set", "train.epochs=1", "--set", bad]
        assert main(argv) == 2, bad
        assert not out.exists(), bad
    for k, bad in enumerate(["data.n=7", "sweep.alpha_grid=[1,-1]", "sweep.lam_grid=[-0.5]"]):
        out = tmp_path / f"sweep{k}"
        assert main(["sweep", "--output-dir", str(out), "--set", bad]) == 2, bad
        assert not out.exists(), bad
    for k, bad in enumerate(["data.subsample=0", "data.root=5", "data.snapshot=[1]",
                             "data.test_snapshot=2"]):
        out = tmp_path / f"data{k}"
        argv = ["train", "--kind", "mnist-1v7", "--output-dir", str(out), "--set", bad]
        assert main(argv) == 2, bad
        assert not out.exists(), bad
    for k, (kind, bad) in enumerate([
        ("theory-counterexample", "theory.nodes=0"), ("theory-1d", "theory.q=0.7"),
        ("theory-1d", "theory.var=0"),
        # each of these made its report raise, exit 1, after it had run
        ("theory-1d", "theory.mean=-1"), ("theory-mv", "theory.cov=[[1,2],[2,1]]"),
        ("theory-mv", "theory.cov=[[1,0.3],[0.2,1]]"), ("theory-mv", "theory.mu=[1,1,1]"),
        ("theory-mv", "theory.mu=[0,0]"),
    ]):
        out = tmp_path / f"theory{k}"
        argv = ["theory", "--kind", kind, "--output-dir", str(out), "--set", bad]
        assert main(argv) == 2, bad
        assert not out.exists(), bad
    # every subcommand checks the theory section, without importing drfit.theory
    for k, bad in enumerate(["theory.nodes=0", "theory.q=0.7", "theory.var=0"]):
        out = tmp_path / f"train-theory{k}"
        argv = ["train", "--output-dir", str(out), "--set", "train.epochs=1", "--set", bad]
        assert main(argv) == 2, bad
        assert not out.exists(), bad


def test_output_dir_must_be_a_string(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for bad in ("output_dir=5", "output_dir=null", 'output_dir=["a"]'):
        assert main(["train", "--set", "train.epochs=1", "--set", bad]) == 2, bad
    assert list(tmp_path.iterdir()) == []


def test_section_given_as_a_non_object_exits_2(tmp_path, capsys):
    for k, (argv, message) in enumerate(
        [(["train", "--set", "drfit=5"], "drfit must be a dict"),
         (["train", "--set", "train=5"], "train must be a dict"),
         (["theory", "--kind", "theory-1d", "--set", "theory=[1]"], "theory must be a dict"),
         # a value aimed inside a section or key that is not an object
         (["train", "--set", "data=5", "--set", "data.n=4"],
          "config key 'data' is not an object, for override 'data.n=4'"),
         (["train", "--set", "kind.x=1"], "kind must be one of"),
         (["train", "--set", "data.mu.x=1"], "data.mu must be a list")]
    ):
        out = tmp_path / f"out{k}"
        assert main([*argv, "--output-dir", str(out)]) == 2, argv
        assert not out.exists(), argv
        assert f"config error: {message}" in capsys.readouterr().err, argv


def test_int_spelling_of_a_float_key_resolves_to_a_float(tmp_path):
    as_int = validate_config(load_config(None, ["kind=synthetic-train", "drfit.alpha=2"]))
    as_float = validate_config(load_config(None, ["kind=synthetic-train", "drfit.alpha=2.0"]))
    assert json.dumps(as_int, sort_keys=True) == json.dumps(as_float, sort_keys=True)
    assert config_digest(as_int) == config_digest(as_float)
    assert isinstance(as_int["drfit"]["alpha"], float)
    sweep = ["sweep", "--output-dir", str(tmp_path), "--set", "sweep.alpha_grid=[1]",
             "--set", "sweep.lam_grid=[0]", "--set", "data.n=40", "--set", "train.epochs=0"]
    assert main(sweep) == 0
    assert (tmp_path / "alpha1.0-lam0.0").is_dir()


def _numeric_leaves(tree, path=()):
    """(path, default) of every number in a defaults tree, list items included."""
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from _numeric_leaves(v, (*path, k))
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from _numeric_leaves(v, (*path, i))
    elif isinstance(tree, (int, float)):
        yield path, tree


_LEAVES = list(_numeric_leaves(cli._DEFAULTS))


def _respelled(default, step, factor, flip):
    """A valid value near the default: int keys move by an even step (data.n
    stays even), float keys shrink by factor <= 1 (rates stay below 0.5, cov
    stays positive definite); flip spells it as the other number type."""
    value = default + 2 * step if isinstance(default, int) else default * factor
    if not flip:
        return value
    if isinstance(value, int):
        return float(value)
    return int(value) if value.is_integer() else value


def _assert_typed_like(value, default):
    if isinstance(default, dict):
        for k, v in value.items():
            _assert_typed_like(v, default[k])
    elif isinstance(default, list):
        for v in value:
            _assert_typed_like(v, default[0])
    elif isinstance(default, (int, float)):
        assert type(value) is type(default), (value, default)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(_LEAVES), st.integers(0, 5),
              st.one_of(st.just(1.0), st.floats(0.5, 1.0)), st.booleans()),
    max_size=12,
))
def test_validate_config_types_every_leaf_and_is_idempotent(overrides):
    cfg = load_config(None, ["kind=synthetic-train"])
    for (path, default), step, factor, flip in overrides:
        value = _respelled(default, step, factor, flip)
        # a covariance entry moves with its mirror, so the matrix stays symmetric
        mirror = (*path[:2], path[3], path[2]) if path[1:2] == ("cov",) else path
        for p in {path, mirror}:
            node = cfg
            for k in p[:-1]:
                node = node[k]
            node[p[-1]] = value
    typed = validate_config(cfg)
    _assert_typed_like(typed, cli._DEFAULTS)
    assert json.dumps(validate_config(typed), sort_keys=True) == json.dumps(typed, sort_keys=True)
    assert typed == cfg  # conversion keeps every value


def test_every_default_leaf_has_a_type_to_follow():
    def walk(value, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{key}.{k}")
        elif isinstance(value, list):
            assert value, f"{key} is an empty list"
            assert all(type(v) is type(value[0]) for v in value), key
            for v in value:
                walk(v, key)
        else:
            assert value is None or type(value) in (int, float, str), key

    walk(cli._DEFAULTS, "config")


# ---------------------------------------------------------------------------
# training artifacts


def _read_bytes_map(out_dir):
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
            if (run / n).exists():  # a failed run has neither
                blobs[f"{run.name}/{n}"] = (run / n).read_bytes()
        rec = json.loads((run / "record.json").read_text())
        rec.pop("wall_time_s")
        blobs[f"{run.name}/record.json"] = json.dumps(rec, sort_keys=True)
    return blobs


def test_experiment_writes_deterministic_artifacts(tmp_path):
    cfg_a = _synth_cfg(tmp_path / "a")
    cfg_b = _synth_cfg(tmp_path / "b")
    sum_a = run_training_experiment(cfg_a, quiet=True)
    sum_b = run_training_experiment(cfg_b, quiet=True)
    assert sum_a == sum_b
    blobs_a = _read_bytes_map(tmp_path / "a")
    blobs_b = _read_bytes_map(tmp_path / "b")
    assert blobs_a.keys() == blobs_b.keys()
    for name, blob in blobs_a.items():
        assert blob == blobs_b[name], f"artifact {name} differs between runs"


def test_artifact_writer_that_raises_leaves_no_file(tmp_path):
    target = tmp_path / "summary.json"
    with pytest.raises(RuntimeError):
        with cli._replacing(target) as tmp, open(tmp, "w") as fh:
            fh.write('{"half": ')
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []
    target.write_text("old")
    with pytest.raises(RuntimeError):
        with cli._replacing(target) as tmp, open(tmp, "w") as fh:
            fh.write("new, half written")
            raise RuntimeError("interrupted")
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
    assert target.read_text() == "old"
    with cli._replacing(target) as tmp, open(tmp, "w") as fh:
        fh.write("new")
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
    assert target.read_text() == "new"


def test_replications_share_one_stacked_run(tmp_path):
    """Each replication's artifacts equal those of a one-replication run
    with its seed, and every record carries the stacked run's wall time."""
    stacked = tmp_path / "stacked"
    run_training_experiment(_synth_cfg(stacked, replications=3), quiet=True)
    records = [json.loads(p.read_text()) for p in sorted(stacked.glob("*-seed*/record.json"))]
    assert [r["seed"] for r in records] == [0, 1, 2]
    assert len({r["wall_time_s"] for r in records}) == 1
    for seed in (0, 1, 2):
        single = tmp_path / f"seed{seed}"
        run_training_experiment(_synth_cfg(single, replications=1, **{"train.seed": seed}),
                                quiet=True)
        [run] = single.glob("*-seed*")
        mine = next(stacked.glob(f"*-seed{seed}"))
        for name in ("trace.csv", "omega.csv"):
            a = np.loadtxt(run / name, delimiter=",", skiprows=1, ndmin=2)
            b = np.loadtxt(mine / name, delimiter=",", skiprows=1, ndmin=2)
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-10)


def test_trace_and_aggregate_schemas(tmp_path):
    cfg = _synth_cfg(tmp_path, replications=8)
    run_training_experiment(cfg, quiet=True)
    run_dirs = sorted(Path(tmp_path).glob("*-seed*"))
    assert len(run_dirs) == 8
    traces = []
    for run_dir in run_dirs:
        with open(run_dir / "trace.csv", newline="") as fh:
            traces.append(list(csv.DictReader(fh)))
    columns = ["train_loss", "train_acc", "val_acc", "test_acc"]
    assert list(traces[0][0]) == ["epoch", *columns]
    assert all(len(rows) == 3 for rows in traces)
    with open(Path(tmp_path) / "accuracy_by_epoch.csv", newline="") as fh:
        agg = list(csv.DictReader(fh))
    assert list(agg[0]) == ["epoch", *(f"mean_{k}" for k in columns)]
    assert [r["epoch"] for r in agg] == ["1", "2", "3"]
    # each cell is np.mean of the runs' values, summed in its pairwise order
    for e, row in enumerate(agg):
        for k in columns:
            assert row[f"mean_{k}"] == repr(float(np.mean([float(t[e][k]) for t in traces])))
    resolved = json.loads((Path(tmp_path) / "resolved_config.json").read_text())
    assert resolved["kind"] == "synthetic-train"
    assert config_digest(resolved) == config_digest(cfg)


def test_zero_epoch_run_still_produces_artifacts(tmp_path):
    cfg = _synth_cfg(tmp_path, **{"train.epochs": 0, "replications": 1})
    summary = run_training_experiment(cfg, quiet=True)
    assert summary["runs"] == 1 and summary["failures"] == 0
    run_dir = next(Path(tmp_path).glob("*-seed*"))
    assert (run_dir / "omega.csv").exists()
    record = json.loads((run_dir / "record.json").read_text())
    assert record["error"] is None


# ---------------------------------------------------------------------------
# sweep


def test_sweep_matches_exhaustive_table_and_grid_order(tmp_path):
    base = {
        "sweep.alpha_grid": "[0.5,1.0]",
        "sweep.lam_grid": "[0.0]",
        "replications": "1",
    }
    cfg = _synth_cfg(tmp_path / "fwd", **base)
    res = run_sweep(cfg)
    table = res["table"]
    viable = [r for r in table if not r["all_crashed"] and r["mean_val_acc"] is not None]
    expected = max(viable, key=lambda r: (r["mean_val_acc"], r["alpha"], r["lam"]))
    assert res["best"] == expected

    cfg_rev = _synth_cfg(tmp_path / "rev", **dict(base, **{"sweep.alpha_grid": "[1.0,0.5]"}))
    res_rev = run_sweep(cfg_rev)
    assert res_rev["best"]["alpha"] == res["best"]["alpha"]
    acc = {r["alpha"]: r["mean_val_acc"] for r in table}
    acc_rev = {r["alpha"]: r["mean_val_acc"] for r in res_rev["table"]}
    assert acc == acc_rev  # grid order cannot leak state between points


def test_sweep_ties_break_toward_larger_alpha(tmp_path):
    """The fixed-weight baseline ignores alpha, forcing an exact tie."""
    cfg = _synth_cfg(
        tmp_path,
        **{
            "sweep.alpha_grid": "[0.5,1.0]",
            "sweep.lam_grid": "[0.0]",
            "replications": "1",
            "train.solver": "plain",
        },
    )
    res = run_sweep(cfg)
    accs = [r["mean_val_acc"] for r in res["table"]]
    assert accs[0] == accs[1]
    assert res["best"]["alpha"] == 1.0


def test_sweep_excludes_points_that_always_crash(tmp_path, monkeypatch):
    def fake_experiment(sub, quiet=False):
        if sub["drfit"]["alpha"] == 2.0:
            return {"runs": 2, "crashes": 2, "failures": 0, "mean_final_val_acc": 0.99}
        return {"runs": 2, "crashes": 0, "failures": 0, "mean_final_val_acc": 0.80}

    monkeypatch.setattr(cli, "run_training_experiment", fake_experiment)
    cfg = _synth_cfg(tmp_path, **{"sweep.alpha_grid": "[1.0,2.0]", "sweep.lam_grid": "[0.0]"})
    res = run_sweep(cfg)
    assert res["best"]["alpha"] == 1.0
    crashed_row = next(r for r in res["table"] if r["alpha"] == 2.0)
    assert crashed_row["all_crashed"] is True


def test_theory_mv_report_carries_solver_diagnostics(tmp_path):
    """Each box adds the Newton iterations of its b* search and the largest
    final gradient norm of its solves as INFO entries, after its verdicts."""
    entries = cli.run_theory_report(
        validate_config(load_config(None, ["kind=theory-mv", f"output_dir={tmp_path}"])))
    keys = [e["key"] for e in entries]
    assert keys == [
        "gaussian_s_star_error", "w_identity_residual", "direction_angle_b_0.0",
        "direction_angle_b_0.3", "direction_angle_b_0.6", "direction_angle_b_0.9", "b_star",
        "reduction_gap_at_b_star",
        "box1_ratio", "box1_b_star", "box1_newton_iterations", "box1_max_grad_norm",
        "box2_ratio", "box2_b_star", "box2_newton_iterations", "box2_max_grad_norm",
    ]
    by_key = {e["key"]: e for e in entries}
    for box in ("box1", "box2"):
        nit, grad = by_key[f"{box}_newton_iterations"], by_key[f"{box}_max_grad_norm"]
        assert nit["pass"] is None and grad["pass"] is None
        assert isinstance(nit["value"], int) and nit["value"] > 0
        assert 0.0 <= grad["value"] <= 1e-8


def test_theory_mv_report_survives_an_optimiser_failure(tmp_path, monkeypatch):
    def failing_search(prob, **kw):
        raise theory.OptimisationError("no finite maximiser found")

    monkeypatch.setattr(theory, "find_mv_bstar", failing_search)
    code = main(["theory", "--kind", "theory-mv", "--output-dir", str(tmp_path)])
    assert code == 0
    entries = json.loads((tmp_path / "report.json").read_text())
    failed = {e["key"]: e for e in entries if e["pass"] is False}
    for box in ("box1", "box2"):
        assert failed[f"{box}_b_star"]["target"] == "no finite maximiser found"


def test_theory_reports_make_each_estimate_once(monkeypatch):
    """One theory-1d and one theory-mv report make each 1-D estimate, keyed
    by (problem, b), once; and no root search evaluates its score twice at
    one point, so brentq takes its bracket ends from the expansion."""
    made = Counter()
    real_estimate, real_m = theory.weighted_estimator_1d, theory._m_function

    def counted(prob, b):
        made[prob, b] += 1
        return real_estimate(prob, b)

    scores = []

    def recorded(prob, b):
        m, points = real_m(prob, b), []
        scores.append(points)

        def score(s):
            points.append(s)
            return m(s)

        return score

    monkeypatch.setattr(theory, "weighted_estimator_1d", counted)
    monkeypatch.setattr(theory, "_m_function", recorded)
    cli._report_theory_1d(validate_config(load_config(None, ["kind=theory-1d"])))
    cli._report_theory_mv(validate_config(load_config(None, ["kind=theory-mv"])))
    assert made and scores
    assert max(made.values()) == 1, [k for k, n in made.items() if n > 1]
    assert all(len(points) == len(set(points)) for points in scores)


def test_node_cache_cannot_change_a_report(tmp_path):
    """The theory-1d and theory-mv reports are byte-identical whether the
    quadrature nodes are built afresh, taken from the cache, or built again
    after the cache is cleared."""

    def reports(name):
        out = []
        for kind in ("theory-1d", "theory-mv"):
            run_dir = tmp_path / f"{name}-{kind}"
            assert main(["theory", "--kind", kind, "--output-dir", str(run_dir)]) == 0
            out += [(run_dir / f).read_bytes() for f in ("report.json", "report.csv")]
        return out

    theory.nodes_weights.cache_clear()
    cold = reports("cold")
    warm = reports("warm")
    theory.nodes_weights.cache_clear()
    assert cold == warm == reports("cleared")


@pytest.mark.parametrize("kind", ["mnist-1v7", "synthetic-train"])
def test_theory_on_a_training_kind_exits_2_before_any_directory(tmp_path, capsys, kind):
    out = tmp_path / "out"
    assert main(["theory", "--kind", kind, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: kind {kind} is not a theory scenario\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["theory-1d", "theory-mv", "theory-counterexample"])
def test_a_theory_kind_defines_no_datasets(kind):
    with pytest.raises(ConfigError, match=f"^kind {kind} does not define datasets$"):
        cli.build_datasets(validate_config(load_config(None, [f"kind={kind}"])))


def test_every_verdict_with_a_tolerance_is_its_bound(tmp_path):
    """A report entry with a tolerance passes exactly when its value lies
    within it: |value - target| <= tol, or |value| < tol without a target;
    an entry without a value fails."""
    bounded = []
    for kind in ("theory-1d", "theory-mv", "theory-counterexample"):
        cfg = validate_config(load_config(None, [f"kind={kind}", f"output_dir={tmp_path / kind}"]))
        bounded += [e for e in cli.run_theory_report(cfg) if e["tolerance"] is not None]
    assert len(bounded) == 12
    for e in bounded:
        value, target, tol = e["value"], e["target"], e["tolerance"]
        within = value is not None and (abs(value) < tol if target is None
                                        else abs(value - target) <= tol)
        assert e["pass"] is within, e
    assert cli._entry("jump_alpha", None, target=1.62, tol=0.02)["pass"] is False


# ---------------------------------------------------------------------------
# detect and mnist-prep


def test_detect_recovers_recorded_auc(tmp_path):
    cfg = _synth_cfg(tmp_path, replications=1)
    run_training_experiment(cfg, quiet=True)
    run_dir = next(Path(tmp_path).glob("*-seed*"))
    record = json.loads((run_dir / "record.json").read_text())
    out = run_detect(str(run_dir), str(Path(tmp_path) / "train_snapshot.csv"))
    assert out["auc"] == pytest.approx(record["detection_auc"], abs=1e-12)
    assert (run_dir / "separation_curve.csv").exists()


def test_detect_with_too_few_bins_exits_2_and_writes_nothing(tmp_path):
    run_training_experiment(_synth_cfg(tmp_path, replications=1), quiet=True)
    run_dir = next(Path(tmp_path).glob("*-seed*"))
    before = sorted(p.name for p in run_dir.iterdir())
    snapshot = str(Path(tmp_path) / "train_snapshot.csv")
    assert main(["detect", str(run_dir), snapshot, "--bins", "1"]) == 2
    assert sorted(p.name for p in run_dir.iterdir()) == before
    assert "weight_histogram.csv" not in before
    # the bin check comes before any file is read
    assert main(["detect", str(tmp_path / "missing"), snapshot, "--bins", "1"]) == 2


def _assert_detect_exits_3(run_dir, snapshot, capsys, *needles):
    """drfit detect exits 3, names the needles on stderr, and writes nothing."""
    before = sorted(p.name for p in run_dir.iterdir())
    assert main(["detect", str(run_dir), str(snapshot)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    for needle in needles:
        assert needle in err
    assert sorted(p.name for p in run_dir.iterdir()) == before
    assert "weight_histogram.csv" not in before and "separation_curve.csv" not in before


@pytest.mark.parametrize("flipped", [False, True], ids=["none-flipped", "all-flipped"])
def test_detect_without_both_label_groups_exits_3(tmp_path, capsys, flipped):
    run_training_experiment(_synth_cfg(tmp_path, replications=1), quiet=True)
    run_dir = next(Path(tmp_path).glob("*-seed*"))
    ds = load_dataset_csv(tmp_path / "train_snapshot.csv")
    mask = np.full(ds.n, flipped)
    one_group = LabeledDataset(ds.features, np.where(mask, 1 - ds.true_labels, ds.true_labels),
                               ds.true_labels, mask)
    snapshot = tmp_path / "one_group.csv"
    save_dataset_csv(one_group, snapshot)
    _assert_detect_exits_3(run_dir, snapshot, capsys, str(snapshot), "flipped and clean")


# a snapshot's label, true_label and mislabel cells hold 0 or 1
_BAD_LABELS = {"label-minus-1": ("label", "-1"), "label-2": ("label", "2"),
               "true-label-2": ("true_label", "2"), "mislabel-2": ("mislabel", "2")}


def _with_cell(header: str, row: str, column: str, value: str) -> str:
    """The CSV row with its cell under column replaced by value."""
    cells = row.split(",")
    cells[header.split(",").index(column)] = value
    return ",".join(cells)


@pytest.mark.parametrize("kind", ["empty", "no-rows", "short-row", "non-numeric", "non-finite",
                                  *_BAD_LABELS, "not-utf-8", "directory", "missing"])
def test_detect_on_a_malformed_snapshot_exits_3(tmp_path, capsys, kind):
    run_training_experiment(_synth_cfg(tmp_path, replications=1), quiet=True)
    run_dir = next(Path(tmp_path).glob("*-seed*"))
    lines = (tmp_path / "train_snapshot.csv").read_text().splitlines()
    snapshot = tmp_path / f"{kind}.csv"
    needles = []
    if kind == "directory":
        snapshot.mkdir()
        needles = [f"Is a directory: '{snapshot}'"]
    elif kind == "missing":  # the message it had as a FileNotFoundError
        needles = [f"data error: [Errno 2] No such file or directory: '{snapshot}'"]
    elif kind == "not-utf-8":
        lines[3] = "\xe9" + lines[3]  # one byte in Latin-1
        needles = [f"{snapshot}, line 4: not UTF-8 text"]
    elif kind == "empty":
        lines = []
    elif kind == "no-rows":
        lines = lines[:1]
        needles = ["no rows"]
    elif kind == "short-row":
        lines[5] = lines[5].rsplit(",", 1)[0]
        needles = ["line 6"]
    elif kind == "non-finite":
        lines[4] = "nan" + lines[4][lines[4].index(","):]
        needles = ["line 5", "non-finite feature"]
    elif kind in _BAD_LABELS:
        column, value = _BAD_LABELS[kind]
        lines[6] = _with_cell(lines[0], lines[6], column, value)
        needles = ["line 7", f"{column} {value} is not 0 or 1"]
    else:
        lines[7] = "x" + lines[7]
        needles = ["line 8"]
    if kind not in ("directory", "missing"):
        snapshot.write_bytes("".join(line + "\n" for line in lines).encode("latin-1"))
    _assert_detect_exits_3(run_dir, snapshot, capsys, str(snapshot), *needles)


# the row that replaces line 4 (index 2) of omega.csv, and what the error says of it
_BAD_OMEGA_ROWS = {"short-row": ("2", "1 cells"), "non-numeric": ("2,abc", "abc"),
                   "nan": ("2,nan", "weight nan"), "inf": ("2,inf", "weight inf"),
                   "negative": ("2,-1.0", "weight -1.0"), "index-x": ("x,1.0", "'x'"),
                   "out-of-order": ("3,1.0", "index 3 where 2 belongs")}


@pytest.mark.parametrize("kind", [*_BAD_OMEGA_ROWS, "not-utf-8", "directory"])
def test_detect_on_a_malformed_omega_csv_exits_3(tmp_path, capsys, kind):
    run_training_experiment(_synth_cfg(tmp_path, replications=1), quiet=True)
    run_dir = next(Path(tmp_path).glob("*-seed*"))
    omega = run_dir / "omega.csv"
    lines = omega.read_text().splitlines()
    if kind == "directory":
        omega.unlink()
        omega.mkdir()
        needles = [f"Is a directory: '{omega}'"]
    elif kind == "not-utf-8":
        lines[3] = "2,1.0\xe9"  # one byte in Latin-1
        omega.write_bytes("".join(line + "\n" for line in lines).encode("latin-1"))
        needles = [f"{omega}, line 4: not UTF-8 text"]
    else:
        lines[3], needle = _BAD_OMEGA_ROWS[kind]
        omega.write_text("".join(line + "\n" for line in lines))
        needles = [str(omega), "line 4", needle]
    _assert_detect_exits_3(run_dir, tmp_path / "train_snapshot.csv", capsys, *needles)


def _mnist_cfg(root, subsample=2000):
    return validate_config(load_config(None, [
        "kind=mnist-1v7", f"data.root={root}", f"data.subsample={subsample}",
        "noise.rates=[0.3,0.1]", "noise.seed=0",
    ]))


def test_mnist_datasets_are_those_of_pooling_every_image_first(tmp_path):
    """build_datasets picks the training subsample from the 1-vs-7 labels
    and pools only its images; the sets are those of pooling every 1 and 7
    and then subsampling, the order this replaced, and their bytes on the
    seed-0 bench corpus are the ones that order wrote."""
    _build(tmp_path, seed=0)
    sets = cli.build_datasets(_mnist_cfg(tmp_path))
    every = prepare_ones_vs_sevens(*load_mnist_idx(tmp_path / _FILES[0], tmp_path / _FILES[1]))
    frac = 2000 / every.n
    clean, _ = stratified_split(every, [frac, 1.0 - frac], seed=0)
    noisy = inject_label_noise(clean, NoiseSpec((0.3, 0.1), 0))
    test = prepare_ones_vs_sevens(*load_mnist_idx(tmp_path / _FILES[2], tmp_path / _FILES[3]))
    h = hashlib.sha256()
    for got, want in zip(sets, [*stratified_split(noisy, [0.9, 0.1], seed=1), test]):
        assert np.array_equal(got.features, want.features)
        for name in ("labels", "true_labels", "mislabel_mask"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for a in (got.features, got.labels, got.true_labels, got.mislabel_mask):
            if a is not None:
                h.update(a.tobytes())
    assert [ds.n for ds in sets] == [1800, 200, 1000]
    assert h.hexdigest() == "e745a78dfde7fcc04b5f714adb9cbbe4366465396a77aaa24c06e866c56c6910"


def test_only_the_training_subsample_is_pooled(monkeypatch):
    root, _ = mnist_root()
    pool2x2 = data.pool2x2
    pooled = []

    def counting(block):
        pooled.append(block.shape[0])
        return pool2x2(block)

    monkeypatch.setattr(data, "pool2x2", counting)
    train, val, test = cli.build_datasets(_mnist_cfg(root, subsample=300))
    assert train.n + val.n == 300
    # the 300 kept training rows in blocks of 256, then every test 1 and 7
    assert pooled[:2] == [256, 44]
    assert sum(pooled[2:]) == test.n


def test_mnist_prep_snapshot_roundtrip(tmp_path):
    root, _ = mnist_root()
    snap = tmp_path / "snap.csv"
    code = main(
        [
            "mnist-prep",
            "--out",
            str(snap),
            "--set",
            f"data.root={root}",
            "--set",
            "data.subsample=300",
            "--set",
            "noise.rates=[0.3,0.1]",
        ]
    )
    assert code == 0
    ds = load_dataset_csv(snap)
    assert ds.n == 300
    assert ds.n_features == 196
    # exact flip counts from the per-class rates
    flips0 = np.sum(ds.mislabel_mask & (ds.true_labels == 0))
    flips1 = np.sum(ds.mislabel_mask & (ds.true_labels == 1))
    assert flips0 == round(0.3 * np.sum(ds.true_labels == 0))
    assert flips1 == round(0.1 * np.sum(ds.true_labels == 1))


def test_sweep_trains_the_mnist_kind_it_is_given_from_snapshots_with_a_test_set(tmp_path):
    root, _ = mnist_root()
    snaps = {"train": (tmp_path / "train.csv", "[0.3,0.1]"), "test": (tmp_path / "test.csv", "[0,0]")}
    for snap, rates in snaps.values():
        prep = ["mnist-prep", "--out", str(snap), "--set", f"data.root={root}"]
        prep += ["--set", "data.subsample=200", "--set", f"noise.rates={rates}"]
        assert main(prep) == 0
    sweep = ["sweep", "--kind", "mnist-1v7", "--output-dir", str(tmp_path / "sweep")]
    for key, value in [("sweep.alpha_grid", "[1.0]"), ("data.snapshot", snaps["train"][0]),
                       ("data.test_snapshot", snaps["test"][0]), ("train.epochs", 1)]:
        sweep += ["--set", f"{key}={value}"]
    assert main(sweep) == 0
    point = tmp_path / "sweep" / "alpha1.0-lam0.0"
    assert json.loads((point / "resolved_config.json").read_text())["kind"] == "mnist-1v7"
    # the 200-row snapshot split 9:1, not the 400 synthetic rows
    assert len((point / "train_snapshot.csv").read_text().splitlines()) == 1 + 180
    assert json.loads((point / "summary.json").read_text())["mean_final_test_acc"] is not None


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes(tmp_path, capsys):
    """Each bad input exits with its code and a message naming it, before
    any directory is created."""
    config_dir, latin1 = tmp_path / "config.json", tmp_path / "latin1.json"
    config_dir.mkdir()
    latin1.write_bytes('{"kind": "synthetic-train", "output_dir": "d\xe9j\xe0"}'.encode("latin-1"))
    out = tmp_path / "out"
    for argv, code, needle in [
        (["train", "--set", "kind=bogus"], 2, "kind must be one of"),
        (["train", "--config", "/no/such/file.json"], 3,
         "config file not found: /no/such/file.json"),
        (["train", "--kind", "mnist-1v7", "--set", "data.root=/no/such/root"], 3,
         "/no/such/root/train-images-idx3-ubyte"),
        (["train", "--config", str(config_dir)], 3, f"config file cannot be read: {config_dir}"),
        (["train", "--config", str(latin1)], 2, "config is not UTF-8 text"),
        # one row per class: data.val_fraction 0.1 leaves the validation set empty, 0.6 the
        # training set
        (["train", "--set", "data.n=2"], 3, "the validation set is empty"),
        (["sweep", "--set", "data.n=2"], 3, "into 2 training and 0 validation rows"),
        (["train", "--set", "data.n=2", "--set", "data.val_fraction=0.6"], 3,
         "the training set is empty: data.val_fraction 0.6 splits the 2 noisy rows into "
         "0 training and 2 validation rows"),
    ]:
        assert main([*argv, "--output-dir", str(out)]) == code, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 2 else "data error: ") and needle in err
        assert not out.exists(), argv


def test_train_on_a_snapshot_with_a_non_finite_feature_exits_3(tmp_path, capsys):
    """A nan feature in a snapshot is a data error naming its file and line,
    not a run in which every replication diverges (exit 4)."""
    run_training_experiment(_synth_cfg(tmp_path, replications=1), quiet=True)
    lines = (tmp_path / "train_snapshot.csv").read_text().splitlines()
    lines[9] = "nan" + lines[9][lines[9].index(","):]
    snapshot = tmp_path / "nan.csv"
    snapshot.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "run"
    code = main(["train", "--kind", "mnist-1v7", "--set", f"data.snapshot={snapshot}",
                 "--set", "train.epochs=1", "--output-dir", str(out)])
    assert code == 3
    assert f"data error: {snapshot}, line 10: non-finite feature" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["label-minus-1", "label-2", "true-label-2"])
def test_train_on_a_snapshot_with_a_label_other_than_0_or_1_exits_3(tmp_path, capsys, kind):
    """A label of -1 drops out of the stratified split unseen, and a 2 fails
    only once train_snapshot.csv is written: the loader rejects both, naming
    the file and line, before any dataset is built."""
    run_training_experiment(_synth_cfg(tmp_path, replications=1), quiet=True)
    lines = (tmp_path / "train_snapshot.csv").read_text().splitlines()
    column, value = _BAD_LABELS[kind]
    lines[9] = _with_cell(lines[0], lines[9], column, value)
    snapshot = tmp_path / "bad.csv"
    snapshot.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "run"
    code = main(["train", "--kind", "mnist-1v7", "--set", f"data.snapshot={snapshot}",
                 "--set", "train.epochs=1", "--output-dir", str(out)])
    assert code == 3
    assert (f"data error: {snapshot}, line 10: {column} {value} is not 0 or 1"
            in capsys.readouterr().err)
    assert not (out / "train_snapshot.csv").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("kind", ["theory-1d", "theory-mv", "theory-counterexample"])
def test_a_kind_that_does_not_train_exits_2_before_any_artifact(tmp_path, capsys, command,
                                                                 kind):
    out = tmp_path / "run"
    assert main([command, "--kind", kind, "--output-dir", str(out)]) == 2
    assert not out.exists()
    assert f"config error: kind {kind} does not train" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["synthetic-train", "theory-mv"])
def test_mnist_prep_with_another_kind_exits_2_before_reading_a_file(tmp_path, capsys, kind):
    out = tmp_path / "snap.csv"
    argv = ["mnist-prep", "--kind", kind, "--out", str(out), "--set", "data.root=/no/such/root"]
    assert main(argv) == 2
    assert not out.exists() and not any(tmp_path.iterdir())
    assert f"not kind {kind}" in capsys.readouterr().err


def test_exit_code_4_only_when_no_replication_finishes(tmp_path, capsys):
    """Every replication clips a class to zero weight: the artifacts are
    written and the exit is 4. Two failures out of six exit 0."""
    numeric = ["train", "--kind", "synthetic-train", "--set", "data.n=120",
               "--set", "train.solver=numeric", "--set", "train.burn_in=1",
               "--set", "train.batch_size=40"]
    out = tmp_path / "all"
    code = main([*numeric, "--set", "train.epochs=3", "--set", "train.omega_lr=5",
                 "--set", "replications=2", "--output-dir", str(out)])
    assert code == 4
    assert "training error:" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"] == 0 and summary["failures"] == 2
    out = tmp_path / "some"
    code = main([*numeric, "--set", "train.epochs=6", "--set", "train.omega_lr=0.85",
                 "--set", "train.theta_lr=0.06", "--set", "data.mu=[0.5,0.5]",
                 "--set", "noise.rates=[0.2,0.2]", "--set", "noise.seed=1",
                 "--set", "replications=6", "--output-dir", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"] == 4 and summary["failures"] == 2


def test_sweep_exits_4_only_when_no_grid_point_finishes(tmp_path, capsys, monkeypatch):
    """Every replication of the one grid point clips a class to zero
    weight: the table and best.json are written and the exit is 4. One
    grid point that finishes a replication is enough for exit 0."""
    out = tmp_path / "all"
    code = main(["sweep", "--set", "sweep.alpha_grid=[1.0]", "--set", "data.n=120",
                 "--set", "train.epochs=3", "--set", "train.solver=numeric",
                 "--set", "train.omega_lr=5", "--set", "train.burn_in=1",
                 "--set", "train.batch_size=40", "--set", "replications=2",
                 "--output-dir", str(out)])
    assert code == 4
    captured = capsys.readouterr()
    assert "every grid point crashed or failed" in captured.out
    assert "training error:" in captured.err
    best = json.loads((out / "best.json").read_text())
    assert best["best"] is None and [r["runs"] for r in best["table"]] == [0]
    assert (out / "sweep_table.csv").read_text().splitlines()[1] == "1.0,0.0,,0,0,False"

    def fake_experiment(sub, quiet=False):
        # a grid point's run creates its directory and the sweep's
        Path(sub["output_dir"]).mkdir(parents=True)
        runs = 0 if sub["drfit"]["alpha"] == 2.0 else 1
        return {"runs": runs, "crashes": 0, "failures": 2 - runs,
                "mean_final_val_acc": 0.5 if runs else None}

    monkeypatch.setattr(cli, "run_training_experiment", fake_experiment)
    code = main(["sweep", "--set", "sweep.alpha_grid=[1.0,2.0]",
                 "--output-dir", str(tmp_path / "some")])
    assert code == 0


# ---------------------------------------------------------------------------
# replications on several CPUs


def _cpus(monkeypatch, n):
    """Make the affinity set, and so the shard count, n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _parent_shards(monkeypatch, worker=None):
    """The net count of each train call this process makes; a forked worker
    counts in its own copy of the list. worker(), when given, runs in the
    workers before they train."""
    calls, parent, real = [], os.getpid(), cli.train

    def counted(data, dr, tr, init, **kw):
        if os.getpid() == parent:
            calls.append(len(init))
        elif worker is not None:
            worker()
        return real(data, dr, tr, init, **kw)

    monkeypatch.setattr(cli, "train", counted)
    return calls


def _numeric_cfg(out_dir, **extra):
    return _synth_cfg(out_dir, **{"train.solver": "numeric", "train.burn_in": 1,
                                  "train.batch_size": 40, **extra})


_SHARDED_CASES = {
    # 3 nets: shards of 3, 1 + 2, 1 + 1 + 1
    "uneven": lambda out: _synth_cfg(out, replications=3),
    # nets 0 and 2 clip a class to zero weight and stop, in the parent's shard
    # and, on 3 CPUs, a worker's; the other four finish
    "failing": lambda out: _numeric_cfg(
        out, replications=6, **{"train.epochs": 6, "train.omega_lr": 0.85,
                                "train.theta_lr": 0.06, "data.mu": "[0.5,0.5]",
                                "noise.seed": 1}),
    "one-batch": lambda out: _numeric_cfg(out, replications=3, **{"train.batch_size": 200}),
}


@pytest.mark.parametrize("case", list(_SHARDED_CASES))
def test_sharded_runs_write_the_bytes_of_one_stack(tmp_path, monkeypatch, case):
    """Split over 1, 2 or 3 CPUs, a run writes the same criterion-13 files,
    traces, weights and records (bar the wall time); the parent trains the
    first shard."""
    calls = _parent_shards(monkeypatch)
    blobs = {}
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        cfg = _SHARDED_CASES[case](tmp_path / f"cpus{cpus}")
        summary = run_training_experiment(cfg, quiet=True)
        n = cfg["replications"]
        assert calls.pop() == n // min(cpus, n) and calls == []
        blobs[cpus] = _read_bytes_map(tmp_path / f"cpus{cpus}")
        assert multiprocessing.active_children() == []
    assert summary["runs"] + summary["failures"] == n
    if case == "failing":
        assert summary["failures"] == 2
    assert blobs[1] == blobs[2] == blobs[3]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_run_in_which_every_shard_fails_exits_4_on_any_cpu_count(tmp_path, capsys,
                                                                  monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    out = tmp_path / "all"
    code = main(["train", "--kind", "synthetic-train", "--set", "data.n=120",
                 "--set", "train.solver=numeric", "--set", "train.burn_in=1",
                 "--set", "train.batch_size=40", "--set", "train.epochs=3",
                 "--set", "train.omega_lr=5", "--set", "replications=3",
                 "--output-dir", str(out)])
    assert code == 4
    assert "training error: all 3 replications failed" in capsys.readouterr().err
    records = [json.loads(p.read_text()) for p in sorted(out.glob("*-seed*/record.json"))]
    assert [r["error"] for r in records] == [
        "all weights of class 0 are zero in a batch (epoch 2)"] * 3
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("batch_size, shards", [(64, 3), (65, 1)])
def test_a_step_product_past_one_blas_thread_starts_no_worker(tmp_path, monkeypatch,
                                                              batch_size, shards):
    """64 rows through a 64 x 64 layer are nn._ONE_THREAD_MACS multiply-adds;
    one row more would wake OpenBLAS's threads, so the parent trains every net."""
    assert 64 * 64 * 64 == nn._ONE_THREAD_MACS
    _cpus(monkeypatch, 3)
    calls = _parent_shards(monkeypatch)
    if shards == 1:  # a worker would need a context
        monkeypatch.setattr(multiprocessing, "get_context", None)
    cfg = _synth_cfg(tmp_path, replications=3, **{"data.hidden": "[64,64]",
                                                  "train.epochs": 1,
                                                  "train.batch_size": batch_size})
    run_training_experiment(cfg, quiet=True)
    assert calls == [3 // shards]


def _assert_nothing_half_written(out):
    assert not list(out.rglob("*.tmp"))
    assert not list(out.glob("*-seed*")) and not (out / "summary.json").exists()
    assert multiprocessing.active_children() == []


def test_a_worker_error_reaches_the_caller_with_its_type(tmp_path, monkeypatch):
    _cpus(monkeypatch, 3)

    def fail():
        raise DataError("a worker's shard failed")

    _parent_shards(monkeypatch, worker=fail)
    with pytest.raises(DataError, match="a worker's shard failed"):
        run_training_experiment(_synth_cfg(tmp_path, replications=3), quiet=True)
    _assert_nothing_half_written(tmp_path)


def test_a_worker_that_dies_without_a_reply_is_an_error_naming_its_exit_code(tmp_path,
                                                                            monkeypatch):
    _cpus(monkeypatch, 2)
    _parent_shards(monkeypatch, worker=lambda: os._exit(7))
    with pytest.raises(RuntimeError, match="exited with code 7"):
        run_training_experiment(_synth_cfg(tmp_path), quiet=True)
    _assert_nothing_half_written(tmp_path)


def test_an_interrupt_in_the_parent_terminates_and_joins_the_workers(tmp_path, monkeypatch):
    """The workers would sleep for a minute; the interrupt stops them at once."""
    _cpus(monkeypatch, 3)
    parent, real = os.getpid(), cli.train

    def interrupted(*args, **kw):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return real(*args, **kw)

    monkeypatch.setattr(cli, "train", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_training_experiment(_synth_cfg(tmp_path, replications=3), quiet=True)
    assert time.perf_counter() - t0 < 20
    _assert_nothing_half_written(tmp_path)
