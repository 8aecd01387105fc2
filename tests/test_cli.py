"""Config plumbing, run artifacts, sweeps, and exit codes."""

import csv
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drfit.cli as cli
from drfit import theory
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
from drfit.data import load_dataset_csv

from _surrogate import mnist_root


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


def test_unknown_override_key_exits_2(tmp_path):
    argv = ["train", "--output-dir", str(tmp_path), "--set", "train.epoch=50"]
    assert main(argv) == 2
    assert not any(tmp_path.iterdir())


def test_keys_read_by_the_runners_are_defined():
    cfg = load_config(None, ["sweep.train_kind=mnist-1v7", "data.test_snapshot=x.csv"])
    assert cfg["sweep"]["train_kind"] == "mnist-1v7"
    assert cfg["data"]["test_snapshot"] == "x.csv"


def test_object_override_merges_into_its_section():
    cfg = load_config(None, ['drfit={"alpha": 0.5}'])
    assert cfg["drfit"] == {"alpha": 0.5, "lam": 0.0, "rho": "auto"}
    cfg = load_config(None, ['data={"mu": [2.0, 0.0]}', "data.n=50"])
    assert cfg["data"]["mu"] == [2.0, 0.0] and cfg["data"]["n"] == 50
    assert cfg["data"]["hidden"] == [8]
    with pytest.raises(ConfigError, match="drfit.alhpa"):
        load_config(None, ['drfit={"alhpa": 0.5}'])


def test_bad_value_type_exits_2_before_any_artifact(tmp_path):
    for k, bad in enumerate(
        ["train.epochs=abc", "train.batch_size=[4]", "train.solver=magic",
         "drfit.alpha=abc", "drfit.lam=null"]
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
                       "noise.seed=abc", 'noise.rates=["x"]'])]
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
        "data.mu=[1,1,1]", "data.cov=[[1,0],[0]]", "data.hidden=[0]",
        'drfit.rho=["x"]', "drfit.rho=[-1,1]", "drfit.rho=[0.5]", "drfit.rho=5",
        "drfit.rho=magic",
        # an int key takes only whole numbers, every number key only finite ones
        "train.epochs=2.5", "replications=1.5", "data.n=1e400", "noise.seed=0.5",
        "drfit.lam=NaN", "train.omega_lr=Infinity", "data.cov=[[NaN,0],[0,1]]",
    ]
    for k, bad in enumerate(bad_values):
        out = tmp_path / f"out{k}"
        argv = ["train", "--output-dir", str(out), "--set", "train.epochs=1", "--set", bad]
        assert main(argv) == 2, bad
        assert not out.exists(), bad
    for k, bad in enumerate(["data.n=7", "sweep.alpha_grid=[1,-1]", "sweep.lam_grid=[-0.5]",
                             "sweep.train_kind=theory-1d"]):
        out = tmp_path / f"sweep{k}"
        assert main(["sweep", "--output-dir", str(out), "--set", bad]) == 2, bad
        assert not out.exists(), bad
    for k, bad in enumerate(["data.subsample=0", "data.root=5", "data.snapshot=[1]",
                             "data.test_snapshot=2"]):
        out = tmp_path / f"data{k}"
        argv = ["train", "--kind", "mnist-1v7", "--output-dir", str(out), "--set", bad]
        assert main(argv) == 2, bad
        assert not out.exists(), bad
    for k, bad in enumerate(["theory.nodes=0", "theory.q=0.7", "theory.alpha_step=0",
                             "theory.alpha_lo=-1", "theory.var=0", "theory.alpha_lo=2"]):
        out = tmp_path / f"theory{k}"
        argv = ["theory", "--kind", "theory-counterexample", "--output-dir", str(out), "--set", bad]
        assert main(argv) == 2, bad
        assert not out.exists(), bad


def test_output_dir_must_be_a_string(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for bad in ("output_dir=5", "output_dir=null", 'output_dir=["a"]'):
        assert main(["train", "--set", "train.epochs=1", "--set", bad]) == 2, bad
    assert list(tmp_path.iterdir()) == []


def test_section_given_as_a_non_object_exits_2(tmp_path):
    for k, argv in enumerate(
        [["train", "--set", "drfit=5"], ["train", "--set", "train=5"],
         ["theory", "--kind", "theory-1d", "--set", "theory=[1]"]]
    ):
        out = tmp_path / f"out{k}"
        assert main([*argv, "--output-dir", str(out)]) == 2, argv
        assert not out.exists(), argv


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
        node = cfg
        for p in path[:-1]:
            node = node[p]
        # alpha_hi grows where every other float shrinks: alpha_lo <= alpha_hi
        grow = path == ("theory", "alpha_hi")
        node[path[-1]] = _respelled(default, step, 1 / factor if grow else factor, flip)
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
    cfg["kind"] = "hyper-sweep"
    res = run_sweep(cfg)
    table = res["table"]
    viable = [r for r in table if not r["all_crashed"] and r["mean_val_acc"] is not None]
    expected = max(viable, key=lambda r: (r["mean_val_acc"], r["alpha"], r["lam"]))
    assert res["best"] == expected

    cfg_rev = _synth_cfg(tmp_path / "rev", **dict(base, **{"sweep.alpha_grid": "[1.0,0.5]"}))
    cfg_rev["kind"] = "hyper-sweep"
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
    cfg["kind"] = "hyper-sweep"
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
    cfg["kind"] = "hyper-sweep"
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


def test_sweep_trains_mnist_from_snapshots_with_a_test_set(tmp_path):
    root, _ = mnist_root()
    snaps = {"train": (tmp_path / "train.csv", "[0.3,0.1]"), "test": (tmp_path / "test.csv", "[0,0]")}
    for snap, rates in snaps.values():
        prep = ["mnist-prep", "--out", str(snap), "--set", f"data.root={root}"]
        prep += ["--set", "data.subsample=200", "--set", f"noise.rates={rates}"]
        assert main(prep) == 0
    cfg = load_config(
        None,
        [
            "kind=hyper-sweep",
            "sweep.train_kind=mnist-1v7",
            "sweep.alpha_grid=[1.0]",
            f"data.snapshot={snaps['train'][0]}",
            f"data.test_snapshot={snaps['test'][0]}",
            "train.epochs=1",
            f"output_dir={tmp_path / 'sweep'}",
        ],
    )
    res = run_sweep(cfg)
    assert res["table"][0]["runs"] == 1
    point = tmp_path / "sweep" / "alpha1.0-lam0.0"
    assert json.loads((point / "resolved_config.json").read_text())["kind"] == "mnist-1v7"
    assert json.loads((point / "summary.json").read_text())["mean_final_test_acc"] is not None


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes():
    assert main(["train", "--set", "kind=bogus"]) == 2
    assert main(["train", "--config", "/no/such/file.json"]) == 3
    assert (
        main(
            [
                "train",
                "--kind",
                "mnist-1v7",
                "--set",
                "data.root=/no/such/root",
                "--output-dir",
                "/tmp/drfit-exit-code-test",
            ]
        )
        == 3
    )


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
        runs = 0 if sub["drfit"]["alpha"] == 2.0 else 1
        return {"runs": runs, "crashes": 0, "failures": 2 - runs,
                "mean_final_val_acc": 0.5 if runs else None}

    monkeypatch.setattr(cli, "run_training_experiment", fake_experiment)
    code = main(["sweep", "--set", "sweep.alpha_grid=[1.0,2.0]",
                 "--output-dir", str(tmp_path / "some")])
    assert code == 0
