"""Self-test of the benchmark's tracing across processes.

    python3 bench/selftest.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (all by default) this makes two traced runs of run.py
with the same seed. Each run must report itself correct, which covers the
span-firing check and the exact-count check between the traced calls of
one process, and print every per-layer metric. The two runs must then
agree on every exact counter, so counts can be compared across commits as
counts. Exits 1 when any of this fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from run import WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = p.parse_args(argv)
    names = [name for name, _, _ in tracing.LAYER_METRICS]
    ok = True
    for workload in args.workloads:
        a, b = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        problems = []
        for n, result in enumerate((a, b)):
            if not result["correct"]:
                problems.append(f"run {n} reports correct=false")
            missing = [m for m in names if m not in result["metrics"]]
            if missing:
                problems.append(f"run {n} lacks {missing}")
        for m in tracing.EXACT:
            va, vb = a["metrics"][m]["value"], b["metrics"][m]["value"]
            if va != vb:
                problems.append(f"{m}: {va} != {vb}")
        ok = ok and not problems
        print(f"{workload}: " + ("ok" if not problems else "; ".join(problems)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
