"""The import surface: what `import drfit.cli` loads (no scipy module) and
what the package namespace holds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import drfit

_PROBE = """
import json, sys, types
import drfit, drfit.cli
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "theory_stack": sorted({"drfit.theory", "scipy.optimize"} & set(sys.modules)),
    "names": {n: isinstance(v, types.ModuleType) for n, v in vars(drfit).items()
              if not (n.startswith("__") and n.endswith("__")) or n == "__version__"},
}))
"""


def test_cli_import_loads_no_scipy_stats_and_package_exports_nothing():
    src = str(Path(drfit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    probe = json.loads(out.stdout)
    # training runs on numpy alone: no scipy module at all, scipy.stats included
    assert probe["scipy"] == []
    # the theory reports import drfit.theory, and with it scipy.optimize, when they run
    assert probe["theory_stack"] == []
    names = probe["names"]
    assert names.pop("__version__") is False
    submodules = {"cli", "core", "data", "metrics", "nn", "theory", "train"}
    assert set(names) <= submodules and "cli" in names
    assert all(names.values()), names
