"""The import surface: what `import drfit.cli` loads (no scipy or
multiprocessing module), what the package namespace holds, that every
public name of the program has a caller in it or in the benchmark, and that
the program tells every exception class it defines apart from its base."""

import ast
import builtins
import collections
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
    "multiprocessing": sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"),
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
    # training on several CPUs imports multiprocessing when it starts a worker
    assert probe["multiprocessing"] == []
    # the theory reports import drfit.theory, and with it scipy.optimize, when they run
    assert probe["theory_stack"] == []
    names = probe["names"]
    assert names.pop("__version__") is False
    submodules = {"cli", "core", "data", "metrics", "nn", "theory", "train"}
    assert set(names) <= submodules and "cli" in names
    assert all(names.values()), names


_SRC = Path(drfit.__file__).resolve().parent
_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# public names with no caller in src/drfit yet, kept for a planned caller:
# the exact minimiser of the sample-level recovery check
_AWAITING_A_CALLER = {"reduced_loss", "reduced_loss_grad"}


def _hooked_names() -> set:
    """The names the benchmark hooks by HOOKS of bench/tracing.py (for
    "Class.method", the class), read with ast."""
    for node in ast.parse(_TRACING.read_text()).body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", ())] == ["HOOKS"]:
            return {path.split(".")[0] for _, path, _ in ast.literal_eval(node.value)}
    raise LookupError("bench/tracing.py defines no HOOKS")


def _names(tree) -> collections.Counter:
    """How often each name is read in the tree, as a name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _uncalled_public_names() -> list:
    """Public top-level functions and classes of src/drfit that no code in
    src/drfit names outside their own definition, as "module.py:name"."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(_SRC.glob("*.py"))}
    uses = sum((_names(tree) for tree in trees.values()), collections.Counter())
    return [f"{f}:{node.name}" for f, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and uses[node.name] == _names(node)[node.name]]


def test_every_public_name_has_a_caller_in_the_program_or_the_bench():
    hooked = _hooked_names()
    dead = [n for n in _uncalled_public_names()
            if n.split(":")[1] not in hooked | _AWAITING_A_CALLER]
    assert dead == [], f"public names that only tests reach: {dead}"


def _untold_exception_classes() -> list:
    """Exception classes of src/drfit that no except clause or isinstance
    call in src/drfit names and that are no base of one that is named, as
    "module.py:name"."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(_SRC.glob("*.py"))}
    classes = {node.name: (f, {n.id if isinstance(n, ast.Name) else n.attr for n in node.bases})
               for f, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    # an exception class derives, through classes of the program, from a builtin exception
    errors = {n for n, v in vars(builtins).items()
              if isinstance(v, type) and issubclass(v, BaseException)}
    while grown := {n for n, (_, bases) in classes.items() if bases & errors} - errors:
        errors |= grown
    told = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                told.update(_names(node.type))
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                  and len(node.args) == 2):
                told.update(_names(node.args[1]))
    while bases := {b for n in told & classes.keys() for b in classes[n][1]} - told:
        told |= bases
    return [f"{f}:{n}" for n, (f, _) in classes.items() if n in errors and n not in told]


def test_every_exception_class_is_told_apart_by_the_program():
    """A subclass that no handler or isinstance check names is its base
    under another name: the program raises the base instead."""
    assert _untold_exception_classes() == []


def _private_imports() -> list:
    """Names with a leading underscore that a module of src/drfit imports
    from another module of the package, as "importer <- module.name"."""
    found = []
    for p in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or node.module.partition(".")[0] == "drfit":
                found += [f"{p.stem} <- {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    """A leading underscore keeps a name to its module: a rule that another
    module needs is a public function of the module that states it."""
    assert _private_imports() == []
