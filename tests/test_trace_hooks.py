"""The benchmark's tracer wraps functions as bound in citydist's modules
(perfbench/tracing.py).  A refactor that drops or renames one of those
bindings breaks every traced benchmark run; this catches it here instead.
The same goes for every name perfbench imports from citydist."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from dataclasses import fields

from citydist.model import SaConfig

from conftest import REPO, SINGLE_SUPPLIER


def _binding(module_name, attr):
    module = importlib.import_module(module_name)
    assert hasattr(module, attr), f"{module_name}.{attr} is gone"
    return getattr(module, attr)


def _method(module_name, cls_name, attr):
    cls = _binding(module_name, cls_name)
    assert attr in vars(cls), f"{module_name}.{cls_name}.{attr} is gone"
    return vars(cls)[attr]


def test_tracer_hooks_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO))
    tracing = importlib.import_module("perfbench.tracing")
    calls = {(m, a): _binding(m, a) for m, a, _ in tracing.CALL_SITES}
    methods = {(m, c, a): _method(m, c, a) for m, c, a, _ in tracing.METHOD_SITES}

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (m, a), original in calls.items():
            assert getattr(importlib.import_module(m), a).__wrapped__ is original
        for (m, c, a), original in methods.items():
            assert _method(m, c, a).__wrapped__ is original
    finally:
        tracer.restore()

    for (m, a), original in calls.items():
        assert _binding(m, a) is original
    for (m, c, a), original in methods.items():
        assert _method(m, c, a) is original


_TRACED_CHILD = """
import io, json, sys
from contextlib import redirect_stdout
sys.path[:0] = sys.argv[2:]
from perfbench.tracing import Tracer
from citydist import cli

s = sys.argv[1]
sweep = ["sweep", "--scenario", s, "--scheme", "original", "--layer", "1",
         "--param", "lead_time_h", "--range", "0.25:8:0.25"]
oracle = ["optimize", "--scenario", s, "--scheme", "original", "--layer", "1", "--oracle"]
tracer = Tracer()
tracer.install()
try:
    with redirect_stdout(io.StringIO()):
        codes = [cli.run(sweep), cli.run(oracle)]
finally:
    tracer.restore()
from citydist import optimize, sweep
print(json.dumps({
    "codes": codes,
    "counts": {name: st[0] for name, st in tracer.stats.items()},
    "restored": [cli.sweep_parameter is sweep.sweep_parameter,
                 cli.brute_force_grid is optimize.brute_force_grid,
                 cli.simulated_annealing is optimize.simulated_annealing],
}))
"""


def test_tracer_wraps_the_entry_points_cli_imports_on_first_use():
    # cli imports the optimizer and the sweep only when a command runs them;
    # the tracer must still see those calls, and restore() must put the
    # original bindings back.  A fresh interpreter, so that nothing has
    # bound them before the tracer does.
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_CHILD, str(SINGLE_SUPPLIER),
         str(REPO / "src"), str(REPO)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0]
    assert result["counts"]["sweep.sweep_parameter"] == 1
    assert result["counts"]["optimize.brute_force_grid"] == 1
    assert "optimize.simulated_annealing" not in result["counts"]
    assert result["restored"] == [True, True, True]


def _perfbench_citydist_imports():
    """(file, module, name) of every `from citydist... import name` in
    perfbench/*.py, read from the source without importing perfbench."""
    for path in sorted((REPO / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    node.module.split(".")[0] == "citydist":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_perfbench_imports_resolve():
    # Only a benchmark run would otherwise notice a deleted or renamed name.
    imports = list(_perfbench_citydist_imports())
    assert ("probes.py", "citydist.optimize", "objective_value") in imports
    for filename, module_name, name in imports:
        module = importlib.import_module(module_name)
        assert hasattr(module, name) or \
            importlib.util.find_spec(f"{module_name}.{name}") is not None, \
            f"perfbench/{filename}: from {module_name} import {name} fails"


def _sa_config_keywords():
    """(file, keyword) of every keyword that perfbench/*.py and scripts/*.py
    pass to SaConfig(...) or to replace(<...>.sa, ...), read from the source."""
    paths = sorted((REPO / "perfbench").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "SaConfig" or (name == "replace" and node.args and
                                      getattr(node.args[0], "attr", None) == "sa"):
                for keyword in node.keywords:
                    yield f"{path.parent.name}/{path.name}", keyword.arg


def test_benchmark_sa_config_keywords_are_fields():
    # Shrinking SaConfig must fail here, not in the benchmark's set-up.
    current = {f.name for f in fields(SaConfig)}
    keywords = list(_sa_config_keywords())
    assert ("perfbench/workloads.py", "restarts") in keywords
    for filename, keyword in keywords:
        assert keyword in current, f"{filename}: SaConfig has no field '{keyword}'"
