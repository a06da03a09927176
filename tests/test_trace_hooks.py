"""The benchmark's tracer wraps functions as bound in citydist's modules
(perfbench/tracing.py).  A refactor that drops or renames one of those
bindings breaks every traced benchmark run; this catches it here instead.
The same goes for every name perfbench imports from citydist."""

import ast
import importlib
import importlib.util

from conftest import REPO


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
