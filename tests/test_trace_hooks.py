"""The benchmark's tracer wraps functions as bound in citydist's modules
(perfbench/tracing.py).  A refactor that drops or renames one of those
bindings breaks every traced benchmark run; this catches it here instead."""

import importlib

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
