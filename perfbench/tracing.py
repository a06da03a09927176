"""In-memory spans recorded around calls into citydist's modules.

Spans are recorded only from the benchmark's own files: ``Tracer.install``
replaces a function *as bound in the calling module* (for example
``solve_tour_plan`` as seen by ``citydist.schemes``) with a wrapper that
records a span, and ``Tracer.restore`` puts the original back.  Nothing in
``src/`` is edited, and untraced runs never see a wrapper.

Each span is (id, name, start, end, parent id).  Self time, the span's
duration minus the time its child spans cover, is accumulated online per
name, so aggregates stay exact even when the raw span list is capped to
bound memory on hot paths such as the annealer's fixed-point calls.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

LAYERS = ("cli", "scenario", "schemes", "model", "sweep", "optimize", "report")

# (calling module, attribute as bound there, span name).  A span name is
# "<layer>.<function>", the layer being the module that owns the function.
CALL_SITES = (
    ("citydist.cli", "load_scenario", "scenario.load_scenario"),
    ("citydist.cli", "compare_schemes", "schemes.compare_schemes"),
    ("citydist.cli", "sweep_parameter", "sweep.sweep_parameter"),
    ("citydist.cli", "simulated_annealing", "optimize.simulated_annealing"),
    ("citydist.cli", "brute_force_grid", "optimize.brute_force_grid"),
    ("citydist.cli", "emit_report", "report.emit_report"),
    # cli imports evaluate_scheme inside run(); compare_schemes calls it too
    ("citydist.schemes", "evaluate_scheme", "schemes.evaluate_scheme"),
    ("citydist.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("citydist.sweep", "evaluate_scheme", "schemes.evaluate_scheme"),
    ("citydist.schemes", "solve_tour_plan", "model.solve_tour_plan"),
    ("citydist.optimize", "_solve_fixed_point", "model.solve_fixed_point"),
    ("citydist.optimize", "evaluate_layer", "schemes.evaluate_layer"),
)
# (module, class, method, span name)
METHOD_SITES = (
    ("citydist.scenario", "Scenario", "scheme", "scenario.scheme"),
)
# raw spans kept per run; further spans count only in the aggregates
MAX_SPANS = 50_000


class Tracer:
    """Records spans in memory; one instance per set of traced rounds."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        # name -> [count, total_s, self_s, errors]
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, failed: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - child
        if failed:
            st[3] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent[0] if parent else 0))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._exit(frame, failed)

    def wrap(self, fn, name: str):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                exit_(frame, failed)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every call site in CALL_SITES and METHOD_SITES."""
        for module_name, attr, name in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))
        for module_name, cls_name, attr, name in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: span count, total and self seconds, failed spans."""
        out = {layer: {"spans": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
               for layer in LAYERS}
        for name, (count, total, self_s, errors) in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer not in out:
                continue
            agg = out[layer]
            agg["spans"] += count
            agg["total_s"] += total
            agg["self_s"] += self_s
            agg["errors"] += errors
        return out

    def merge(self, dumped: dict) -> None:
        """Add the spans another process dumped (cold_cli children).  Its span
        ids are offset past ours; perf_counter is system-wide on Linux, so the
        start and end times stay comparable."""
        offset = self._next_id
        for span_id, name, start, end, parent in dumped["spans"]:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id + offset, name, start, end,
                                   parent + offset if parent else 0))
            else:
                self.dropped += 1
            self._next_id = max(self._next_id, span_id + offset + 1)
        self.dropped += dumped["dropped"]
        for name, values in dumped["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                st[i] += v

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent"],
                       "spans": self.spans, "dropped": self.dropped,
                       "stats_fields": ["count", "total_s", "self_s", "errors"],
                       "stats": self.stats}, fh)
