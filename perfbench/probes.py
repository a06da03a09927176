"""Per-layer metrics from direct calls into each module's public functions.

These are the microprobes no workload round produces (the sweep, schemes,
model and annealer figures the rounds do produce come from
``workloads.LAYER_METRICS``).  Every traced run, whatever its workload, runs
the same probes, so each probe metric means the same thing on every
workload.  Inputs are fixed bundled scenarios or drawn from the workload
seed.  Timings are medians over repetitions; counts repeat exactly for a
given commit.
"""

from __future__ import annotations

import contextlib
import copy
import io
import random
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import yaml

from citydist import cli
from citydist.model import InfeasibleError, solve_tour_plan
from citydist.optimize import (
    AllocationMatrix,
    induced_demand,
    neighbor_move,
    objective_value,
)
from citydist.report import emit_report
from citydist.scenario import load_scenario, parse_scenario
from citydist.schemes import compare_schemes, evaluate_scheme
from citydist.sweep import sweep_parameter

from workloads import (
    BORDEAUX,
    ROOT,
    VC_LAYER,
    VC_SCHEME,
    VC_VEHICLES,
    child_env,
    cli_commands,
    sweep_specs,
)

BUNDLED_SCHEMES = ("original", "ucc", "pi", "pi_small")


def _median_time(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _child_stdout(code: str, reps: int) -> list[str]:
    """stdout of `python -c code` run reps times in fresh interpreters."""
    outs = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        outs.append(proc.stdout)
    return outs


def probe_cli(metrics: dict, reps: int) -> None:
    interp = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(),
                       check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
    metrics["cli.interp_ms"] = (statistics.median(interp) * 1e3, "ms")
    outs = _child_stdout(
        "import sys, time; t = time.perf_counter(); import citydist.cli; "
        "print(time.perf_counter() - t, int('numpy' in sys.modules))", reps)
    parsed = [o.split() for o in outs]
    metrics["cli.import_ms"] = (statistics.median(float(p[0]) for p in parsed) * 1e3, "ms")
    metrics["cli.numpy_loaded"] = (max(int(p[1]) for p in parsed), "count")
    for name, argv in cli_commands().items():
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.run(argv) != 0:
                    raise RuntimeError(f"cli {name} failed")
        call()  # warm
        metrics[f"cli.run_ms.{name}"] = (_median_time(call, reps) * 1e3, "ms")


def probe_scenario(metrics: dict, reps: int) -> None:
    path = str(BORDEAUX)
    metrics["scenario.load_ms"] = (_median_time(lambda: load_scenario(path), reps) * 1e3,
                                   "ms")
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    samples = []
    for _ in range(reps):
        fresh = copy.deepcopy(doc)
        t0 = time.perf_counter()
        parse_scenario(fresh, source_path=path)
        samples.append(time.perf_counter() - t0)
    metrics["scenario.parse_ms"] = (statistics.median(samples) * 1e3, "ms")
    scenario = load_scenario(path)
    per_call = _median_time(lambda: [scenario.scheme(n) for n in BUNDLED_SCHEMES],
                            reps * 4) / len(BUNDLED_SCHEMES)
    metrics["scenario.scheme_us"] = (per_call * 1e6, "us")


def probe_report_and_schemes(metrics: dict, reps: int) -> None:
    scenario = load_scenario(str(BORDEAUX))
    schemes = {n: scenario.scheme(n) for n in BUNDLED_SCHEMES}
    for name, scheme in schemes.items():
        metrics[f"schemes.evaluate_scheme_us.{name}"] = (
            _median_time(lambda: evaluate_scheme(scheme), reps * 10) * 1e6, "us")
    specs = sweep_specs(scenario)
    objects = {
        "json": evaluate_scheme(schemes["pi"]),
        "csv": compare_schemes(list(schemes.values())),
        "table": sweep_parameter(replace(specs["lead_time_pi"], step=0.25)),
    }
    for fmt, obj in objects.items():
        metrics[f"report.render_us.{fmt}"] = (
            _median_time(lambda: emit_report(obj, fmt=fmt), reps * 4) * 1e6, "us")


def _random_allocation(rng: random.Random, n_units: int, n_vehicles: int):
    rows = []
    for _ in range(n_units):
        cuts = sorted(rng.random() for _ in range(n_vehicles - 1))
        parts = [b - a for a, b in zip([0.0, *cuts], [*cuts, 1.0])]
        parts[-1] = 1.0 - sum(parts[:-1])
        rows.append(tuple(parts))
    return AllocationMatrix(tuple(rows))


def probe_optimize(metrics: dict, seed: int) -> None:
    rng = random.Random(seed)
    scenario = load_scenario(str(BORDEAUX))
    scheme = scenario.scheme(VC_SCHEME)
    layer = scheme.layers[VC_LAYER - 1]
    fleet = [scenario.vehicles[v] for v in VC_VEHICLES]
    units = [u for a in layer.fleet for u in a.demand.units]
    params = layer.params
    allocations = [_random_allocation(rng, len(units), len(fleet)) for _ in range(200)]

    pairs = [(v, d) for a in allocations
             for v, d in zip(fleet, induced_demand(a, units))
             if d.total_weight_kg > 0 or d.total_stops > 0]

    def solve_all():
        for vehicle, demand in pairs:
            try:
                solve_tour_plan(vehicle, demand, params)
            except InfeasibleError:
                pass
    metrics["model.solve_tour_plan_us.anneal"] = (
        _median_time(solve_all, 5) / len(pairs) * 1e6, "us")

    def objective_all():
        for a in allocations:
            objective_value(a, fleet, units, params)
    metrics["optimize.objective_value_us"] = (
        _median_time(objective_all, 5) / len(allocations) * 1e6, "us")

    move_rng = random.Random(rng.randrange(2 ** 31))

    def moves():
        for a in allocations:
            neighbor_move(a, move_rng)
    metrics["optimize.neighbor_move_us"] = (
        _median_time(moves, 5) / len(allocations) * 1e6, "us")


def run_probes(seed: int, smoke: bool) -> dict:
    """All per-layer probe metrics: name -> (value, unit)."""
    reps = 3 if smoke else 7
    metrics: dict = {}
    probe_cli(metrics, reps)
    probe_scenario(metrics, reps)
    probe_report_and_schemes(metrics, reps)
    probe_optimize(metrics, seed)
    return metrics

