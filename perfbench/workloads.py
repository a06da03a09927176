"""The three benchmark workloads.

Each workload is single-process and closed-loop: one client, one operation
at a time.  Its set-up function ``(seed, smoke) -> state`` builds every input
from the seed and the reference values the checks compare against; its
round function ``(state, tracer, clock) -> [Op]`` performs one round of
operations, each timed by the ``hostclock.HostClock``, and returns one
``Op`` record per operation.  A run repeats rounds until its time is up.
Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from citydist.model import (
    DeliveryUnitType,
    NetworkParams,
    TemperatureClass,
    VehicleType,
)
from citydist.optimize import (
    AllocationMatrix,
    SaConfig,
    brute_force_grid,
    objective_value,
    simulated_annealing,
)
from citydist.scenario import load_scenario
from citydist.sweep import SweepSpec, sweep_parameter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BORDEAUX = ROOT / "scenarios" / "bordeaux.scenario"
SINGLE_SUPPLIER = ROOT / "scenarios" / "bordeaux_single_supplier.scenario"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".perfbench_out"

REL_TOL = 1e-9
C5_GAP_TOL = 0.02  # C5's tolerance: annealer within 1.02x of the reference


@dataclass
class Op:
    """One timed operation: its kind, wall seconds (without the host
    control's), host factor, work units and check."""

    kind: str
    seconds: float
    factor: float
    work: int = 1
    ok: bool = True
    detail: dict = field(default_factory=dict)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


# ---------------------------------------------------------------- vehicle_choice

VC_SCHEME = "pi_small"
VC_LAYER = 2  # 1-based, as on the command line
VC_VEHICLES = ("truck_25t_city", "truck_17t_city", "van_2p3t_city")
VC_ORACLE_STEP = 0.05
# C5's instance family: the value ranges its four hand-written instances span
C5_PARAMS = NetworkParams(radius_km=20, area_km2=186, stop_time_h=0.25,
                          shift_duration_h=16, lead_time_h=24)


def c5_instance(rng: random.Random):
    """A 3-unit x 3-vehicle instance drawn from C5's value ranges."""
    fleet = [VehicleType(f"v{i}", float(rng.randrange(4000, 17001, 500)), 20.0,
                         float(rng.randint(5, 8)), 30.0, TemperatureClass.A, 200)
             for i in range(3)]
    units = [DeliveryUnitType(f"u{j}", float(rng.randrange(80, 901, 10)),
                              rng.randint(8, 100))
             for j in range(3)]
    return fleet, units


def vertex_optimum(fleet, units, params) -> float:
    """Least objective over all n_vehicles^n_units single-column allocations."""
    n = len(fleet)
    corners = [tuple(1.0 if k == c else 0.0 for k in range(n)) for c in range(n)]
    return min(objective_value(AllocationMatrix(rows), fleet, units, params)
               for rows in itertools.product(corners, repeat=len(units)))


def vc_setup(seed: int, smoke: bool) -> dict:
    rng = random.Random(seed)
    scenario = load_scenario(str(BORDEAUX))
    scheme = scenario.scheme(VC_SCHEME)
    layer = scheme.layers[VC_LAYER - 1]
    fleet = [scenario.vehicles[v] for v in VC_VEHICLES]
    units = [u for a in layer.fleet for u in a.demand.units]
    gen_fleet, gen_units = c5_instance(rng)
    # smoke runs shorten the schedule; the checks stay the same
    base = replace(scenario.sa, restarts=1) if smoke else scenario.sa
    gen_config = SaConfig(restarts=1) if smoke else SaConfig()
    headline_ref = vertex_optimum(fleet, units, layer.params)
    oracle = brute_force_grid(gen_fleet, gen_units, C5_PARAMS, step=VC_ORACLE_STEP)
    return {
        "rng": rng,
        "headline": (fleet, units, layer.params, scheme.external_factors, base,
                     headline_ref),
        "generated": (gen_fleet, gen_units, C5_PARAMS, None, gen_config,
                      oracle.objective),
        "oracle_allocation": oracle.allocation.entries,
    }


def traced_call(tracer, name: str, fn, *args, **kwargs):
    with tracer.span(name) if tracer else nullcontext():
        return fn(*args, **kwargs)


def _anneal(instance, seed: int, tracer, clock) -> Op:
    """One solve; traced solves also keep the best-energy series."""
    fleet, units, params, factors, config, reference = instance
    result, seconds, factor = clock.timed(
        traced_call, tracer, "optimize.simulated_annealing", simulated_annealing,
        fleet, units, params, replace(config, seed=seed),
        external_factors=factors, keep_trace=tracer is not None)
    gap = result.objective / reference - 1.0
    ok = result.feasible and gap <= C5_GAP_TOL
    detail = {"gap": gap, "evaluations": result.evaluations}
    if result.trace:
        detail["evals_to_best"] = result.trace.index(min(result.trace)) + 1
    return Op("anneal", seconds, factor, ok=ok, detail=detail)


def vc_round(state: dict, tracer, clock, generated: int = 1,
             oracles: int = 2) -> list[Op]:
    """One headline anneal; the first round of a run also runs `generated`
    generated-instance anneals and `oracles` oracle calls.

    A headline solve takes several seconds, so rounds are kept to one solve
    to fit as many as a run allows: the gated median is the headline
    instance's.  The generated instance, with half the rows, and the oracle
    are reported apart.
    """
    rng = state["rng"]
    first = state.setdefault("rounds", 0) == 0
    state["rounds"] += 1
    ops = []
    for name in ("headline",) + ("generated",) * (generated if first else 0):
        op = _anneal(state[name], rng.randrange(2 ** 31), tracer, clock)
        op.detail["instance"] = name
        ops.append(op)
    fleet, units, params, _, _, reference = state["generated"]
    for _ in range(oracles if first else 0):
        result, seconds, factor = clock.timed(
            traced_call, tracer, "optimize.brute_force_grid", brute_force_grid,
            fleet, units, params, step=VC_ORACLE_STEP)
        ok = (result.feasible and close(result.objective, reference)
              and result.allocation.entries == state["oracle_allocation"])
        ops.append(Op("oracle", seconds, factor, ok=ok))
    return ops


def vc_layer_metrics(untraced: list[Op], traced: list[Op], tracer) -> dict:
    """optimize.* per-layer metrics from a run's headline solves and oracle
    calls: times from untraced rounds, the best-energy series from traced."""
    headline = [o for o in untraced if o.detail.get("instance") == "headline"]
    evaluations = sum(o.detail["evaluations"] for o in headline)
    to_best = [o.detail["evals_to_best"] for o in traced
               if o.detail.get("instance") == "headline"]
    oracle = [o.seconds for o in untraced if o.kind == "oracle"]
    return {
        "optimize.evaluations": (max(o.detail["evaluations"] for o in headline), "count"),
        "optimize.eval_us": (sum(o.seconds for o in headline) / evaluations * 1e6, "us"),
        "optimize.evals_to_best": (statistics.median(to_best), "count"),
        "optimize.oracle_ms": (statistics.median(oracle) * 1e3, "ms"),
    }


# ------------------------------------------------------------------- sensitivity

# (label, scheme, 1-based layer, parameter, start, stop, step); 3,125 points.
# The lead-time grids run down to 0.05 h, past the 0.5 h geometric boundary
# (2r/v), so every round mixes feasible points with InfeasibleError points.
SWEEPS = (
    ("lead_time_pi", "pi", 2, "lead_time_h", 0.05, 8.0, 0.01),
    ("lead_time_pi_small", "pi_small", 2, "lead_time_h", 0.05, 8.0, 0.01),
    ("speed_original", "original", 2, "speed_kmh", 5.0, 60.0, 0.1),
    ("area_ucc", "ucc", 2, "area_km2", 10.0, 400.0, 1.0),
    ("radius_pi", "pi", 2, "radius_km", 1.0, 60.0, 0.1),
)


def sweep_signature(report) -> list:
    """Per point: None when infeasible, else [tours, cost, distance, time]."""
    return [None if r.report is None else
            [r.report.total_tours, r.report.total_cost,
             r.report.total_distance_km, r.report.total_time_h]
            for r in report.rows]


def sweep_matches(report, reference: dict) -> bool:
    values = [r.value for r in report.rows]
    if len(values) != len(reference["values"]) or not all(
            close(a, b) for a, b in zip(values, reference["values"])):
        return False
    for got, want in zip(sweep_signature(report), reference["points"]):
        if (got is None) != (want is None):
            return False
        if got is not None and (got[0] != want[0] or not all(
                close(a, b) for a, b in zip(got[1:], want[1:]))):
            return False
    return True


def sweep_specs(scenario) -> dict[str, SweepSpec]:
    return {label: SweepSpec(param, start, stop, step, scenario.scheme(scheme),
                             layer_index=layer - 1)
            for label, scheme, layer, param, start, stop, step in SWEEPS}


def sens_setup(seed: int, smoke: bool) -> dict:
    scenario = load_scenario(str(BORDEAUX))
    with open(REFERENCE_DIR / "sensitivity.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    specs = sweep_specs(scenario)
    if smoke:
        specs = dict(itertools.islice(specs.items(), 2))
    return {"rng": random.Random(seed), "specs": specs, "reference": reference}


def sens_round(state: dict, tracer, clock) -> list[Op]:
    """Every sweep once, in a seeded order."""
    order = list(state["specs"])
    state["rng"].shuffle(order)
    ops = []
    for label in order:
        report, seconds, factor = clock.timed(
            traced_call, tracer, "sweep.sweep_parameter", sweep_parameter,
            state["specs"][label])
        ops.append(Op("sweep", seconds, factor, work=len(report.rows),
                      ok=sweep_matches(report, state["reference"][label]),
                      detail={"sweep": label, "infeasible": sum(
                          not r.feasible for r in report.rows)}))
    return ops


def sens_layer_metrics(untraced: list[Op], traced: list[Op], tracer) -> dict:
    """sweep, schemes and model per-layer metrics: times from untraced
    rounds, call counts and self times from the traced rounds' spans."""
    points = sum(o.work for o in untraced)
    traced_points = sum(o.work for o in traced)
    calls, call_s, _, raised = tracer.stats["model.solve_tour_plan"]
    infeasible = {o.detail["sweep"]: o.detail["infeasible"] for o in untraced}
    return {
        "sweep.point_us": (sum(o.seconds for o in untraced) / points * 1e6, "us"),
        "sweep.infeasible_points": (sum(infeasible.values()), "count"),
        "model.tour_plan_calls": (calls / traced_points, "calls/point"),
        "model.infeasible_share": (raised / calls, "ratio"),
        "model.solve_tour_plan_us.sweep": (call_s / calls * 1e6, "us"),
        "schemes.self_us_per_point": (
            tracer.layer_totals()["schemes"]["self_s"] / traced_points * 1e6, "us"),
    }


# ---------------------------------------------------------------------- cold_cli

def cli_commands() -> dict[str, list[str]]:
    s = str(SINGLE_SUPPLIER.relative_to(ROOT))
    return {
        "validate": ["validate", "--scenario", s],
        "evaluate": ["evaluate", "--scenario", s, "--scheme", "original",
                     "--format", "json"],
        "compare": ["compare", "--scenario", s, "--schemes", "original,original",
                    "--format", "csv"],
        "sweep": ["sweep", "--scenario", s, "--scheme", "original", "--layer", "1",
                  "--param", "lead_time_h", "--range", "0.25:8:0.25",
                  "--format", "table"],
        "optimize": ["optimize", "--scenario", s, "--scheme", "original",
                     "--layer", "1", "--oracle"],
    }


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _json_numbers(node, path="") -> list:
    if isinstance(node, dict):
        return [x for k in sorted(node) for x in _json_numbers(node[k], f"{path}.{k}")]
    if isinstance(node, list):
        return [x for i, v in enumerate(node) for x in _json_numbers(v, f"{path}[{i}]")]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [[path, float(node)]]
    return []


def output_numbers(command: str, text: str) -> list:
    """The numbers a command printed, in order, each tagged with its place."""
    if command == "evaluate":
        return _json_numbers(json.loads(text))
    if command == "compare":
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        return [[f"{r}.{header[c]}", float(cell)]
                for r, row in enumerate(rows[1:]) for c, cell in enumerate(row)
                if _NUMBER.fullmatch(cell)]
    return [[str(i), float(tok)] for i, tok in enumerate(
        t for t in text.split() if _NUMBER.fullmatch(t))]


def numbers_match(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        g[0] == w[0] and close(g[1], w[1]) for g, w in zip(got, want))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(argv: list[str], traced_out: Path | None = None):
    """One fresh interpreter running the CLI.

    Returns (exit code, stdout, the child's peak RSS in MB).  The child is
    reaped with wait4 to read its own peak RSS: the process-wide
    RUSAGE_CHILDREN would also count the host-control children.
    """
    if traced_out is None:
        cmd = [sys.executable, "-m", "citydist.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(traced_out), "--",
               *argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0  # KiB on Linux


def cli_setup(seed: int, smoke: bool) -> dict:
    with open(REFERENCE_DIR / "cold_cli.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    commands = cli_commands()
    # one warm-up child: the first interpreter in a checkout compiles bytecode
    code, _, _ = run_cli(commands["validate"])
    if code != 0:
        raise RuntimeError(f"warm-up 'validate' exited with {code}")
    return {"rng": random.Random(seed), "commands": commands, "reference": reference}


def cli_round(state: dict, tracer, clock) -> list[Op]:
    """Each of the five commands once, as a fresh process, in a seeded order."""
    order = list(state["commands"])
    state["rng"].shuffle(order)
    ops = []
    for i, name in enumerate(order):
        spans_file = None
        if tracer is not None:
            OUT_DIR.mkdir(exist_ok=True)
            spans_file = OUT_DIR / f"child-{os.getpid()}-{i}.json"
        (code, out, rss_mb), seconds, factor = clock.timed(
            run_cli, state["commands"][name], spans_file)
        try:
            ok = code == 0 and numbers_match(output_numbers(name, out),
                                             state["reference"][name])
        except (ValueError, IndexError):  # unparsable output fails the check
            ok = False
        if spans_file is not None and spans_file.exists():
            with open(spans_file, encoding="utf-8") as fh:
                tracer.merge(json.load(fh))
            spans_file.unlink()
        ops.append(Op("cli", seconds, factor, ok=ok,
                      detail={"command": name, "code": code, "rss_mb": rss_mb}))
    return ops


WORKLOADS = {
    "vehicle_choice": (vc_setup, vc_round),
    "sensitivity": (sens_setup, sens_round),
    "cold_cli": (cli_setup, cli_round),
}

# Per-layer metrics that come from a workload's own rounds, and the smaller
# round a traced run of another workload runs once untraced and once traced
# to produce them.
LAYER_METRICS = {
    "vehicle_choice": (vc_layer_metrics, partial(vc_round, generated=0, oracles=1)),
    "sensitivity": (sens_layer_metrics, sens_round),
}
