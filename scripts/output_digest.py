#!/usr/bin/env python3
"""One sha256 per group of citydist outputs, to show that a change which
should not alter any result leaves them byte-identical.

Usage: python scripts/output_digest.py

Run it on two checkouts and compare the lines.  Groups:

  cli    stdout, stderr and exit code of in-process ``citydist.cli.run`` on
         both bundled scenarios in the table, JSON and CSV formats:
         ``validate``, ``evaluate`` of each scheme, ``compare`` of all
         schemes, ``sweep`` of lead_time_h and speed_kmh on every layer,
         and ``optimize --seed 11`` and ``--oracle`` on every analytical layer
  cli_main  argv, exit code, stdout and stderr of ``python -m citydist.cli``
         subprocesses, the process entry point: the five cold_cli commands of
         perfbench.workloads (validate once, the others in each format),
         C9's ``optimize --seed 11 --format json``, an unknown scheme (exit
         2) and bordeaux.scenario with original's lead time at 1.5 h (exit
         3), written to a fixed file name in a temporary directory
  sweeps repr() of the five sweeps of perfbench.workloads.SWEEPS
  c5     repr() of simulated_annealing (seeds 1 and 5), vertex_optimum and
         brute_force_grid (step 0.1) on perfbench.workloads.c5_instance
         seeds 0-39
  grid   repr() of brute_force_grid (step 0.05, as the benchmark, C5 and
         ``optimize --oracle`` run it) on c5_instance seeds 0-39
  grid_tight  repr() of brute_force_grid (step 0.1) on c5_instance seeds
         0-39 with lead_time_h 1, 2 and 3 h: at 1 and 2 h every column
         that carries demand diverges, at 3 h most climb past their
         capacity count, so the tables' columns come from the tour solver
  grid4  repr() of brute_force_grid (step 0.2) on 4-unit x 3-vehicle
         instances, c5_instance seeds 0-19 with a fourth unit drawn from the
         same ranges: the grid's prefixes span two leading unit rows
  allsweeps  repr() of sweep_parameter (or of its DomainError) for each
         range of SWEEP_GRIDS on every layer of every scheme of both bundled
         scenarios, the grids that tests/test_sweep.py compares point by point
  splice for 20 seeded interior allocations on each of c5_instance seeds
         0-39 and 100-129: repr() of constraint_violations, the
         (total_weight_kg, total_stops) pairs of induced_demand, and repr()
         of evaluate_scheme(reallocated_scheme(...)) (or of its
         InfeasibleError) on a one-layer scheme of the instance
  anneal repr() of simulated_annealing(..., keep_trace=True) on both C6
         cases, bordeaux.scenario pi_small layer 2 and the single-supplier
         original layer 1, at seeds 1, 5, 11 and 42; on c5_instance seeds
         0-4 (anneal seed = instance seed); and on a 22-vehicle instance
         (seeds 1 and 5), above the 21 vehicles up to which a move's draws
         equal random.sample's
  scenario  stdout, stderr and exit code of in-process ``validate`` on
         every single-leaf mutation of both bundled scenarios outside
         network_defaults (each leaf replaced by each value of MUTATIONS, or
         dropped), then the YAML that emit_scenario writes for each; every
         document goes to one fixed file name in a temporary directory, so no
         temporary path is hashed
  scenario_defaults  the same for the mutations of network_defaults leaves,
         with no emitted YAML
  hubs   stdout, stderr and exit code of in-process ``evaluate`` of pi,
         ``compare`` of all schemes and ``sweep`` of lead_time_h and
         speed_kmh on every city layer of pi, in the table, JSON and CSV
         formats, on bordeaux.scenario with pi's hub_count and hub_weights
         set to each of HUB_SPLITS: unequal weights give one city layer per
         hub; each document goes to one fixed file name in a temporary
         directory
  tables the bytes of each grid table, energy then feasible energy, that
         _ColumnKernel(fleet, units, params).table(i, 10) returns on
         c5_instance seeds 0-39, with C5_PARAMS at lead_time_h 1, 2, 3 and
         24 h, for each vehicle i in turn: the grid groups hash only each
         grid's argmin, so a drift in one table entry would go unseen there
  records  repr() of each bundled scenario as loaded from its relative path
         (the Scenario, holding its SupplierRecords and every scheme's
         FleetAssignments), of compare_schemes over all its schemes (a lone
         scheme against itself), and of solve_tour_plan (or of its
         InfeasibleError) on every assignment of every analytical layer, with
         that layer's params

perfbench is only imported, never written to.  The whole run takes under
a minute on one core (about 45 s on a 2-core VM, under half of it the scenario
group).
"""

import copy
import hashlib
import io
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import yaml

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from citydist.cli import run  # noqa: E402
from citydist.model import (  # noqa: E402
    DEFAULT_EXTERNAL_FACTORS,
    DeliveryUnitType,
    DemandProfile,
    DomainError,
    InfeasibleError,
    TemperatureClass,
    VehicleType,
    solve_tour_plan,
)
from citydist.optimize import (  # noqa: E402
    AllocationMatrix,
    SaConfig,
    brute_force_grid,
    constraint_violations,
    induced_demand,
    reallocated_scheme,
    simulated_annealing,
    vertex_optimum,
    _ColumnKernel,
)
from citydist.scenario import emit_scenario, load_scenario  # noqa: E402
from citydist.schemes import (  # noqa: E402
    FleetAssignment,
    LayerMode,
    LayerSpec,
    SchemeSpec,
    compare_schemes,
    evaluate_scheme,
)
from citydist.sweep import SweepSpec, sweep_parameter  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    C5_PARAMS,
    c5_instance,
    child_env,
    cli_commands as cold_cli_commands,
    sweep_specs,
)

SCENARIOS = (ROOT / "scenarios" / "bordeaux.scenario",
             ROOT / "scenarios" / "bordeaux_single_supplier.scenario")
FORMATS = ("table", "json", "csv")
SWEEP_RANGES = (("lead_time_h", "0.25:8:0.25"), ("speed_kmh", "10:60:5"))
# (parameter, start, stop, step) of test_every_bundled_layer_sweep_equals_per_point_evaluation
SWEEP_GRIDS = (
    ("lead_time_h", 0.05, 8.0, 0.35),
    ("speed_kmh", 1.0, 41.0, 4.0),
    ("radius_km", 0.5, 60.0, 2.5),
    ("area_km2", 5.0, 400.0, 15.0),
    ("stop_time_h", 0.05, 2.0, 0.1),
    ("daganzo_k", 0.1, 2.0, 0.1),
    ("congestion_factor", 1.0, 3.0, 0.1),
    ("shift_duration_h", 0.5, 24.0, 1.0),
)
# (hub_count, hub_weights) of pi in the hubs group
HUB_SPLITS = ((2, [0.3, 0.7]), (3, [0.25, 0.25, 0.5]))
DROP = "<drop the field>"
# the values tests/test_cli.py's mutation test puts in place of a leaf
MUTATIONS = (["x"], {"x": 1}, True, math.nan, math.inf, -math.inf, 10 ** 30, -1, 0, "x",
             None, DROP)


def cli_commands():
    """Each argument list of the cli group, in a fixed order."""
    for path in SCENARIOS:
        scenario = load_scenario(str(path))
        names = scenario.scheme_names()
        s = ["--scenario", str(path.relative_to(ROOT))]
        yield ["validate", *s]
        for fmt in FORMATS:
            f = ["--format", fmt]
            for name in names:
                yield ["evaluate", *s, "--scheme", name, *f]
            yield ["compare", *s, "--schemes", ",".join(names), *f]
            for name in names:
                layers = scenario.scheme(name).layers
                for number, layer in enumerate(layers, 1):
                    at = ["--scheme", name, "--layer", str(number)]
                    for param, range_ in SWEEP_RANGES:
                        yield ["sweep", *s, *at, "--param", param, "--range", range_, *f]
                    if layer.mode is LayerMode.ANALYTICAL:
                        yield ["optimize", *s, *at, "--seed", "11", *f]
                        yield ["optimize", *s, *at, "--oracle", *f]


def captured(argv) -> str:
    """argv, then the exit code, stdout and stderr of run(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return f"{argv}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n"


def cli_outputs():
    return map(captured, cli_commands())


def entry_point(argv, cwd=ROOT) -> str:
    """argv, then the exit code, stdout and stderr of ``python -m citydist.cli
    argv`` run in cwd."""
    proc = subprocess.run([sys.executable, "-m", "citydist.cli", *argv], cwd=cwd,
                          env=child_env(), capture_output=True, text=True)
    return f"{argv}\n{proc.returncode}\n{proc.stdout}\n{proc.stderr}\n"


def cli_main_outputs():
    for argv in cold_cli_commands().values():
        if "--format" in argv:  # each format in turn, not the benchmark's one
            at = argv.index("--format")
            del argv[at:at + 2]
        formats = [[]] if argv[0] == "validate" else [["--format", fmt] for fmt in FORMATS]
        for fmt in formats:
            yield entry_point([*argv, *fmt])
    single = ["--scenario", str(SCENARIOS[1].relative_to(ROOT))]
    yield entry_point(["optimize", *single, "--scheme", "original", "--layer", "1",
                       "--seed", "11", "--format", "json"])
    yield entry_point(["evaluate", *single, "--scheme", "nope"])
    doc = yaml.safe_load(SCENARIOS[0].read_text())
    next(d for d in doc["schemes"] if d["name"] == "original")["params"]["lead_time_h"] = 1.5
    with tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, "mutated.scenario"), "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        yield entry_point(["evaluate", "--scenario", "mutated.scenario", "--scheme", "original"],
                          cwd=directory)


def hub_outputs():
    doc = yaml.safe_load(SCENARIOS[0].read_text())
    names = ",".join(scheme["name"] for scheme in doc["schemes"])
    pi = next(scheme for scheme in doc["schemes"] if scheme["name"] == "pi")
    s = ["--scenario", "hubs.scenario"]
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            for hub_count, hub_weights in HUB_SPLITS:
                pi.update(hub_count=hub_count, hub_weights=hub_weights)
                with open("hubs.scenario", "w", encoding="utf-8") as fh:
                    yaml.safe_dump(doc, fh)
                for fmt in FORMATS:
                    f = ["--format", fmt]
                    yield captured(["evaluate", *s, "--scheme", "pi", *f])
                    yield captured(["compare", *s, "--schemes", names, *f])
                    for number in range(2, 2 + hub_count):  # layer 1 is the shuttle
                        at = ["--scheme", "pi", "--layer", str(number)]
                        for param, range_ in SWEEP_RANGES:
                            yield captured(["sweep", *s, *at, "--param", param,
                                            "--range", range_, *f])
        finally:
            os.chdir(ROOT)


def sweep_outputs():
    for label, spec in sweep_specs(load_scenario(str(SCENARIOS[0]))).items():
        yield f"{label}\n{sweep_parameter(spec)!r}\n"


def allsweep_outputs():
    for path in SCENARIOS:
        scenario = load_scenario(str(path))
        for name in scenario.scheme_names():
            scheme = scenario.scheme(name)
            for grid in SWEEP_GRIDS:
                for k in range(len(scheme.layers)):
                    try:
                        report = sweep_parameter(SweepSpec(*grid, scheme, k))
                    except DomainError as exc:
                        report = exc
                    yield f"{path.name} {name} {k} {grid}\n{report!r}\n"


def c5_outputs():
    for seed in range(40):
        fleet, units = c5_instance(random.Random(seed))
        for anneal_seed in (1, 5):
            yield repr(simulated_annealing(fleet, units, C5_PARAMS, SaConfig(seed=anneal_seed)))
        yield repr(vertex_optimum(fleet, units, C5_PARAMS))
        yield repr(brute_force_grid(fleet, units, C5_PARAMS, step=0.1))


def grid_outputs():
    for seed in range(40):
        fleet, units = c5_instance(random.Random(seed))
        yield repr(brute_force_grid(fleet, units, C5_PARAMS, step=0.05))


def grid_tight_outputs():
    for lead_time_h in (1.0, 2.0, 3.0):
        params = replace(C5_PARAMS, lead_time_h=lead_time_h)
        for seed in range(40):
            fleet, units = c5_instance(random.Random(seed))
            yield repr(brute_force_grid(fleet, units, params, step=0.1))


def grid4_outputs():
    for seed in range(20):
        rng = random.Random(seed)
        fleet, units = c5_instance(rng)
        units.append(DeliveryUnitType("u3", float(rng.randrange(80, 901, 10)),
                                      rng.randint(8, 100)))
        yield repr(brute_force_grid(fleet, units, C5_PARAMS, step=0.2))


def table_outputs():
    for seed in range(40):
        fleet, units = c5_instance(random.Random(seed))
        for lead_time_h in (1.0, 2.0, 3.0, 24.0):
            kernel = _ColumnKernel(fleet, units, replace(C5_PARAMS, lead_time_h=lead_time_h))
            for i in range(len(fleet)):
                for table in kernel.table(i, 10):  # energy, then feasible energy
                    yield table.tobytes()


def record_outputs():
    for path in SCENARIOS:
        scenario = load_scenario(str(path.relative_to(ROOT)))  # no checkout path in the repr
        schemes = [scenario.scheme(name) for name in scenario.scheme_names()]
        # a lone scheme against itself, as the benchmark's cold_cli compares it
        table = compare_schemes(schemes if len(schemes) > 1 else schemes * 2)
        yield f"{scenario!r}\n{table!r}\n"
        for scheme in schemes:
            for layer in scheme.layers:
                if layer.mode is not LayerMode.ANALYTICAL:
                    continue
                for a in layer.fleet:
                    try:
                        plan = solve_tour_plan(a.vehicle, a.demand, layer.params)
                    except InfeasibleError as exc:
                        plan = exc
                    yield f"{scheme.name} {layer.name} {a.vehicle.id}\n{plan!r}\n"


def interior_rows(rng: random.Random, n_units: int, n_vehicles: int):
    """One allocation's rows: random shares, about 30% of them zero."""
    rows = []
    for _ in range(n_units):
        shares = [rng.random() if rng.random() < 0.7 else 0.0 for _ in range(n_vehicles)]
        shares[rng.randrange(n_vehicles)] += 0.01
        total = sum(shares)
        rows.append(tuple(x / total for x in shares))
    return tuple(rows)


def splice_outputs():
    for seed in (*range(40), *range(100, 130)):
        fleet, units = c5_instance(random.Random(seed))
        scheme = SchemeSpec("instance", (LayerSpec(
            "instance", LayerMode.ANALYTICAL, C5_PARAMS,
            (FleetAssignment(fleet[0], DemandProfile.from_units(units)),)),),
            DEFAULT_EXTERNAL_FACTORS)
        rng = random.Random(seed)
        for _ in range(20):
            allocation = AllocationMatrix(interior_rows(rng, len(units), len(fleet)))
            totals = [(d.total_weight_kg, d.total_stops)
                      for d in induced_demand(allocation, units)]
            try:
                report = evaluate_scheme(reallocated_scheme(scheme, 0, allocation, fleet, units))
            except InfeasibleError as exc:
                report = exc
            yield (f"{constraint_violations(allocation, fleet, units, C5_PARAMS)!r}\n"
                   f"{totals!r}\n{report!r}\n")


def anneal_outputs():
    for path, name, k in ((SCENARIOS[0], "pi_small", 1), (SCENARIOS[1], "original", 0)):
        scenario = load_scenario(str(path))
        scheme = scenario.scheme(name)
        layer = scheme.layers[k]
        fleet = [scenario.vehicles[v] for v in scenario.optimization_vehicles]
        units = [u for a in layer.fleet for u in a.demand.units]
        for seed in (1, 5, 11, 42):
            yield repr(simulated_annealing(fleet, units, layer.params,
                                           replace(scenario.sa, seed=seed),
                                           scheme.external_factors, keep_trace=True))
    for seed in range(5):
        fleet, units = c5_instance(random.Random(seed))
        yield repr(simulated_annealing(fleet, units, C5_PARAMS, SaConfig(seed=seed),
                                       keep_trace=True))
    fleet, units = wide_instance()
    for seed in (1, 5):
        yield repr(simulated_annealing(fleet, units, C5_PARAMS, SaConfig(seed=seed),
                                       keep_trace=True))


def wide_instance():
    """22 vehicles and three unit types, drawn from C5's value ranges (speeds
    10-30 km/h)."""
    rng = random.Random(22)
    fleet = [VehicleType(f"v{i}", float(rng.randrange(4000, 25001, 500)),
                         float(rng.choice((10, 20, 30))), float(rng.randint(3, 9)), 30.0,
                         TemperatureClass.A, 200)
             for i in range(22)]
    units = [DeliveryUnitType(f"u{j}", float(rng.randrange(80, 901, 10)), rng.randint(8, 100))
             for j in range(3)]
    return fleet, units


def leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from leaf_paths(child, (*path, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from leaf_paths(child, (*path, i))
    else:
        yield path


def scenario_outputs(defaults=False):
    """The scenario group, or with defaults the scenario_defaults group."""
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            for path in SCENARIOS:
                doc = yaml.safe_load(path.read_text())
                for leaf in leaf_paths(doc):
                    if (leaf[0] == "network_defaults") != defaults:
                        continue
                    for value in MUTATIONS:
                        mutated = copy.deepcopy(doc)
                        *parents, last = leaf
                        node = mutated
                        for key in parents:
                            node = node[key]
                        if value is DROP:
                            del node[last]
                        else:
                            node[last] = value
                        with open("mutated.scenario", "w", encoding="utf-8") as fh:
                            yaml.dump(mutated, fh, Dumper=dumper)
                        yield (f"{path.name} {leaf} {value!r}\n"
                               + captured(["validate", "--scenario", "mutated.scenario"]))
                if not defaults:
                    emit_scenario(load_scenario(str(path)), "emitted.scenario")
                    yield pathlib.Path("emitted.scenario").read_text(encoding="utf-8")
        finally:
            os.chdir(ROOT)


def main():
    os.chdir(ROOT)  # the cli group names the scenarios by their relative paths
    for group, outputs in (("cli", cli_outputs), ("cli_main", cli_main_outputs),
                           ("sweeps", sweep_outputs),
                           ("c5", c5_outputs), ("grid", grid_outputs),
                           ("grid_tight", grid_tight_outputs), ("grid4", grid4_outputs),
                           ("splice", splice_outputs), ("allsweeps", allsweep_outputs),
                           ("anneal", anneal_outputs), ("scenario", scenario_outputs),
                           ("scenario_defaults", lambda: scenario_outputs(defaults=True)),
                           ("tables", table_outputs), ("hubs", hub_outputs),
                           ("records", record_outputs)):
        digest = hashlib.sha256()
        count = 0
        for out in outputs():
            digest.update(out if isinstance(out, bytes) else out.encode())
            count += 1
        print(f"{group:7s}{count:5d}  {digest.hexdigest()}")


if __name__ == "__main__":
    main()
