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
         original layer 1, at seeds 1, 5, 11 and 42

perfbench is only imported, never written to.  The whole run takes well
under a minute on one core.
"""

import hashlib
import io
import os
import pathlib
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from citydist.cli import run  # noqa: E402
from citydist.model import (  # noqa: E402
    DEFAULT_EXTERNAL_FACTORS,
    DemandProfile,
    DomainError,
    InfeasibleError,
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
)
from citydist.scenario import load_scenario  # noqa: E402
from citydist.schemes import (  # noqa: E402
    FleetAssignment,
    LayerMode,
    LayerSpec,
    SchemeSpec,
    evaluate_scheme,
)
from citydist.sweep import SweepSpec, sweep_parameter  # noqa: E402
from perfbench.workloads import C5_PARAMS, c5_instance, sweep_specs  # noqa: E402

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


def cli_outputs():
    for argv in cli_commands():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        yield f"{argv}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n"


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


def main():
    os.chdir(ROOT)  # the cli group names the scenarios by their relative paths
    for group, outputs in (("cli", cli_outputs), ("sweeps", sweep_outputs),
                           ("c5", c5_outputs), ("grid", grid_outputs),
                           ("grid_tight", grid_tight_outputs),
                           ("splice", splice_outputs), ("allsweeps", allsweep_outputs),
                           ("anneal", anneal_outputs)):
        digest = hashlib.sha256()
        count = 0
        for text in outputs():
            digest.update(text.encode())
            count += 1
        print(f"{group:7s}{count:5d}  {digest.hexdigest()}")


if __name__ == "__main__":
    main()
