#!/usr/bin/env python3
"""Vehicle-choice optimization on the two bundled cases.

Optimizes the city layer of the small-vehicle hub scheme (all suppliers) and
the single-supplier direct scheme, then prints KPI changes against each
scheme's configured baseline.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from citydist.optimize import reallocated_scheme, simulated_annealing
from citydist.scenario import load_scenario
from citydist.schemes import evaluate_scheme

ROOT = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def optimize_layer(scenario, scheme_name, layer_index):
    scheme = scenario.scheme(scheme_name)
    baseline = evaluate_scheme(scheme)
    layer = scheme.layers[layer_index]
    fleet = [scenario.vehicles[v] for v in scenario.optimization_vehicles]
    units = [u for a in layer.fleet for u in a.demand.units]
    result = simulated_annealing(fleet, units, layer.params, scenario.sa,
                                 external_factors=scheme.external_factors)
    optimized = evaluate_scheme(reallocated_scheme(scheme, layer_index, result.allocation,
                                                   fleet, units))

    print(f"--- {scenario.name} / {scheme_name} (layer {layer_index + 1}) ---")
    print(f"objective: {result.objective:.2f} EUR  feasible: {result.feasible}")
    for i, vehicle in enumerate(fleet):
        share = result.allocation.column_mass_share(units, i)
        print(f"  {vehicle.id:16s} {share * 100:6.1f}% of mass")
    for label, attr in (("distance", "total_distance_km"), ("time", "total_time_h"),
                        ("total cost", "total_cost"), ("fill rate", "fill_rate")):
        b, o = getattr(baseline, attr), getattr(optimized, attr)
        print(f"  {label:10s} {b:10.2f} -> {o:10.2f}  ({(o - b) / b * 100:+.1f}%)")
    print()


def main():
    optimize_layer(load_scenario(str(ROOT / "bordeaux.scenario")), "pi_small", 1)
    optimize_layer(load_scenario(str(ROOT / "bordeaux_single_supplier.scenario")),
                   "original", 0)


if __name__ == "__main__":
    main()
