"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import json
import math
import random
import time

import pytest

from citydist.cli import run
from citydist.model import (
    DEFAULT_EXTERNAL_FACTORS,
    DeliveryUnitType,
    DemandProfile,
    NetworkParams,
    TemperatureClass,
    VehicleType,
    _spread,
    solve_tour_plan,
)
from citydist.optimize import (
    AllocationMatrix,
    SaConfig,
    brute_force_grid,
    reallocated_scheme,
    simulated_annealing,
    vertex_optimum,
    _ColumnKernel,
)
from citydist.report import to_jsonable
from citydist.scenario import load_scenario, parse_scenario, emit_scenario
from citydist.schemes import evaluate_layer, evaluate_scheme
from citydist.sweep import SweepSpec, sweep_parameter

from conftest import BORDEAUX, SINGLE_SUPPLIER
from test_scenario_io import INVALID_CASES, _variant


def _ok(criterion, detail):
    print(f"[PASS] {criterion}: {detail}")


# ------------------------------------------------------------------ C1

def test_c1_fixed_point_matches_exhaustive_oracle():
    rng = random.Random(20260808)
    t0 = time.monotonic()
    checked = 0
    for _ in range(200):
        capacity = rng.uniform(1000, 25000)
        stops = rng.randint(1, 200)
        weight = rng.uniform(0, 250000)
        params = NetworkParams(
            radius_km=rng.randrange(20, 121) * 0.25,      # 5 .. 30 km
            area_km2=rng.uniform(93, 186),
            stop_time_h=rng.choice([0.25, 0.5]),
            shift_duration_h=rng.choice([8.0, 16.0]),
            lead_time_h=rng.uniform(8.0, 24.0))
        vehicle = VehicleType("v", capacity, rng.uniform(18, 35), 8.0, 30.0,
                              TemperatureClass.A, 1000)
        demand = DemandProfile(total_weight_kg=weight, total_stops=stops)
        plan = solve_tour_plan(vehicle, demand, params)

        # independent oracle: scan every m and keep the smallest fixed point
        v_eff = vehicle.speed_kmh / params.congestion_factor
        oracle = None
        for m in range(0, 501):
            d = 2.0 * params.radius_km * m + _spread(params, stops)
            cap_c = math.ceil(weight / capacity)
            shift_c = math.ceil((d / v_eff + params.stop_time_h * stops)
                                / params.shift_duration_h)
            lead_c = math.ceil(((d - params.radius_km) / v_eff
                                + params.stop_time_h * (stops - 1))
                               / params.lead_time_h)
            if max(0, cap_c, shift_c, lead_c) == m:
                oracle = (m, d)
                break
        assert oracle is not None
        assert (plan.tours, plan.distance_km) == oracle
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 200
    assert elapsed < 5.0
    _ok("C1", f"200/200 instances equal the m-scan oracle in {elapsed:.2f}s")


# ------------------------------------------------------------------ C2

def test_c2_model_identities_exact():
    scenario = load_scenario(str(BORDEAUX))
    # transport cost identity and layer additivity, exact, on every scheme
    for name in scenario.scheme_names():
        scheme = scenario.scheme(name)
        whole = evaluate_scheme(scheme)
        assert whole.transport_cost == whole.distance_cost + whole.time_cost
        parts = [evaluate_layer(l, scheme.external_factors) for l in scheme.layers]
        assert whole.total_distance_km == math.fsum(p.total_distance_km for p in parts)
        assert whole.distance_cost == math.fsum(p.distance_cost for p in parts)
        assert whole.time_cost == math.fsum(p.time_cost for p in parts)
        assert whole.handling_cost == math.fsum(p.handling_cost for p in parts)
        assert whole.external_cost_total == math.fsum(
            math.fsum(p.external_by_category.values()) for p in parts)
    # external-impact linearity within 1e-9 relative
    for alpha in (0.5, 2.0, 10.0):
        base = math.fsum(DEFAULT_EXTERNAL_FACTORS.amounts(137.25))
        scaled = math.fsum(DEFAULT_EXTERNAL_FACTORS.amounts(alpha * 137.25))
        assert scaled == pytest.approx(alpha * base, rel=1e-9)
    # route length affine in the tour count with an exactly 2r increment: the
    # solver's plans at m and m + 1 capacity-bound tours (1,000 kg per tour;
    # at 200 km/h and 0.01 h a stop, neither time ceiling binds)
    vehicle = VehicleType("v", 25000, 200, 8.0, 30.0)
    for r in (5.0, 10.0, 20.0, 30.0):
        for ns in (0, 4, 6, 42, 84, 200):
            params = NetworkParams(radius_km=r, area_km2=186, stop_time_h=0.01)
            d = [solve_tour_plan(vehicle, DemandProfile(total_weight_kg=1000.0 * m,
                                                        total_stops=ns),
                                 params, cap_limit=1000.0).distance_km
                 for m in range(1, 32)]
            assert all(b - a == 2.0 * r for a, b in zip(d, d[1:]))
    _ok("C2", "cost identity, additivity and 2r increments exact; "
              "external linearity within 1e-9")


# ------------------------------------------------------------------ C3

def test_c3_external_factor_sum_exact():
    scenario = load_scenario(str(BORDEAUX))
    assert scenario.external_factors.total == 61.6
    assert DEFAULT_EXTERNAL_FACTORS.total == 61.6
    _ok("C3", "3.4 + 20.5 + 6.3 + 27.4 + 4 = 61.6 per v.km, exact")


# ------------------------------------------------------------------ C4

def test_c4_scheme_ordering_and_saving():
    t0 = time.monotonic()
    scenario = load_scenario(str(BORDEAUX))
    original = evaluate_scheme(scenario.scheme("original"))
    ucc = evaluate_scheme(scenario.scheme("ucc"))
    pi = evaluate_scheme(scenario.scheme("pi"))
    elapsed = time.monotonic() - t0
    assert pi.transport_cost < ucc.transport_cost < original.transport_cost
    # external costs are linear in distance, so they follow total v.km
    assert pi.total_distance_km < ucc.total_distance_km < original.total_distance_km
    assert (pi.external_cost_total < ucc.external_cost_total
            < original.external_cost_total)
    saving = (ucc.total_cost - pi.total_cost) / ucc.total_cost
    assert 0.20 <= saving <= 0.36
    assert elapsed < 1.0
    _ok("C4", f"transport ordering holds; hub scheme saves {saving * 100:.1f}% "
              f"of the consolidation-center total cost in {elapsed:.2f}s")


# ------------------------------------------------------------------ C5

def _c5_instances():
    def vt(id_, cap, cd):
        return VehicleType(id_, cap, 20, cd, 30.0, TemperatureClass.A, 200)

    params = NetworkParams(radius_km=20, area_km2=186, stop_time_h=0.25,
                           shift_duration_h=16, lead_time_h=24)
    yield "1x1", [vt("a", 17000, 8)], [DeliveryUnitType("u1", 450.0, 40)], params
    yield "2x1", [vt("a", 17000, 5), vt("b", 17000, 8)], \
        [DeliveryUnitType("u1", 450.0, 100)], params
    yield "2x2", [vt("a", 17000, 5), vt("b", 9000, 6)], \
        [DeliveryUnitType("u1", 450.0, 40), DeliveryUnitType("u2", 80.0, 25)], params
    yield "3x3", [vt("a", 17000, 5), vt("b", 9000, 6), vt("c", 4000, 7)], \
        [DeliveryUnitType("u1", 450.0, 30), DeliveryUnitType("u2", 80.0, 22),
         DeliveryUnitType("u3", 900.0, 8)], params


def _anneal_evaluations(fleet, units, params, config):
    """Evaluations of one anneal: one per vertex seed, plus, per restart, the
    uniform start and one per step of the cooling schedule.  A single
    vehicle has one allocation, scored once."""
    if len(fleet) == 1:
        return 1
    uniform = AllocationMatrix.uniform(len(units), len(fleet)).entries
    energy = _ColumnKernel(fleet, units, params).energy(uniform)[0]
    t = t0 = max(0.1 * abs(energy), 1e-6)
    n_temperatures = 0
    while t >= 1e-4 * t0:
        n_temperatures += 1
        t *= config.cooling_rate
    return (len(fleet) ** len(units)
            + config.restarts * (1 + config.steps_per_temperature * n_temperatures))


def test_c5_annealer_vs_grid_oracle():
    for label, fleet, units, params in _c5_instances():
        t0 = time.monotonic()
        grid = brute_force_grid(fleet, units, params, step=0.05)
        for seed in (1, 2, 3, 4, 5):
            result = simulated_annealing(fleet, units, params, SaConfig(seed=seed))
            assert result.objective <= grid.objective * 1.02 + 1e-9, \
                f"{label} seed {seed}: {result.objective} vs grid {grid.objective}"
            assert result.evaluations == _anneal_evaluations(fleet, units, params,
                                                             SaConfig(seed=seed))
        # byte-identical determinism for a fixed seed
        r1 = simulated_annealing(fleet, units, params, SaConfig(seed=3))
        r2 = simulated_annealing(fleet, units, params, SaConfig(seed=3))
        assert json.dumps(to_jsonable(r1), sort_keys=True) == \
            json.dumps(to_jsonable(r2), sort_keys=True)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"{label} took {elapsed:.1f}s"
    _ok("C5", "annealer within 1.02x of the 0.05-grid optimum on all "
              "instances, 5 seeds each, deterministic, within budget")


# ------------------------------------------------------------------ C6

def _delta(opt, base, attr):
    b = getattr(base, attr)
    return (getattr(opt, attr) - b) / b * 100.0


def test_c6_vehicle_choice_reproduces_reported_directions():
    scenario = load_scenario(str(BORDEAUX))
    scheme = scenario.scheme("pi_small")
    baseline = evaluate_scheme(scheme)
    layer = scheme.layers[1]
    fleet = [scenario.vehicles[v] for v in scenario.optimization_vehicles]
    units = [u for a in layer.fleet for u in a.demand.units]
    result = simulated_annealing(fleet, units, layer.params, scenario.sa,
                                 external_factors=scheme.external_factors)
    assert result.feasible
    # certificate: the anneal is never worse than the best vertex allocation
    vertex = vertex_optimum(fleet, units, layer.params)
    assert vertex.feasible and result.objective <= vertex.objective
    mass_25t = result.allocation.column_mass_share(units, 0)
    assert mass_25t >= 0.95
    optimized = evaluate_scheme(reallocated_scheme(scheme, 1, result.allocation,
                                                   fleet, units))
    deltas = {attr: _delta(optimized, baseline, attr)
              for attr in ("total_distance_km", "total_time_h", "total_cost",
                           "fill_rate")}
    # reported changes: distance -34%, time -25%, cost -19%, fill -5%;
    # accepted within +-15 percentage points, signs mandatory
    assert -49 <= deltas["total_distance_km"] <= -19
    assert -40 <= deltas["total_time_h"] <= -10
    assert -34 <= deltas["total_cost"] <= -4
    assert -20 <= deltas["fill_rate"] <= 10
    assert deltas["fill_rate"] < 0

    single = load_scenario(str(SINGLE_SUPPLIER))
    s_scheme = single.scheme("original")
    s_base = evaluate_scheme(s_scheme)
    s_layer = s_scheme.layers[0]
    s_fleet = [single.vehicles[v] for v in single.optimization_vehicles]
    s_units = [u for a in s_layer.fleet for u in a.demand.units]
    s_result = simulated_annealing(s_fleet, s_units, s_layer.params, single.sa)
    assert s_result.feasible
    s_vertex = vertex_optimum(s_fleet, s_units, s_layer.params)
    assert s_vertex.feasible and s_result.objective <= s_vertex.objective
    mass_17t = s_result.allocation.column_mass_share(s_units, 1)
    assert mass_17t >= 0.95
    s_opt = evaluate_scheme(reallocated_scheme(s_scheme, 0, s_result.allocation,
                                               s_fleet, s_units))
    # reported changes: distance -42%, time -38%, cost -50%, fill +56%;
    # the 10/90 baseline fixes the achievable magnitudes, so signs are checked
    assert _delta(s_opt, s_base, "total_distance_km") < 0
    assert _delta(s_opt, s_base, "total_time_h") < 0
    assert _delta(s_opt, s_base, "total_cost") < 0
    assert _delta(s_opt, s_base, "fill_rate") > 0
    _ok("C6", f"hub scheme optimum puts {mass_25t * 100:.0f}% of mass on the "
              f"25t class (deltas in window); single supplier goes "
              f"{mass_17t * 100:.0f}% 17t with sign-correct deltas")


# ------------------------------------------------------------------ C7

def test_c7_speed_sweep_on_capacity_bound_layer():
    scenario = load_scenario(str(BORDEAUX))
    scheme = scenario.scheme("pi")
    report = sweep_parameter(SweepSpec("speed_kmh", 15, 30, 2.5, scheme,
                                       layer_index=1))
    costs = [r.report.total_cost for r in report.rows]
    assert all(a > b for a, b in zip(costs, costs[1:]))
    distances = {r.report.total_distance_km for r in report.rows}
    fills = {r.report.fill_rate for r in report.rows}
    assert len(distances) == 1 and len(fills) == 1
    _ok("C7", "cost strictly decreasing over 15-30 km/h; distance and fill "
              "rate bit-identical")


# ------------------------------------------------------------------ C8

def test_c8_lead_time_sweep_shape():
    scenario = load_scenario(str(BORDEAUX))
    scheme = scenario.scheme("pi")
    # swept over the reported 8h -> 3h window, extended down to 0.25 h so the
    # grid reaches the geometry's true feasibility boundary (2r/v = 0.5 h)
    report = sweep_parameter(SweepSpec("lead_time_h", 0.25, 8.0, 0.25, scheme,
                                       layer_index=1))
    rows = sorted(report.rows, key=lambda r: -r.value)  # scan slack -> tight
    window = [r for r in rows if 3.0 <= r.value <= 8.0]
    assert all(r.feasible for r in window)
    threshold = report.detected_threshold
    assert threshold is not None and 3.0 < threshold < 8.0
    flat = [r for r in window if r.value > threshold]
    assert len({r.report.total_tours for r in flat}) == 1
    assert len({r.report.total_cost for r in flat}) == 1
    tight = [r for r in rows if r.feasible and r.value <= threshold]
    assert tight[0].report.total_cost > flat[-1].report.total_cost
    # below the threshold: distance/time/cost weakly rise and fill weakly
    # falls as the lead time keeps shrinking
    feasible = [r.report for r in rows if r.feasible]
    for a, b in zip(feasible, feasible[1:]):
        assert b.total_distance_km >= a.total_distance_km
        assert b.total_time_h >= a.total_time_h
        assert b.total_cost >= a.total_cost
        assert b.fill_rate <= a.fill_rate + 1e-12
    # nonempty infeasible tail with a monotone boundary
    infeasible = [r.value for r in report.rows if not r.feasible]
    assert infeasible
    boundary = max(infeasible)
    assert all(r.value > boundary for r in report.rows if r.feasible)
    assert report.infeasible_below == boundary
    _ok("C8", f"flat above {threshold:.2f} h, rising below it, infeasible at "
              f"and under {boundary:.2f} h with a monotone boundary")


# ------------------------------------------------------------------ C9

def test_c9_round_trip_validation_and_cli_determinism(tmp_path):
    # scenario load -> emit -> load fixpoint
    first = load_scenario(str(BORDEAUX))
    echo = tmp_path / "echo.scenario"
    emit_scenario(first, str(echo))
    second = load_scenario(str(echo))
    assert first.to_dict() == second.to_dict()

    # identical CLI invocations produce byte-identical files
    for command in (
        ["evaluate", "--scenario", str(BORDEAUX), "--scheme", "pi",
         "--format", "json"],
        ["compare", "--scenario", str(BORDEAUX), "--schemes", "original,ucc,pi",
         "--format", "csv"],
        ["optimize", "--scenario", str(SINGLE_SUPPLIER), "--scheme", "original",
         "--layer", "1", "--seed", "11", "--format", "json"],
        ["sweep", "--scenario", str(BORDEAUX), "--scheme", "pi", "--layer", "2",
         "--param", "lead_time_h", "--range", "4:8:1", "--format", "table"],
    ):
        out_a, out_b = tmp_path / "a.out", tmp_path / "b.out"
        assert run(command + ["--output", str(out_a)]) == 0
        assert run(command + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    # crafted invariant violations are rejected with the right error class
    assert len(INVALID_CASES) >= 10
    for description, edits, err in INVALID_CASES:
        with pytest.raises(err):
            parse_scenario(_variant(**edits))
    _ok("C9", f"round-trip fixpoint, byte-identical CLI reruns, and "
              f"{len(INVALID_CASES)} invalid scenarios rejected with the "
              f"correct error classes")
