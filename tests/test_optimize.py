import hashlib
import importlib
import itertools
import json
import math
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from citydist.model import (
    DeliveryUnitType,
    DemandProfile,
    DomainError,
    ExternalCostFactors,
    NetworkParams,
    TemperatureClass,
    VehicleType,
    dominant_index,
    effective_capacity,
    solve_tour_plan,
    travel_and_stop_time,
)
from citydist import optimize
from citydist.optimize import (
    AllocationMatrix,
    GridTooLargeError,
    SaConfig,
    brute_force_grid,
    constraint_violations,
    induced_demand,
    neighbor_move,
    objective_value,
    reallocated_scheme,
    simulated_annealing,
    vertex_optimum,
    _allocation_layer,
    _canonical_row,
    _ColumnKernel,
    _compositions,
    _transfer,
    _vertices,
)
from citydist.report import to_jsonable
from citydist.scenario import load_scenario
from citydist.schemes import (FleetAssignment, LayerMode, LayerSpec, SchemeSpec,
                              capacity_limits, evaluate_layer, evaluate_scheme)

from conftest import BORDEAUX, REPO
from test_acceptance import _c5_instances


PARAMS = NetworkParams(radius_km=20, area_km2=186, stop_time_h=0.25,
                       shift_duration_h=16, lead_time_h=24)
PALLET = DeliveryUnitType("pallet", 450.0, 100)


def vt(id_, cap, cd, speed=20):
    return VehicleType(id_, cap, speed, cd, 30.0, TemperatureClass.A, 200)


# ---------------------------------------------------------------- allocation

def test_allocation_row_sums_enforced():
    with pytest.raises(DomainError):
        AllocationMatrix(((0.5, 0.4),))
    with pytest.raises(DomainError):
        AllocationMatrix(((1.2, -0.2),))
    AllocationMatrix(((0.5, 0.5),))  # valid


def test_induced_demand_identity_and_split():
    fleet_units = [PALLET]
    identity = AllocationMatrix(((1.0, 0.0),))
    profiles = induced_demand(identity, fleet_units)
    assert profiles[0].total_weight_kg == 45000.0
    assert profiles[0].total_stops == 100.0
    assert (profiles[1].total_weight_kg, profiles[1].total_stops) == (0.0, 0.0)
    half = AllocationMatrix(((0.5, 0.5),))
    profiles = induced_demand(half, fleet_units)
    for p in profiles:
        assert p.total_stops == 50.0
        assert p.total_weight_kg == 22500.0


def test_objective_zero_demand_is_zero():
    empty = DeliveryUnitType("none", 10.0, 0)
    allocation = AllocationMatrix(((1.0, 0.0),))
    assert objective_value(allocation, [vt("a", 17000, 5), vt("b", 17000, 8)],
                           [empty], PARAMS) == 0.0


def test_objective_single_vehicle_matches_core_model():
    vehicle = vt("a", 17000, 8)
    allocation = AllocationMatrix(((1.0,),))
    demand = DemandProfile.from_units([PALLET])
    plan = solve_tour_plan(vehicle, demand, PARAMS)
    expected = plan.distance_km * 8 + travel_and_stop_time(
        plan.distance_km, demand.total_stops, vehicle, PARAMS) * vehicle.cost_per_hour
    assert objective_value(allocation, [vehicle], [PALLET], PARAMS) == \
        pytest.approx(expected, rel=1e-12)


def test_objective_separable_over_vehicles():
    a, b = vt("a", 17000, 5), vt("b", 17000, 8)
    half = AllocationMatrix(((0.5, 0.5),))
    full = AllocationMatrix(((1.0,),))
    half_unit = DeliveryUnitType("pallet", 450.0, 50)
    lhs = objective_value(half, [a, b], [PALLET], PARAMS)
    rhs = (objective_value(full, [a], [half_unit], PARAMS)
           + objective_value(full, [b], [half_unit], PARAMS))
    assert lhs == pytest.approx(rhs, rel=1e-12)



def test_objective_value_reuses_one_kernel_per_instance(monkeypatch):
    # scoring many allocations of one instance builds one kernel: equal
    # copies of (fleet, units, params) reuse it, a changed one rebuilds it
    fleet = [vt("a", 17000, 5), vt("b", 4000, 8)]
    units = [PALLET, DeliveryUnitType("parcel", 80.0, 25)]
    tight = replace(PARAMS, lead_time_h=4.0)
    corners = ((1.0, 0.0), (0.0, 1.0))
    allocations = [*(AllocationMatrix(rows) for rows in itertools.product(corners, repeat=2)),
                   AllocationMatrix.uniform(2, 2)]
    fresh = {params: [_ColumnKernel(fleet, units, params).energy(a.entries)[1]
                      for a in allocations] for params in (PARAMS, tight)}
    built = []
    init = _ColumnKernel.__init__
    monkeypatch.setattr(_ColumnKernel, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    monkeypatch.setattr(optimize, "_objective_kernel", None)
    for params, rebuilds in ((PARAMS, 1), (tight, 2), (PARAMS, 3)):
        for allocation, expected in zip(allocations, fresh[params]):
            copies = (list(fleet), tuple(units), replace(params))
            assert objective_value(allocation, *copies) == expected
            assert objective_value(allocation, fleet, units, params) == expected
        assert len(built) == rebuilds


# ---------------------------------------------------------------- constraints

def test_zero_column_has_nonpositive_slacks():
    allocation = AllocationMatrix(((1.0, 0.0),))
    slacks = constraint_violations(allocation, [vt("a", 17000, 5), vt("b", 17000, 8)],
                                   [PALLET], PARAMS)
    for s in slacks:
        if s.vehicle_id == "b":
            assert s.slack <= 0.0


def test_capacity_slack_zero_at_exact_fill():
    vehicle = vt("a", 22500, 5)
    allocation = AllocationMatrix(((1.0,),))
    # 45 t over a 22.5 t truck and few stops: exactly 2 full tours
    heavy = DeliveryUnitType("heavy", 11250.0, 4)
    slacks = {s.constraint: s.slack for s in
              constraint_violations(allocation, [vehicle], [heavy], PARAMS)}
    assert slacks["capacity"] == 0.0


def test_solved_plan_satisfies_all_constraints():
    vehicle = VehicleType("v", 25000, 30, 8.0, 30.0)
    params = NetworkParams(radius_km=20, area_km2=186, stop_time_h=0.5,
                           shift_duration_h=8, lead_time_h=24)
    unit = DeliveryUnitType("mix", 12500.0, 4)
    allocation = AllocationMatrix(((1.0,),))
    for s in constraint_violations(allocation, [vehicle], [unit], params):
        assert s.slack <= 1e-9


def test_kernel_column_inlines_the_dominant_unit_rule(monkeypatch):
    # _ColumnKernel.column picks the dominant unit inline, for speed; it must
    # be model.dominant_index on every column, ties and zero-stop units too.
    # The payload limit it hands the solver is that unit's: with 200 footprint
    # positions on 200 t, each unit weight gives its own limit.
    scored = []

    def recording(weight, stops, cap_limit, *rest, _solve=optimize._solve_fixed_point):
        scored.append(cap_limit)
        return _solve(weight, stops, cap_limit, *rest)

    monkeypatch.setattr(optimize, "_solve_fixed_point", recording)
    fleet = [vt(f"v{i}", 200_000, 5) for i in range(3)]
    rng = random.Random(3)
    for _ in range(300):
        n_units = rng.randint(1, 6)
        units = [DeliveryUnitType(f"u{j}", rng.choice((80.0, 450.0, 900.0)),
                                  rng.choice((0, 0.5, 3, 40))) for j in range(n_units)]
        rows = [[rng.choice((0.0, 0.0, 0.25, 1.0)) for _ in range(3)] for _ in range(n_units)]
        kernel = _ColumnKernel(fleet, units, PARAMS)
        for i in range(3):
            scored.clear()
            kernel.column(rows, i)
            dominant = dominant_index(units, [r[i] for r in rows])
            # no unit with stops in the column: an empty column, never solved
            assert scored == ([effective_capacity(fleet[i], units[dominant])]
                              if dominant >= 0 else [])


# ---------------------------------------------------------------- moves

class _ScriptedRng:
    """Deterministic stand-in for random.Random in move tests: getrandbits
    returns the scripted values in turn, random() the scripted fraction."""

    def __init__(self, bits, fraction):
        self._bits, self._fraction = iter(bits), fraction

    def getrandbits(self, k):
        value = next(self._bits)
        assert 0 <= value < 2 ** k
        return value

    def random(self):
        return self._fraction


def test_neighbor_move_single_vehicle_is_identity():
    allocation = AllocationMatrix(((1.0,),))
    assert neighbor_move(allocation, random.Random(0)) is allocation


def test_neighbor_move_scripted_transfer():
    allocation = AllocationMatrix(((1.0, 0.0),))
    # row 0, from vehicle 0; the second draw 0 is vehicle 0 again, which
    # stands for the last vehicle, 1; a zero fraction moves the full 0.2
    moved = neighbor_move(allocation, _ScriptedRng((0, 0, 0), 0.0))
    assert moved.entries == ((0.8, 0.2),)


def test_transfer_that_moves_nothing_still_canonicalizes():
    # canonicalizing is not idempotent: this row, reached by the walk,
    # comes back one ulp off in its middle entry
    row = (0.23883131223243495, 0.761168687767565, 0.0)
    # row 0, from vehicle 2 (which carries none of it) to vehicle 1
    j, new = _transfer((row,), _ScriptedRng((0, 2, 1), 0.5), 3)
    assert (j, new) == (0, (0.23883131223243495, 0.7611686877675651, 0.0))


def _parent_transfer(rows, rng, vehicles):
    """The draws before getrandbits, kept as the reference they must repeat."""
    j = rng.randrange(len(rows))
    a, b = rng.sample(vehicles, 2)
    delta = rng.uniform(0.0, 0.2) or 0.2  # (0, 0.2]
    row = list(rows[j])
    moved = min(delta, row[a], 1.0 - row[b])
    row[a] -= moved
    row[b] += moved
    return j, _canonical_row(row)


# 21 and 22 straddle the size at which random.sample switches from a list
# pool to a set of picks
@pytest.mark.parametrize("n_vehicles", [*range(2, 12), 21, 22, 30])
def test_transfer_draws_equal_randrange_sample_uniform(n_vehicles):
    for seed in range(200):
        n_rows = 1 + seed % 6
        rows = AllocationMatrix.uniform(n_rows, n_vehicles).entries
        ours, reference = random.Random(seed), random.Random(seed)
        for _ in range(50):
            move = _transfer(rows, ours, n_vehicles)
            assert move == _parent_transfer(rows, reference, range(n_vehicles))
            j, row = move
            rows = rows[:j] + (row,) + rows[j + 1:]
        assert ours.getstate() == reference.getstate()


@settings(max_examples=100)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_neighbor_move_preserves_row_sums(seed):
    rng = random.Random(seed)
    allocation = AllocationMatrix.uniform(3, 3)
    for _ in range(20):
        allocation = neighbor_move(allocation, rng)
        for row in allocation.entries:
            assert math.isclose(math.fsum(row), 1.0, rel_tol=0, abs_tol=1e-9)
            assert all(-1e-12 <= x <= 1 + 1e-12 for x in row)


# ---------------------------------------------------------------- annealing

def test_sa_single_vehicle_degenerates():
    result = simulated_annealing([vt("only", 17000, 8)], [PALLET], PARAMS,
                                 SaConfig(seed=0))
    assert result.allocation.entries == ((1.0,),)
    assert result.feasible


def test_sa_prefers_cheaper_vehicle_and_matches_grid():
    fleet = [vt("cheap", 17000, 5), vt("dear", 17000, 8)]
    result = simulated_annealing(fleet, [PALLET], PARAMS, SaConfig(seed=3))
    assert result.allocation.entries[0][0] == 1.0
    oracle = brute_force_grid(fleet, [PALLET], PARAMS, step=0.01)
    assert result.objective == pytest.approx(oracle.objective, rel=1e-12)


def test_sa_deterministic_per_seed():
    fleet = [vt("a", 17000, 5), vt("b", 9000, 6), vt("c", 4000, 7)]
    units = [DeliveryUnitType("u1", 450.0, 40), DeliveryUnitType("u2", 80.0, 25)]
    r1 = simulated_annealing(fleet, units, PARAMS, SaConfig(seed=11), keep_trace=True)
    r2 = simulated_annealing(fleet, units, PARAMS, SaConfig(seed=11), keep_trace=True)
    assert json.dumps(to_jsonable(r1), sort_keys=True) == \
        json.dumps(to_jsonable(r2), sort_keys=True)


@pytest.mark.parametrize("fleet, units", [
    # the seed-11 optimum is a corner allocation, scored by a full evaluation
    ([vt("a", 17000, 5), vt("b", 9000, 6), vt("c", 4000, 7)],
     [DeliveryUnitType("u1", 450.0, 40), DeliveryUnitType("u2", 80.0, 25)]),
    # the seed-11 optimum is interior, an energy the walk's cached columns gave
    ([vt("a", 25000, 7), vt("b", 4000, 5), vt("c", 9000, 9)],
     [DeliveryUnitType("u1", 450.0, 43), DeliveryUnitType("u2", 20.0, 5)]),
])
def test_sa_best_energy_equals_full_evaluation(fleet, units):
    # The walk re-evaluates only the vehicle columns a move changed; the
    # best energy it reports must still be exactly the full evaluation.
    config = SaConfig(seed=11, restarts=2, steps_per_temperature=50)
    result = simulated_annealing(fleet, units, PARAMS, config, keep_trace=True)
    assert result.trace[-1] == _ColumnKernel(fleet, units, PARAMS) \
        .energy(result.allocation.entries)[0]


def test_sa_seeded_walk_is_pinned():
    # The interior-optimum instance above: the walk's evaluation count, its
    # result and its whole trace, as recorded before the walk skipped moves
    # that leave the row unchanged and drew from getrandbits.  The count is
    # the 3^2 = 9 vertex seeds plus, per restart, the start and 9,000 steps;
    # the trace is the recorded one without the entry a row-corner descent
    # used to append after each restart (at indices 9000 and 18001), and
    # the allocation is still the recorded one.
    fleet = [vt("a", 25000, 7), vt("b", 4000, 5), vt("c", 9000, 9)]
    units = [DeliveryUnitType("u1", 450.0, 43), DeliveryUnitType("u2", 20.0, 5)]
    config = SaConfig(seed=11, restarts=2, steps_per_temperature=50)
    result = simulated_annealing(fleet, units, PARAMS, config, keep_trace=True)
    assert result.evaluations == 18011 == 3 ** 2 + 2 * (1 + 9000)
    assert len(result.trace) == 2 * 9000
    assert result.allocation.entries == ((0.9519164529101823, 0.0480835470898177, 0.0),
                                         (0.9157327466564686, 0.08426725334353131, 0.0))
    assert hashlib.sha256(repr(result.trace).encode()).hexdigest() == \
        "2c1271d40c7f2a0ef38bb3333ff03a6c8290710d2df7c0c81535941d5ef0a482"


def test_benchmark_anneal_is_pinned():
    # The anneal the benchmark times: pi_small's city layer under the
    # scenario's schedule.  Its evaluation count (the 3^6 = 729 vertex seeds
    # plus, per restart, the start and 3,600 steps), result, objective and
    # whole trace, as recorded before the step stopped copying its terms.
    fleet, units, params = _pi_small_layer2()
    config = load_scenario(str(BORDEAUX)).sa
    result = simulated_annealing(fleet, units, params, config, keep_trace=True)
    assert result.evaluations == 18734 == 3 ** 6 + 5 * (1 + 3600)
    assert result.allocation.entries == ((1.0, 0.0, 0.0),) * 6
    assert result.objective == 771.2385998200625
    assert hashlib.sha256(repr(result.trace).encode()).hexdigest() == \
        "e029d208f155555d50d8755bbc1d4d608a33a9af6ec42f3275e2c5b4c6ddc63e"


def test_anneal_calls_the_solver_and_layer_bound_in_optimize(monkeypatch):
    # perfbench's tracer times the optimizer by wrapping
    # citydist.optimize._solve_fixed_point and citydist.optimize.evaluate_layer,
    # and the result's plans through citydist.schemes.solve_tour_plan: an
    # anneal must reach each of them there
    from citydist import schemes
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)

    count(optimize, "_solve_fixed_point")
    count(optimize, "evaluate_layer")
    count(schemes, "solve_tour_plan")
    fleet = [vt("a", 17000, 5), vt("b", 9000, 6)]
    config = SaConfig(seed=1, restarts=1, steps_per_temperature=2, cooling_rate=0.5)
    result = simulated_annealing(fleet, [PALLET], PARAMS, config)
    assert result.feasible
    assert calls["_solve_fixed_point"] > 0
    assert calls["evaluate_layer"] == 1
    assert calls["solve_tour_plan"] == sum(
        1 for d in induced_demand(result.allocation, [PALLET]) if d.total_stops > 0)


def _pi_small_layer2():
    scenario = load_scenario(str(BORDEAUX))
    layer = scenario.scheme("pi_small").layers[1]
    fleet = [scenario.vehicles[v] for v in scenario.optimization_vehicles]
    return fleet, [u for a in layer.fleet for u in a.demand.units], layer.params


@pytest.mark.parametrize("instance", ["pi_small", "1x1", "2x1", "2x2", "3x3"])
def test_vertex_energies_equal_full_evaluation(instance):
    if instance == "pi_small":
        fleet, units, params = _pi_small_layer2()
    else:
        fleet, units, params = next((f, u, p) for label, f, u, p in _c5_instances()
                                    if label == instance)
    kernel = _ColumnKernel(fleet, units, params)
    corners = [tuple(float(k == i) for k in range(len(fleet))) for i in range(len(fleet))]
    vertices = list(_vertices(kernel))
    # every vertex, once each, in itertools.product order
    assert [rows for _, _, rows in vertices] == \
        list(itertools.product(corners, repeat=len(units)))
    for energy, feasible, rows in vertices:
        assert energy == _ColumnKernel(fleet, units, params).energy(rows)[0]
        full_energy, _, full_feasible = kernel.energy(rows)
        assert (energy, feasible) == (full_energy, full_feasible)


def test_vertex_optimum_is_the_least_vertex_on_pi_small():
    fleet, units, params = _pi_small_layer2()
    result = vertex_optimum(fleet, units, params)
    assert result.evaluations == 3 ** 6
    assert result.feasible
    assert result.objective == 771.2385998200625
    assert result.objective == min(
        objective_value(AllocationMatrix(rows), fleet, units, params)
        for rows in itertools.product(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
                                      repeat=6))


_SMALL_VEHICLES = st.tuples(st.integers(4, 50).map(lambda k: 500.0 * k),  # capacity
                            st.sampled_from([10.0, 20.0, 30.0]),          # speed
                            st.integers(3, 9).map(float),                 # cost per km
                            st.sampled_from([20.0, 30.0, 40.0]),          # cost per hour
                            st.integers(5, 60))                           # footprint
_SMALL_UNITS = st.tuples(st.integers(1, 120).map(lambda k: 10.0 * k),     # avg weight
                         st.integers(1, 80))                              # stops


# The two examples are instances where the short walk alone ends above the
# best vertex, so only the vertex seeds keep the result there.
@example(vehicles=[(6500.0, 10.0, 6.0, 20.0, 23), (13000.0, 10.0, 8.0, 40.0, 47)],
         units=[(1140.0, 27), (790.0, 8), (780.0, 59), (1020.0, 36)],
         network=(20, 186, 16), seed=253)
@example(vehicles=[(7500.0, 20.0, 8.0, 20.0, 12), (22500.0, 10.0, 3.0, 40.0, 30),
                   (7000.0, 10.0, 4.0, 30.0, 57)],
         units=[(1100.0, 14), (70.0, 78), (280.0, 1), (770.0, 28), (20.0, 57)],
         network=(20, 50, 16), seed=335)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(vehicles=st.lists(_SMALL_VEHICLES, min_size=2, max_size=3),
       units=st.lists(_SMALL_UNITS, min_size=1, max_size=5),
       network=st.tuples(st.sampled_from([5, 10, 20]), st.sampled_from([50, 93, 186]),
                         st.sampled_from([8, 16])),
       seed=st.integers(0, 1000))
def test_sa_never_ends_above_the_best_vertex(vehicles, units, network, seed):
    fleet = [VehicleType(f"v{i}", *v[:4], TemperatureClass.A, v[4])
             for i, v in enumerate(vehicles)]
    units = [DeliveryUnitType(f"u{j}", w, n) for j, (w, n) in enumerate(units)]
    radius, area, shift = network
    params = NetworkParams(radius_km=radius, area_km2=area, stop_time_h=0.25,
                           shift_duration_h=shift, lead_time_h=24)
    config = SaConfig(seed=seed, restarts=1, steps_per_temperature=2, cooling_rate=0.5)
    result = simulated_annealing(fleet, units, params, config)
    kernel = _ColumnKernel(fleet, units, params)
    vertices = list(_vertices(kernel))
    energy, _, feasible = kernel.energy(result.allocation.entries)
    feasible_vertices = [e for e, ok, _ in vertices if ok]
    if feasible_vertices:
        assert feasible and energy <= min(feasible_vertices)
    elif not feasible:
        assert energy <= min(e for e, _, _ in vertices)


def test_over_budget_instance_seeds_only_the_corners(monkeypatch):
    fleet = [vt(f"v{i}", 4000 * (i + 1), 5 + i) for i in range(4)]
    units = [DeliveryUnitType(f"u{j}", 50.0 * (j + 1), 3 + j) for j in range(7)]
    assert 4 ** 7 > optimize._VERTEX_BUDGET
    kernel = _ColumnKernel(fleet, units, PARAMS)
    corners = [tuple(float(k == i) for k in range(4)) for i in range(4)]
    assert [rows for _, _, rows in _vertices(kernel)] == [(c,) * 7 for c in corners]
    config = SaConfig(seed=2, restarts=1, steps_per_temperature=2, cooling_rate=0.5)
    corners_only = simulated_annealing(fleet, units, PARAMS, config)
    # the 4 corners, then the start and 2 steps at each of 14 temperatures
    assert corners_only.evaluations == 33 == 4 + 1 + 2 * 14
    # the walk does not depend on the seeds, so raising the budget adds
    # exactly the other 4^7 - 4 vertices to the count
    monkeypatch.setattr(optimize, "_VERTEX_BUDGET", 4 ** 7)
    every_vertex = simulated_annealing(fleet, units, PARAMS, config)
    assert every_vertex.evaluations == corners_only.evaluations + 4 ** 7 - 4
    monkeypatch.undo()
    with pytest.raises(GridTooLargeError):
        vertex_optimum(fleet, units, PARAMS)
    with pytest.raises(DomainError):
        vertex_optimum([], units, PARAMS)


def test_reallocated_scheme_carries_the_capacity_unit():
    # 62 pallet stops split 50/50 between a van and a 17 t truck on
    # pi_small's city layer: the truck's 31 pallets exceed its 30-pallet
    # footprint, so the optimizer scores it 2 tours, not the 1 that weight
    # alone (13,950 of 17,000 kg) would give
    scenario = load_scenario(str(BORDEAUX))
    scheme = scenario.scheme("pi_small")
    layer = scheme.layers[1]
    fleet = [scenario.vehicles["van_2p3t_city"], scenario.vehicles["truck_17t_city"]]
    units = [DeliveryUnitType("pallet", 450.0, 62)]
    allocation = AllocationMatrix(((0.5, 0.5),))
    objective = objective_value(allocation, fleet, units, layer.params)
    spliced = reallocated_scheme(scheme, 1, allocation, fleet, units)
    assert spliced.layers[:1] + spliced.layers[2:] == scheme.layers[:1] + scheme.layers[2:]
    kpis = evaluate_layer(spliced.layers[1])
    assert kpis.transport_cost == pytest.approx(layer.subregion_count * objective, rel=1e-12)
    assert kpis.total_tours == layer.subregion_count * 9
    # the splice without capacity units plans the truck by weight alone
    half = DemandProfile(total_weight_kg=450.0 * 31, total_stops=31.0)
    weight_only = replace(layer, fleet=tuple(FleetAssignment(v, half) for v in fleet))
    assert evaluate_layer(weight_only).total_tours == layer.subregion_count * 8


def test_allocation_layer_payload_limits_are_the_kernels(monkeypatch):
    # every vertex of pi_small's city layer and seeded interior allocations:
    # the spliced layer plans each vehicle with the payload limit the
    # optimizer's kernel scores that vehicle by
    fleet, units, params = _pi_small_layer2()
    kernel = _ColumnKernel(fleet, units, params)
    scored = []

    def recording(weight, stops, cap_limit, *rest, _solve=optimize._solve_fixed_point):
        scored.append(cap_limit)
        return _solve(weight, stops, cap_limit, *rest)

    monkeypatch.setattr(optimize, "_solve_fixed_point", recording)
    n = len(fleet)
    corners = [tuple(float(k == i) for k in range(n)) for i in range(n)]
    allocations = list(itertools.product(corners, repeat=len(units)))
    rng = random.Random(3)
    for _ in range(200):
        rows = []
        for _ in units:
            shares = [rng.random() if rng.random() < 0.7 else 0.0 for _ in range(n)]
            shares[rng.randrange(n)] += 0.01
            rows.append(_canonical_row([x / sum(shares) for x in shares]))
        allocations.append(tuple(rows))
    for rows in allocations:
        scored.clear()
        for i in range(n):
            kernel.column(rows, i)
        layer = _allocation_layer(AllocationMatrix(rows), fleet, units, params)
        assert capacity_limits(layer) == tuple(scored)


def test_sa_trace_is_nonincreasing():
    fleet = [vt("a", 17000, 5), vt("b", 9000, 6)]
    units = [DeliveryUnitType("u1", 450.0, 40), DeliveryUnitType("u2", 80.0, 25)]
    result = simulated_annealing(fleet, units, PARAMS, SaConfig(seed=5),
                                 keep_trace=True)
    trace = result.trace
    assert all(a >= b for a, b in zip(trace, trace[1:]))


def test_sa_feasibility_soundness():
    fleet = [vt("a", 17000, 5), vt("b", 9000, 6)]
    units = [DeliveryUnitType("u1", 450.0, 40)]
    result = simulated_annealing(fleet, units, PARAMS, SaConfig(seed=1))
    if result.feasible:
        assert all(v.slack <= 1e-6 for v in result.violations)


def test_sa_argmin_invariant_under_cost_scaling():
    fleet = [vt("a", 17000, 5), vt("b", 9000, 6), vt("c", 4000, 7)]
    scaled = [VehicleType(v.id, v.capacity_kg, v.speed_kmh, v.cost_per_km * 3,
                          v.cost_per_hour * 3, v.temperature_class,
                          v.max_units_footprint) for v in fleet]
    units = [DeliveryUnitType("u1", 450.0, 40), DeliveryUnitType("u2", 80.0, 25)]
    base = brute_force_grid(fleet, units, PARAMS, step=0.2)
    tripled = brute_force_grid(scaled, units, PARAMS, step=0.2)
    assert base.allocation == tripled.allocation
    assert tripled.objective == pytest.approx(3 * base.objective, rel=1e-9)


# ---------------------------------------------------------------- grid oracle

def test_grid_single_vehicle_single_point():
    result = brute_force_grid([vt("only", 17000, 8)], [PALLET], PARAMS, step=0.05)
    assert result.allocation.entries == ((1.0,),)
    assert result.evaluations == 1


def test_grid_single_vehicle_scores_one_column(monkeypatch):
    # 21^3 columns fit the budget, but only the all-ones one is reachable
    fleet = [vt("only", 17000, 8)]
    units = [PALLET, DeliveryUnitType("parcel", 12.5, 40), DeliveryUnitType("cage", 180.0, 9)]
    calls = []
    solve = optimize._solve_fixed_point
    monkeypatch.setattr(optimize, "_solve_fixed_point",
                        lambda *args: calls.append(args) or solve(*args))
    result = brute_force_grid(fleet, units, PARAMS, step=0.05)
    assert len(calls) == 1
    assert result.allocation.entries == ((1.0,),) * 3
    assert result.evaluations == 1
    assert result.objective == objective_value(result.allocation, fleet, units, PARAMS)


def test_grid_two_vehicles_one_unit_is_101_points():
    fleet = [vt("a", 17000, 5), vt("b", 17000, 8)]
    result = brute_force_grid(fleet, [PALLET], PARAMS, step=0.01)
    assert result.evaluations == 101
    assert result.allocation.entries[0][0] == 1.0


def test_grid_refuses_oversized_instances():
    fleet = [vt(f"v{i}", 17000, 5 + i) for i in range(3)]
    units = [DeliveryUnitType(f"u{j}", 100.0, 5) for j in range(4)]
    with pytest.raises(GridTooLargeError):
        brute_force_grid(fleet, units, PARAMS, step=0.05)
    # two vehicles at step 0.001: 1001^3 joint points, over the budget
    with pytest.raises(GridTooLargeError, match="1001\\^3 = 1003003001 grid points"):
        brute_force_grid(fleet[:2], units[:3], PARAMS, step=0.001)
    # one vehicle has a single grid point at any step, and it is scored alone
    result = brute_force_grid(fleet[:1], units[:3], PARAMS, step=0.001)
    assert result.allocation.entries == ((1.0,),) * 3
    assert result.evaluations == 1



def test_grid_table_is_kernel_column_bit_for_bit(monkeypatch):
    # every entry of every vehicle's table equals column() on its tick
    # column, bit for bit.  The instances mix int and float capacities,
    # tied average weights and zero-stop units; at 1-2 h lead times on 5 or
    # 20 km radii their columns meet both time ceilings at the capacity
    # count (filled by the numpy pass), climb past it, or diverge (both
    # left to column, recorded here).
    column = _ColumnKernel.column
    left = []
    monkeypatch.setattr(_ColumnKernel, "column",
                        lambda self, rows, i: left.append(column(self, rows, i)[1]) or
                        column(self, rows, i))
    rng = random.Random(21)
    entries = 0
    for n_units, steps in ((1, (0.05, 0.5)), (2, (0.05, 0.2)), (3, (0.1, 0.25)),
                           (4, (0.25, 0.5))):
        for step in steps:
            for _ in range(4):
                n_vehicles = rng.randint(2, 4)
                fleet = [VehicleType(f"v{i}", rng.choice((4000, 9000.0, 17000)),
                                     rng.choice((15, 20.0)), rng.choice((5, 6.5)), 30.0,
                                     TemperatureClass.A, rng.choice((5, 33, 200)))
                         for i in range(n_vehicles)]
                units = [DeliveryUnitType(f"u{j}", rng.choice((80.0, 450, 900.0)),
                                          rng.choice((0, 12, 40.5, 100)))
                         for j in range(n_units)]
                params = replace(PARAMS, radius_km=rng.choice((5, 20.0)),
                                 lead_time_h=rng.choice((1.0, 1.5, 2)))
                kernel = _ColumnKernel(fleet, units, params)
                ticks = round(1 / step)
                tick_rows = [(c / ticks,) * n_vehicles for c in range(ticks + 1)]
                for i in range(n_vehicles):
                    energy, feasible_energy = kernel.table(i, ticks)
                    assert energy.shape == feasible_energy.shape == (ticks + 1,) * n_units
                    for idx in itertools.product(range(ticks + 1), repeat=n_units):
                        term, ok = column(kernel, tuple(tick_rows[c] for c in idx), i)
                        assert float(energy[idx]).hex() == term.hex()
                        assert float(feasible_energy[idx]) == (term if ok else math.inf)
                    entries += energy.size
    assert True in left and False in left  # some columns climb, some diverge
    assert len(left) < entries  # and the others are numpy's


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_grid_table_refuses_an_overflowing_weight_as_column_does():
    # 1e200 kg per stop at 1e200 stops overflows to an infinite weight:
    # column's math.ceil refuses its count, and the table leaves an
    # infinite count to column rather than score it
    fleet = [vt("a", 17000, 5), vt("b", 4000, 8)]
    kernel = _ColumnKernel(fleet, [DeliveryUnitType("u", 1e200, 1e200)], PARAMS)
    with pytest.raises(OverflowError):
        kernel.column(((1.0, 0.0),), 0)
    with pytest.raises(OverflowError):
        kernel.table(0, 2)


@pytest.mark.parametrize("seed", range(10))
def test_grid_tables_solve_only_columns_that_climb(seed, monkeypatch):
    # the numpy pass fills every tick column whose plan the capacity count
    # settles; the tour solver sees only the others, which climb past that
    # count or diverge.  On C5's family at step 0.05, 0 (seeds 0, 2, 3, 8) to
    # 2,739 (seed 5) of the 3 x 21^3 columns are shift-bound.
    fleet, units, params = _instance(f"c5_instance-{seed}", monkeypatch)
    climbs = []

    def recording(weight, stops, cap_limit, *rest, _solve=optimize._solve_fixed_point):
        plan = _solve(weight, stops, cap_limit, *rest)  # a divergence raises
        climbs.append(plan[0] - math.ceil(weight / cap_limit))
        return plan

    monkeypatch.setattr(optimize, "_solve_fixed_point", recording)
    kernel = _ColumnKernel(fleet, units, params)
    for i in range(len(fleet)):
        kernel.table(i, 20)
    assert all(climb > 0 for climb in climbs)
    assert (len(climbs) == 0) is (seed in (0, 2, 3, 8))


@pytest.mark.parametrize("lead_time_h, n_vehicles, n_units", [
    pytest.param(24.0, 2, 4, id="24.0"), pytest.param(4.0, 2, 4, id="4.0"),
    pytest.param(2.0, 2, 4, id="2.0"), pytest.param(24.0, 3, 3, id="3x3-24.0"),
    pytest.param(4.0, 3, 3, id="3x3-4.0"), pytest.param(2.0, 3, 3, id="3x3-2.0"),
    pytest.param(4.0, 3, 1, id="3x1-4.0")])
def test_grid_four_units_equals_plain_enumeration(lead_time_h, n_vehicles, n_units):
    # 2 vehicles x 4 units at step 0.25: 5^4 joint points, and at 4 h a few
    # are infeasible and the optimum splits a row.  3 vehicles, as in the
    # benchmark, have 15 compositions per row.  At 2 h no point is
    # feasible, as each round trip takes the whole window, so the second
    # search runs.  Quarter shares of integer weights sum exactly, so the
    # grid's fsum columns equal the kernel's; feasible points come first,
    # then the least objective (else the least energy), and among equals
    # the lexicographically first matrix.
    fleet = [vt("a", 17000, 8), vt("b", 4000, 5, speed=15), vt("c", 9000, 6)][:n_vehicles]
    units = [DeliveryUnitType("u1", 450.0, 12), DeliveryUnitType("u2", 80.0, 25),
             DeliveryUnitType("u3", 900.0, 4), DeliveryUnitType("u4", 80.0, 25)][:n_units]
    params = replace(PARAMS, lead_time_h=lead_time_h)
    result = brute_force_grid(fleet, units, params, step=0.25)
    kernel = _ColumnKernel(fleet, units, params)
    row_choices = [tuple(t / 4 for t in c) for c in _compositions(4, n_vehicles)]
    best = None
    for rows in itertools.product(row_choices, repeat=n_units):
        energy, objective, feasible = kernel.energy(rows)
        key = (not feasible, objective if feasible else energy)
        if best is None or key < best[0]:
            best = (key, rows)
    assert result.evaluations == len(row_choices) ** n_units
    assert result.allocation.entries == best[1]
    assert result.feasible is not best[0][0]
    assert result.objective == kernel.energy(best[1])[1]


@pytest.mark.parametrize("step", [0.0, -0.05, -1.0, math.nan])
def test_grid_refuses_step_outside_unit_interval(step):
    fleet = [vt("a", 17000, 8), vt("b", 4000, 5)]
    units = [PALLET, DeliveryUnitType("parcel", 80.0, 25)]
    with pytest.raises(DomainError, match="step"):
        brute_force_grid(fleet, units, PARAMS, step=step)


def test_grid_search_memory_stays_small(monkeypatch):
    # one step-0.05 call on a C5-range 3x3 instance: 231 compositions per
    # row, six 21^3 tables and two 231^2 buffers, ~1.4 MB traced.  The
    # numpy pass that fills a table holds six 21^3 arrays at most, and they
    # are freed before the search buffers are made.  A cached per-vehicle
    # gathered table would add ~9 MB per vehicle.
    fleet, units, params = _instance("c5_instance-7", monkeypatch)
    brute_force_grid(fleet, units, params, step=0.05)  # numpy's first-call set-up
    tracemalloc.start()
    try:
        brute_force_grid(fleet, units, params, step=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_grid_refuses_a_fine_step_before_building_its_rows():
    # 3 vehicles x 2 units at step 0.001: 501,501 compositions per row.  The
    # row count comes from math.comb; the list of compositions (~54 MB
    # traced) is built only for a grid inside the budget.
    importlib.import_module("numpy")  # its first import is not the grid's
    fleet = [vt(f"v{i}", 17000, 5 + i) for i in range(3)]
    units = [PALLET, DeliveryUnitType("parcel", 80.0, 25)]
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLargeError, match="501501\\^2 = 251503253001 grid points"):
            brute_force_grid(fleet, units, PARAMS, step=0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_grid_tie_break_is_lexicographic():
    # two identical vehicles: every split of the single unit costs the same
    # at the corners; the lexicographically smallest matrix must win
    fleet = [vt("a", 17000, 5), vt("b", 17000, 5)]
    result = brute_force_grid(fleet, [PALLET], PARAMS, step=0.5)
    assert result.allocation.entries[0] == (0.0, 1.0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=4))
def test_sa_dominates_grid_oracle(seed):
    fleet = [vt("a", 17000, 5), vt("b", 9000, 6)]
    units = [DeliveryUnitType("u1", 450.0, 40), DeliveryUnitType("u2", 80.0, 25)]
    sa = simulated_annealing(fleet, units, PARAMS, SaConfig(seed=seed))
    grid = brute_force_grid(fleet, units, PARAMS, step=0.05)
    assert sa.objective <= grid.objective * 1.02 + 1e-9


# ---------------------------------------------------------------- one constraint model

def _solver_repro():
    """10 stops of 100 kg on two identical 25 t vehicles.  The solver serves
    it all with one vehicle in one tour, bound by capacity, for 48.55; the
    per-tour lead-time slack of that plan reads +0.035 h."""
    fleet = [VehicleType(id_, 25000, 20, 1.0, 10.0) for id_ in ("a", "b")]
    units = [DeliveryUnitType("u", 100.0, 10)]
    params = NetworkParams(radius_km=5, area_km2=10, stop_time_h=0.25, lead_time_h=3)
    return fleet, units, params


@pytest.mark.parametrize("entry_point, vehicles", [
    (lambda f, u, p: vertex_optimum(f, u, p), 2),
    (lambda f, u, p: simulated_annealing(f, u, p, SaConfig(seed=1)), 2),
    (lambda f, u, p: simulated_annealing(f, u, p, SaConfig(seed=5)), 2),
    (lambda f, u, p: brute_force_grid(f, u, p), 2),
    (lambda f, u, p: brute_force_grid(f, u, p), 1),
], ids=["vertex", "sa-seed-1", "sa-seed-5", "grid-2-vehicles", "grid-1-vehicle"])
def test_optimizer_scores_the_solver_plan(entry_point, vehicles):
    fleet, units, params = _solver_repro()
    fleet = fleet[:vehicles]
    plan = solve_tour_plan(fleet[0], DemandProfile.from_units(units), params)
    assert plan.tours == 1
    result = entry_point(fleet, units, params)
    assert result.objective == pytest.approx(48.55, abs=1e-6)
    assert result.feasible
    assert _ColumnKernel(fleet, units, params).energy(result.allocation.entries) \
        == (result.objective, result.objective, True)


def test_slack_rows_do_not_decide_feasibility():
    fleet, units, params = _solver_repro()
    result = vertex_optimum(fleet, units, params)
    slacks = {(s.vehicle_id, s.constraint): s.slack for s in result.violations}
    assert result.allocation.entries == ((1.0, 0.0),)
    assert result.feasible
    assert slacks[("a", "lead_time")] == pytest.approx(0.035, abs=1e-9)


def _instance(label, monkeypatch):
    if not label.startswith("c5_instance-"):
        return next((f, u, p) for name, f, u, p in _c5_instances() if name == label)
    monkeypatch.syspath_prepend(str(REPO))
    workloads = importlib.import_module("perfbench.workloads")
    seed = int(label.rsplit("-", 1)[1])
    return (*workloads.c5_instance(random.Random(seed)), workloads.C5_PARAMS)


@pytest.mark.parametrize("label", ["1x1", "2x1", "2x2", "3x3",
                                   *(f"c5_instance-{seed}" for seed in range(10))])
def test_optimizer_minimises_what_evaluate_scheme_reports(label, monkeypatch):
    # a short anneal and a 0.1 grid: the property is about how a result is
    # scored, not how far the search gets
    fleet, units, params = _instance(label, monkeypatch)
    scheme = SchemeSpec("instance", (LayerSpec(
        "instance", LayerMode.ANALYTICAL, params,
        (FleetAssignment(fleet[0], DemandProfile.from_units(units)),)),),
        ExternalCostFactors(0.0, 0.0, 0.0, 0.0, 0.0))
    for result in (simulated_annealing(fleet, units, params, SaConfig(seed=1, restarts=1)),
                   vertex_optimum(fleet, units, params),
                   brute_force_grid(fleet, units, params, step=0.1)):
        assert result.feasible
        assert result.objective == result.kpis.transport_cost
        spliced = reallocated_scheme(scheme, 0, result.allocation, fleet, units)
        assert evaluate_scheme(spliced).transport_cost == result.objective


def test_interior_allocations_price_within_one_ulp_of_evaluate_scheme(monkeypatch):
    # 20 seeded allocations on each of ten c5_instance seeds, about 30% of
    # the shares zero.  Off the vertices the optimizer's cost and the
    # spliced scheme's may differ in the last bit, never by more: the kernel
    # adds each vehicle's d*c_km + t*c_h in vehicle order with running
    # weight and stop sums, the report fsums distance and time costs.
    checked = 0
    for seed in range(10):
        fleet, units, params = _instance(f"c5_instance-{seed}", monkeypatch)
        scheme = SchemeSpec("instance", (LayerSpec(
            "instance", LayerMode.ANALYTICAL, params,
            (FleetAssignment(fleet[0], DemandProfile.from_units(units)),)),),
            ExternalCostFactors(0.0, 0.0, 0.0, 0.0, 0.0))
        rng = random.Random(seed)
        for _ in range(20):
            rows = []
            for _ in units:
                shares = [rng.random() if rng.random() < 0.7 else 0.0 for _ in fleet]
                shares[rng.randrange(len(fleet))] += 0.01
                rows.append(tuple(x / sum(shares) for x in shares))
            allocation = AllocationMatrix(tuple(rows))
            objective = objective_value(allocation, fleet, units, params)
            if objective == math.inf:
                continue
            spliced = evaluate_scheme(reallocated_scheme(scheme, 0, allocation, fleet, units))
            assert abs(spliced.transport_cost - objective) <= math.ulp(objective)
            checked += 1
    assert checked >= 150
