import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from citydist.model import (
    DeliveryUnitType,
    DemandProfile,
    DomainError,
    NetworkParams,
    TemperatureClass,
    VehicleType,
    solve_tour_plan,
    time_cost,
)
from citydist.optimize import (
    AllocationMatrix,
    GridTooLargeError,
    SaConfig,
    brute_force_grid,
    constraint_violations,
    induced_demand,
    neighbor_move,
    objective_value,
    simulated_annealing,
    _canonical_row,
    _transfer,
)
from citydist.report import to_jsonable


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
    assert profiles[1].is_zero
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
    expected = plan.distance_km * 8 + time_cost([plan], demand, PARAMS)
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
    assert result.trace[-1] == objective_value(result.allocation, fleet, units, PARAMS,
                                               penalty_weight=config.penalty_weight)


def test_sa_seeded_walk_is_pinned():
    # The interior-optimum instance above: the walk's evaluation count, its
    # result and its whole trace, as recorded before the walk skipped moves
    # that leave the row unchanged and drew from getrandbits
    fleet = [vt("a", 25000, 7), vt("b", 4000, 5), vt("c", 9000, 9)]
    units = [DeliveryUnitType("u1", 450.0, 43), DeliveryUnitType("u2", 20.0, 5)]
    config = SaConfig(seed=11, restarts=2, steps_per_temperature=50)
    result = simulated_annealing(fleet, units, PARAMS, config, keep_trace=True)
    assert result.evaluations == 18019
    assert result.allocation.entries == ((0.9519164529101823, 0.0480835470898177, 0.0),
                                         (0.9157327466564686, 0.08426725334353131, 0.0))
    assert hashlib.sha256(repr(result.trace).encode()).hexdigest() == \
        "aa0adc36c551b63723283686ff88b15e4692bf2a6893c90455db43f78d906c5f"


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
