import math
import random
import re
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from citydist import model
from citydist.model import (
    BindingConstraint,
    ConsistencyError,
    DEFAULT_EXTERNAL_FACTORS,
    DeliveryUnitType,
    DemandProfile,
    DomainError,
    EXTERNAL_CATEGORIES,
    ExternalCostFactors,
    InfeasibleError,
    NetworkParams,
    SaConfig,
    TemperatureClass,
    TourPlan,
    VehicleType,
    dominant_order,
    effective_capacity,
    fill_rate,
    solve_tour_plan,
)
from citydist.schemes import FleetAssignment, LayerMode, LayerSpec, evaluate_layer

from conftest import demand


# ---------------------------------------------------------------- types

def test_vehicle_invariants():
    with pytest.raises(DomainError):
        VehicleType("v", 0, 20, 5, 30)
    with pytest.raises(DomainError):
        VehicleType("v", 1000, 0, 5, 30)
    with pytest.raises(DomainError):
        VehicleType("v", 1000, 20, -1, 30)
    with pytest.raises(DomainError):
        VehicleType("v", 1000, 20, 5, 30, TemperatureClass.A, 0)


def test_unit_invariants():
    with pytest.raises(DomainError):
        DeliveryUnitType("u", 0, 5)
    with pytest.raises(DomainError):
        DeliveryUnitType("u", 10, -1)
    assert DeliveryUnitType("u", 10, 2.5).weight_kg == 25.0


def test_demand_profile_totals_must_match_units():
    units = (DeliveryUnitType("a", 10, 3), DeliveryUnitType("b", 450, 2))
    profile = DemandProfile.from_units(units)
    assert profile.total_weight_kg == 930.0
    assert profile.total_stops == 5.0
    with pytest.raises(DomainError):
        DemandProfile(units=units, total_weight_kg=100.0, total_stops=5.0)


def test_demand_dominant_unit_is_heaviest_present():
    units = (DeliveryUnitType("parcel", 10, 3), DeliveryUnitType("pallet", 450, 2),
             DeliveryUnitType("ghost", 900, 0))
    assert DemandProfile.from_units(units).dominant_unit().id == "pallet"
    assert DemandProfile().dominant_unit() is None


def test_dominant_index_first_among_ties_and_skips_absent_units():
    units = (DeliveryUnitType("a", 450, 2), DeliveryUnitType("b", 900, 0),
             DeliveryUnitType("c", 450, 5), DeliveryUnitType("d", 900, 1))

    def dominant_index(units, shares):
        """The first unit of dominant_order carried at a share > 0, checked
        against the heaviest-per-stop loop (stops > 0 and a share > 0, the
        first among ties; -1 when none is)."""
        best = -1
        for j, (unit, share) in enumerate(zip(units, shares)):
            if share > 0 and unit.stops > 0 and (
                    best < 0 or unit.avg_weight_kg > units[best].avg_weight_kg):
                best = j
        assert next((j for j in dominant_order(units) if shares[j] > 0), -1) == best
        return best

    assert dominant_order(units) == [3, 0, 2]
    assert dominant_index(units, (1, 1, 1, 1)) == 3
    assert dominant_index(units, (1, 1, 1, 0)) == 0   # a and c tie: a comes first
    assert dominant_index(units, (0, 1, 0.5, 0)) == 2
    assert dominant_index(units, (0, 1, 0, 0)) == -1  # b has no stops
    assert dominant_index((), ()) == -1


def test_network_params_invariants():
    with pytest.raises(DomainError):
        NetworkParams(radius_km=0, area_km2=186, stop_time_h=0.25)
    with pytest.raises(DomainError):
        NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25, congestion_factor=0.9)
    with pytest.raises(DomainError):
        NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25, lead_time_h=25)


def test_external_factor_fields_nonnegative():
    with pytest.raises(DomainError):
        ExternalCostFactors(-1, 0, 0, 0, 0)


NAN = float("nan")
# (case, constructor given one NaN field, the field's name in the refusal)
_NAN_FIELDS = [
    *((f"NetworkParams.{name}",
       lambda name=name: NetworkParams(**{"radius_km": 30, "area_km2": 186,
                                          "stop_time_h": 0.25, name: NAN}),
       f"params.{name}")
      for name in ("radius_km", "area_km2", "stop_time_h", "daganzo_k",
                   "congestion_factor", "shift_duration_h", "lead_time_h")),
    ("VehicleType.capacity_kg", lambda: VehicleType("v", NAN, 20, 5, 30), "capacity_kg"),
    ("VehicleType.speed_kmh", lambda: VehicleType("v", 1000, NAN, 5, 30), "speed_kmh"),
    ("VehicleType.cost_per_km", lambda: VehicleType("v", 1000, 20, NAN, 30), "cost_per_km"),
    ("VehicleType.cost_per_hour", lambda: VehicleType("v", 1000, 20, 5, NAN), "cost_per_hour"),
    ("VehicleType.max_units_footprint",
     lambda: VehicleType("v", 1000, 20, 5, 30, TemperatureClass.A, NAN), "max_units_footprint"),
    ("DeliveryUnitType.avg_weight_kg", lambda: DeliveryUnitType("u", NAN, 5), "avg_weight_kg"),
    ("DeliveryUnitType.stops", lambda: DeliveryUnitType("u", 10, NAN), "stops"),
    ("DemandProfile.total_weight_kg", lambda: DemandProfile(total_weight_kg=NAN), "demand totals"),
    ("DemandProfile.total_stops", lambda: DemandProfile(total_stops=NAN), "demand totals"),
    ("DemandProfile.scale", lambda: demand(1000, 4).scale(NAN), "scale factor"),
    *((f"ExternalCostFactors.{name}",
       lambda k=k: ExternalCostFactors(*(NAN if j == k else 1.0 for j in range(5))),
       f"external factor '{name}'") for k, name in enumerate(EXTERNAL_CATEGORIES)),
]


@pytest.mark.parametrize("build, field", [case[1:] for case in _NAN_FIELDS],
                         ids=[case[0] for case in _NAN_FIELDS])
def test_nan_field_is_refused_by_name(build, field):
    with pytest.raises(DomainError, match=re.escape(field)):
        build()


INF = math.inf
# (case, constructor given one value, the field's name in the refusal) for
# every numeric field of the four value types
_FIELD_BUILDERS = [
    *((f"NetworkParams.{name}",
       lambda x, name=name: NetworkParams(**{"radius_km": 30, "area_km2": 186,
                                             "stop_time_h": 0.25, name: x}),
       f"params.{name}")
      for name in ("radius_km", "area_km2", "stop_time_h", "daganzo_k",
                   "congestion_factor", "shift_duration_h", "lead_time_h")),
    ("VehicleType.capacity_kg", lambda x: VehicleType("v", x, 20, 5, 30), "capacity_kg"),
    ("VehicleType.speed_kmh", lambda x: VehicleType("v", 1000, x, 5, 30), "speed_kmh"),
    ("VehicleType.cost_per_km", lambda x: VehicleType("v", 1000, 20, x, 30), "cost_per_km"),
    ("VehicleType.cost_per_hour", lambda x: VehicleType("v", 1000, 20, 5, x), "cost_per_hour"),
    ("VehicleType.max_units_footprint",
     lambda x: VehicleType("v", 1000, 20, 5, 30, TemperatureClass.A, x), "max_units_footprint"),
    ("DeliveryUnitType.avg_weight_kg", lambda x: DeliveryUnitType("u", x, 5), "avg_weight_kg"),
    ("DeliveryUnitType.stops", lambda x: DeliveryUnitType("u", 10, x), "stops"),
    *((f"ExternalCostFactors.{name}",
       lambda x, k=k: ExternalCostFactors(*(x if j == k else 1.0 for j in range(5))),
       f"external factor '{name}'") for k, name in enumerate(EXTERNAL_CATEGORIES)),
]


@pytest.mark.parametrize("value", [INF, -INF, NAN], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("build, field", [
    (lambda x: DemandProfile(total_weight_kg=x), "total_weight_kg"),
    (lambda x: DemandProfile(total_stops=x), "total_stops"),
    (lambda x: demand(1000, 4).scale(x), "scale factor"),
], ids=["total_weight_kg", "total_stops", "scale"])
def test_non_finite_demand_total_is_refused_by_name(build, field, value):
    # an infinite total reached solve_tour_plan, whose math.ceil raised a raw
    # OverflowError; a totals-only demand scaled by inf had the same fate
    with pytest.raises(DomainError, match=re.escape(field) + ".* and finite"):
        build(value)
    build(1.0)


@pytest.mark.parametrize("value", [INF, -INF], ids=["inf", "-inf"])
@pytest.mark.parametrize("build, field", [case[1:] for case in _FIELD_BUILDERS],
                         ids=[case[0] for case in _FIELD_BUILDERS])
def test_infinite_field_is_refused_by_name(build, field, value):
    # an infinite cost made simulated_annealing's temperatures infinite, so
    # its cooling loop never ended; inf * 0 would put NaN in the grid tables
    with pytest.raises(DomainError, match=re.escape(field) + ".* and finite"):
        build(value)
    build(1.0)  # the same builder takes a finite value


@pytest.mark.parametrize("field, value", [
    ("steps_per_temperature", NAN), ("steps_per_temperature", INF),
    ("steps_per_temperature", 2.5), ("steps_per_temperature", 20.0),
    ("restarts", NAN), ("restarts", INF), ("restarts", 2.5), ("restarts", "5"),
], ids=["steps_nan", "steps_inf", "steps_2.5", "steps_20.0",
        "restarts_nan", "restarts_inf", "restarts_2.5", "restarts_str"])
def test_sa_config_refuses_a_non_integer_count_by_name(field, value):
    # each of these constructed, and simulated_annealing's range() then
    # raised a raw TypeError (or a NaN count compared false with 1)
    with pytest.raises(DomainError, match=f"^{field} must be an integer$"):
        SaConfig(**{field: value})
    with pytest.raises(DomainError, match="^steps_per_temperature and restarts must be >= 1$"):
        SaConfig(**{field: 0})
    assert getattr(SaConfig(**{field: 3}), field) == 3


# ---------------------------------------------------------------- route distance

def _travel_and_stop_h(distance_km, stops, vehicle, params):
    """Hours on the road at the congested speed plus hours stopped, written
    out by hand as the reference for the solver's and the shuttles' hours."""
    return distance_km / (vehicle.speed_kmh / params.congestion_factor) + params.stop_time_h * stops


def _route_km(m, stops, params):
    """2*r*m line haul plus the quantised k*sqrt(A*N) spread, the route length
    the tour solver sums at m tours."""
    return 2.0 * params.radius_km * m + model._spread(params, stops)


def _capacity_bound_plan(tours, stops, params, speed_kmh=30):
    """The plan of a demand whose capacity ceiling is `tours` (1,000 kg per tour)."""
    vehicle = VehicleType("v", 25000, speed_kmh, 8.0, 30.0)
    plan = solve_tour_plan(vehicle, demand(1000.0 * tours, stops), params, cap_limit=1000.0)
    assert (plan.tours, plan.binding_constraint) == (tours, BindingConstraint.CAPACITY)
    return plan


def test_tour_plan_distance_hand_values():
    params = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25)
    # 2*30*1 + 0.57*sqrt(186*4)
    expected = 60 + 0.57 * math.sqrt(744)
    one, two = (_capacity_bound_plan(m, 4, params).distance_km for m in (1, 2))
    assert one == pytest.approx(expected, rel=1e-9)
    assert one == pytest.approx(75.55, abs=0.005)
    assert two == pytest.approx(expected + 60, rel=1e-9)


@given(m=st.integers(min_value=1, max_value=200),
       ns=st.integers(min_value=0, max_value=300),
       r4=st.integers(min_value=1, max_value=160),
       area=st.sampled_from([93.0, 186.0, 400.0]))
def test_tour_plan_distance_affine_increment_exact(m, ns, r4, area):
    # radii on a 0.25 km grid: the tour increment is exactly the round trip;
    # at 200 km/h and 0.01 h a stop, both time ceilings stay below capacity's
    params = NetworkParams(radius_km=r4 * 0.25, area_km2=area, stop_time_h=0.01)
    d0 = _capacity_bound_plan(m, ns, params, speed_kmh=200).distance_km
    d1 = _capacity_bound_plan(m + 1, ns, params, speed_kmh=200).distance_km
    assert d1 - d0 == 2.0 * params.radius_km
    assert d0 == _route_km(m, ns, params)


# ---------------------------------------------------------------- tour fixed point

def test_solve_zero_demand(truck_25t, base_params):
    # the fixed point itself gives the whole zero plan, signs of zero included
    zero_plan = TourPlan(truck_25t, 0, 0.0, 0.0, BindingConstraint.CAPACITY)
    no_stops = DemandProfile.from_units((DeliveryUnitType("pallet", 450.0, 0.0),
                                         DeliveryUnitType("parcel", 10.0, 0.0)))
    for zero in (DemandProfile(), no_stops):
        for cap_limit in (None, 2300.0):
            plan = solve_tour_plan(truck_25t, zero, base_params, cap_limit)
            assert plan == zero_plan
            assert repr(plan) == repr(zero_plan)


def test_solve_capacity_bound_example(truck_25t):
    # 50 t over a 25 t truck: two tours, then both time ceilings stay slack
    params = NetworkParams(radius_km=20, area_km2=186, stop_time_h=0.5,
                           shift_duration_h=8, lead_time_h=24)
    plan = solve_tour_plan(truck_25t, demand(50000, 4), params)
    assert plan.tours == 2
    assert plan.binding_constraint is BindingConstraint.CAPACITY
    assert plan.distance_km == pytest.approx(80 + 0.57 * math.sqrt(744), rel=1e-9)
    # shift check: 95.55/30 + 0.5*4 = 5.19 h < 8 h
    assert plan.distance_km / 30 + 2.0 < 8


def test_solve_lead_time_bound_example():
    vehicle = VehicleType("v", 25000, 20, 8.0, 30.0)
    params = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25,
                           shift_duration_h=24, lead_time_h=4)
    plan = solve_tour_plan(vehicle, demand(5000, 10), params)
    # at m=1, d=84.58 and the lead ceiling asks for 2; at m=2 it is satisfied
    assert plan.tours == 2
    assert plan.binding_constraint is BindingConstraint.LEAD_TIME
    assert plan.distance_km == pytest.approx(120 + 0.57 * math.sqrt(1860), rel=1e-9)


def test_solve_diverges_when_round_trip_exceeds_lead_time():
    vehicle = VehicleType("v", 25000, 20, 8.0, 30.0)
    params = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25,
                           shift_duration_h=8, lead_time_h=2)
    with pytest.raises(InfeasibleError) as err:
        solve_tour_plan(vehicle, demand(5000, 10), params)
    assert err.value.constraint is BindingConstraint.LEAD_TIME


def _ceiling_oracle(vehicle, weight, stops, params, cap_limit, m_max=500):
    """Independent exhaustive scan for the smallest fixed point."""
    v_eff = vehicle.speed_kmh / params.congestion_factor
    for m in range(0, m_max + 1):
        if _tour_map(m, weight, stops, cap_limit, v_eff, params) == m:
            return m, _route_km(m, stops, params)
    return None


@settings(max_examples=60, deadline=None)
@given(cap=st.integers(min_value=1000, max_value=25000),
       weight=st.floats(min_value=0, max_value=250000),
       stops=st.integers(min_value=1, max_value=200),
       r4=st.integers(min_value=20, max_value=120),
       v=st.integers(min_value=18, max_value=35),
       sd=st.sampled_from([8.0, 16.0]),
       lt=st.sampled_from([8.0, 12.0, 24.0]))
def test_solver_matches_exhaustive_scan(cap, weight, stops, r4, v, sd, lt):
    vehicle = VehicleType("v", cap, v, 6.0, 30.0)
    params = NetworkParams(radius_km=r4 * 0.25, area_km2=186, stop_time_h=0.25,
                           shift_duration_h=sd, lead_time_h=lt)
    plan = solve_tour_plan(vehicle, demand(weight, stops), params)
    oracle = _ceiling_oracle(vehicle, weight, stops, params, cap)
    assert oracle is not None
    assert (plan.tours, plan.distance_km) == oracle


@settings(max_examples=40, deadline=None)
@given(cap=st.integers(min_value=2000, max_value=25000),
       weight=st.floats(min_value=1, max_value=120000),
       stops=st.integers(min_value=1, max_value=60))
def test_fixed_point_property_and_minimality(cap, weight, stops):
    vehicle = VehicleType("v", cap, 25, 6.0, 30.0)
    params = NetworkParams(radius_km=15, area_km2=186, stop_time_h=0.25,
                           shift_duration_h=8, lead_time_h=24)
    plan = solve_tour_plan(vehicle, demand(weight, stops), params)
    v_eff = vehicle.speed_kmh
    # re-substitution: the returned m reproduces itself through the ceilings
    d = _route_km(plan.tours, stops, params)
    cap_c = math.ceil(weight / cap)
    shift_c = math.ceil((d / v_eff + 0.25 * stops) / 8)
    lead_c = math.ceil(((d - 15) / v_eff + 0.25 * (stops - 1)) / 24)
    assert max(0, cap_c, shift_c, lead_c) == plan.tours
    # minimality: no smaller m is a fixed point (scan capped at 50)
    if plan.tours <= 50:
        for m in range(plan.tours):
            d_m = _route_km(m, stops, params)
            shift_m = math.ceil((d_m / v_eff + 0.25 * stops) / 8)
            lead_m = math.ceil(((d_m - 15) / v_eff + 0.25 * (stops - 1)) / 24)
            assert max(0, cap_c, shift_m, lead_m) != m


def test_monotone_convergence_from_capacity_bound():
    vehicle = VehicleType("v", 2000, 20, 6.0, 30.0)
    params = NetworkParams(radius_km=25, area_km2=186, stop_time_h=0.5,
                           shift_duration_h=8, lead_time_h=24)
    weight, stops = 9000, 40
    m = math.ceil(weight / 2000)
    seen = [m]
    for _ in range(100):
        d = _route_km(m, stops, params)
        shift = math.ceil((d / 20 + 0.5 * stops) / 8)
        lead = math.ceil(((d - 25) / 20 + 0.5 * 39) / 24)
        m_next = max(0, math.ceil(weight / 2000), shift, lead)
        if m_next <= m:
            break
        m = m_next
        seen.append(m)
    assert seen == sorted(seen)
    plan = solve_tour_plan(vehicle, demand(weight, stops), params)
    assert plan.tours == m


def _capped_reference(weight, stops, cap_limit, v_eff, params, max_iterations=10_000):
    """The tour solver as it was before its closed-form start: plain
    iteration from the capacity ceiling under an iteration cap.  Returns
    (tours, distance, hours, binding), raises InfeasibleError where a slope
    of at least 1 proves divergence, and returns None when the cap runs out."""
    spread = _route_km(0, stops, params)
    radius = params.radius_km
    stop_shift = params.stop_time_h * stops
    stop_lead = params.stop_time_h * (stops - 1)
    cap = math.ceil(weight / cap_limit)
    m = max(0, cap)
    for _ in range(max_iterations):
        d = 2.0 * radius * m + spread
        hours = d / v_eff + stop_shift
        shift = math.ceil(hours / params.shift_duration_h)
        lead = math.ceil(((d - radius) / v_eff + stop_lead) / params.lead_time_h)
        m_next = max(0, cap, shift, lead)
        if m_next <= m:
            binding = next((b for b, c in ((BindingConstraint.CAPACITY, cap),
                                           (BindingConstraint.SHIFT, shift),
                                           (BindingConstraint.LEAD_TIME, lead)) if c == m),
                           BindingConstraint.CAPACITY)
            return m, d, hours, binding
        if shift > m and 2.0 * radius / (v_eff * params.shift_duration_h) >= 1.0:
            raise InfeasibleError("v", BindingConstraint.SHIFT)
        if lead > m and 2.0 * radius / (v_eff * params.lead_time_h) >= 1.0:
            raise InfeasibleError("v", BindingConstraint.LEAD_TIME)
        m = m_next
    return None


def _tour_map(m, weight, stops, cap_limit, v_eff, params):
    """m -> max(0, capacity, shift, lead-time ceilings), evaluated directly."""
    d = _route_km(m, stops, params)
    return max(0, math.ceil(weight / cap_limit),
               math.ceil((d / v_eff + params.stop_time_h * stops) / params.shift_duration_h),
               math.ceil(((d - params.radius_km) / v_eff + params.stop_time_h * (stops - 1))
                         / params.lead_time_h))


def _solver_instance(rng):
    """(vehicle, weight, stops, params).  Half the instances put one time
    ceiling's slope 2r/(v_eff*budget) near 1: most between 1 - 1e-1 and
    1 - 1e-3, a few between 1 - 1e-3 and 1 - 1e-4, where the capped
    iteration runs out, and a tenth just above 1, where the plan diverges."""
    vehicle = VehicleType("v", rng.uniform(500, 30000), rng.uniform(10, 60), 5.0, 30.0)
    v_eff_factor = rng.choice((1.0, 1.0, 1.3, 2.0))
    v_eff = vehicle.speed_kmh / v_eff_factor
    shift_h, lead_h = rng.uniform(2, 16), rng.uniform(2, 24)
    radius = rng.uniform(0.5, 20)
    steep = rng.random()
    slope = 1 - 10 ** (rng.uniform(-4, -3) if steep < 0.01 else rng.uniform(-3, -1))
    if rng.random() < 0.1:
        slope = 2 - slope
    if steep < 0.25:  # the other time budget is the longer one
        lead_h = rng.uniform(shift_h, 24)
        radius = slope * v_eff * shift_h / 2
    elif steep < 0.5:
        shift_h = rng.uniform(lead_h, 24)
        radius = slope * v_eff * lead_h / 2
    stops = rng.choice((rng.randint(0, 300), rng.uniform(0, 3)))
    weight = rng.choice((0.0, rng.uniform(0, 200000)))
    if weight == 0 and stops == 0:
        stops = 1
    params = NetworkParams(radius_km=radius, area_km2=rng.uniform(5, 400),
                           stop_time_h=rng.uniform(0.01, 0.5),
                           congestion_factor=v_eff_factor,
                           shift_duration_h=shift_h, lead_time_h=lead_h)
    return vehicle, weight, stops, params


def test_solver_equals_capped_iteration_wherever_it_converged():
    rng = random.Random(20261018)
    converged = diverged = capped = long_walks = 0
    for _ in range(2400):
        vehicle, weight, stops, params = _solver_instance(rng)
        v_eff = vehicle.speed_kmh / params.congestion_factor
        args = (weight, stops, vehicle.capacity_kg, v_eff, params)
        dem = demand(weight, stops)
        try:
            want = _capped_reference(*args)
        except InfeasibleError as exc:
            diverged += 1
            with pytest.raises(InfeasibleError) as err:
                solve_tour_plan(vehicle, dem, params)
            assert err.value.constraint is exc.constraint
            continue
        plan = solve_tour_plan(vehicle, dem, params)
        m = plan.tours
        # the least fixed point, whether or not the reference got there
        assert _tour_map(m, *args) == m
        assert m == max(0, math.ceil(weight / vehicle.capacity_kg)) or \
            _tour_map(m - 1, *args) > m - 1
        if want is None:
            capped += 1
            continue
        converged += 1
        long_walks += want[0] - math.ceil(weight / vehicle.capacity_kg) > 100
        # bit for bit, hours included: the first count returns them on its own path
        assert (plan.tours, plan.distance_km, plan.time_h, plan.binding_constraint) == want
    # every kind of outcome is exercised, including walks the jump shortens
    assert converged >= 2000 and diverged >= 50 and capped >= 1 and long_walks >= 100


def test_slope_just_below_one_is_feasible_at_every_stop_time():
    # shift slope 2r/(v*shift) = 40/(20*2.0002) = 0.9999: a fixed point exists
    vehicle = VehicleType("v", 25000, 20, 5.0, 30.0)
    dem = demand(1000, 20)
    tours = {}
    for k in range(1, 11):
        params = NetworkParams(radius_km=20, area_km2=100, stop_time_h=0.05 * k,
                               shift_duration_h=2.0002)
        args = (1000, 20, vehicle.capacity_kg, 20.0, params)
        plan = solve_tour_plan(vehicle, dem, params)
        assert plan.binding_constraint is BindingConstraint.SHIFT
        assert _tour_map(plan.tours, *args) == plan.tours
        assert _tour_map(plan.tours - 1, *args) > plan.tours - 1
        tours[k] = plan.tours
    assert tours[5] == 31_373
    params = NetworkParams(radius_km=20, area_km2=100, stop_time_h=0.01,
                           shift_duration_h=2.0002)
    assert solve_tour_plan(vehicle, dem, params).tours == 7_373


# Instances whose time-ceiling slope lies within 1e-13 of 1, drawn at random:
# (radius, area, stop time, shift, lead time, capacity, speed, weight, stops).
_SLOPE_WITHIN_ULPS_OF_ONE = [
    (0.5621285738577655, 361.063845756536, 0.024989091686441235, 0.02395839010556796, 24,
     1250.6528993070938, 46.92540453518681, 137296.77083581596, 0.027614815663154935),
    (9.12759547139964, 147.8612918664891, 0.3651688374952031, 0.9810724319665444, 24,
     15258.256192554987, 18.607383459146988, 107419.76747182514, 112),
    (1.5292487680770201, 388.34831590993076, 0.11292808651110271, 190.4762586293832,
     0.1990944421871785, 6679.9360026623735, 15.362043774604956, 165408.05319655058, 269),
]


@pytest.mark.parametrize("instance", _SLOPE_WITHIN_ULPS_OF_ONE)
def test_slope_within_ulps_of_one_ends_at_a_feasible_count(instance, monkeypatch):
    # Rounding holds each of these ceilings just above m for up to millions
    # of unit steps; the climb must end within a few hundred ceilings, at a
    # count that meets every ceiling.
    radius, area, stop_time, shift, lead, capacity, speed, weight, stops = instance
    vehicle = VehicleType("v", capacity, speed, 5.0, 30.0)
    params = NetworkParams(radius_km=radius, area_km2=area, stop_time_h=stop_time,
                           shift_duration_h=shift, lead_time_h=lead)
    dem = demand(weight, stops)
    calls = 0

    def counted_ceil(x):
        nonlocal calls
        calls += 1
        assert calls < 10_000, "the climb creeps one tour at a time"
        return math.ceil(x)

    monkeypatch.setattr(model, "math", SimpleNamespace(**{**vars(math), "ceil": counted_ceil}))
    # the time ceilings are taken by _tour_times, whose ceil is bound at definition
    monkeypatch.setattr(model, "_tour_times", partial(model._tour_times, ceil=counted_ceil))
    m = solve_tour_plan(vehicle, dem, params).tours
    monkeypatch.undo()
    assert _tour_map(m, weight, stops, capacity, speed, params) <= m


# Each parameter the solver reads, with the direction (+1 up, -1 down) that
# makes a plan harder to serve: longer, slower or heavier work, or a tighter
# time budget.  Stop time is left out: below one stop the lead-time hours'
# stop_time*(stops - 1) falls as stop time grows, so a longer stop can turn
# a divergent plan feasible (0 stops, 187,248.5 kg on 18,359 kg, 27.6 km/h,
# r = 22.73 km, congestion 2.318, lead time 3.56 h: divergent at 0.514 h a
# stop, 11 tours at 1.399 h).
_HARDER = {"lead_time_h": -1, "shift_duration_h": -1, "radius_km": 1,
           "congestion_factor": 1, "weight": 1, "stops": 1}


@st.composite
def _realistic_solves(draw):
    """(weight, stops, cap_limit, speed, params) of one vehicle's daily plan,
    in the ranges of the bundled scenarios and C5, stretched.  Light loads
    and short budgets are drawn as often as the rest, so that each time
    ceiling binds in many plans."""
    params = NetworkParams(
        radius_km=draw(st.floats(0.5, 60.0)), area_km2=draw(st.floats(5.0, 400.0)),
        stop_time_h=draw(st.floats(0.01, 0.75)), daganzo_k=draw(st.floats(0.3, 1.0)),
        congestion_factor=draw(st.floats(1.0, 2.5)),
        shift_duration_h=draw(st.one_of(st.floats(2.0, 4.0), st.floats(2.0, 16.0))),
        lead_time_h=draw(st.one_of(st.floats(1.0, 3.0), st.floats(1.0, 24.0))))
    stops = draw(st.one_of(st.integers(0, 300).map(float), st.floats(1.0, 300.0)))
    weight = draw(st.one_of(st.floats(0.0, 5000.0), st.floats(0.0, 200000.0)))
    return weight, stops, draw(st.floats(500.0, 30000.0)), draw(st.floats(10.0, 60.0)), params


def _tours_or_inf(weight, stops, cap_limit, speed, params):
    """The solver's tour count, math.inf when it proves divergence.  Slopes
    within 1e-4 of 1, where rounding may leave a count above the least, are
    assumed away."""
    v_eff = speed / params.congestion_factor
    for budget in (params.shift_duration_h, params.lead_time_h):
        assume(abs(2.0 * params.radius_km / (v_eff * budget) - 1.0) >= 1e-4)
    try:
        return model._solve_fixed_point(weight, stops, cap_limit, v_eff, params, "v")[0]
    except InfeasibleError:
        return math.inf


@settings(max_examples=400, deadline=None)
@given(solve=_realistic_solves(), parameter=st.sampled_from(sorted(_HARDER)),
       factor=st.floats(1.0, 3.0))
def test_tour_count_never_falls_as_a_plan_gets_harder(solve, parameter, factor):
    # a count never rises as a time budget grows, never falls as the work
    # grows, and a divergent plan made harder stays divergent (inf <= inf)
    weight, stops, cap_limit, speed, params = solve
    scale = factor ** _HARDER[parameter]
    if parameter == "weight":
        harder = (weight * scale, stops, cap_limit, speed, params)
    elif parameter == "stops":
        harder = (weight, stops * scale, cap_limit, speed, params)
    else:
        value = getattr(params, parameter) * scale
        assume(parameter != "lead_time_h" or value <= 24.0)
        harder = (weight, stops, cap_limit, speed, replace(params, **{parameter: value}))
    assert _tours_or_inf(*solve) <= _tours_or_inf(*harder)


# ---------------------------------------------------------------- costs

def _shuttle_layer(radius_km, *assignments):
    params = NetworkParams(radius_km=radius_km, area_km2=186, stop_time_h=0.25)
    return LayerSpec("shuttle", LayerMode.FIXED_SHUTTLE, params, tuple(
        FleetAssignment(v, demand(1000, 1), shuttle_tours=tours) for v, tours in assignments))


def test_distance_cost_examples(truck_17t):
    empty = LayerSpec("empty", LayerMode.ANALYTICAL, NetworkParams(1, 1, 0.25),
                      (FleetAssignment(truck_17t, DemandProfile()),))
    assert evaluate_layer(empty).distance_cost == 0.0
    # one 100 km round trip at the frozen-class rate of 8 EUR/km
    assert evaluate_layer(_shuttle_layer(50, (truck_17t, 1))).distance_cost == 800.0
    cheap = VehicleType("a", 17000, 20, 5.0, 30.0)
    fresh = VehicleType("f", 17000, 20, 7.0, 30.0)
    assert evaluate_layer(_shuttle_layer(25, (cheap, 2), (fresh, 1))).distance_cost == 850.0


def test_time_cost_hand_value():
    vehicle = VehicleType("v", 25000, 30, 8.0, 30.0)
    params = NetworkParams(radius_km=20, area_km2=186, stop_time_h=0.5,
                           shift_duration_h=8, lead_time_h=24)
    d = 80 + 0.57 * math.sqrt(744)
    expected = (d / 30 + 0.5 * 4) * 30
    assert _travel_and_stop_h(d, 4, vehicle, params) * 30 == pytest.approx(expected, rel=1e-9)
    assert _travel_and_stop_h(0.0, 0, vehicle, params) == 0.0
    layer = LayerSpec("city", LayerMode.ANALYTICAL, params,
                      (FleetAssignment(vehicle, demand(50000, 4)),))
    assert evaluate_layer(layer).time_cost == pytest.approx(expected, rel=1e-9)


def test_congestion_factor_scales_travel_time_only():
    vehicle = VehicleType("v", 25000, 30, 8.0, 10.0)
    slack = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25)
    congested = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25,
                              congestion_factor=2.0)
    assert _travel_and_stop_h(60.0, 0, vehicle, slack) * 10 == pytest.approx(20.0)
    assert _travel_and_stop_h(60.0, 0, vehicle, congested) * 10 == pytest.approx(40.0)
    # the model's time rules: one 60 km round trip with 4 stops of 0.25 h
    for params, travel_h in ((slack, 2.0), (congested, 4.0)):
        v_eff = vehicle.speed_kmh / params.congestion_factor
        d, hours, _, _, _ = model._tour_times(1, 0.0, 4, v_eff, params)
        assert (d, hours) == (60.0, travel_h + 1.0)
        assert hours == _travel_and_stop_h(d, 4, vehicle, params)


@pytest.mark.parametrize("weight, stops, changes, binding", [
    (50000, 4, {}, BindingConstraint.CAPACITY),
    (30000, 25, {"congestion_factor": 1.7}, BindingConstraint.SHIFT),
    (12345.6, 17.3, {}, BindingConstraint.SHIFT),
    (1000, 12, {"lead_time_h": 3.0}, BindingConstraint.LEAD_TIME),
    (0, 0, {}, BindingConstraint.CAPACITY),
], ids=["capacity", "congested", "fractional-stops", "lead-time", "zero-demand"])
def test_total_time_is_unpriced(truck_25t, base_params, weight, stops, changes, binding):
    # the solver's hours are the plan's, and the layer reports them as they are
    params = replace(base_params, **changes)
    load = demand(weight, stops)
    plan = solve_tour_plan(truck_25t, load, params)
    assert plan.binding_constraint is binding
    assert plan.time_h == _travel_and_stop_h(plan.distance_km, stops, truck_25t, params)
    layer = LayerSpec("city", LayerMode.ANALYTICAL, params, (FleetAssignment(truck_25t, load),))
    report = evaluate_layer(layer)
    assert report.total_time_h == _travel_and_stop_h(
        report.total_distance_km, stops, truck_25t, params)
    assert report.time_cost == report.total_time_h * truck_25t.cost_per_hour


def test_external_cost_examples():
    assert DEFAULT_EXTERNAL_FACTORS.amounts(0.0) == [0.0] * len(EXTERNAL_CATEGORIES)
    assert DEFAULT_EXTERNAL_FACTORS.total == 61.6  # 3.4+20.5+6.3+27.4+4
    amounts = DEFAULT_EXTERNAL_FACTORS.amounts(100.0)
    assert math.fsum(amounts) == pytest.approx(6160.0, rel=1e-12)
    assert amounts[EXTERNAL_CATEGORIES.index("noise")] == pytest.approx(2740.0, rel=1e-12)


@given(dist=st.floats(min_value=0.001, max_value=1e6),
       alpha=st.sampled_from([0.5, 2.0, 10.0]))
def test_external_cost_linear(dist, alpha):
    t1 = math.fsum(DEFAULT_EXTERNAL_FACTORS.amounts(dist))
    t2 = math.fsum(DEFAULT_EXTERNAL_FACTORS.amounts(alpha * dist))
    assert t2 == pytest.approx(alpha * t1, rel=1e-9)


# ---------------------------------------------------------------- capacity & fill

def test_effective_capacity_examples():
    pallet = DeliveryUnitType("pallet", 450, 10)
    big = VehicleType("big", 17000, 20, 8.0, 30.0, TemperatureClass.A, 30)
    small = VehicleType("small", 2300, 20, 5.0, 30.0, TemperatureClass.A, 30)
    assert effective_capacity(big, pallet) == 13500.0
    assert effective_capacity(small, pallet) == 2300.0


def test_fill_rate_examples():
    pallet = DeliveryUnitType("pallet", 450, 10)
    vehicle = VehicleType("v", 17000, 20, 8.0, 30.0, TemperatureClass.A, 30)
    cap = effective_capacity(vehicle, pallet)
    assert fill_rate(0.0, vehicle, cap, 0) == 0.0
    assert fill_rate(13500.0, vehicle, cap, 1) == 1.0
    # shape check on a frozen-goods profile: load per tour over effective cap
    frozen = VehicleType("ten", 10000, 20, 8.0, 30.0, TemperatureClass.S, 22)
    assert fill_rate(20590.0, frozen, frozen.capacity_kg, 5) == pytest.approx(20590 / 5 / 10000)
    with pytest.raises(ConsistencyError):
        fill_rate(30000.0, vehicle, cap, 1)
    with pytest.raises(DomainError):
        fill_rate(100.0, vehicle, cap, 0)


@given(load=st.floats(min_value=0, max_value=13500), tours=st.integers(1, 5))
def test_fill_rate_bounds(load, tours):
    pallet = DeliveryUnitType("pallet", 450, 10)
    vehicle = VehicleType("v", 17000, 20, 8.0, 30.0, TemperatureClass.A, 30)
    assert 0.0 <= fill_rate(load, vehicle, effective_capacity(vehicle, pallet), tours) <= 1.0


# ---------------------------------------------------------------- lead-time threshold

def _feasible(vehicle, dem, params, lead_time_h):
    try:
        solve_tour_plan(vehicle, dem, replace(params, lead_time_h=lead_time_h))
        return True
    except InfeasibleError:
        return False


def _least_feasible_lead_time(vehicle, dem, params, resolution=0.05):
    """Least lead time on the resolution grid with a feasible plan, after
    checking that every grid lead time above it is feasible too."""
    grid = [n * resolution for n in range(1, math.floor(24.0 / resolution) + 1)]
    feasible = [_feasible(vehicle, dem, params, lt) for lt in grid]
    assert True in feasible
    first = feasible.index(True)
    assert all(feasible[first:]), "feasibility is not monotone in the lead time"
    return grid[first]


def test_min_feasible_lead_time_matches_scan(truck_25t):
    params = NetworkParams(radius_km=20, area_km2=186, stop_time_h=0.5,
                           shift_duration_h=8, lead_time_h=24)
    got = _least_feasible_lead_time(truck_25t, demand(50000, 4), params)
    assert got > 2 * 20 / 30  # bounded below by the depot round trip


def test_min_feasible_lead_time_threshold_case():
    vehicle = VehicleType("v", 25000, 20, 8.0, 30.0)
    params = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25,
                           shift_duration_h=24, lead_time_h=4)
    got = _least_feasible_lead_time(vehicle, demand(5000, 10), params)
    assert 1.5 < got <= 8.0


def test_min_feasible_lead_time_infinity_marker():
    # the 25 h depot round trip exceeds a day: no lead time up to 24 h works
    crawler = VehicleType("crawler", 25000, 2.4, 8.0, 30.0)
    params = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25, shift_duration_h=48)
    d10 = demand(5000, 10)
    with pytest.raises(InfeasibleError) as err:
        solve_tour_plan(crawler, d10, params)
    assert err.value.constraint is BindingConstraint.LEAD_TIME
    grid = [n * 0.05 for n in range(1, math.floor(24.0 / 0.05) + 1)]
    assert not any(_feasible(crawler, d10, params, lt) for lt in grid)


# ---------------------------------------------------------------- regime invariants

def test_capacity_bound_regime_speed_invariance():
    # capacity dominates at every speed: distance frozen, time cost falling
    params = NetworkParams(radius_km=5, area_km2=93, stop_time_h=0.25,
                           shift_duration_h=16, lead_time_h=24)
    d42 = demand(19946.5, 42)
    previous_cost = None
    distances = set()
    for speed in (15, 20, 25, 30):
        vehicle = VehicleType("v", 17000, speed, 8.0, 30.0)
        plan = solve_tour_plan(vehicle, d42, params)
        assert plan.binding_constraint is BindingConstraint.CAPACITY
        distances.add(plan.distance_km)
        cost = _travel_and_stop_h(plan.distance_km, 42, vehicle, params) * 30.0
        if previous_cost is not None:
            assert cost < previous_cost
        previous_cost = cost
    assert len(distances) == 1
