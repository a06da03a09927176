import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from citydist.model import (
    DEFAULT_EXTERNAL_FACTORS,
    EXTERNAL_CATEGORIES,
    ConsistencyError,
    DeliveryUnitType,
    DemandProfile,
    DomainError,
    InfeasibleError,
    KpiReport,
    NetworkParams,
    TemperatureClass,
    VehicleType,
    effective_capacity,
    fill_rate,
    solve_tour_plan,
)
from citydist.schemes import (
    FleetAssignment,
    LayerMode,
    LayerSpec,
    SchemeSpec,
    Supplier,
    build_original,
    build_pi,
    build_ucc,
    capacity_limits,
    compare_schemes,
    evaluate_layer,
    evaluate_scheme,
    layer_plans,
    merge_demands,
)


SHUTTLE = VehicleType("shuttle_25t", 25000, 30, 8.5, 30.0, TemperatureClass.T, 56)
CITY = VehicleType("city_17t", 17000, 20, 8.0, 30.0, TemperatureClass.T, 30)
VAN = VehicleType("van_2p3t", 2300, 20, 7.5, 30.0, TemperatureClass.T, 5)

UCC_SHUTTLE = NetworkParams(radius_km=20, area_km2=186, stop_time_h=0.5,
                            shift_duration_h=16)
UCC_CITY = NetworkParams(radius_km=10, area_km2=186, stop_time_h=0.25,
                         shift_duration_h=16)
PI_SHUTTLE = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.5,
                           shift_duration_h=16)
PI_CITY = NetworkParams(radius_km=5, area_km2=93, stop_time_h=0.25,
                        shift_duration_h=16)


def make_supplier(name, stops, per_stop, vehicle, classes=(TemperatureClass.A,)):
    units = (DeliveryUnitType(f"{name}:mix", per_stop, stops),)
    return Supplier(name, DemandProfile.from_units(units), ((vehicle, 1.0),), classes)


@pytest.fixture
def suppliers():
    v1 = VehicleType("direct_17t", 17000, 20, 7.0, 30.0, TemperatureClass.F, 30)
    v2 = VehicleType("direct_25t", 25000, 20, 8.0, 30.0, TemperatureClass.S, 56)
    return [
        make_supplier("s1", 6, 1210.0, v1, (TemperatureClass.F,)),
        make_supplier("s2", 36, 560.0, v2,
                      (TemperatureClass.A, TemperatureClass.F, TemperatureClass.S)),
        make_supplier("s3", 7, 239.0, CITY,
                      (TemperatureClass.A, TemperatureClass.S)),
    ]


# ---------------------------------------------------------------- layers

def test_zero_demand_layer_is_zero():
    layer = LayerSpec("empty", LayerMode.ANALYTICAL, UCC_CITY,
                      (FleetAssignment(CITY, DemandProfile()),))
    report = evaluate_layer(layer)
    assert report.total_distance_km == 0.0
    assert report.total_cost == 0.0
    assert report.fill_rate == 0.0
    assert report.tours_by_vehicle == {}


def test_fixed_shuttle_hand_values():
    layer = LayerSpec("shuttle", LayerMode.FIXED_SHUTTLE,
                      NetworkParams(radius_km=20, area_km2=186, stop_time_h=0.5),
                      (FleetAssignment(SHUTTLE, DemandProfile(total_weight_kg=30000,
                                                              total_stops=10),
                                       shuttle_tours=2),))
    report = evaluate_layer(layer)
    assert report.total_distance_km == 80.0
    assert report.total_time_h == pytest.approx(80 / 30 + 0.5 * 2, rel=1e-9)
    assert report.tours_by_vehicle == {"shuttle_25t": 2}


def test_fixed_shuttle_derives_tours_from_weight():
    layer = LayerSpec("shuttle", LayerMode.FIXED_SHUTTLE, UCC_SHUTTLE,
                      (FleetAssignment(SHUTTLE, DemandProfile(total_weight_kg=30000,
                                                              total_stops=10)),))
    assert evaluate_layer(layer).tours_by_vehicle == {"shuttle_25t": 2}


@settings(max_examples=60, deadline=None)
@given(pinned=st.one_of(st.none(), st.integers(1, 40)),
       weight=st.floats(0.0, 300000.0), stops=st.floats(0.0, 300.0),
       radius=st.floats(0.5, 400.0), speed=st.floats(10.0, 90.0),
       congestion=st.floats(1.01, 3.0), stop_time=st.floats(0.01, 2.0))
def test_shuttle_hours_are_round_trips_at_the_congested_speed_and_one_stop_each(
        pinned, weight, stops, radius, speed, congestion, stop_time):
    # pinned or derived, a shuttle plan's hours are d/v_eff + stop_time*tours
    # at its count, bit for bit, with no spread and no time budget
    vehicle = VehicleType("shuttle", 25000, speed, 8.5, 30.0, TemperatureClass.T, 56)
    params = NetworkParams(radius_km=radius, area_km2=186, stop_time_h=stop_time,
                           congestion_factor=congestion)
    layer = LayerSpec("shuttle", LayerMode.FIXED_SHUTTLE, params, (FleetAssignment(
        vehicle, DemandProfile(total_weight_kg=weight, total_stops=stops), pinned),))
    [(tours, dist, hours)] = layer_plans(layer, params, [vehicle], capacity_limits(layer))
    derived = max(1, math.ceil(weight / vehicle.capacity_kg)) if weight > 0 else 0
    assert tours == (derived if pinned is None else pinned)
    assert dist == 2.0 * radius * tours
    assert hours == _travel_and_stop_h(dist, tours, vehicle, params)


def test_subregion_multiplication_is_exact():
    base = LayerSpec("city", LayerMode.ANALYTICAL, PI_CITY,
                     (FleetAssignment(CITY, DemandProfile(total_weight_kg=19946.5,
                                                          total_stops=42)),))
    doubled = LayerSpec("city", LayerMode.ANALYTICAL, PI_CITY, base.fleet,
                        subregion_count=2)
    one = evaluate_layer(base, DEFAULT_EXTERNAL_FACTORS)
    two = evaluate_layer(doubled, DEFAULT_EXTERNAL_FACTORS)
    assert two.total_distance_km == 2 * one.total_distance_km
    assert two.transport_cost == 2 * one.transport_cost
    assert two.external_cost_total == 2 * one.external_cost_total
    assert two.fill_rate == one.fill_rate
    assert two.tours_by_vehicle["city_17t"] == 2 * one.tours_by_vehicle["city_17t"]


def test_handling_charged_per_delivery():
    layer = LayerSpec("inbound", LayerMode.FIXED_SHUTTLE, UCC_SHUTTLE,
                      (FleetAssignment(SHUTTLE, DemandProfile(total_weight_kg=1000,
                                                              total_stops=84)),),
                      handling_cost_per_delivery=10.0)
    assert evaluate_layer(layer).handling_cost == 840.0


def test_layer_infeasibility_carries_layer_name():
    tight = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25,
                          lead_time_h=2)
    layer = LayerSpec("city_leg", LayerMode.ANALYTICAL, tight,
                      (FleetAssignment(CITY, DemandProfile(total_weight_kg=5000,
                                                           total_stops=10)),))
    scheme = SchemeSpec("tight", (layer,), DEFAULT_EXTERNAL_FACTORS)
    with pytest.raises(InfeasibleError) as err:
        evaluate_scheme(scheme)
    assert "city_leg" in str(err.value)


# ---------------------------------------------------------------- builders

def test_build_original_rejects_empty():
    with pytest.raises(DomainError):
        build_original([], UCC_CITY, DEFAULT_EXTERNAL_FACTORS, "original")


def test_build_original_zero_demand_supplier():
    vehicle = VehicleType("v", 17000, 20, 7.0, 30.0)
    supplier = Supplier("idle", DemandProfile(), ((vehicle, 1.0),))
    report = evaluate_scheme(build_original([supplier], UCC_CITY, DEFAULT_EXTERNAL_FACTORS, "original"))
    assert report.total_cost == 0.0 and report.total_distance_km == 0.0


def test_build_original_one_layer_per_supplier(suppliers):
    scheme = build_original(suppliers, UCC_CITY, DEFAULT_EXTERNAL_FACTORS, "original")
    assert len(scheme.layers) == len(suppliers)
    assert all(layer.mode is LayerMode.ANALYTICAL for layer in scheme.layers)


def test_build_ucc_shuttle_tours_and_handling(suppliers):
    scheme = build_ucc(suppliers, SHUTTLE, CITY,
                       shuttle_params=UCC_SHUTTLE, city_params=UCC_CITY,
                       handling_cost_per_delivery=10.0, external_factors=DEFAULT_EXTERNAL_FACTORS, name="ucc")
    inbound, outbound = scheme.layers
    report = evaluate_layer(inbound)
    # ceil(7260/25000)=1, ceil(20160/25000)=1, ceil(1673/25000)=1 -> 3 round trips
    assert report.tours_by_vehicle == {"shuttle_25t": 3}
    assert report.total_distance_km == 3 * 40.0
    assert report.handling_cost == 10.0 * (6 + 36 + 7)
    assert outbound.fleet[0].demand.total_weight_kg == pytest.approx(
        sum(s.demand.total_weight_kg for s in suppliers))


def test_build_pi_pinned_two_tours_per_hub(suppliers):
    scheme = build_pi(suppliers, SHUTTLE, CITY, hub_count=2,
                      shuttle_tours_per_hub=2, consolidate_inbound=True, hub_weights=None,
                      shuttle_params=PI_SHUTTLE, city_params=PI_CITY,
                      handling_cost_per_delivery=10.0, external_factors=DEFAULT_EXTERNAL_FACTORS, name="pi")
    inbound = evaluate_layer(scheme.layers[0])
    assert inbound.total_distance_km == 2 * 2 * 2 * 30.0  # 2 hubs x 2 tours x 60 km
    assert inbound.tours_by_vehicle == {"shuttle_25t": 4}


def test_build_pi_rejects_bad_hub_split(suppliers):
    with pytest.raises(DomainError):
        build_pi(suppliers, SHUTTLE, CITY, hub_count=2, shuttle_tours_per_hub=None,
                 consolidate_inbound=False, hub_weights=(0.6, 0.3),
                 shuttle_params=PI_SHUTTLE, city_params=PI_CITY,
                 handling_cost_per_delivery=10.0, external_factors=DEFAULT_EXTERNAL_FACTORS, name="pi")


def test_build_pi_one_hub_with_ucc_geometry_degenerates_to_ucc(suppliers):
    ucc = build_ucc(suppliers, SHUTTLE, CITY,
                    shuttle_params=UCC_SHUTTLE, city_params=UCC_CITY,
                    handling_cost_per_delivery=10.0, external_factors=DEFAULT_EXTERNAL_FACTORS, name="ucc")
    pi = build_pi(suppliers, SHUTTLE, CITY, hub_count=1, shuttle_tours_per_hub=None,
                  consolidate_inbound=False, hub_weights=None,
                  shuttle_params=UCC_SHUTTLE, city_params=UCC_CITY,
                  handling_cost_per_delivery=10.0, external_factors=DEFAULT_EXTERNAL_FACTORS, name="pi")
    left, right = evaluate_scheme(ucc), evaluate_scheme(pi)
    assert left.total_distance_km == right.total_distance_km
    assert left.transport_cost == right.transport_cost
    assert left.handling_cost == right.handling_cost
    assert left.fill_rate == right.fill_rate
    assert left.tours_by_vehicle == right.tours_by_vehicle
    assert left.external_by_category == right.external_by_category


def test_weight_conservation_across_consolidation(suppliers):
    total = math.fsum(s.demand.total_weight_kg for s in suppliers)
    for scheme in (build_ucc(suppliers, SHUTTLE, CITY, shuttle_params=UCC_SHUTTLE,
                             city_params=UCC_CITY, handling_cost_per_delivery=10.0,
                             external_factors=DEFAULT_EXTERNAL_FACTORS, name="ucc"),
                   build_pi(suppliers, SHUTTLE, CITY, hub_count=2, shuttle_tours_per_hub=None,
                            consolidate_inbound=True, hub_weights=None,
                            shuttle_params=PI_SHUTTLE, city_params=PI_CITY,
                            handling_cost_per_delivery=10.0, external_factors=DEFAULT_EXTERNAL_FACTORS,
                            name="pi")):
        inbound = scheme.layers[0]
        outbound_weight = math.fsum(l.subregion_count * a.demand.total_weight_kg
                                    for l in scheme.layers[1:] for a in l.fleet)
        assert math.fsum(a.demand.total_weight_kg for a in inbound.fleet) == total
        assert outbound_weight == total


def test_scheme_additivity_is_exact(suppliers):
    scheme = build_pi(suppliers, SHUTTLE, CITY, hub_count=2, shuttle_tours_per_hub=None,
                      consolidate_inbound=True, hub_weights=None,
                      shuttle_params=PI_SHUTTLE, city_params=PI_CITY,
                      handling_cost_per_delivery=10.0, external_factors=DEFAULT_EXTERNAL_FACTORS, name="pi")
    whole = evaluate_scheme(scheme)
    parts = [evaluate_layer(l, scheme.external_factors) for l in scheme.layers]
    assert whole.total_distance_km == math.fsum(p.total_distance_km for p in parts)
    assert whole.distance_cost == math.fsum(p.distance_cost for p in parts)
    assert whole.time_cost == math.fsum(p.time_cost for p in parts)
    assert whole.handling_cost == math.fsum(p.handling_cost for p in parts)
    for cat in whole.external_by_category:
        assert whole.external_by_category[cat] == \
            math.fsum(p.external_by_category[cat] for p in parts)
    loaded = math.fsum(p.loaded_weight_kg for p in parts)
    assert whole.fill_rate == \
        math.fsum(p.fill_rate * p.loaded_weight_kg for p in parts) / loaded


def test_single_layer_scheme_equals_layer(suppliers):
    scheme = build_original(suppliers[:1], UCC_CITY, DEFAULT_EXTERNAL_FACTORS, "original")
    assert evaluate_scheme(scheme) == evaluate_layer(scheme.layers[0],
                                                     scheme.external_factors)


# ---------------------------------------------------------------- comparison

def test_compare_requires_two(suppliers):
    with pytest.raises(DomainError):
        compare_schemes([build_original(suppliers, UCC_CITY, DEFAULT_EXTERNAL_FACTORS, "original")])


def test_compare_identical_schemes_zero_deltas(suppliers):
    a = build_original(suppliers, UCC_CITY, DEFAULT_EXTERNAL_FACTORS, "a")
    b = build_original(suppliers, UCC_CITY, DEFAULT_EXTERNAL_FACTORS, "b")
    table = compare_schemes([a, b])
    deltas = table.deltas_vs_baseline(table.rows[1])
    assert all(v == 0.0 for v in deltas.values() if v is not None)


def test_compare_percentage_arithmetic():
    base = KpiReport(distance_cost=100.0, loaded_weight_kg=1.0)
    alt = KpiReport(distance_cost=72.0, loaded_weight_kg=1.0)
    from citydist.schemes import ComparisonRow, ComparisonTable
    table = ComparisonTable("base", (ComparisonRow("base", base),
                                     ComparisonRow("alt", alt)))
    assert table.deltas_vs_baseline(table.rows[1])["total_cost"] == pytest.approx(-28.0)


def test_compare_flags_infeasible_member(suppliers):
    good = build_original(suppliers, UCC_CITY, DEFAULT_EXTERNAL_FACTORS, "good")
    tight = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25, lead_time_h=1.5)
    bad = build_original(suppliers, tight, DEFAULT_EXTERNAL_FACTORS, "bad")
    table = compare_schemes([good, bad])
    row = next(r for r in table.rows if r.scheme == "bad")
    assert row.report is None and row.error
    assert all(v is None for v in table.deltas_vs_baseline(row).values())


def test_merge_demands_mixes_units():
    a = DemandProfile.from_units((DeliveryUnitType("a", 10, 3),))
    b = DemandProfile.from_units((DeliveryUnitType("b", 450, 2),))
    merged = merge_demands([a, b])
    assert merged.total_weight_kg == 930.0
    assert merged.total_stops == 5.0


# ------------------------------------- column sums against field-by-field sums

def _fieldwise_aggregate(reports):
    """Reference for KpiReport.from_rows: one fsum generator per field."""
    reports = list(reports)
    tours, frac = {}, {}
    for r in reports:
        for k, v in r.tours_by_vehicle.items():
            tours[k] = tours.get(k, 0) + v
        for k, v in r.tours_fractional_by_vehicle.items():
            frac[k] = frac.get(k, 0.0) + v
    loaded = math.fsum(r.loaded_weight_kg for r in reports)
    fill = (math.fsum(r.fill_rate * r.loaded_weight_kg for r in reports) / loaded
            if loaded > 0 else 0.0)
    return KpiReport(
        total_distance_km=math.fsum(r.total_distance_km for r in reports),
        total_time_h=math.fsum(r.total_time_h for r in reports),
        distance_cost=math.fsum(r.distance_cost for r in reports),
        time_cost=math.fsum(r.time_cost for r in reports),
        handling_cost=math.fsum(r.handling_cost for r in reports),
        external_by_category={
            name: math.fsum(r.external_by_category.get(name, 0.0) for r in reports)
            for name in EXTERNAL_CATEGORIES},
        fill_rate=fill, loaded_weight_kg=loaded,
        tours_by_vehicle=tours, tours_fractional_by_vehicle=frac)


def _travel_and_stop_h(distance_km, stops, vehicle, params):
    """Hours on the road at the congested speed plus hours stopped, written
    out by hand as the reference for the solver's and the shuttles' hours."""
    return distance_km / (vehicle.speed_kmh / params.congestion_factor) + params.stop_time_h * stops


def _assignment_report(a, layer, factors):
    """Reference for one assignment of a layer, as its own report."""
    dominant = a.demand.dominant_unit()
    cap = effective_capacity(a.vehicle, dominant) if dominant else a.vehicle.capacity_kg
    weight = a.demand.total_weight_kg
    if layer.mode is LayerMode.ANALYTICAL:
        plan = solve_tour_plan(a.vehicle, a.demand, layer.params, cap)
        tours, dist = plan.tours, plan.distance_km
        time_h = _travel_and_stop_h(dist, a.demand.total_stops, a.vehicle, layer.params)
    else:
        tours = a.shuttle_tours if a.shuttle_tours is not None else (
            max(1, math.ceil(weight / cap)) if weight > 0 else 0)
        dist = tours * 2.0 * layer.params.radius_km
        time_h = _travel_and_stop_h(dist, tours, a.vehicle, layer.params)
    return KpiReport(
        dist, time_h, dist * a.vehicle.cost_per_km, time_h * a.vehicle.cost_per_hour, 0.0,
        dict(zip(EXTERNAL_CATEGORIES, factors.amounts(dist))) if factors
        else dict.fromkeys(EXTERNAL_CATEGORIES, 0.0),
        fill_rate(weight, a.vehicle, cap, tours) if tours else 0.0, weight,
        {a.vehicle.id: tours} if tours else {},
        {a.vehicle.id: weight / cap} if weight > 0 else {})


def _layer_report(layer, factors):
    """Reference for evaluate_layer: the assignment reports summed field by
    field, handling set, then every extensive field times subregion_count."""
    r = _fieldwise_aggregate(_assignment_report(a, layer, factors) for a in layer.fleet)
    n = layer.subregion_count
    r = replace(r, handling_cost=layer.handling_cost_per_delivery * math.fsum(
        a.demand.total_stops for a in layer.fleet))
    if n == 1:
        return r
    return KpiReport(
        r.total_distance_km * n, r.total_time_h * n, r.distance_cost * n, r.time_cost * n,
        r.handling_cost * n, {k: v * n for k, v in r.external_by_category.items()},
        r.fill_rate, r.loaded_weight_kg * n,
        {k: v * n for k, v in r.tours_by_vehicle.items()},
        {k: v * n for k, v in r.tours_fractional_by_vehicle.items()})


_UNITS = (DeliveryUnitType("pallet", 450.0, 1), DeliveryUnitType("parcel", 12.5, 1),
          DeliveryUnitType("cage", 180.0, 1))


@st.composite
def _assignments(draw):
    vehicle = draw(st.sampled_from((SHUTTLE, CITY, VAN)))
    counts = draw(st.lists(st.floats(0, 40), min_size=len(_UNITS), max_size=len(_UNITS)))
    if draw(st.booleans()):
        demand = DemandProfile.from_units(
            replace(u, stops=c) for u, c in zip(_UNITS, counts))
    else:
        demand = DemandProfile(total_weight_kg=counts[0] * 97.3, total_stops=counts[1])
    return FleetAssignment(vehicle, demand,
                           shuttle_tours=draw(st.none() | st.integers(1, 6)))


_layers = st.builds(
    lambda mode, fleet, rate, n: LayerSpec("layer", mode, PI_CITY, tuple(fleet), rate, n),
    st.sampled_from(LayerMode), st.lists(_assignments(), min_size=0, max_size=4),
    st.floats(0, 25) | st.just(10.0), st.integers(1, 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(layer=_layers, factors=st.sampled_from((None, DEFAULT_EXTERNAL_FACTORS)))
def test_layer_report_is_bit_equal_to_assignment_sums(layer, factors):
    def outcome(evaluate):
        try:
            return repr(evaluate(layer, factors))
        except ConsistencyError as exc:  # a pinned shuttle count too low for the load
            return repr(exc)
    assert outcome(evaluate_layer) == outcome(_layer_report)


_amounts = st.floats(-1e7, 1e7) | st.sampled_from((0.0, 0.1, 0.2, 1e-17, 3.0e15))
_reports = st.builds(
    KpiReport,
    total_distance_km=_amounts, total_time_h=_amounts, distance_cost=_amounts,
    time_cost=_amounts, handling_cost=_amounts,
    external_by_category=st.dictionaries(st.sampled_from(EXTERNAL_CATEGORIES), _amounts),
    fill_rate=st.floats(0, 1),
    loaded_weight_kg=st.just(0.0) | st.floats(0, 1e6),
    tours_by_vehicle=st.dictionaries(st.sampled_from("abc"), st.integers(1, 99)),
    tours_fractional_by_vehicle=st.dictionaries(st.sampled_from("abc"), st.floats(0, 99)))
# a subdivided layer with a handling rate: scaled dictionaries, non-zero handling
_SUBDIVIDED = evaluate_layer(
    LayerSpec("city", LayerMode.ANALYTICAL, PI_CITY,
              (FleetAssignment(CITY, DemandProfile(total_weight_kg=19946.5, total_stops=42)),
               FleetAssignment(VAN, DemandProfile(total_weight_kg=1234.5, total_stops=9))),
              handling_cost_per_delivery=10.0, subregion_count=3),
    DEFAULT_EXTERNAL_FACTORS)


def _totals_row(r):
    """A report as a totals row, its columns read off the report's fields."""
    return ((r.total_distance_km, r.total_time_h, r.distance_cost, r.time_cost,
             r.handling_cost, r.loaded_weight_kg, r.fill_rate * r.loaded_weight_kg,
             *[r.external_by_category.get(name, 0.0) for name in EXTERNAL_CATEGORIES]),
            r.fill_rate, r.tours_by_vehicle, r.tours_fractional_by_vehicle)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(reports=st.lists(_reports | st.just(_SUBDIVIDED), min_size=1, max_size=6))
def test_from_rows_is_bit_equal_to_fieldwise_sums(reports):
    rows = [_totals_row(r) for r in reports]
    assert repr(KpiReport.from_rows(rows)) == repr(_fieldwise_aggregate(reports))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(layers=st.lists(_layers, min_size=1, max_size=4),
       factors=st.sampled_from((None, DEFAULT_EXTERNAL_FACTORS)))
def test_scheme_is_bit_equal_to_fieldwise_sum_of_layers(layers, factors):
    scheme = SchemeSpec("generated", tuple(layers), factors)
    try:
        parts = [evaluate_layer(layer, factors) for layer in layers]
    except ConsistencyError:  # a pinned shuttle count too low for the load
        with pytest.raises(ConsistencyError):
            evaluate_scheme(scheme)
        return
    assert repr(evaluate_scheme(scheme)) == repr(_fieldwise_aggregate(parts))
