import math
from dataclasses import replace

import pytest

from citydist.model import (
    DEFAULT_EXTERNAL_FACTORS,
    DemandProfile,
    DomainError,
    InfeasibleError,
    KpiReport,
    NetworkParams,
    TemperatureClass,
    VehicleType,
)
from citydist.scenario import load_scenario
from citydist.schemes import (
    FleetAssignment,
    LayerMode,
    LayerSpec,
    SchemeSpec,
    evaluate_scheme,
)
import citydist.schemes as schemes_module
import citydist.sweep as sweep_module
from citydist.sweep import (
    MAX_POINTS,
    SweepReport,
    SweepRow,
    SweepSpec,
    _grid,
    apply_parameter,
    detect_threshold,
    sweep_parameter,
)

from conftest import BORDEAUX, SINGLE_SUPPLIER


CITY = VehicleType("city_17t", 17000, 20, 8.0, 30.0, TemperatureClass.T, 30)
CITY_PARAMS = NetworkParams(radius_km=5, area_km2=93, stop_time_h=0.25,
                            shift_duration_h=16, lead_time_h=24)


def city_scheme(weight=19946.5, stops=42):
    layer = LayerSpec("city", LayerMode.ANALYTICAL, CITY_PARAMS,
                      (FleetAssignment(CITY, DemandProfile(total_weight_kg=weight,
                                                           total_stops=stops)),),
                      subregion_count=2)
    return SchemeSpec("city_only", (layer,), DEFAULT_EXTERNAL_FACTORS)


def test_spec_validation():
    scheme = city_scheme()
    with pytest.raises(DomainError):
        SweepSpec("not_a_field", 1, 2, 0.5, scheme)
    with pytest.raises(DomainError):
        SweepSpec("lead_time_h", 3, 2, 0.5, scheme)
    with pytest.raises(DomainError):
        SweepSpec("lead_time_h", 2, 3, 0, scheme)
    with pytest.raises(DomainError):
        SweepSpec("lead_time_h", 2, 3, 0.5, scheme, layer_index=5)
    # non-finite bounds or steps would grow the grid without end
    for start, stop, step in ((0, 8, math.nan), (0, math.inf, 1), (math.nan, 8, 1)):
        with pytest.raises(DomainError, match="finite"):
            SweepSpec("lead_time_h", start, stop, step, scheme)
    # a finite range can still ask for more points than memory holds
    with pytest.raises(DomainError, match="points"):
        SweepSpec("lead_time_h", 0, MAX_POINTS, 1, scheme)
    with pytest.raises(DomainError, match="points"):
        SweepSpec("lead_time_h", 1e-300, 1e300, 1e-300, scheme)
    # a step lost to rounding next to start: the grid never reaches its end
    for start, stop, step in ((1, 1, 1e-18), (1e308, 1e308, 1), (0, 0.9e-12, 1e-18)):
        with pytest.raises(DomainError, match="points"):
            SweepSpec("lead_time_h", start, stop, step, scheme)
    SweepSpec("lead_time_h", 1, MAX_POINTS, 1, scheme)  # 10^6 points are allowed
    assert len(_grid(1, MAX_POINTS, 1)) == MAX_POINTS


def test_single_point_grid():
    report = sweep_parameter(SweepSpec("lead_time_h", 8, 8, 1, city_scheme()))
    assert len(report.rows) == 1
    assert report.rows[0].value == 8


def test_grid_includes_endpoint_within_half_step():
    report = sweep_parameter(SweepSpec("lead_time_h", 2, 8, 2, city_scheme()))
    assert [r.value for r in report.rows] == [2, 4, 6, 8]
    report = sweep_parameter(SweepSpec("lead_time_h", 2, 7.2, 2, city_scheme()))
    assert [r.value for r in report.rows] == [2, 4, 6, 7.2]


def test_sweep_purity_row_equals_standalone():
    scheme = city_scheme()
    report = sweep_parameter(SweepSpec("lead_time_h", 4, 8, 1, scheme))
    for row in report.rows:
        standalone = evaluate_scheme(apply_parameter(scheme, 0, "lead_time_h", row.value))
        assert row.report == standalone


def test_speed_pseudo_field_rewrites_fleet():
    scheme = city_scheme()
    faster = apply_parameter(scheme, 0, "speed_kmh", 30.0)
    assert faster.layers[0].fleet[0].vehicle.speed_kmh == 30.0
    assert scheme.layers[0].fleet[0].vehicle.speed_kmh == 20.0


def test_speed_sweep_monotone_cost_constant_distance():
    report = sweep_parameter(SweepSpec("speed_kmh", 15, 30, 2.5, city_scheme()))
    costs = [r.report.total_cost for r in report.rows]
    assert all(a > b for a, b in zip(costs, costs[1:]))
    assert len({r.report.total_distance_km for r in report.rows}) == 1
    assert len({r.report.fill_rate for r in report.rows}) == 1
    assert report.detected_threshold is None


def test_lead_time_sweep_shape_and_threshold():
    report = sweep_parameter(SweepSpec("lead_time_h", 0.25, 8, 0.25, city_scheme()))
    by_value = {r.value: r for r in report.rows}
    assert not by_value[0.25].feasible and not by_value[0.5].feasible
    assert by_value[0.75].feasible
    assert report.infeasible_below == 0.5
    assert report.detected_threshold == pytest.approx(6.25)
    # monotone boundary: everything below an infeasible point is infeasible
    infeasible = [r.value for r in report.rows if not r.feasible]
    assert max(infeasible) == 0.5
    feasible_rows = [r for r in report.rows if r.feasible]
    tours = [r.report.total_tours for r in feasible_rows]
    assert tours == sorted(tours, reverse=True)  # tours fall as lead time relaxes


def _fake_row(value, tours):
    report = None
    if tours is not None:
        report = KpiReport(tours_by_vehicle={"v": tours}, loaded_weight_kg=1.0)
    return SweepRow(value, report)


def test_detect_threshold_example_series():
    rows = [_fake_row(v, t) for v, t in [(8, 2), (7, 2), (6, 2), (5, 3), (4, 3)]]
    assert detect_threshold(rows) == 5


def test_detect_threshold_constant_series():
    rows = [_fake_row(v, 2) for v in (8, 7, 6)]
    assert detect_threshold(rows) is None


def test_detect_threshold_all_infeasible():
    rows = [_fake_row(v, None) for v in (8, 7, 6)]
    assert detect_threshold(rows) is None


def test_all_infeasible_sweep_sets_boundary():
    tight = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25,
                          shift_duration_h=16, lead_time_h=24)
    layer = LayerSpec("far", LayerMode.ANALYTICAL, tight,
                      (FleetAssignment(CITY, DemandProfile(total_weight_kg=5000,
                                                           total_stops=10)),))
    scheme = SchemeSpec("far_city", (layer,), DEFAULT_EXTERNAL_FACTORS)
    report = sweep_parameter(SweepSpec("lead_time_h", 0.5, 2.0, 0.5, scheme))
    assert all(not r.feasible for r in report.rows)
    assert report.detected_threshold is None
    assert report.infeasible_below == 2.0


# ------------------------------------------------- reuse of unchanged layers

def _per_point_sweep(spec):
    """Reference sweep: the whole scheme rebuilt and evaluated at every point.
    A value apply_parameter refuses is an invalid row, which the infeasible
    bounds skip."""
    rows, valid = [], []
    for v in _grid(spec.start, spec.stop, spec.step):
        try:
            scheme = apply_parameter(spec.scheme, spec.layer_index, spec.parameter, v)
        except DomainError as exc:
            rows.append(SweepRow(v, None, error=f"invalid value: {exc}"))
            continue
        try:
            rows.append(SweepRow(v, evaluate_scheme(scheme)))
        except (InfeasibleError, DomainError) as exc:
            rows.append(SweepRow(v, None, error=str(exc)))
        valid.append(rows[-1])
    feasible = [i for i, r in enumerate(valid) if r.feasible]
    below = above = None
    if valid and not valid[0].feasible:
        below = valid[feasible[0] - 1].value if feasible else valid[-1].value
    if valid and not valid[-1].feasible:
        above = valid[feasible[-1] + 1].value if feasible else valid[0].value
    return SweepReport(spec.parameter, tuple(rows), detect_threshold(rows), below, above)


def _assert_matches_per_point(spec):
    got, want = sweep_parameter(spec), _per_point_sweep(spec)
    assert got == want
    assert repr(got) == repr(want)  # bit-equal floats, identical error strings
    return got


BORDEAUX_SCENARIO = load_scenario(str(BORDEAUX))
SINGLE_SUPPLIER_SCENARIO = load_scenario(str(SINGLE_SUPPLIER))


@pytest.mark.parametrize("parameter, start, stop, step", [
    ("lead_time_h", 0.05, 8.0, 0.35),
    ("speed_kmh", 1.0, 41.0, 4.0),
    ("radius_km", 0.5, 60.0, 2.5),
    ("area_km2", 5.0, 400.0, 15.0),
    ("stop_time_h", 0.05, 2.0, 0.1),
    ("daganzo_k", 0.1, 2.0, 0.1),
    ("congestion_factor", 1.0, 3.0, 0.1),
    ("shift_duration_h", 0.5, 24.0, 1.0),
])
@pytest.mark.parametrize("scenario, scheme_name", [
    *(pytest.param(BORDEAUX_SCENARIO, name, id=name)
      for name in BORDEAUX_SCENARIO.scheme_names()),
    *(pytest.param(SINGLE_SUPPLIER_SCENARIO, name, id=f"single_supplier:{name}")
      for name in SINGLE_SUPPLIER_SCENARIO.scheme_names()),
])
def test_every_bundled_layer_sweep_equals_per_point_evaluation(scenario, scheme_name, parameter,
                                                               start, stop, step):
    scheme = scenario.scheme(scheme_name)
    for k in range(len(scheme.layers)):
        _assert_matches_per_point(SweepSpec(parameter, start, stop, step, scheme, k))


@pytest.mark.parametrize("parameter", ["lead_time_h", "shift_duration_h"])
@pytest.mark.parametrize("scheme_name", ["pi", "pi_small"])
def test_fine_plateau_sweeps_equal_per_point_evaluation(scheme_name, parameter):
    # every point where the city layer's tour plans change lies in 0.51-6.65 h
    scheme = BORDEAUX_SCENARIO.scheme(scheme_name)
    _assert_matches_per_point(SweepSpec(parameter, 0.01, 8.0, 0.01, scheme, 1))


def test_lead_time_sweep_builds_one_report_per_plateau(monkeypatch):
    calls = {"layer_plans": 0, "layer_totals": 0}

    def counted(name):
        stage = getattr(sweep_module, name)

        def wrapper(*args):
            calls[name] += 1
            return stage(*args)
        return wrapper
    for name in calls:
        monkeypatch.setattr(sweep_module, name, counted(name))
    report = sweep_parameter(SweepSpec("lead_time_h", 0.05, 8.0, 0.01,
                                       BORDEAUX_SCENARIO.scheme("pi"), 1))
    feasible = [r for r in report.rows if r.feasible]
    # on a lead-time sweep a layer's plans follow from its tour counts alone
    plateaus = [r for i, r in enumerate(feasible)
                if i == 0 or r.tours_tuple() != feasible[i - 1].tours_tuple()]
    assert (len(report.rows), len(feasible), len(plateaus)) == (796, 750, 67)
    # the solver runs at every point, the totals stage once per plateau
    assert calls == {"layer_plans": len(report.rows), "layer_totals": len(plateaus)}
    assert len({id(r.report) for r in feasible}) == len(plateaus)


FAR_PARAMS = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25,
                           shift_duration_h=16, lead_time_h=1.0)
SHUTTLE_PARAMS = NetworkParams(radius_km=20, area_km2=186, stop_time_h=0.5)


def _layers():
    """(feasible shuttle, always divergent 'far', lead-time-swept 'city')."""
    load = DemandProfile(total_weight_kg=5000, total_stops=10)
    shuttle = LayerSpec("shuttle", LayerMode.FIXED_SHUTTLE, SHUTTLE_PARAMS,
                        (FleetAssignment(CITY, load),))
    # 2r/v = 3 h of driving exceeds the 1 h lead time at any tour count
    far = LayerSpec("far", LayerMode.ANALYTICAL, FAR_PARAMS, (FleetAssignment(CITY, load),))
    return shuttle, far, city_scheme().layers[0]


def test_unchanged_layer_diverging_before_swept_layer_wins():
    shuttle, far, city = _layers()
    scheme = SchemeSpec("far_first", (shuttle, far, city), DEFAULT_EXTERNAL_FACTORS)
    report = _assert_matches_per_point(SweepSpec("lead_time_h", 0.25, 2.0, 0.25, scheme, 2))
    assert all("layer 'far'" in r.error for r in report.rows)


def test_unchanged_layer_diverging_after_swept_layer():
    shuttle, far, city = _layers()
    scheme = SchemeSpec("far_last", (city, shuttle, far), DEFAULT_EXTERNAL_FACTORS)
    report = _assert_matches_per_point(SweepSpec("lead_time_h", 0.25, 2.0, 0.25, scheme, 0))
    # the swept layer diverges below 0.75 h and comes first there
    assert [r.error.split("layer ")[1] for r in report.rows] == (
        ["'city')"] * 2 + ["'far')"] * 6)
    assert report.infeasible_below == 2.0


def test_invalid_swept_value_is_a_row_before_any_layer_error():
    shuttle, far, city = _layers()
    scheme = SchemeSpec("far_first", (shuttle, far, city), DEFAULT_EXTERNAL_FACTORS)
    with pytest.raises(DomainError) as expected:
        apply_parameter(scheme, 2, "lead_time_h", 30.0)
    assert str(expected.value) == "params.lead_time_h must be <= 24"
    report = _assert_matches_per_point(SweepSpec("lead_time_h", 10.0, 30.0, 10.0, scheme, 2))
    # 'far' diverges at every point, but at 30 h no layer runs
    assert [(r.value, r.invalid) for r in report.rows] == [
        (10.0, False), (20.0, False), (30.0, True)]
    assert all("layer 'far'" in r.error for r in report.rows[:2])
    assert report.rows[2] == SweepRow(30.0, None, "invalid value: " + str(expected.value))
    # the infeasible bound skips the invalid row: nothing valid is feasible
    assert (report.infeasible_below, report.infeasible_above) == (20.0, 10.0)


@pytest.mark.parametrize("parameter, start, stop, step, invalid", [
    ("lead_time_h", 10.0, 30.0, 5.0, (25.0, 30.0)),
    ("lead_time_h", 25.0, 30.0, 5.0, (25.0, 30.0)),
    ("speed_kmh", 0.0, 20.0, 10.0, (0.0,)),
    ("congestion_factor", 0.5, 2.0, 0.5, (0.5,)),
    ("radius_km", 0.0, 10.0, 5.0, (0.0,)),
], ids=["lead-above-24", "all-invalid", "zero-speed", "congestion-below-1", "zero-radius"])
def test_invalid_values_are_rows_and_the_sweep_goes_on(parameter, start, stop, step, invalid):
    scheme = BORDEAUX_SCENARIO.scheme("original")
    report = _assert_matches_per_point(SweepSpec(parameter, start, stop, step, scheme, 1))
    assert tuple(r.value for r in report.rows if r.invalid) == invalid
    assert all(r.error.startswith("invalid value: ") for r in report.rows if r.invalid)
    valid = [r for r in report.rows if not r.invalid]
    assert all(r.feasible for r in valid)
    assert (report.infeasible_below, report.infeasible_above) == (None, None)
    # the valid rows are the sweep of the valid range alone
    if valid:
        alone = sweep_parameter(SweepSpec(parameter, valid[0].value, valid[-1].value, step,
                                          scheme, 1))
        assert alone.rows == tuple(valid)
        assert alone.detected_threshold == report.detected_threshold


def test_unchanged_layers_are_evaluated_once_per_sweep(monkeypatch):
    # unchanged layers are evaluated whole, the swept one through its totals stage
    scheme = BORDEAUX_SCENARIO.scheme("original")
    calls = []
    layer_row = sweep_module.layer_row
    layer_totals = sweep_module.layer_totals
    monkeypatch.setattr(sweep_module, "layer_row",
                        lambda layer, factors: calls.append(layer.name)
                        or layer_row(layer, factors))
    monkeypatch.setattr(sweep_module, "layer_totals",
                        lambda constants, *args: calls.append("totals")
                        or layer_totals(constants, *args))
    report = sweep_parameter(SweepSpec("speed_kmh", 10.0, 30.0, 5.0, scheme, 1))
    assert len(report.rows) == 5
    fixed = [layer.name for i, layer in enumerate(scheme.layers) if i != 1]
    assert sorted(calls) == sorted(fixed + ["totals"] * 5)


def test_one_kpi_report_per_scheme_and_per_plateau(monkeypatch):
    built = []
    init = KpiReport.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(KpiReport, "__init__", counted)
    for scenario in (BORDEAUX_SCENARIO, SINGLE_SUPPLIER_SCENARIO):
        for name in scenario.scheme_names():
            built.clear()
            evaluate_scheme(scenario.scheme(name))
            assert len(built) == 1, name
    built.clear()
    pi = BORDEAUX_SCENARIO.scheme("pi")
    sweep_parameter(SweepSpec("lead_time_h", 0.05, 8.0, 0.01, pi, 1))
    assert len(built) == 67  # one per plateau of the city layer's tour counts
    built.clear()
    original = BORDEAUX_SCENARIO.scheme("original")
    sweep_parameter(SweepSpec("speed_kmh", 10.0, 30.0, 5.0, original, 1))
    assert len(built) == 5


@pytest.mark.parametrize("scheme_name, parameter, start, stop, step", [
    ("pi", "lead_time_h", 0.05, 8.0, 0.01),
    ("original", "speed_kmh", 5.0, 60.0, 0.1),
])
def test_sweep_points_build_no_layer_or_assignment(monkeypatch, scheme_name, parameter,
                                                   start, stop, step):
    scheme = BORDEAUX_SCENARIO.scheme(scheme_name)  # built at load, before any count
    built = []
    init, new = LayerSpec.__init__, FleetAssignment.__new__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_new(cls, *args, **kwargs):  # a NamedTuple is built in __new__
        built.append(new(cls, *args, **kwargs))
        return built[-1]
    monkeypatch.setattr(LayerSpec, "__init__", counted_init)
    monkeypatch.setattr(FleetAssignment, "__new__", counted_new)
    solves = []
    solve = schemes_module.solve_tour_plan
    monkeypatch.setattr(schemes_module, "solve_tour_plan",
                        lambda *args: solves.append(args) or solve(*args))
    report = sweep_parameter(SweepSpec(parameter, start, stop, step, scheme, 1))
    assert built == []
    # still one solver call per analytical assignment and point, which
    # perfbench's tracer counts, plus one for each of the other layers'
    analytical = [len(layer.fleet) if layer.mode is LayerMode.ANALYTICAL else 0
                  for layer in scheme.layers]
    assert len(solves) == len(report.rows) * analytical[1] + sum(analytical) - analytical[1]
    assert analytical[1] >= 1


def test_speed_sweep_keeps_every_other_vehicle_field():
    # the swept vehicle is built field by field, not through dataclasses.replace
    swept = apply_parameter(city_scheme(), 0, "speed_kmh", 27.5)
    assert swept.layers[0].fleet[0].vehicle == replace(CITY, speed_kmh=27.5)


def test_sweep_calls_the_tour_solver_bound_in_schemes(monkeypatch):
    # perfbench's tracer counts model.tour_plan_calls by wrapping
    # citydist.schemes.solve_tour_plan: a sweep must reach the solver there
    scheme = BORDEAUX_SCENARIO.scheme("original")
    assert all(layer.mode is LayerMode.ANALYTICAL and len(layer.fleet) == 1
               for layer in scheme.layers)
    calls = []
    solve = schemes_module.solve_tour_plan
    monkeypatch.setattr(schemes_module, "solve_tour_plan",
                        lambda *args: calls.append(args) or solve(*args))
    report = sweep_parameter(SweepSpec("speed_kmh", 10.0, 30.0, 5.0, scheme, 1))
    assert len(calls) == len(report.rows) + len(scheme.layers) - 1
