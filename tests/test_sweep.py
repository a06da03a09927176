import pytest

from citydist.model import (
    DEFAULT_EXTERNAL_FACTORS,
    DemandProfile,
    DomainError,
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
    SchemeInfeasibleError,
    SchemeSpec,
    evaluate_scheme,
)
import citydist.sweep as sweep_module
from citydist.sweep import (
    SweepReport,
    SweepRow,
    SweepSpec,
    _grid,
    apply_parameter,
    detect_threshold,
    sweep_parameter,
)

from conftest import BORDEAUX


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
    """Reference sweep: the whole scheme rebuilt and evaluated at every point."""
    rows = []
    for v in _grid(spec.start, spec.stop, spec.step):
        scheme = apply_parameter(spec.scheme, spec.layer_index, spec.parameter, v)
        try:
            rows.append(SweepRow(v, evaluate_scheme(scheme)))
        except (SchemeInfeasibleError, DomainError) as exc:
            rows.append(SweepRow(v, None, error=str(exc)))
    feasible = [i for i, r in enumerate(rows) if r.feasible]
    below = above = None
    if not rows[0].feasible:
        below = rows[feasible[0] - 1].value if feasible else rows[-1].value
    if not rows[-1].feasible:
        above = rows[feasible[-1] + 1].value if feasible else rows[0].value
    return SweepReport(spec.parameter, tuple(rows), detect_threshold(rows), below, above)


def _assert_matches_per_point(spec):
    got, want = sweep_parameter(spec), _per_point_sweep(spec)
    assert got == want
    assert repr(got) == repr(want)  # bit-equal floats, identical error strings
    return got


BORDEAUX_SCENARIO = load_scenario(str(BORDEAUX))


@pytest.mark.parametrize("parameter, start, stop, step", [
    ("lead_time_h", 0.05, 8.0, 0.35),
    ("speed_kmh", 1.0, 41.0, 4.0),
])
@pytest.mark.parametrize("scheme_name", BORDEAUX_SCENARIO.scheme_names())
def test_every_bundled_layer_sweep_equals_per_point_evaluation(scheme_name, parameter,
                                                               start, stop, step):
    scheme = BORDEAUX_SCENARIO.scheme(scheme_name)
    for k in range(len(scheme.layers)):
        _assert_matches_per_point(SweepSpec(parameter, start, stop, step, scheme, k))


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


def test_invalid_swept_value_raises_before_any_layer_error():
    shuttle, far, city = _layers()
    scheme = SchemeSpec("far_first", (shuttle, far, city), DEFAULT_EXTERNAL_FACTORS)
    with pytest.raises(DomainError) as expected:
        apply_parameter(scheme, 2, "lead_time_h", 30.0)
    with pytest.raises(DomainError) as got:
        sweep_parameter(SweepSpec("lead_time_h", 10.0, 30.0, 10.0, scheme, 2))
    assert str(got.value) == str(expected.value) == "params.lead_time_h must be <= 24"


def test_unchanged_layers_are_evaluated_once_per_sweep(monkeypatch):
    scheme = BORDEAUX_SCENARIO.scheme("original")
    calls = []
    evaluate_layer = sweep_module.evaluate_layer
    monkeypatch.setattr(sweep_module, "evaluate_layer",
                        lambda layer, factors: calls.append(layer.name)
                        or evaluate_layer(layer, factors))
    report = sweep_parameter(SweepSpec("speed_kmh", 10.0, 30.0, 5.0, scheme, 1))
    assert len(report.rows) == 5
    fixed = [layer.name for i, layer in enumerate(scheme.layers) if i != 1]
    assert sorted(calls) == sorted(fixed + ["supplier_2_direct"] * 5)
