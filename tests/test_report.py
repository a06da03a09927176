import json
import math

import pytest

from citydist.model import (
    DEFAULT_EXTERNAL_FACTORS,
    DeliveryUnitType,
    KpiReport,
    NetworkParams,
    TemperatureClass,
    VehicleType,
)
from citydist.optimize import SaConfig, simulated_annealing
from citydist.report import INFEASIBLE_MARKER, render
from citydist.schemes import ComparisonRow, ComparisonTable
from citydist.sweep import SweepReport, SweepRow


def test_zero_report_renders_full_header_and_zero_row():
    text = render(KpiReport(), "csv")
    header, row = text.splitlines()
    assert header.split(",")[:3] == ["distance_km", "time_h", "distance_cost"]
    assert set(row.split(",")) <= {"0.00", "0"}
    table = render(KpiReport(), "table")
    assert table.splitlines()[0].split()[0] == "distance_km"


def test_json_round_trips_and_sorts_keys():
    payload = json.loads(render(KpiReport(), "json"))
    assert payload["transport_cost"] == 0.0
    assert list(payload) == sorted(payload)


def test_comparison_renders_delta_columns():
    base = KpiReport(distance_cost=100.0, loaded_weight_kg=1.0)
    alt = KpiReport(distance_cost=72.0, loaded_weight_kg=1.0)
    table = ComparisonTable("base", (ComparisonRow("base", base),
                                     ComparisonRow("alt", alt)))
    lines = render(table, "csv").splitlines()
    assert len(lines) == 3
    assert "delta_total_cost_pct" in lines[0]
    assert lines[2].split(",")[0] == "alt"


def test_sweep_rows_carry_infeasible_marker():
    rows = tuple(SweepRow(v, KpiReport() if v > 2 else None,
                          None if v > 2 else "diverged")
                 for v in (1.0, 2.0, 3.0, 4.0, 5.0))
    report = SweepReport("lead_time_h", rows, infeasible_below=2.0)
    text = render(report, "csv")
    # two infeasible rows: every kpi cell plus the status cell carries the marker
    assert text.count(INFEASIBLE_MARKER) == 2 * 11
    assert len(text.splitlines()) == 6


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render(KpiReport(), "xml")


def test_external_total_in_json_uses_category_sum():
    report = KpiReport(total_distance_km=100.0,
                       external_by_category={k: getattr(DEFAULT_EXTERNAL_FACTORS, k) * 100
                                             for k in DEFAULT_EXTERNAL_FACTORS.as_dict()})
    payload = json.loads(render(report, "json"))
    assert payload["external_cost"] == pytest.approx(
        math.fsum(payload["external_by_category"].values()), rel=0, abs=0)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_divergent_optimization_renders_strict_json():
    # a 20 km/h vehicle cannot cover 2 x 30 km within a 0.5 h lead time
    params = NetworkParams(radius_km=30, area_km2=186, stop_time_h=0.25,
                           shift_duration_h=16, lead_time_h=0.5)
    slow = VehicleType("slow", 17000, 20, 8.0, 30.0, TemperatureClass.A, 200)
    result = simulated_annealing([slow], [DeliveryUnitType("pallet", 450.0, 100)],
                                 params, SaConfig(seed=0, restarts=1,
                                                  steps_per_temperature=5))
    assert result.objective == math.inf and not result.feasible
    payload = json.loads(render(result, "json"), parse_constant=_reject_constant)
    assert payload["objective"] is None
    assert payload["feasible"] is False
    assert [v["slack"] for v in payload["violations"]] == [None, None, None]


def test_json_refuses_non_finite_values():
    with pytest.raises(ValueError):
        render(KpiReport(total_distance_km=math.inf), "json")
