"""Deterministic rendering of reports as text tables, JSON or CSV.

Money, distances and times are rendered with 2 decimals in the tabular
formats; JSON keeps full precision and is strict: a non-finite objective or
slack is written as null.  Output carries no timestamps or other
run-dependent content, so identical invocations are byte-identical.
"""

from __future__ import annotations

import io
import math
from typing import TYPE_CHECKING, NamedTuple

from .model import KpiReport
from .schemes import ComparisonTable

if TYPE_CHECKING:
    from .optimize import AllocationMatrix, ConstraintSlack

INFEASIBLE_MARKER = "INFEASIBLE"
INVALID_MARKER = "INVALID"
# The error of a sweep row whose value the swept record refuses starts with this.
INVALID_VALUE = "invalid value: "


# The optimizer's and the sweep's results live here, next to their rendering,
# so that commands rendering other reports import neither of those modules.
class OptimizationResult(NamedTuple):
    allocation: AllocationMatrix
    objective: float
    feasible: bool
    violations: tuple[ConstraintSlack, ...]
    kpis: KpiReport
    trace: tuple[float, ...] | None = None
    evaluations: int = 0


class SweepRow(NamedTuple):
    value: float
    report: KpiReport | None
    error: str | None = None

    @property
    def feasible(self) -> bool:
        return self.report is not None

    @property
    def invalid(self) -> bool:  # the swept params or vehicles refused the value
        return self.report is None and (self.error or "").startswith(INVALID_VALUE)

    def tours_tuple(self) -> tuple[tuple[str, int], ...] | None:
        if self.report is None:
            return None
        return tuple(sorted(self.report.tours_by_vehicle.items()))


class SweepReport(NamedTuple):
    parameter: str
    rows: tuple[SweepRow, ...]
    detected_threshold: float | None = None
    infeasible_below: float | None = None
    infeasible_above: float | None = None


_KPI_COLUMNS = (
    ("distance_km", "total_distance_km"),
    ("time_h", "total_time_h"),
    ("distance_cost", "distance_cost"),
    ("time_cost", "time_cost"),
    ("transport_cost", "transport_cost"),
    ("handling_cost", "handling_cost"),
    ("total_cost", "total_cost"),
    ("external_cost", "external_cost_total"),
    ("fill_rate", "fill_rate"),
    ("tours", "total_tours"),
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def kpi_to_dict(report: KpiReport) -> dict:
    out = {label: getattr(report, attr) for label, attr in _KPI_COLUMNS}
    out["external_by_category"] = dict(report.external_by_category)
    out["tours_by_vehicle"] = dict(sorted(report.tours_by_vehicle.items()))
    out["tours_fractional_by_vehicle"] = dict(
        sorted(report.tours_fractional_by_vehicle.items()))
    return out


def _kpi_row(report: KpiReport | None, marker: str = INFEASIBLE_MARKER) -> list:
    if report is None:
        return [marker] * len(_KPI_COLUMNS)
    return [getattr(report, attr) for _, attr in _KPI_COLUMNS]


def _rows_for(obj) -> tuple[list[str], list[list]]:
    """(header, rows) view of any report type."""
    kpi_headers = [label for label, _ in _KPI_COLUMNS]
    if isinstance(obj, KpiReport):
        return kpi_headers, [_kpi_row(obj)]
    if isinstance(obj, ComparisonTable):
        header = ["scheme"] + kpi_headers + [
            "delta_total_cost_pct", "delta_transport_cost_pct",
            "delta_distance_pct", "delta_time_pct", "delta_external_pct",
            "delta_fill_rate_pct"]
        rows = []
        for row in obj.rows:
            deltas = obj.deltas_vs_baseline(row)
            rows.append([row.scheme] + _kpi_row(row.report) + [
                deltas["total_cost"], deltas["transport_cost"],
                deltas["total_distance_km"], deltas["total_time_h"],
                deltas["external_cost_total"], deltas["fill_rate"]])
        return header, rows
    if isinstance(obj, SweepReport):
        header = [obj.parameter] + kpi_headers + ["status"]
        return header, [[r.value] + _kpi_row(r.report, INVALID_MARKER if r.invalid else
                                             INFEASIBLE_MARKER)
                        + ["invalid" if r.invalid else "ok" if r.feasible else INFEASIBLE_MARKER]
                        for r in obj.rows]
    if isinstance(obj, OptimizationResult):
        header = ["field", "value"]
        rows = [["objective", obj.objective],
                ["feasible", obj.feasible],
                ["evaluations", obj.evaluations]]
        rows += [[f"allocation_row_{j}", " ".join(f"{x:.4f}" for x in row)]
                 for j, row in enumerate(obj.allocation.entries)]
        rows += [[f"kpi_{label}", getattr(obj.kpis, attr)] for label, attr in _KPI_COLUMNS]
        rows += [[f"slack_{v.vehicle_id}_{v.constraint}", v.slack] for v in obj.violations]
        return header, rows
    raise TypeError(f"cannot render object of type {type(obj).__name__}")


def _finite_or_none(x: float) -> float | None:
    # strict JSON has no Infinity; a divergent plan already reads feasible: false
    return x if math.isfinite(x) else None


def to_jsonable(obj):
    if isinstance(obj, KpiReport):
        return kpi_to_dict(obj)
    if isinstance(obj, ComparisonTable):
        return {
            "baseline": obj.baseline,
            "rows": [{
                "scheme": r.scheme,
                "kpis": kpi_to_dict(r.report) if r.report else None,
                "error": r.error,
                "deltas_pct": obj.deltas_vs_baseline(r),
            } for r in obj.rows],
        }
    if isinstance(obj, SweepReport):
        return {
            "parameter": obj.parameter,
            "detected_threshold": obj.detected_threshold,
            "infeasible_below": obj.infeasible_below,
            "infeasible_above": obj.infeasible_above,
            "rows": [{
                "value": r.value,
                "kpis": kpi_to_dict(r.report) if r.report else None,
                "error": r.error,
            } for r in obj.rows],
        }
    if isinstance(obj, OptimizationResult):
        return {
            "allocation": [list(row) for row in obj.allocation.entries],
            "objective": _finite_or_none(obj.objective),
            "feasible": obj.feasible,
            "violations": [{"vehicle": v.vehicle_id, "constraint": v.constraint,
                            "slack": _finite_or_none(v.slack)} for v in obj.violations],
            "kpis": kpi_to_dict(obj.kpis),
            "trace": list(obj.trace) if obj.trace is not None else None,
            "evaluations": obj.evaluations,
        }
    raise TypeError(f"cannot render object of type {type(obj).__name__}")


def render(obj, fmt: str = "table") -> str:
    # json and csv load only for the format that uses them
    if fmt == "json":
        import json
        return json.dumps(to_jsonable(obj), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    header, rows = _rows_for(obj)
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
        return buf.getvalue()
    if fmt == "table":
        cells = [header] + [[_fmt(x) for x in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        lines = []
        for k, row in enumerate(cells):
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
            if k == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format '{fmt}' (expected table, json or csv)")


def emit_report(obj, fmt: str = "table", path: str | None = None) -> str:
    """Render a report; write it to path when given.  Returns the text."""
    text = render(obj, fmt)
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
