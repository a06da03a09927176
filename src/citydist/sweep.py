"""One-dimensional parameter sweeps over a scheme's layer.

A sweep replaces one numeric parameter of one layer at each grid point: any
NetworkParams field, or the pseudo-field ``speed_kmh`` which rescales every
vehicle in that layer's fleet.  Only the swept layer is re-evaluated per
point; the other layers are evaluated once per sweep.  Infeasible points are
marked rather than aborting, and the report records where the tour counts
first move away from their slack-side values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import DomainError, KpiReport, NetworkParams
from .schemes import (
    FleetAssignment,
    LayerInfeasibleError,
    LayerSpec,
    SchemeInfeasibleError,
    SchemeSpec,
    evaluate_layer,
    evaluate_scheme,  # noqa: F401  bound here for perfbench's tracer, which wraps it
)

_PARAM_FIELDS = ("radius_km", "area_km2", "stop_time_h", "daganzo_k",
                 "congestion_factor", "shift_duration_h", "lead_time_h")
SPEED_FIELD = "speed_kmh"


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    step: float
    scheme: SchemeSpec
    layer_index: int = 0

    def __post_init__(self):
        if self.parameter not in _PARAM_FIELDS and self.parameter != SPEED_FIELD:
            raise DomainError(
                f"sweep parameter '{self.parameter}' is not a recognized numeric field")
        if self.step <= 0:
            raise DomainError("sweep step must be > 0")
        if self.start > self.stop:
            raise DomainError("sweep start must be <= stop")
        if not (0 <= self.layer_index < len(self.scheme.layers)):
            raise DomainError(f"layer index {self.layer_index} out of range")


@dataclass(frozen=True)
class SweepRow:
    value: float
    report: KpiReport | None
    error: str | None = None

    @property
    def feasible(self) -> bool:
        return self.report is not None

    def tours_tuple(self) -> tuple[tuple[str, int], ...] | None:
        if self.report is None:
            return None
        return tuple(sorted(self.report.tours_by_vehicle.items()))


@dataclass(frozen=True)
class SweepReport:
    parameter: str
    rows: tuple[SweepRow, ...]
    detected_threshold: float | None = None
    infeasible_below: float | None = None
    infeasible_above: float | None = None


def _apply_to_layer(layer: LayerSpec, parameter: str, value: float) -> LayerSpec:
    """New layer with its parameter (or fleet speed) replaced."""
    if parameter == SPEED_FIELD:
        fleet = tuple(
            FleetAssignment(replace(a.vehicle, speed_kmh=value), a.demand,
                            a.shuttle_tours, a.capacity_unit)
            for a in layer.fleet)
        return replace(layer, fleet=fleet)
    return replace(layer, params=replace(layer.params, **{parameter: value}))


def apply_parameter(scheme: SchemeSpec, layer_index: int, parameter: str,
                    value: float) -> SchemeSpec:
    """New scheme with one layer's parameter (or fleet speed) replaced."""
    layers = list(scheme.layers)
    layers[layer_index] = _apply_to_layer(layers[layer_index], parameter, value)
    return replace(scheme, layers=tuple(layers))


def _grid(start: float, stop: float, step: float) -> list[float]:
    # closed interval; the last point is kept when within half a step of stop
    values = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + step / 2 + 1e-12:
            break
        values.append(min(v, stop) if v > stop else v)
        i += 1
    return values


def detect_threshold(rows) -> float | None:
    """First parameter value, scanning from the slack end, where tour counts
    differ from the slack end's; None when constant or nothing feasible."""
    rows = list(rows)
    feasible = [r for r in rows if r.feasible]
    if len(feasible) < 2:
        return None
    first, last = feasible[0], feasible[-1]
    # slack end = the end needing fewer tours overall
    if sum(c for _, c in last.tours_tuple()) <= sum(c for _, c in first.tours_tuple()):
        scan = list(reversed(feasible))
    else:
        scan = feasible
    reference = scan[0].tours_tuple()
    for row in scan[1:]:
        if row.tours_tuple() != reference:
            return row.value
    return None


def _layer_outcome(layer: LayerSpec, factors):
    """The layer's report, or the error that makes a point infeasible."""
    try:
        return evaluate_layer(layer, factors)
    except (LayerInfeasibleError, DomainError) as exc:
        return exc


def sweep_parameter(spec: SweepSpec) -> SweepReport:
    """Evaluate the scheme across the grid; infeasible points become markers.
    Each row equals ``evaluate_scheme(apply_parameter(...))`` at its value."""
    values = _grid(spec.start, spec.stop, spec.step)
    if not values:
        raise DomainError("sweep grid is empty")
    scheme, swept = spec.scheme, spec.layer_index
    factors = scheme.external_factors
    fixed = {}  # layer index -> outcome of an unchanged layer, once reached
    rows = []
    for v in values:
        layer = _apply_to_layer(scheme.layers[swept], spec.parameter, v)
        reports = []
        for i, base in enumerate(scheme.layers):
            if i == swept:
                out = _layer_outcome(layer, factors)
            else:
                out = fixed.get(i)
                if out is None:
                    out = fixed[i] = _layer_outcome(base, factors)
            if isinstance(out, Exception):
                break
            reports.append(out)
        else:
            rows.append(SweepRow(v, KpiReport.aggregate(reports)))
            continue
        if isinstance(out, LayerInfeasibleError):
            out = SchemeInfeasibleError(scheme.name, out)
        rows.append(SweepRow(v, None, error=str(out)))
    below = above = None
    if rows and not rows[0].feasible:
        i = 0
        while i < len(rows) and not rows[i].feasible:
            i += 1
        below = rows[i - 1].value
    if rows and not rows[-1].feasible:
        i = len(rows) - 1
        while i >= 0 and not rows[i].feasible:
            i -= 1
        above = rows[i + 1].value
    return SweepReport(parameter=spec.parameter, rows=tuple(rows),
                       detected_threshold=detect_threshold(rows),
                       infeasible_below=below, infeasible_above=above)
