"""One-dimensional parameter sweeps over a scheme's layer.

A sweep replaces one numeric parameter of one layer at each grid point: any
NetworkParams field, or the pseudo-field ``speed_kmh`` which rescales every
vehicle in that layer's fleet.  A point builds only what its value changes,
one validated NetworkParams or the swept vehicles, and solves the swept
layer's tour plans with them (schemes.layer_plans).  The rest is computed
once per sweep through the same schemes stages that evaluate_scheme runs:
the swept layer's constants (schemes.layer_constants), the other layers'
totals rows and their merged tour dicts.  While a point's plans equal the
previous feasible point's, as on the plateaus of a lead-time or shift sweep,
that point's report is reused; otherwise schemes.layer_totals turns the
constants and plans into the swept layer's row, and one KpiReport.from_rows
sums it with the other layers' rows.  Infeasible points and invalid values
are marked rather than aborting, and the report records where the tour
counts first move away from their slack-side values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter

from .model import (DomainError, InfeasibleError, KpiReport, NetworkParams, VehicleType,
                    merge_tallies)
from .report import INVALID_VALUE, SweepReport, SweepRow
from .schemes import (
    FleetAssignment,
    SchemeSpec,
    capacity_limits,
    evaluate_scheme,  # noqa: F401  bound here for perfbench's tracer, which wraps it
    layer_constants,
    layer_plans,
    layer_row,
    layer_totals,
)

_PARAM_FIELDS = tuple(f.name for f in fields(NetworkParams))  # in positional order
_param_values = attrgetter(*_PARAM_FIELDS)
SPEED_FIELD = "speed_kmh"
# Most points, and most steps (stop - start) / step, of one sweep: the grid is
# built whole before any point runs, so a larger range would only exhaust memory.
MAX_POINTS = 10 ** 6


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
        if not all(map(math.isfinite, (self.start, self.stop, self.step))):
            raise DomainError("sweep start, stop and step must be finite")
        if self.step <= 0:
            raise DomainError("sweep step must be > 0")
        if self.start > self.stop:
            raise DomainError("sweep start must be <= stop")
        # start + i*step never decreases with i, and can stall when the step is tiny
        # next to start: more than MAX_POINTS points exactly when index MAX_POINTS is kept
        if ((self.stop - self.start) / self.step >= MAX_POINTS
                or self.start + MAX_POINTS * self.step <= _end(self.stop, self.step)):
            raise DomainError(f"sweep range asks for more than {MAX_POINTS} points")
        if not (0 <= self.layer_index < len(self.scheme.layers)):
            raise DomainError(f"layer index {self.layer_index} out of range")


def _with_speed(v: VehicleType, speed_kmh: float) -> VehicleType:
    # every field in order, which takes half the time of dataclasses.replace
    return VehicleType(v.id, v.capacity_kg, speed_kmh, v.cost_per_km, v.cost_per_hour,
                       v.temperature_class, v.max_units_footprint)


def _swept(params: NetworkParams, vehicles, parameter: str, value: float):
    """(params, vehicles) of a layer with its parameter (or fleet speed) set
    to value; the one of the two that the parameter does not touch is returned as given."""
    if parameter == SPEED_FIELD:
        return params, [_with_speed(v, value) for v in vehicles]
    args = list(_param_values(params))
    args[_PARAM_FIELDS.index(parameter)] = value
    return NetworkParams(*args), vehicles


def apply_parameter(scheme: SchemeSpec, layer_index: int, parameter: str,
                    value: float) -> SchemeSpec:
    """New scheme with one layer's parameter (or fleet speed) replaced."""
    layers = list(scheme.layers)
    layer = layers[layer_index]
    params, vehicles = _swept(layer.params, [a.vehicle for a in layer.fleet], parameter, value)
    layers[layer_index] = replace(layer, params=params, fleet=tuple(
        FleetAssignment(v, a.demand, a.shuttle_tours) for v, a in zip(vehicles, layer.fleet)))
    return replace(scheme, layers=tuple(layers))


def _end(stop: float, step: float) -> float:
    """Largest grid value kept: the interval is closed, within half a step of stop."""
    return stop + step / 2 + 1e-12


def _grid(start: float, stop: float, step: float) -> list[float]:
    end = _end(stop, step)
    values = []
    i = 0
    while True:
        v = start + i * step
        if v > end:
            break
        values.append(min(v, stop) if v > stop else v)
        i += 1
    return values


def detect_threshold(rows) -> float | None:
    """First parameter value, scanning from the slack end, where tour counts
    differ from the slack end's; None when constant or nothing feasible."""
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


def _rows(layers, factors):
    """Totals rows of unchanged layers, or the first error among them."""
    rows = []
    for layer in layers:
        try:
            rows.append(layer_row(layer, factors))
        except (InfeasibleError, DomainError) as exc:
            return exc
    return rows


def sweep_parameter(spec: SweepSpec) -> SweepReport:
    """Evaluate the scheme across the grid; infeasible points become markers.
    Each row of a valid value equals ``evaluate_scheme(apply_parameter(...))``
    at that value.

    A point's report depends on the swept value only through the swept
    layer's plans: the demands, capacity limits, unit costs, factors and the
    other layers are the same at every point.  So the swept layer's constants
    and the other layers' totals rows are computed once, up front, and the
    solver runs at every point; a point whose plans equal the last feasible
    point's shares its report, so rows on one plateau hold the same object.
    A row's error is the first among the earlier layers, the swept layer and
    the later layers, in that order, unless the swept params or vehicles
    refuse the value: then the row is invalid, its error the refusal after
    INVALID_VALUE, and the infeasible bounds and the threshold skip it.
    """
    values = _grid(spec.start, spec.stop, spec.step)  # start is always kept
    scheme, swept = spec.scheme, spec.layer_index
    factors = scheme.external_factors
    base = scheme.layers[swept]
    vehicles = [a.vehicle for a in base.fleet]
    cap_limits = capacity_limits(base)
    constants = layer_constants(base, cap_limits)
    head = _rows(scheme.layers[:swept], factors)
    tail = _rows(scheme.layers[swept + 1:], factors)
    if isinstance(head, list) and isinstance(tail, list):
        # the other layers' tour dicts are merged once; the fractional tours,
        # constants[3] for the swept layer, are the same at every point
        head_tours, tail_tours = (merge_tallies(r[2] for r in rows) for rows in (head, tail))
        frac = merge_tallies([*(r[3] for r in head), constants[3], *(r[3] for r in tail)])
    last_plans = last_report = None  # of the last feasible point
    rows = []
    for v in values:
        try:
            params, fleet = _swept(base.params, vehicles, spec.parameter, v)
        except DomainError as exc:  # before any layer's error: no layer runs at v
            rows.append(SweepRow(v, None, error=f"{INVALID_VALUE}{exc}"))
            continue
        out = head
        if not isinstance(head, Exception):
            try:
                plans = layer_plans(base, params, fleet, cap_limits)
                if plans == last_plans:
                    rows.append(SweepRow(v, last_report))
                    continue
                totals = layer_totals(constants, plans, factors)
            except (InfeasibleError, DomainError) as exc:
                out = exc
            else:
                out = tail
                if not isinstance(tail, Exception):
                    last_plans = plans
                    last_report = KpiReport.from_rows(
                        [*head, totals, *tail],
                        merge_tallies((head_tours, totals[2], tail_tours)), dict(frac))
                    rows.append(SweepRow(v, last_report))
                    continue
        rows.append(SweepRow(v, None, error=str(out)))
    valid = [r for r in rows if not r.invalid]
    feasible = [i for i, r in enumerate(valid) if r.feasible]
    first, last = (feasible[0], feasible[-1]) if feasible else (len(valid), -1)
    below = valid[first - 1].value if first > 0 else None
    above = valid[last + 1].value if last < len(valid) - 1 else None
    return SweepReport(parameter=spec.parameter, rows=tuple(rows),
                       detected_threshold=detect_threshold(rows),
                       infeasible_below=below, infeasible_above=above)
