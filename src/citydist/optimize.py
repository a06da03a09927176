"""Allocation of delivery-unit types to vehicle types, minimizing transport cost.

The decision variable is a matrix of fractions: row j gives how unit type j
splits across the vehicle types (rows sum to 1).  Tour counts are recomputed
from the tour fixed point at every candidate, so the objective is nonlinear
and nonconvex.  The energy is the tour solver's transport cost plus a penalty
on each vehicle whose plan diverges, and feasible is the solver's verdict; the
slack_* rows of a result are diagnostics in the per-tour form.  A simulated-
annealing search does the optimization, seeded with every vertex allocation
(each unit row whole on one vehicle), where the mostly concave cost tends to
take its minimum.  An exhaustive simplex-grid enumeration serves as an oracle
for small instances, and the best vertex stands in for it above the grid's
budget.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import NamedTuple

from .model import (
    DemandProfile,
    DomainError,
    ExternalCostFactors,
    InfeasibleError,
    KpiReport,
    NetworkParams,
    SaConfig,
    _solve_fixed_point,
    _spread,
    _tour_times,
    dominant_order,
    effective_capacity,
    solve_tour_plan,
)
from .report import OptimizationResult
from .schemes import FleetAssignment, LayerMode, LayerSpec, SchemeSpec, evaluate_layer

_ROW_SUM_TOL = 1e-9
# Scale of the energy a divergent vehicle column adds; see _ColumnKernel.column.
_PENALTY_WEIGHT = 1000.0


class GridTooLargeError(DomainError):
    """The simplex grid enumeration would exceed the evaluation budget."""


@dataclass(frozen=True)
class AllocationMatrix:
    """Fractions of each unit type (row) assigned to each vehicle type (column)."""

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.entries:
            raise DomainError("allocation: needs at least one unit row")
        width = len(self.entries[0])
        for i, row in enumerate(self.entries):
            if len(row) != width:
                raise DomainError("allocation: ragged rows")
            if any(x < -_ROW_SUM_TOL or x > 1 + _ROW_SUM_TOL for x in row):
                raise DomainError(f"allocation row {i}: entries must lie in [0, 1]")
            s = math.fsum(row)
            if not math.isclose(s, 1.0, rel_tol=0, abs_tol=_ROW_SUM_TOL):
                raise DomainError(f"allocation row {i}: sums to {s}, expected 1")

    @property
    def n_units(self) -> int:
        return len(self.entries)

    @property
    def n_vehicles(self) -> int:
        return len(self.entries[0])

    @classmethod
    def uniform(cls, n_units: int, n_vehicles: int) -> "AllocationMatrix":
        row = tuple(1.0 / n_vehicles for _ in range(n_vehicles))
        return cls(tuple(row for _ in range(n_units)))

    def column_mass_share(self, units, column: int) -> float:
        """Share of total demand weight assigned to one vehicle column."""
        total = math.fsum(u.weight_kg for u in units)
        if total == 0:
            return 0.0
        return math.fsum(u.weight_kg * self.entries[j][column]
                         for j, u in enumerate(units)) / total


class ConstraintSlack(NamedTuple):
    """Signed slack of one constraint for one vehicle; positive means violated.
    Report-only: feasibility is the tour solver's verdict."""

    vehicle_id: str
    constraint: str  # capacity | shift | lead_time
    slack: float


def induced_demand(allocation: AllocationMatrix, units) -> list[DemandProfile]:
    """Per-vehicle demand of an allocation, the one path from an allocation to
    a layer: the unit rows the vehicle has a share of, stops scaled by it, so
    the payload limit is the one _ColumnKernel.column scores; fsum totals."""
    units = list(units)
    if allocation.n_units != len(units):
        raise DomainError("allocation rows must match unit count")
    out = []
    for i in range(allocation.n_vehicles):
        shares = [row[i] for row in allocation.entries]
        out.append(DemandProfile(
            tuple(replace(u, stops=u.stops * f) for u, f in zip(units, shares) if f > 0),
            math.fsum(u.weight_kg * f for u, f in zip(units, shares)),
            math.fsum(u.stops * f for u, f in zip(units, shares))))
    return out


# Column term: (energy, feasible).  The energy is the transport cost when the
# vehicle's plan converges, else the divergence penalty.
_EMPTY_TERM = (0.0, True)


class _ColumnKernel:
    """Per-vehicle-column energy of allocations on one (fleet, units, params).

    The energy separates by vehicle column: column i's term depends only on
    entries[j][i] for every unit row j.  It is the transport cost of the tour
    solver's plan for that demand, or a divergence penalty when the solver
    proves there is none; an allocation is feasible when every vehicle's plan
    converges, as in evaluate_scheme.  The annealer, vertex_optimum and the
    grid oracle all score allocations through column() (the oracle's tables
    through table(), its equal), so they minimise one energy, the one _finish
    reports.  Built once per call (objective_value keeps the last one), it
    refuses an empty fleet or unit list and holds what does not depend on
    the allocation: each unit's total weight (avg_weight_kg * stops), the
    units' dominant_order, and one tuple per vehicle of its capacity limit
    per dominant unit, congestion-adjusted speed, costs per km and per
    hour, and id.
    Allocations are plain row tuples here; only results handed out to
    callers become validated AllocationMatrix objects.
    """

    def __init__(self, fleet, units, params: NetworkParams):
        self.fleet = list(fleet)
        self.units = list(units)
        if not self.fleet or not self.units:
            raise DomainError("optimizer: need at least one vehicle and one unit type")
        self.params = params
        self._unit_range = range(len(self.units))
        self._weight = [u.avg_weight_kg * u.stops for u in self.units]
        self._stops = [u.stops for u in self.units]
        self._order = dominant_order(self.units)
        congestion = params.congestion_factor
        # capacity limits indexed by dominant unit; the trailing entry (index -1) is "no unit"
        self._vehicle = [([effective_capacity(v, u) for u in (*self.units, None)],
                          v.speed_kmh / congestion, v.cost_per_km, v.cost_per_hour, v.id)
                         for v in self.fleet]

    def column(self, rows, i: int):
        """Column term of vehicle i under the allocation rows: its plan's
        transport cost.  Divergent vehicles contribute a penalty that grows
        with the assigned demand, steering the search back toward servable
        allocations.  The dominant unit is the first of model.dominant_order
        that the column carries."""
        weights, stops = self._weight, self._stops
        w = s = 0.0
        for j in self._unit_range:
            f = rows[j][i]
            if f <= 0:
                continue
            w += weights[j] * f
            s += stops[j] * f
        if w == 0 and s == 0:
            return _EMPTY_TERM
        for dominant in self._order:  # the column carries a unit with stops, so one breaks
            if rows[dominant][i] > 0:
                break
        cap_limits, v_eff, per_km, per_hour, vehicle_id = self._vehicle[i]
        try:
            _, d, time_h, _ = _solve_fixed_point(w, s, cap_limits[dominant], v_eff,
                                                 self.params, vehicle_id)
        except InfeasibleError:
            return _PENALTY_WEIGHT * (1.0 + w / 1000.0 + s), False
        return d * per_km + time_h * per_hour, True

    def table(self, i: int, ticks: int):
        """Vehicle i's column terms on every tick column, as two arrays of
        shape (ticks+1,)*n_units: the energy, and the same with divergent
        columns at inf.  Entry (c_0, ..., c_n-1) is column(rows, i) bit for
        bit, where unit row j carries the fraction c_j/ticks.

        One numpy pass takes what column does, in its order: the weight and
        stop sums in unit order (a zero share adds an exact 0.0), the
        dominant unit's capacity limit, the capacity count, and the route
        length, hours and time ceilings of model._tour_times at that count.
        Where both time ceilings are met, the tour solver would return after
        its first evaluation, and the energy is written here; every other
        column (its plan climbs or diverges) is left to column.
        Only the grid oracle calls this, so numpy is imported here.
        """
        import numpy as np

        n_units = len(self.units)
        shape = (ticks + 1,) * n_units
        frac = np.arange(ticks + 1) / ticks
        cap_limits, v_eff, per_km, per_hour, _ = self._vehicle[i]
        params = self.params
        weight, stops = np.zeros(shape), np.zeros(shape)
        axes = [(-1,) + (1,) * (n_units - 1 - j) for j in self._unit_range]
        for j in self._unit_range:
            weight += (float(self._weight[j]) * frac).reshape(axes[j])
            stops += (float(self._stops[j]) * frac).reshape(axes[j])
        # The dominant unit is the first of model.dominant_order present:
        # writing the limits from the last of that order to the first leaves
        # that unit's wherever it is present.
        m = np.full(shape, float(cap_limits[-1]))
        present = frac > 0
        for j in reversed(self._order):
            np.copyto(m, float(cap_limits[j]), where=present.reshape(axes[j]))
        np.divide(weight, m, out=m)
        np.ceil(m, out=m)  # the capacity count
        d, hours, _, shift, lead = _tour_times(m, _spread(params, stops, np.sqrt, np.rint),
                                               stops, v_eff, params, np.ceil)
        met = (shift <= m) & (lead <= m)
        met &= m < math.inf  # an overflowing count is column's to refuse
        energy = np.multiply(d, per_km, out=d)
        energy += np.multiply(hours, per_hour, out=hours)
        left = np.logical_not(met, out=met)
        # column reads only entry i of each row, so tick c's row carries c/ticks
        # in every entry
        tick_rows = [(c / ticks,) * len(self.fleet) for c in range(ticks + 1)]
        terms = [self.column(tuple(tick_rows[c] for c in idx), i)
                 for idx in np.argwhere(left).tolist()]  # C order, as left[...] takes
        energy[left] = [term for term, _ in terms]
        feasible_energy = energy.copy()
        feasible_energy[left] = [term if ok else math.inf for term, ok in terms]
        return energy, feasible_energy

    def terms(self, rows) -> list:
        return [self.column(rows, i) for i in range(len(self.fleet))]

    def energy(self, rows) -> tuple[float, float, bool]:
        """(penalized energy, true objective, feasible) of the allocation rows."""
        return _total(self.terms(rows))


def _total(terms) -> tuple[float, float, bool]:
    """(penalized energy, true objective, feasible) from column terms, summed
    in vehicle order.  The objective is the energy when every plan converges;
    a divergent column makes it infinite."""
    energy = 0.0
    feasible = True
    for term, ok in terms:
        energy += term
        feasible = feasible and ok
    return energy, energy if feasible else math.inf, feasible


def constraint_violations(allocation: AllocationMatrix, fleet, units,
                          params: NetworkParams) -> tuple[ConstraintSlack, ...]:
    """Signed slacks (positive = violated) per vehicle and constraint.

    Report-only diagnostics in per-tour forms: total assigned weight against
    m*capacity, total travel+stop time against m shifts, and time to the
    last customer against m lead-time windows.  Each vehicle's plan is
    solve_tour_plan's for its induced_demand, so feasibility is the solver's.
    """
    out = []
    for vehicle, demand in zip(fleet, induced_demand(allocation, units)):
        try:
            plan = solve_tour_plan(vehicle, demand, params)
        except InfeasibleError:
            cap = shift = lead = math.inf
        else:
            m, d = plan.tours, plan.distance_km
            cap = demand.total_weight_kg - m * vehicle.capacity_kg
            shift = plan.time_h - m * params.shift_duration_h
            v_eff = vehicle.speed_kmh / params.congestion_factor
            lead = (((d - params.radius_km * m) / v_eff
                     + params.stop_time_h * demand.total_stops) - m * params.lead_time_h)
        out.append(ConstraintSlack(vehicle.id, "capacity", cap))
        out.append(ConstraintSlack(vehicle.id, "shift", shift))
        out.append(ConstraintSlack(vehicle.id, "lead_time", lead))
    return tuple(out)


# ((fleet, units, params), kernel) of the last objective_value call.  A
# kernel's terms depend only on values that compare equal, so sharing it
# across callers changes no result.
_objective_kernel = None


def objective_value(allocation: AllocationMatrix, fleet, units, params: NetworkParams) -> float:
    """Transport cost of an allocation; math.inf when a vehicle's plan diverges.

    Callers scoring many allocations of one instance share one kernel: it is
    rebuilt only when the frozen (fleet, units, params) stop comparing equal
    to the last call's (tuple comparison checks identity first)."""
    global _objective_kernel
    key = (tuple(fleet), tuple(units), params)
    if _objective_kernel is None or _objective_kernel[0] != key:
        _objective_kernel = key, _ColumnKernel(*key)
    return _objective_kernel[1].energy(allocation.entries)[1]


def _canonical_row(row) -> tuple[float, ...]:
    """Snap noise-level entries to exact 0/1 and repair the row sum to 1.

    Keeps the walk on canonical representatives: without the snap, rows
    summing to 1 - 1e-15 carry microscopically less demand and win energy
    comparisons against the exact corner allocations they approximate.
    It is not idempotent: a row it returned can come back one ulp off
    (about 0.7% of the rows a walk reaches).
    """
    row = [0.0 if x < 1e-12 else (1.0 if x > 1.0 - 1e-12 else x) for x in row]
    residual = 1.0 - math.fsum(row)
    if residual != 0.0:
        k = row.index(max(row))
        row[k] = min(1.0, max(0.0, row[k] + residual))
    return tuple(row)


def _draws(rng: random.Random, n_rows: int, n_vehicles: int):
    """A move drawer bound to rng, for n_rows unit rows and n_vehicles >= 2
    vehicles: each call returns (row j, vehicle a, vehicle b, delta), a
    fraction delta in (0, 0.2] of row j to move from a to b.

    The draws are taken straight from rng.getrandbits and rng.random; a seed
    fixes the sequence of moves.  Up to 21 vehicles they repeat, bit for
    bit, those of rng.randrange(n_rows), rng.sample(range(n_vehicles), 2)
    and rng.uniform(0.0, 0.2), in that order: CPython 3.11's randrange(n)
    rejects getrandbits(n.bit_length()) draws of n and above, and sample()
    picks from a list pool, whose second pick is drawn below n_vehicles - 1
    with the first pick's slot holding the last vehicle.  b is drawn that
    way for every fleet size.  The bit lengths are worked out once, here.
    """
    getrandbits, random_ = rng.getrandbits, rng.random
    k_rows, k_vehicles = n_rows.bit_length(), n_vehicles.bit_length()
    last = n_vehicles - 1
    k_last = last.bit_length()

    def draw():
        j = getrandbits(k_rows)
        while j >= n_rows:
            j = getrandbits(k_rows)
        a = getrandbits(k_vehicles)
        while a >= n_vehicles:
            a = getrandbits(k_vehicles)
        b = getrandbits(k_last)
        while b >= last:
            b = getrandbits(k_last)
        if b == a:
            b = last
        return j, a, b, 0.2 * random_() or 0.2

    return draw


def _moved(row, a: int, b: int, delta: float) -> tuple[float, ...]:
    """The canonical row after moving delta of row from vehicle a to b,
    clipped to what a holds and b can take."""
    row = list(row)
    moved = min(delta, row[a], 1.0 - row[b])
    row[a] -= moved
    row[b] += moved
    return _canonical_row(row)


def neighbor_move(allocation: AllocationMatrix, rng: random.Random) -> AllocationMatrix:
    """Transfer a random fraction (up to 0.2) of one unit row between two vehicles."""
    n_vehicles = allocation.n_vehicles
    if n_vehicles < 2:
        return allocation
    entries = list(allocation.entries)
    j, a, b, delta = _draws(rng, len(entries), n_vehicles)()
    entries[j] = _moved(entries[j], a, b, delta)
    return AllocationMatrix(tuple(entries))


def _allocation_layer(allocation: AllocationMatrix, fleet, units,
                      params: NetworkParams) -> LayerSpec:
    """The layer an allocation describes: one assignment per vehicle whose
    induced_demand is not empty (none when the allocation carries nothing)."""
    return LayerSpec(name="allocation", mode=LayerMode.ANALYTICAL, params=params, fleet=tuple(
        FleetAssignment(vehicle, demand)
        for vehicle, demand in zip(fleet, induced_demand(allocation, units))
        if demand.total_weight_kg > 0 or demand.total_stops > 0))


def reallocated_scheme(scheme: SchemeSpec, layer_index: int, allocation: AllocationMatrix,
                       fleet, units) -> SchemeSpec:
    """The scheme with one layer's fleet replaced by the allocation's, each
    vehicle carrying the units, and so the payload limit, the optimizer
    scores it by."""
    layer = scheme.layers[layer_index]
    layers = list(scheme.layers)
    layers[layer_index] = replace(
        layer, fleet=_allocation_layer(allocation, fleet, units, layer.params).fleet)
    return replace(scheme, layers=tuple(layers))


def _finish(kernel: _ColumnKernel, rows, external_factors, trace,
            evaluations) -> OptimizationResult:
    allocation = AllocationMatrix(rows)
    fleet, units, params = kernel.fleet, kernel.units, kernel.params
    violations = constraint_violations(allocation, fleet, units, params)
    _, objective, feasible = kernel.energy(rows)
    try:
        kpis = evaluate_layer(_allocation_layer(allocation, fleet, units, params),
                              external_factors)
    except InfeasibleError:
        kpis = KpiReport()
    return OptimizationResult(allocation=allocation, objective=objective,
                              feasible=feasible, violations=violations, kpis=kpis,
                              trace=trace, evaluations=evaluations)


def simulated_annealing(fleet, units, params: NetworkParams,
                        config: SaConfig = SaConfig(),
                        external_factors: ExternalCostFactors | None = None,
                        keep_trace: bool = False) -> OptimizationResult:
    """Annealing over row-stochastic allocations on the tour solver's cost.

    The energy is the solver's transport cost plus a penalty on each vehicle
    whose plan diverges; feasible is the solver's verdict, and the result's
    slack_* rows are per-tour diagnostics only.  Every vertex allocation
    (each unit row whole on one vehicle; above _VERTEX_BUDGET vertices, only
    the single-column corners) is scored up front as a seed candidate:
    vertex allocations dominate this objective, and the bounded transfer
    moves approach them slowly, so the default schedule can be short.  Each
    restart then walks from the row-uniform allocation, accepting uphill
    moves with probability exp(-dE/T) under geometric cooling.  The best
    feasible allocation ever seen wins, falling back to the lowest-energy
    one when nothing feasible turns up, so no result's energy is above the
    best vertex's.  Restarts run on derived seeds (seed + index), so results
    depend only on (inputs, seed).  evaluations counts the vertex seeds
    plus, per restart, the starting point and every step.

    Each restart draws its moves from one _draws drawer bound to its rng
    and applies them with _moved.  A move changes one row in two columns (a
    third at most, through the row repair).  A step writes the new row into
    the current rows in place, re-evaluates only the columns whose entries
    changed, takes the other column terms from the current ones and sums
    the energy in vehicle order, so every energy equals a full evaluation
    bit for bit; a rejected move puts the old row back, and only a new best
    record copies the rows.  A move that moves nothing (its row holds 0 at
    a or 1 at b) or whose canonical row equals the current one only counts
    as an evaluation and extends the trace: its energy would equal the
    current one, which it accepts without an acceptance draw and which no
    best record is above.  Every restart starts from the same row-uniform
    allocation, so it is scored once, after the vertices.
    """
    kernel = _ColumnKernel(fleet, units, params)
    n_vehicles, n_units = len(kernel.fleet), len(kernel.units)
    if n_vehicles == 1:
        rows = ((1.0,),) * n_units
        return _finish(kernel, rows, external_factors,
                       (kernel.energy(rows)[1],) if keep_trace else None, 1)

    start = AllocationMatrix.uniform(n_units, n_vehicles).entries
    start_terms = kernel.terms(start)
    e_start, _, start_feasible = _total(start_terms)
    # the lowest energy seen and the lowest feasible one, with their rows
    any_e = best_e = math.inf
    any_rows = best_rows = None
    vertices = list(_vertices(kernel))
    for e, feasible, rows in (*vertices, (e_start, start_feasible, start)):
        if any_rows is None or e < any_e:
            any_e, any_rows = e, rows
        if feasible and (best_rows is None or e < best_e):
            best_e, best_rows = e, rows
    evaluations = len(vertices) + config.restarts  # and every step, below

    trace: list[float] = []
    vehicle_range = range(n_vehicles)
    steps = range(config.steps_per_temperature)
    column, exp = kernel.column, math.exp
    t0 = max(0.1 * abs(e_start), 1e-6)
    t_min = 1e-4 * t0
    for restart in range(config.restarts):
        rng = random.Random(config.seed + restart)
        draw, random_ = _draws(rng, n_units, n_vehicles), rng.random
        current, terms, e_cur = list(start), start_terms, e_start
        t = t0
        while t >= t_min:
            evaluations += len(steps)
            for _ in steps:
                j, a, b, delta = draw()
                old = current[j]
                # a move that moves nothing keeps the row it found
                row = old if old[a] == 0.0 or old[b] == 1.0 else _moved(old, a, b, delta)
                if row != old:
                    current[j] = row
                    new_terms = [column(current, i) if row[i] != old[i] else terms[i]
                                 for i in vehicle_range]
                    e_new = 0.0
                    feasible = True
                    for term, ok in new_terms:
                        e_new += term
                        feasible = feasible and ok
                    if e_new < any_e:
                        any_e, any_rows = e_new, tuple(current)
                    if feasible and (best_rows is None or e_new < best_e):
                        best_e, best_rows = e_new, tuple(current)
                    if e_new <= e_cur or random_() < exp(-(e_new - e_cur) / t):
                        terms, e_cur = new_terms, e_new
                    else:
                        current[j] = old
                if keep_trace:
                    trace.append(any_e if best_rows is None else best_e)
            t *= config.cooling_rate

    return _finish(kernel, any_rows if best_rows is None else best_rows, external_factors,
                   tuple(trace) if keep_trace else None, evaluations)


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All nonnegative integer vectors of the given length summing to total,
    in ascending lexicographic order."""
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first, *rest))
    return out


_GRID_BUDGET = 2 * 10 ** 7
_VERTEX_BUDGET = 4096


def _vertex_choices(n_vehicles: int, n_units: int):
    """The vehicle of each unit row of the vertex allocations, in
    itertools.product order: all n_vehicles^n_units of them up to
    _VERTEX_BUDGET, else the n_vehicles single-column corners."""
    vehicles = range(n_vehicles)
    if n_vehicles ** n_units <= _VERTEX_BUDGET:
        return itertools.product(vehicles, repeat=n_units)
    return [(i,) * n_units for i in vehicles]


def _vertices(kernel: _ColumnKernel):
    """(penalized energy, feasible, rows) of the vertex allocations, which send
    each unit row whole to one vehicle, in _vertex_choices order.

    A column term depends only on which rows its vehicle carries, so each is
    solved once per (mask of the rows the vehicle carries, vehicle); a
    vertex's masks are built in one pass over its choice, and its terms are
    summed as _total sums them, in vehicle order, so every energy equals
    kernel.energy(rows) bit for bit.
    """
    n_vehicles = len(kernel.fleet)
    vehicles = range(n_vehicles)
    corners = [tuple(float(k == i) for k in vehicles) for i in vehicles]
    columns = [{} for _ in vehicles]  # per vehicle: mask -> column term
    column = kernel.column
    for choice in _vertex_choices(n_vehicles, len(kernel.units)):
        rows = tuple(corners[i] for i in choice)
        masks = [0] * n_vehicles
        for j, i in enumerate(choice):
            masks[i] |= 1 << j
        energy = 0.0
        feasible = True
        for i in vehicles:
            term = columns[i].get(masks[i])
            if term is None:
                term = columns[i][masks[i]] = column(rows, i)
            energy += term[0]
            feasible = feasible and term[1]
        yield energy, feasible, rows


def vertex_optimum(fleet, units, params: NetworkParams,
                   external_factors: ExternalCostFactors | None = None) -> OptimizationResult:
    """Least-energy vertex allocation, feasible ones first, the first in
    itertools.product order among equals.  Refuses instances with more than
    _VERTEX_BUDGET vertices."""
    kernel = _ColumnKernel(fleet, units, params)
    n_vehicles, n_units = len(kernel.fleet), len(kernel.units)
    if n_vehicles ** n_units > _VERTEX_BUDGET:
        raise GridTooLargeError(
            f"vertex_optimum: {n_vehicles}^{n_units} = {n_vehicles ** n_units} vertices "
            f"exceeds the budget of {_VERTEX_BUDGET}")
    scored = list(_vertices(kernel))
    _, _, rows = min(scored, key=lambda v: (not v[1], v[0]))
    return _finish(kernel, rows, external_factors, None, len(scored))


# Scales of the incumbent's tail-row prices tried by the grid's prefix bound,
# and the bound's slack relative to the magnitudes it sums.
_PRICE_SCALES = (0.25, 0.5, 1.0, 1.5, 2.0)
_BOUND_SLACK = 1e-9


def _open_prefixes(tables, energy, cols, ticks: int, n_lead: int):
    """The prefixes of the first n_lead unit rows (composition indices, in
    lexicographic order) that may hold a grid point no costlier than the
    incumbent, the best vertex of tables summed in vehicle order.

    The bound relaxes each tail row's "shares sum to ticks" with a price
    lambda_k: every point of a prefix costs at least
    sum_i B_i + ticks * sum_k lambda_k, where B_i is the least of vehicle i's
    table minus sum_k lambda_k * t_k over every tick column of the tail
    rows at its prefix column.  That holds for any prices; they are the
    incumbent's per-tick price of each tail row at its carrier (the
    carrier's energy with the row less its energy without it, over ticks),
    each scaled by every _PRICE_SCALES, and the largest bound is kept.  A prefix is skipped only
    when its bound exceeds the incumbent by more than _BOUND_SLACK of the
    magnitudes summed, so it has no point at or below the grid's minimum and
    cannot hold the first one.  With no leading row, an infeasible
    incumbent or a slack that is not finite, every prefix is open.
    """
    import numpy as np

    n_vehicles, n_units = len(tables), tables[0].ndim
    every = itertools.product(range(cols.shape[1]), repeat=n_lead)
    if not n_lead:
        return every
    incumbent, carriers = math.inf, None
    for choice in _vertex_choices(n_vehicles, n_units):
        total = 0.0
        for i in range(n_vehicles):
            total += tables[i][tuple(ticks * (c == i) for c in choice)]
        if total < incumbent:
            incumbent, carriers = total, choice
    if carriers is None:
        return every
    tail = range(n_lead, n_units)
    prices = []
    for j in tail:
        column = [ticks * (c == carriers[j]) for c in carriers]
        full = energy[carriers[j]][tuple(column)]
        column[j] = 0
        prices.append(float(full - energy[carriers[j]][tuple(column)]) / ticks)
    slack = _BOUND_SLACK * (abs(incumbent) + (n_vehicles + 1) * ticks
                            * max(_PRICE_SCALES) * sum(map(abs, prices)))
    if not math.isfinite(slack):
        return every
    t = np.arange(ticks + 1.0)
    axes = [(-1,) + (1,) * (n_units - 1 - j) for j in tail]
    bound = None
    for scales in itertools.product(_PRICE_SCALES, repeat=len(prices)):
        lam = [s * p for s, p in zip(scales, prices)]
        priced = sum((l * t).reshape(a) for l, a in zip(lam, axes))
        lower = ticks * sum(lam)
        for i in range(n_vehicles):
            least = np.min(tables[i] - priced, axis=tuple(tail))
            for axis in range(n_lead):
                least = np.take(least, cols[i], axis=axis)
            lower = lower + least
        bound = lower if bound is None else np.maximum(bound, lower, out=bound)
    # a NaN bound compares False, so its prefix stays open
    return map(tuple, np.argwhere(~(bound > incumbent + slack)).tolist())


def brute_force_grid(fleet, units, params: NetworkParams, step: float = 0.05,
                     external_factors: ExternalCostFactors | None = None) -> OptimizationResult:
    """Exact optimum over allocations on a simplex grid of the given step.

    Enumerates every combination of per-row grid points.  Each vehicle's
    table of tick columns comes from _ColumnKernel.table, one numpy pass
    that equals the annealer's _ColumnKernel.column bit for bit and leaves
    it the columns whose plan climbs or diverges, so the grid minimises the
    same penalized energy that the result reports.
    The search gathers each vehicle's table slice over the last one or two
    rows into two buffers reused by every prefix of the leading rows, and
    visits only the prefixes _open_prefixes leaves open: a skipped prefix's
    Lagrangian lower bound exceeds the best vertex by more than float
    rounding, so it holds no point as cheap as the grid's minimum, and the
    result is the full scan's.  evaluations counts the whole grid.
    Feasible points come first; among equal objectives the lexicographically
    smallest matrix (rows compared in order) wins.  Refuses a step outside
    (0, 1] or whose inverse is not an integer, and instances whose joint
    grid exceeds the evaluation budget, which bounds each vehicle's table
    of columns too.
    """
    # Only the grid oracle needs numpy; importing it here keeps it off the
    # start-up of every other command.
    import numpy as np

    kernel = _ColumnKernel(fleet, units, params)
    if not 0 < step <= 1:  # also refuses nan and inf
        raise DomainError(f"brute_force_grid: step must be in (0, 1], got {step}")
    ticks = round(1.0 / step)
    if not math.isclose(ticks * step, 1.0, rel_tol=0, abs_tol=1e-9):
        raise DomainError("brute_force_grid: 1/step must be an integer")
    n_vehicles, n_units = len(kernel.fleet), len(kernel.units)
    n_rows = math.comb(ticks + n_vehicles - 1, n_vehicles - 1)  # compositions per row
    joint = n_rows ** n_units
    if joint > _GRID_BUDGET:
        raise GridTooLargeError(
            f"brute_force_grid: {n_rows}^{n_units} = {joint} grid points exceeds "
            f"the budget of {_GRID_BUDGET}")

    if n_vehicles == 1:  # one vehicle carries every unit: the only grid point
        return _finish(kernel, ((1.0,),) * n_units, external_factors, None, joint)

    # Per-vehicle energy for every possible tick column, then the joint
    # minimum is a sum of per-vehicle table lookups.
    tables = [kernel.table(i, ticks) for i in range(n_vehicles)]
    energy = [t[0] for t in tables]
    rows = _compositions(ticks, n_vehicles)
    # The last one or two unit rows are searched as one array per prefix of
    # the leading rows: each vehicle's tail slice of its table is gathered by
    # its column of the composition table, one axis at a time, the last into
    # `total` or, added to it in vehicle order, `part`.  mode="clip" moves no
    # index (entries are in range); it spares np.take a buffered `out`.  A
    # later prefix must be strictly lower, so ties go to the lexicographically first.
    n_tail = min(2, n_units)
    cols = np.asarray(rows).T.copy()  # (n_vehicles, n_rows)
    total = np.empty((n_rows,) * n_tail)
    part = np.empty_like(total)

    def search(feasible_only: bool) -> tuple[int, ...] | None:
        tbl = [t[1] for t in tables] if feasible_only else energy
        best_val = np.inf
        best_idx = None
        for lead in _open_prefixes(tbl, energy, cols, ticks, n_units - n_tail):
            for i in range(n_vehicles):
                gathered = tbl[i][tuple(rows[c][i] for c in lead)]
                for axis in range(n_tail - 1):
                    gathered = np.take(gathered, cols[i], axis=axis)
                np.take(gathered, cols[i], axis=n_tail - 1, out=part if i else total,
                        mode="clip")
                if i:
                    np.add(total, part, out=total)
            k = int(np.argmin(total))
            if total.flat[k] < best_val:
                best_val = total.flat[k]
                best_idx = (*lead, *(int(x) for x in np.unravel_index(k, total.shape)))
        return best_idx

    row_choice = search(feasible_only=True) or search(feasible_only=False)
    entries = tuple(tuple(t / ticks for t in rows[c]) for c in row_choice)
    return _finish(kernel, entries, external_factors, None, joint)
