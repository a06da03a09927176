"""Allocation of delivery-unit types to vehicle types, minimizing transport cost.

The decision variable is a matrix of fractions: row j gives how unit type j
splits across the vehicle types (rows sum to 1).  Tour counts are recomputed
from the tour fixed point at every candidate, so the objective is nonlinear
and nonconvex; a simulated-annealing search with a constraint penalty does
the optimization, and an exhaustive simplex-grid enumeration serves as an
oracle for small instances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .model import (
    DemandProfile,
    DomainError,
    ExternalCostFactors,
    InfeasibleError,
    KpiReport,
    NetworkParams,
    _solve_fixed_point,
    effective_capacity,
)
from .schemes import FleetAssignment, LayerMode, LayerSpec, evaluate_layer

_ROW_SUM_TOL = 1e-9
_FEASIBLE_TOL = 1e-6


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

    @classmethod
    def single_vehicle(cls, n_units: int, n_vehicles: int, column: int) -> "AllocationMatrix":
        row = tuple(1.0 if i == column else 0.0 for i in range(n_vehicles))
        return cls(tuple(row for _ in range(n_units)))

    def column_mass_share(self, units, column: int) -> float:
        """Share of total demand weight assigned to one vehicle column."""
        total = math.fsum(u.weight_kg for u in units)
        if total == 0:
            return 0.0
        return math.fsum(u.weight_kg * self.entries[j][column]
                         for j, u in enumerate(units)) / total


@dataclass(frozen=True)
class SaConfig:
    """Annealing schedule.  Temperatures left as None are derived at run time:
    initial = 10% of the starting energy, minimum = 1e-4 of the initial."""

    seed: int = 0
    initial_temperature: float | None = None
    cooling_rate: float = 0.95
    steps_per_temperature: int = 200
    min_temperature: float | None = None
    restarts: int = 5
    penalty_weight: float = 1000.0
    grid_step: float = 0.05

    def __post_init__(self):
        if not (0 < self.cooling_rate < 1):
            raise DomainError("cooling_rate must be in (0, 1)")
        if self.steps_per_temperature < 1 or self.restarts < 1:
            raise DomainError("steps_per_temperature and restarts must be >= 1")
        if self.initial_temperature is not None and self.initial_temperature <= 0:
            raise DomainError("initial_temperature must be > 0")
        if self.min_temperature is not None and self.min_temperature <= 0:
            raise DomainError("min_temperature must be > 0")
        if self.penalty_weight <= 0:
            raise DomainError("penalty_weight must be > 0")
        if not (0 < self.grid_step <= 1):
            raise DomainError("grid_step must be in (0, 1]")


@dataclass(frozen=True)
class ConstraintSlack:
    """Signed slack of one constraint for one vehicle; positive means violated."""

    vehicle_id: str
    constraint: str  # capacity | shift | lead_time
    slack: float


@dataclass(frozen=True)
class OptimizationResult:
    allocation: AllocationMatrix
    objective: float
    feasible: bool
    violations: tuple[ConstraintSlack, ...]
    kpis: KpiReport
    trace: tuple[float, ...] | None = None
    evaluations: int = 0


def induced_demand(allocation: AllocationMatrix, units) -> list[DemandProfile]:
    """Per-vehicle demand implied by an allocation; stops may be fractional."""
    units = list(units)
    if allocation.n_units != len(units):
        raise DomainError("allocation rows must match unit count")
    out = []
    for i in range(allocation.n_vehicles):
        weight = math.fsum(u.weight_kg * allocation.entries[j][i] for j, u in enumerate(units))
        stops = math.fsum(u.stops * allocation.entries[j][i] for j, u in enumerate(units))
        out.append(DemandProfile(total_weight_kg=weight, total_stops=stops))
    return out


def _column_dominant(allocation: AllocationMatrix, units, column: int) -> int:
    """Index of the heaviest-per-stop unit present in a column, or -1."""
    present = [j for j, u in enumerate(units)
               if allocation.entries[j][column] > 0 and u.stops > 0]
    if not present:
        return -1
    return max(present, key=lambda j: units[j].avg_weight_kg)


# Column term: (objective part, energy cost part, energy penalty part, feasible).
# The two energy parts are added one after the other, never pre-summed, so a
# total over columns repeats the exact float additions of a full evaluation.
_EMPTY_TERM = (0.0, 0.0, 0.0, True)


class _ColumnKernel:
    """Per-vehicle-column energy of allocations on one (fleet, units, params).

    The penalized energy separates by vehicle column: column i's term depends
    only on entries[j][i] for every unit row j.  Built once per call, the
    kernel holds what does not depend on the allocation: each vehicle's
    congestion-adjusted speed, each unit's total weight (avg_weight_kg *
    stops) and the capacity limit of each (vehicle, dominant unit) pair.
    Allocations are plain row tuples here; only results handed out to
    callers become validated AllocationMatrix objects.
    """

    def __init__(self, fleet, units, params: NetworkParams, penalty_weight: float = 0.0):
        self.fleet = list(fleet)
        self.units = list(units)
        self.params = params
        self.penalty_weight = penalty_weight
        self._unit_range = range(len(self.units))
        self._weight = [u.avg_weight_kg * u.stops for u in self.units]
        self._stops = [u.stops for u in self.units]
        self._avg = [u.avg_weight_kg for u in self.units]
        self._v_eff = [v.speed_kmh / params.congestion_factor for v in self.fleet]
        # indexed by dominant unit; the trailing entry (index -1) is "no unit"
        self._cap_limit = [[effective_capacity(v, u) for u in self.units] + [v.capacity_kg]
                           for v in self.fleet]

    def cost_and_slacks(self, i: int, weight: float, stops: float,
                        dominant: int) -> tuple[float, float, float, float]:
        """(transport cost, capacity, shift and lead-time slacks) of vehicle i
        serving the given demand; raises InfeasibleError when the plan diverges.

        Slacks follow the allocation model's constraint forms: total assigned
        weight against m*capacity, total travel+stop time against m shifts,
        and time to the last customer against m lead-time windows.
        """
        vehicle = self.fleet[i]
        v_eff = self._v_eff[i]
        params = self.params
        m, d, _ = _solve_fixed_point(weight, stops, self._cap_limit[i][dominant], v_eff,
                                     params, vehicle.id, 10_000)
        time_h = d / v_eff + params.stop_time_h * stops
        cost = d * vehicle.cost_per_km + time_h * vehicle.cost_per_hour
        return (cost,
                weight - m * vehicle.capacity_kg,
                time_h - m * params.shift_duration_h,
                ((d - params.radius_km * m) / v_eff + params.stop_time_h * stops)
                - m * params.lead_time_h)

    def term(self, i: int, weight: float, stops: float, dominant: int):
        """Column term of vehicle i for the given demand.

        Divergent vehicles contribute a penalty that grows with the assigned
        demand, steering the search back toward servable allocations.
        """
        if weight == 0 and stops == 0:
            return _EMPTY_TERM
        try:
            cost, cap, shift, lead = self.cost_and_slacks(i, weight, stops, dominant)
        except InfeasibleError:
            return math.inf, self.penalty_weight * (1.0 + weight / 1000.0 + stops), 0.0, False
        if cap > 0 or shift > 0 or lead > 0:
            violation = math.fsum((max(0.0, cap), max(0.0, shift), max(0.0, lead)))
        else:
            violation = 0.0
        return cost, cost, self.penalty_weight * violation, violation <= _FEASIBLE_TOL

    def column(self, rows, i: int):
        """Column term of vehicle i under the allocation rows."""
        weights, stops, avg = self._weight, self._stops, self._avg
        w = s = 0.0
        dominant = -1
        for j in self._unit_range:
            f = rows[j][i]
            if f <= 0:
                continue
            w += weights[j] * f
            s += stops[j] * f
            if stops[j] > 0 and (dominant < 0 or avg[j] > avg[dominant]):
                dominant = j
        return self.term(i, w, s, dominant)

    def terms(self, rows) -> list:
        return [self.column(rows, i) for i in range(len(self.fleet))]

    def energy(self, rows) -> tuple[float, float, bool]:
        """(penalized energy, true objective, feasible) of the allocation rows."""
        return _total(self.terms(rows))


def _total(terms) -> tuple[float, float, bool]:
    """(penalized energy, true objective, feasible) from column terms, summed
    in vehicle order.  A divergent column makes the objective infinite."""
    energy = objective = 0.0
    feasible = True
    for cost, energy_cost, penalty, ok in terms:
        objective += cost
        energy += energy_cost
        energy += penalty
        feasible = feasible and ok
    return energy, objective, feasible


def constraint_violations(allocation: AllocationMatrix, fleet, units,
                          params: NetworkParams) -> tuple[ConstraintSlack, ...]:
    """Signed slacks (positive = violated) per vehicle and constraint."""
    kernel = _ColumnKernel(fleet, units, params)
    demands = induced_demand(allocation, kernel.units)
    out = []
    for i, vehicle in enumerate(kernel.fleet):
        weight, stops = demands[i].total_weight_kg, demands[i].total_stops
        if weight == 0 and stops == 0:
            cap = shift = lead = 0.0
        else:
            try:
                _, cap, shift, lead = kernel.cost_and_slacks(
                    i, weight, stops, _column_dominant(allocation, kernel.units, i))
            except InfeasibleError:
                cap = shift = lead = math.inf
        out.append(ConstraintSlack(vehicle.id, "capacity", cap))
        out.append(ConstraintSlack(vehicle.id, "shift", shift))
        out.append(ConstraintSlack(vehicle.id, "lead_time", lead))
    return tuple(out)


def objective_value(allocation: AllocationMatrix, fleet, units, params: NetworkParams,
                    penalty_weight: float | None = None) -> float:
    """Transport cost of an allocation; math.inf when a vehicle's plan diverges.

    With penalty_weight given, returns the penalty-augmented value instead.
    """
    kernel = _ColumnKernel(fleet, units, params,
                           penalty_weight if penalty_weight is not None else 0.0)
    energy, objective, _ = kernel.energy(allocation.entries)
    return energy if penalty_weight is not None else objective


def _canonical_row(row: list[float]) -> tuple[float, ...]:
    """Snap noise-level entries to exact 0/1 and repair the row sum to 1.

    Keeps the walk on canonical representatives: without the snap, rows
    summing to 1 - 1e-15 carry microscopically less demand and win energy
    comparisons against the exact corner allocations they approximate.
    """
    row = [0.0 if x < 1e-12 else (1.0 if x > 1.0 - 1e-12 else x) for x in row]
    residual = 1.0 - math.fsum(row)
    if residual != 0.0:
        k = row.index(max(row))
        row[k] = min(1.0, max(0.0, row[k] + residual))
    return tuple(row)


def _below(getrandbits, n: int) -> int:
    """A uniform int in [0, n), n >= 1, drawn as rng.randrange(n) draws it."""
    # CPython 3.11's Random.randrange(n): rejection on getrandbits(n.bit_length())
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _transfer(rows, rng: random.Random, n_vehicles: int) -> tuple[int, tuple[float, ...]]:
    """Draw one move on the allocation rows: (row index j, new row j).

    A random fraction (up to 0.2) of one unit row moves from vehicle a to
    vehicle b.  The draws repeat, bit for bit, those of rng.randrange(len(rows)),
    rng.sample(range(n_vehicles), 2) and rng.uniform(0.0, 0.2), in that order,
    taken straight from rng.getrandbits and rng.random; a seed fixes the
    sequence of moves.
    """
    getrandbits = rng.getrandbits
    j = _below(getrandbits, len(rows))
    a = _below(getrandbits, n_vehicles)
    if n_vehicles <= 21:  # sample() picks from a list pool up to 21 items
        b = _below(getrandbits, n_vehicles - 1)
        if b == a:
            b = n_vehicles - 1
    else:  # and from a set of picks above
        b = _below(getrandbits, n_vehicles)
        while b == a:
            b = _below(getrandbits, n_vehicles)
    delta = 0.2 * rng.random() or 0.2  # (0, 0.2]
    row = list(rows[j])
    moved = min(delta, row[a], 1.0 - row[b])
    row[a] -= moved
    row[b] += moved
    return j, _canonical_row(row)


def neighbor_move(allocation: AllocationMatrix, rng: random.Random) -> AllocationMatrix:
    """Transfer a random fraction (up to 0.2) of one unit row between two vehicles."""
    n_vehicles = allocation.n_vehicles
    if n_vehicles < 2:
        return allocation
    j, row = _transfer(allocation.entries, rng, n_vehicles)
    entries = list(allocation.entries)
    entries[j] = row
    return AllocationMatrix(tuple(entries))


def _allocation_layer(allocation: AllocationMatrix, fleet, units,
                      params: NetworkParams) -> LayerSpec:
    units = list(units)
    demands = induced_demand(allocation, units)
    assignments = []
    for i, vehicle in enumerate(fleet):
        if demands[i].total_weight_kg > 0 or demands[i].total_stops > 0:
            dominant = _column_dominant(allocation, units, i)
            assignments.append(FleetAssignment(
                vehicle, demands[i], capacity_unit=units[dominant] if dominant >= 0 else None))
    if not assignments:
        assignments = [FleetAssignment(list(fleet)[0], DemandProfile.zero())]
    return LayerSpec(name="allocation", mode=LayerMode.ANALYTICAL,
                     params=params, fleet=tuple(assignments))


def allocation_kpis(allocation: AllocationMatrix, fleet, units, params: NetworkParams,
                    external_factors: ExternalCostFactors | None = None) -> KpiReport:
    """Evaluate an allocation as a standalone analytical layer."""
    return evaluate_layer(_allocation_layer(allocation, fleet, units, params),
                          external_factors)


def _finish(kernel: _ColumnKernel, rows, external_factors, trace,
            evaluations) -> OptimizationResult:
    allocation = AllocationMatrix(rows)
    fleet, units, params = kernel.fleet, kernel.units, kernel.params
    violations = constraint_violations(allocation, fleet, units, params)
    feasible = all(v.slack <= _FEASIBLE_TOL for v in violations)
    _, objective, _ = kernel.energy(rows)
    try:
        kpis = allocation_kpis(allocation, fleet, units, params, external_factors)
    except InfeasibleError:
        kpis = KpiReport.zero()
    return OptimizationResult(allocation=allocation, objective=objective,
                              feasible=feasible, violations=violations, kpis=kpis,
                              trace=trace, evaluations=evaluations)


def _row_corner_descent(start, kernel: _ColumnKernel):
    """Deterministic polish: repeatedly move whole rows to their best column.

    The per-vehicle cost is concave-ish in assigned load, so optima tend to
    sit at vertex allocations that the small annealing steps approach only
    slowly; this descent snaps each unit row to its cheapest single column
    while that strictly improves the energy.
    """
    current = start
    e_cur, _, _ = kernel.energy(current)
    evaluations = 0
    n_vehicles = len(kernel.fleet)
    improved = True
    while improved:
        improved = False
        for j in range(len(current)):
            for i in range(n_vehicles):
                if current[j][i] == 1.0:
                    continue
                corner = tuple(1.0 if k == i else 0.0 for k in range(n_vehicles))
                candidate = current[:j] + (corner,) + current[j + 1:]
                e_new, _, _ = kernel.energy(candidate)
                evaluations += 1
                if e_new < e_cur:
                    current, e_cur = candidate, e_new
                    improved = True
    return current, e_cur, evaluations


def simulated_annealing(fleet, units, params: NetworkParams,
                        config: SaConfig = SaConfig(),
                        external_factors: ExternalCostFactors | None = None,
                        keep_trace: bool = False) -> OptimizationResult:
    """Penalized annealing over row-stochastic allocations.

    Each restart walks from the row-uniform allocation, accepting uphill
    moves with probability exp(-dE/T) under geometric cooling, then runs a
    deterministic row-corner descent from its best point (vertex allocations
    dominate this objective, and the bounded transfer moves approach them
    slowly).  The single-column allocations are scored up front as seed
    candidates.  The best feasible allocation ever seen wins, falling back
    to the lowest-energy one when nothing feasible turns up.  Restarts run
    on derived seeds (seed + index), so results depend only on (inputs, seed).

    A move changes one row in two columns (a third at most, through the row
    repair), so each step re-evaluates only the columns whose entries
    changed and re-adds the cached column terms in vehicle order: every
    energy equals a full evaluation bit for bit.  A move whose canonical row
    equals the current one (the clipped fraction was 0) only counts as an
    evaluation and extends the trace: its energy would equal the current
    one, which it accepts without an acceptance draw and which no best
    record is above.
    """
    kernel = _ColumnKernel(fleet, units, params, config.penalty_weight)
    n_vehicles, n_units = len(kernel.fleet), len(kernel.units)
    if not n_vehicles or not n_units:
        raise DomainError("simulated_annealing: need at least one vehicle and one unit type")

    if n_vehicles == 1:
        rows = AllocationMatrix.single_vehicle(n_units, 1, 0).entries
        return _finish(kernel, rows, external_factors,
                       (kernel.energy(rows)[1],) if keep_trace else None, 1)

    vehicle_range = range(n_vehicles)
    best_feasible: tuple[float, tuple] | None = None
    best_any: tuple[float, tuple] | None = None
    trace: list[float] = []
    evaluations = 0

    def consider(energy: float, feasible: bool, rows: tuple):
        nonlocal best_feasible, best_any
        if best_any is None or energy < best_any[0]:
            best_any = (energy, rows)
        if feasible and (best_feasible is None or energy < best_feasible[0]):
            best_feasible = (energy, rows)

    for column in vehicle_range:
        corner = AllocationMatrix.single_vehicle(n_units, n_vehicles, column).entries
        e, _, feas = kernel.energy(corner)
        evaluations += 1
        consider(e, feas, corner)

    for restart in range(config.restarts):
        rng = random.Random(config.seed + restart)
        current = AllocationMatrix.uniform(n_units, n_vehicles).entries
        terms = kernel.terms(current)
        e_cur, _, feas = _total(terms)
        evaluations += 1
        consider(e_cur, feas, current)
        restart_best = (e_cur, current)

        t0 = config.initial_temperature
        if t0 is None:
            t0 = max(0.1 * abs(e_cur), 1e-6)
        t_min = config.min_temperature if config.min_temperature is not None else 1e-4 * t0
        random_, exp, column_term = rng.random, math.exp, kernel.column
        t = t0
        while t >= t_min:
            for _ in range(config.steps_per_temperature):
                j, row = _transfer(current, rng, n_vehicles)
                evaluations += 1
                old = current[j]
                if row == old:
                    if keep_trace:
                        trace.append(best_feasible[0] if best_feasible else best_any[0])
                    continue
                candidate = current[:j] + (row,) + current[j + 1:]
                new_terms = terms.copy()
                for i in vehicle_range:
                    if row[i] != old[i]:
                        new_terms[i] = column_term(candidate, i)
                e_new, _, feas = _total(new_terms)
                accept = e_new <= e_cur or random_() < exp(-(e_new - e_cur) / t)
                if accept:
                    current, terms, e_cur = candidate, new_terms, e_new
                if e_new < restart_best[0]:
                    restart_best = (e_new, candidate)
                consider(e_new, feas, candidate)
                if keep_trace:
                    trace.append(best_feasible[0] if best_feasible else best_any[0])
            t *= config.cooling_rate

        polished, e_pol, n_evals = _row_corner_descent(restart_best[1], kernel)
        evaluations += n_evals
        _, _, feas_pol = kernel.energy(polished)
        evaluations += 1
        consider(e_pol, feas_pol, polished)
        if keep_trace:
            trace.append(best_feasible[0] if best_feasible else best_any[0])

    chosen = best_feasible if best_feasible is not None else best_any
    return _finish(kernel, chosen[1], external_factors,
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


def brute_force_grid(fleet, units, params: NetworkParams, step: float = 0.05,
                     penalty_weight: float = 1000.0,
                     external_factors: ExternalCostFactors | None = None) -> OptimizationResult:
    """Exact optimum over allocations on a simplex grid of the given step.

    Enumerates every combination of per-row grid points, evaluating the same
    penalized energy as the annealer.  Among equal objectives the
    lexicographically smallest matrix (rows compared in order) wins.  Refuses
    instances whose joint grid exceeds the evaluation budget.
    """
    # Only the grid oracle needs numpy; importing it here keeps it off the
    # start-up of every other command.
    import numpy as np

    fleet = list(fleet)
    units = list(units)
    if not fleet or not units:
        raise DomainError("brute_force_grid: need at least one vehicle and one unit type")
    ticks = round(1.0 / step)
    if not math.isclose(ticks * step, 1.0, rel_tol=0, abs_tol=1e-9):
        raise DomainError("brute_force_grid: 1/step must be an integer")
    n_vehicles, n_units = len(fleet), len(units)
    rows = _compositions(ticks, n_vehicles)
    n_rows = len(rows)
    joint = n_rows ** n_units
    if joint > _GRID_BUDGET:
        raise GridTooLargeError(
            f"brute_force_grid: {n_rows}^{n_units} = {joint} grid points exceeds "
            f"the budget of {_GRID_BUDGET}")

    # Per-vehicle energy for every possible tick column, then the joint
    # minimum is a sum of per-vehicle table lookups.  The column sums stay
    # fsum-exact, unlike the annealer's running sums.
    kernel = _ColumnKernel(fleet, units, params, penalty_weight)

    def column_energy(vehicle_idx: int) -> tuple[np.ndarray, np.ndarray]:
        shape = (ticks + 1,) * n_units
        energy = np.empty(shape)
        feas_obj = np.empty(shape)
        for col in np.ndindex(shape):
            fracs = [c / ticks for c in col]
            weight = math.fsum(u.weight_kg * f for u, f in zip(units, fracs))
            stops = math.fsum(u.stops * f for u, f in zip(units, fracs))
            present = [j for j, (u, f) in enumerate(zip(units, fracs))
                       if f > 0 and u.stops > 0]
            dominant = max(present, key=lambda j: units[j].avg_weight_kg) if present else -1
            cost, energy_cost, penalty, ok = kernel.term(vehicle_idx, weight, stops, dominant)
            energy[col] = energy_cost + penalty
            feas_obj[col] = cost if ok else np.inf
        return energy, feas_obj

    tables = [column_energy(i) for i in range(n_vehicles)]
    comp = np.asarray(rows)  # (n_rows, n_vehicles)

    def search(feasible_only: bool) -> tuple[float, tuple[int, ...]] | None:
        tbl = [t[1] if feasible_only else t[0] for t in tables]
        best_val = np.inf
        best_idx: tuple[int, ...] | None = None
        if n_units == 1:
            total = sum(tbl[i][comp[:, i]] for i in range(n_vehicles))
            k = int(np.argmin(total))
            if np.isfinite(total[k]):
                return float(total[k]), (k,)
            return None
        if n_units == 2:
            total = sum(tbl[i][comp[:, i][:, None], comp[:, i][None, :]]
                        for i in range(n_vehicles))
            k = int(np.argmin(total))
            idx = np.unravel_index(k, total.shape)
            if np.isfinite(total[idx]):
                return float(total[idx]), tuple(int(x) for x in idx)
            return None
        for c1 in range(n_rows):  # n_units == 3
            total = sum(tbl[i][comp[c1, i], comp[:, i][:, None], comp[:, i][None, :]]
                        for i in range(n_vehicles))
            k = int(np.argmin(total))
            idx = np.unravel_index(k, total.shape)
            if total[idx] < best_val:
                best_val = float(total[idx])
                best_idx = (c1, *(int(x) for x in idx))
        if best_idx is None or not np.isfinite(best_val):
            return None
        return best_val, best_idx

    if n_units > 3:
        raise GridTooLargeError("brute_force_grid: more than 3 unit types is not supported")
    found = search(feasible_only=True)
    if found is None:
        found = search(feasible_only=False)
    _, row_choice = found
    entries = tuple(tuple(t / ticks for t in rows[c]) for c in row_choice)
    return _finish(kernel, entries, external_factors, None, joint)
