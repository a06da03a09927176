"""Continuous-approximation cost model for urban freight delivery.

Tour counts per vehicle type come from a fixed point of three ceilings
(vehicle capacity, driver shift, customer lead time) evaluated on the
estimated route length 2*r*m + k*sqrt(A*N).  Costs split into a distance
part, a time part and monetized external impacts per vehicle-kilometre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter


class ModelError(Exception):
    """Base class for model-level failures."""


class DomainError(ModelError, ValueError):
    """An argument or field value is outside its valid domain."""


class ConsistencyError(ModelError):
    """Inputs that should have been mutually consistent are not."""


class InfeasibleError(ModelError):
    """The tour fixed point diverges: no tour count satisfies a constraint."""

    def __init__(self, vehicle_id: str, constraint: "BindingConstraint", detail: str = ""):
        self.vehicle_id = vehicle_id
        self.constraint = constraint
        msg = f"no feasible tour count for vehicle '{vehicle_id}': {constraint.value} constraint diverges"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class TemperatureClass(str, Enum):
    A = "A"  # ambient
    F = "F"  # fresh
    S = "S"  # frozen
    T = "T"  # three-temperature
    U = "U"  # special temperature


class BindingConstraint(str, Enum):
    CAPACITY = "capacity"
    SHIFT = "shift"
    LEAD_TIME = "lead_time"


# The tour solver's usual answer, bound once: on Python 3.11 reading a member
# through its enum class costs about ten times a global lookup.
_CAPACITY = BindingConstraint.CAPACITY

EXTERNAL_CATEGORIES = ("accident", "air_pollution", "climate_change", "noise", "congestion")
_rates = attrgetter(*EXTERNAL_CATEGORIES)

# Dispersion term quantum (km).  Snapping k*sqrt(A*N) to a dyadic grid keeps
# 2*r*m + spread additions exact in IEEE754 for radii on a 0.25 km grid, so
# the route length is exactly affine in the tour count.
_SPREAD_QUANTUM = 2.0 ** -30

_REL_TOL = 1e-9

# Field checks are chained comparisons against _INF, so NaN and both
# infinities fail each in one expression, with no call per constructed value.
_INF = math.inf


@dataclass(frozen=True, slots=True)
class VehicleType:
    """One vehicle class: payload, speed, unit costs and loading footprint."""

    id: str
    capacity_kg: float
    speed_kmh: float
    cost_per_km: float
    cost_per_hour: float
    temperature_class: TemperatureClass = TemperatureClass.A
    max_units_footprint: int = 33

    def __post_init__(self):
        if not 0 < self.capacity_kg < _INF:
            raise DomainError(f"vehicle '{self.id}': capacity_kg must be > 0 and finite")
        if not 0 < self.speed_kmh < _INF:
            raise DomainError(f"vehicle '{self.id}': speed_kmh must be > 0 and finite")
        if not 0 <= self.cost_per_km < _INF:
            raise DomainError(f"vehicle '{self.id}': cost_per_km must be >= 0 and finite")
        if not 0 <= self.cost_per_hour < _INF:
            raise DomainError(f"vehicle '{self.id}': cost_per_hour must be >= 0 and finite")
        if not 1 <= self.max_units_footprint < _INF:
            raise DomainError(
                f"vehicle '{self.id}': max_units_footprint must be >= 1 and finite")


@dataclass(frozen=True, slots=True)
class DeliveryUnitType:
    """A shipment-unit class; avg_weight_kg is the mean weight dropped per stop.

    Stop counts are daily averages and may be fractional (e.g. after splitting
    a demand between subregions or vehicles).
    """

    id: str
    avg_weight_kg: float
    stops: float

    def __post_init__(self):
        if not 0 < self.avg_weight_kg < _INF:
            raise DomainError(f"unit '{self.id}': avg_weight_kg must be > 0 and finite")
        if not 0 <= self.stops < _INF:
            raise DomainError(f"unit '{self.id}': stops must be >= 0 and finite")

    @property
    def weight_kg(self) -> float:
        return self.avg_weight_kg * self.stops


def dominant_index(units, shares) -> int:
    """Index of the heaviest-per-stop unit present (stops > 0 and a share
    > 0), the first among ties; -1 when none is.  That unit's footprint
    limits a vehicle's usable capacity."""
    best = -1
    for j, (unit, share) in enumerate(zip(units, shares)):
        if share > 0 and unit.stops > 0 and (
                best < 0 or unit.avg_weight_kg > units[best].avg_weight_kg):
            best = j
    return best


@dataclass(frozen=True)
class DemandProfile:
    """Daily demand: total weight and stop count, optionally broken into units."""

    units: tuple[DeliveryUnitType, ...] = ()
    total_weight_kg: float = 0.0
    total_stops: float = 0.0

    def __post_init__(self):
        if not (self.total_weight_kg >= 0 and self.total_stops >= 0):
            raise DomainError("demand totals must be >= 0")
        if self.units:
            w = math.fsum(u.weight_kg for u in self.units)
            s = math.fsum(u.stops for u in self.units)
            if not (math.isclose(w, self.total_weight_kg, rel_tol=_REL_TOL, abs_tol=1e-9)
                    and math.isclose(s, self.total_stops, rel_tol=_REL_TOL, abs_tol=1e-9)):
                raise DomainError(
                    f"demand totals ({self.total_weight_kg} kg, {self.total_stops} stops) "
                    f"do not match unit breakdown ({w} kg, {s} stops)")

    @classmethod
    def from_units(cls, units) -> "DemandProfile":
        units = tuple(units)
        return cls(units=units,
                   total_weight_kg=math.fsum(u.weight_kg for u in units),
                   total_stops=math.fsum(u.stops for u in units))

    def dominant_unit(self) -> DeliveryUnitType | None:
        """Heaviest-per-stop unit present; governs footprint-limited capacity."""
        j = dominant_index(self.units, (1.0,) * len(self.units))
        return self.units[j] if j >= 0 else None

    def scale(self, factor: float) -> "DemandProfile":
        """Scale stop counts (and hence weight) by a factor, keeping unit mix."""
        if not factor >= 0:
            raise DomainError("scale factor must be >= 0")
        units = tuple(replace(u, stops=u.stops * factor) for u in self.units)
        if units:
            return DemandProfile.from_units(units)
        return DemandProfile(total_weight_kg=self.total_weight_kg * factor,
                             total_stops=self.total_stops * factor)


@dataclass(frozen=True, slots=True)
class NetworkParams:
    """Geometry and timing of one delivery layer."""

    radius_km: float          # average line-haul distance depot -> served area
    area_km2: float           # served area (per subregion where subdivided)
    stop_time_h: float
    daganzo_k: float = 0.57   # dispersion coefficient of the sqrt(A*N) term
    congestion_factor: float = 1.0
    shift_duration_h: float = 8.0
    lead_time_h: float = 24.0

    def __post_init__(self):
        for name in ("radius_km", "area_km2", "stop_time_h", "daganzo_k",
                     "shift_duration_h", "lead_time_h"):
            if not 0 < getattr(self, name) < _INF:
                raise DomainError(f"params.{name} must be > 0 and finite")
        if not 1 <= self.congestion_factor < _INF:
            raise DomainError("params.congestion_factor must be >= 1 and finite")
        if self.lead_time_h > 24:
            raise DomainError("params.lead_time_h must be <= 24")


@dataclass(frozen=True, slots=True)
class ExternalCostFactors:
    """Monetized external impacts per vehicle-kilometre."""

    accident: float
    air_pollution: float
    climate_change: float
    noise: float
    congestion: float

    def __post_init__(self):
        for name in EXTERNAL_CATEGORIES:
            if not 0 <= getattr(self, name) < _INF:
                raise DomainError(f"external factor '{name}' must be >= 0 and finite")

    @property
    def total(self) -> float:
        return math.fsum(getattr(self, name) for name in EXTERNAL_CATEGORIES)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in EXTERNAL_CATEGORIES}

    def amounts(self, distance_km: float) -> list[float]:
        """Each category's rate times the distance, in EXTERNAL_CATEGORIES order."""
        return [rate * distance_km for rate in _rates(self)]


# European road-freight externality rates (INFRAS/IWW per v.km; congestion
# rate from the TU Delft study), summing to 61.6 per v.km.
DEFAULT_EXTERNAL_FACTORS = ExternalCostFactors(
    accident=3.4, air_pollution=20.5, climate_change=6.3, noise=27.4, congestion=4.0)


@dataclass(frozen=True, slots=True)
class TourPlan:
    """Fixed-point solution for one (vehicle, demand) pair; time_h is the
    hours on the road plus the hours stopped, the shift ceiling's numerator."""

    vehicle: VehicleType
    tours: int
    distance_km: float
    time_h: float
    binding_constraint: BindingConstraint


def merge_tallies(tallies) -> dict:
    """Per-key sums of the given dicts, taken in their order; keys in first-seen order."""
    out = {}
    for tally in tallies:
        for k, v in tally.items():
            out[k] = out.get(k, 0) + v
    return out


# One layer's totals: the column sums KpiReport.from_rows adds up (distance,
# hours, distance cost, time cost, handling, loaded weight, fill rate x loaded
# weight, then external cost per category), fill rate, tours, fractional tours.
TotalsRow = tuple[tuple[float, ...], float, dict[str, int], dict[str, float]]


@dataclass(frozen=True)
class KpiReport:
    """Daily performance of a layer or scheme.

    transport_cost, external_cost_total and total_cost are derived, so the
    identities transport = distance + time cost and external total = sum of
    categories hold exactly by construction.
    """

    total_distance_km: float = 0.0
    total_time_h: float = 0.0
    distance_cost: float = 0.0
    time_cost: float = 0.0
    handling_cost: float = 0.0
    external_by_category: dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in EXTERNAL_CATEGORIES})
    fill_rate: float = 0.0
    loaded_weight_kg: float = 0.0
    tours_by_vehicle: dict[str, int] = field(default_factory=dict)
    tours_fractional_by_vehicle: dict[str, float] = field(default_factory=dict)

    @property
    def transport_cost(self) -> float:
        return self.distance_cost + self.time_cost

    @property
    def external_cost_total(self) -> float:
        return math.fsum(self.external_by_category.values())

    @property
    def total_cost(self) -> float:
        return self.transport_cost + self.handling_cost

    @property
    def total_tours(self) -> int:
        return sum(self.tours_by_vehicle.values())

    @classmethod
    def from_row(cls, row: TotalsRow) -> "KpiReport":
        """The report of one totals row, as schemes.layer_totals returns it."""
        (dist, time_h, dist_cost, time_cost, handling, loaded, _, *ext), fill, tours, frac = row
        return cls(dist, time_h, dist_cost, time_cost, handling,
                   dict(zip(EXTERNAL_CATEGORIES, ext)), fill, loaded, tours, frac)

    @classmethod
    def from_rows(cls, rows: list[TotalsRow], tours: dict[str, int] | None = None,
                  frac: dict[str, float] | None = None) -> "KpiReport":
        """Sum of one or more totals rows: one fsum per column, the fill rate
        weighted by each row's loaded weight, each tour dict the merge_tallies
        of the rows' own, unless both are passed in already merged."""
        if tours is None:
            tours = merge_tallies(row[2] for row in rows)
            frac = merge_tallies(row[3] for row in rows)
        sums = tuple(map(math.fsum, zip(*[row[0] for row in rows])))
        loaded, fill_weight = sums[5], sums[6]
        return cls.from_row((sums, fill_weight / loaded if loaded > 0 else 0.0, tours, frac))


@dataclass(frozen=True)
class SaConfig:
    """Annealing schedule of citydist.optimize, here so scenarios load it
    without the optimizer.  Each restart derives its temperatures from its
    starting energy E0: initial = max(0.1 |E0|, 1e-6), minimum = 1e-4 of the
    initial.  The default 20 steps per temperature suffice because every
    vertex allocation is scored as a seed before the walks start."""

    seed: int = 0
    cooling_rate: float = 0.95
    steps_per_temperature: int = 20
    restarts: int = 5

    def __post_init__(self):
        if not (0 < self.cooling_rate < 1):
            raise DomainError("cooling_rate must be in (0, 1)")
        if self.steps_per_temperature < 1 or self.restarts < 1:
            raise DomainError("steps_per_temperature and restarts must be >= 1")


def _spread(params: NetworkParams, stops: float) -> float:
    """The dispersion term k*sqrt(A*N) of a route, snapped to _SPREAD_QUANTUM."""
    return round(params.daganzo_k * math.sqrt(params.area_km2 * stops)
                 / _SPREAD_QUANTUM) * _SPREAD_QUANTUM


def route_distance(tours: float, stops: float, params: NetworkParams) -> float:
    """Estimated daily route length: 2*r*m line haul plus k*sqrt(A*N) dispersion."""
    if tours < 0 or stops < 0:
        raise DomainError("route_distance: tours and stops must be >= 0")
    return 2.0 * params.radius_km * tours + _spread(params, stops)


def effective_capacity(vehicle: VehicleType, unit: DeliveryUnitType | None) -> float:
    """Payload per tour, the one payload-limit rule: the weight limit, capped by the
    footprint positions filled with the unit (a demand's dominant unit) unless it is None."""
    if unit is None:
        return vehicle.capacity_kg
    return min(vehicle.capacity_kg, vehicle.max_units_footprint * unit.avg_weight_kg)


def _closed_form_floor(two_r: float, v_eff: float, budget: float, intercept: float) -> int:
    """A tour count just below the least m >= ceil(b*m + intercept/budget),
    b = 2r/(v_eff*budget): that m is intercept/(budget*(1 - b)) rounded up,
    and the -1 absorbs rounding.  0 when the slope b is at least 1."""
    slope = two_r / (v_eff * budget)
    if slope >= 1.0:
        return 0
    return math.floor(intercept / (budget * (1.0 - slope))) - 1


def _solve_fixed_point(weight: float, stops: float, cap_limit: float, v_eff: float,
                       params: NetworkParams,
                       vehicle_id: str) -> tuple[int, float, float, BindingConstraint]:
    """Least fixed point of m -> max(0, capacity, shift, lead-time ceilings),
    as (tours, route length, hours, binding constraint).

    The ceilings are
      capacity  ceil(weight / cap_limit)
      shift     ceil((d/v_eff + stop_time*stops) / shift_duration)
      lead      ceil(((d - r)/v_eff + stop_time*(stops - 1)) / lead_time)
    on the route length d = 2*r*m + spread.  Only d varies with m, so the
    capacity ceiling and the stop-time terms are computed once.  The hours
    returned are the shift ceiling's numerator at the fixed point; with
    v_eff = speed_kmh / congestion_factor they equal
    travel_and_stop_time(d, stops, ...) bit for bit.  This is the annealer's
    innermost call: keep it free of per-iteration allocations.

    The map is monotone, so iterating it from the capacity ceiling, or from
    any count below the least fixed point, climbs to that point.  The first
    count is the capacity ceiling; when both time ceilings are met there, as
    for nearly every plan the annealer scores, it is returned, bound by
    capacity, after that one evaluation.  A time ceiling is affine in m with
    slope b = 2r/(v_eff*budget): at b >= 1 it can never be caught once
    ahead, which proves divergence; below 1 its own least fixed point has a
    closed form.  So when the first count falls short, the walk jumps once
    to just below the largest of those closed forms and climbs the last few
    steps.  Within ~1e-7 of slope 1 (10^7 tours and more) rounding blurs
    where the ceilings are first met: the count returned then meets every
    ceiling but may not be the least that does.
    """
    spread = _spread(params, stops)
    radius = params.radius_km
    two_r = 2.0 * radius
    shift_h = params.shift_duration_h
    lead_h = params.lead_time_h
    stop_shift = params.stop_time_h * stops
    stop_lead = params.stop_time_h * (stops - 1)
    ceil = math.ceil
    m = cap = ceil(weight / cap_limit)  # weight >= 0, so the first count is >= 0
    while True:
        d = two_r * m + spread
        hours = d / v_eff + stop_shift
        shift = ceil(hours / shift_h)
        lead = ceil(((d - radius) / v_eff + stop_lead) / lead_h)
        if shift <= m >= lead:  # the first of the ceilings equal to m binds
            return m, d, hours, (
                _CAPACITY if m == cap else BindingConstraint.SHIFT if shift == m
                else BindingConstraint.LEAD_TIME if lead == m else _CAPACITY)
        # Per-tour line haul measured against each time budget; a ceiling whose
        # requirement grows at least as fast as m can never be caught once ahead.
        if shift > m and two_r / (v_eff * shift_h) >= 1.0:
            raise InfeasibleError(vehicle_id, BindingConstraint.SHIFT,
                                  f"round trip exceeds the shift budget at any tour count (m >= {m})")
        if lead > m and two_r / (v_eff * lead_h) >= 1.0:
            raise InfeasibleError(vehicle_id, BindingConstraint.LEAD_TIME,
                                  f"round trip exceeds the lead-time budget at any tour count (m >= {m})")
        if m == cap:  # every later count is above the first
            m = start = max(
                shift, lead,
                _closed_form_floor(two_r, v_eff, shift_h, spread / v_eff + stop_shift),
                _closed_form_floor(two_r, v_eff, lead_h, (spread - radius) / v_eff + stop_lead))
        else:
            # Rounding can hold a slope within ~1e-11 of 1 one tour above m
            # for millions of steps: past 64 tours beyond the jump, the
            # stride doubles instead.
            m = max(shift, lead, 2 * m - start - 64)


def solve_tour_plan(vehicle: VehicleType, demand: DemandProfile, params: NetworkParams,
                    cap_limit: float | None = None) -> TourPlan:
    """Smallest tour count satisfying capacity, shift and lead-time ceilings.

    The ceilings depend on the route length, which grows with the tour count,
    so the solution is the least fixed point of m -> max(ceilings(d(m))).
    A plan is infeasible only when a time ceiling provably diverges: its
    round trip alone takes at least the whole budget, so no tour count
    catches it; the InfeasibleError names that constraint.  cap_limit, the
    payload per tour, defaults to effective_capacity for the dominant unit.
    Hours are the solver's; zero demand's fixed point is 0 tours, 0.0 km, 0.0 h.
    """
    if cap_limit is None:
        cap_limit = effective_capacity(vehicle, demand.dominant_unit())
    v_eff = vehicle.speed_kmh / params.congestion_factor
    return TourPlan(vehicle, *_solve_fixed_point(demand.total_weight_kg, demand.total_stops,
                                                 cap_limit, v_eff, params, vehicle.id))


def travel_and_stop_time(distance_km: float, stops: float, vehicle: VehicleType,
                         params: NetworkParams) -> float:
    """Hours on the road plus hours stopped, for one vehicle type's daily plan."""
    v_eff = vehicle.speed_kmh / params.congestion_factor
    return distance_km / v_eff + params.stop_time_h * stops


def fill_rate(loaded_weight_kg: float, vehicle: VehicleType, cap: float, tours: int) -> float:
    """Departure load per tour over the usable payload cap, in [0, 1]."""
    if loaded_weight_kg < 0:
        raise DomainError("fill_rate: loaded weight must be >= 0")
    if loaded_weight_kg == 0:
        return 0.0
    if tours < 1:
        raise DomainError("fill_rate: tours must be >= 1 when there is load")
    per_tour = loaded_weight_kg / tours
    if per_tour > cap * (1.0 + _REL_TOL):
        raise ConsistencyError(
            f"load per tour ({per_tour:.1f} kg) exceeds effective capacity "
            f"({cap:.1f} kg) of vehicle '{vehicle.id}'")
    return min(1.0, per_tour / cap)
