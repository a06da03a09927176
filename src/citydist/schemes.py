"""Multi-echelon distribution schemes built from delivery layers.

A scheme is an ordered list of layers.  Analytical layers solve the tour
fixed point per (vehicle, demand) pair; fixed-shuttle layers run a known
number of round trips to consolidation nodes.  Three builders cover the
classic topologies: direct supplier delivery, a single consolidation
center, and transshipment hubs with subregions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .model import (
    EXTERNAL_CATEGORIES,
    ConsistencyError,
    DeliveryUnitType,
    DemandProfile,
    DomainError,
    ExternalCostFactors,
    InfeasibleError,
    KpiReport,
    NetworkParams,
    TemperatureClass,
    TotalsRow,
    VehicleType,
    _tour_times,
    effective_capacity,
    fill_rate,
    merge_tallies,
    solve_tour_plan,
)


class LayerMode(str, Enum):
    ANALYTICAL = "analytical"
    FIXED_SHUTTLE = "fixed_shuttle"


class FleetAssignment(NamedTuple):
    """One vehicle type serving one slice of a layer's demand.

    shuttle_tours pins the round-trip count in fixed-shuttle mode; None
    derives it from weight over effective capacity (at least one tour).
    Effective capacity follows from the demand's dominant unit.
    """

    vehicle: VehicleType
    demand: DemandProfile
    shuttle_tours: int | None = None


@dataclass(frozen=True)
class LayerSpec:
    """One echelon of a scheme.

    params.area_km2 is the area of a single subregion; results of the one
    evaluated subregion are multiplied by subregion_count.  The handling
    rate applies per delivery (stop) passing this layer's destination node.
    """

    name: str
    mode: LayerMode
    params: NetworkParams
    fleet: tuple[FleetAssignment, ...]
    handling_cost_per_delivery: float = 0.0
    subregion_count: int = 1

    def __post_init__(self):
        if self.subregion_count < 1:
            raise DomainError(f"layer '{self.name}': subregion_count must be >= 1")
        if self.handling_cost_per_delivery < 0:
            raise DomainError(f"layer '{self.name}': handling cost must be >= 0")


@dataclass(frozen=True)
class SchemeSpec:
    """A named distribution scheme: its layers in order and its external cost rates."""

    name: str
    layers: tuple[LayerSpec, ...]
    external_factors: ExternalCostFactors

    def __post_init__(self):
        if not self.layers:
            raise DomainError(f"scheme '{self.name}': needs at least one layer")


@dataclass(frozen=True)
class Supplier:
    """A shipper with its daily demand and the vehicle shares it uses."""

    name: str
    demand: DemandProfile
    fleet_shares: tuple[tuple[VehicleType, float], ...]
    temperature_classes: tuple[TemperatureClass, ...] = (TemperatureClass.A,)

    def __post_init__(self):
        if not self.fleet_shares:
            raise DomainError(f"supplier '{self.name}': needs at least one vehicle")
        total = math.fsum(share for _, share in self.fleet_shares)
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise DomainError(
                f"supplier '{self.name}': vehicle shares sum to {total}, expected 1")

    def assignments(self) -> tuple[FleetAssignment, ...]:
        """One assignment per vehicle with its share of the demand (1.0 scales to an equal one)."""
        return tuple(FleetAssignment(vehicle, self.demand.scale(share))
                     for vehicle, share in self.fleet_shares)


def merge_demands(demands) -> DemandProfile:
    units: list[DeliveryUnitType] = []
    direct_w = 0.0
    direct_s = 0.0
    for d in demands:
        if d.units:
            units.extend(d.units)
        else:
            direct_w += d.total_weight_kg
            direct_s += d.total_stops
    if units and (direct_w or direct_s):
        raise DomainError("cannot merge unit-based and total-only demands")
    if units:
        return DemandProfile.from_units(units)
    return DemandProfile(total_weight_kg=direct_w, total_stops=direct_s)


def capacity_limits(layer: LayerSpec) -> tuple[float, ...]:
    """Payload per tour of each assignment: effective_capacity for its demand's dominant unit."""
    return tuple(effective_capacity(a.vehicle, a.demand.dominant_unit()) for a in layer.fleet)


def layer_plans(layer: LayerSpec, params: NetworkParams, vehicles,
                cap_limits: tuple[float, ...]) -> list[tuple[int, float, float]]:
    """(tours, distance_km, hours) of each assignment, per subregion, with the
    given params and one vehicle per assignment in place of the layer's own.

    Analytical layers take them from the tour solver, whose InfeasibleError
    is raised again naming the layer; fixed-shuttle layers run their pinned
    round trips, or weight over capacity (at least one), and take their
    distance and hours from the solver's time rules, model._tour_times.
    """
    plans = []
    if layer.mode is LayerMode.ANALYTICAL:
        for a, vehicle, cap_limit in zip(layer.fleet, vehicles, cap_limits):
            try:
                plan = solve_tour_plan(vehicle, a.demand, params, cap_limit)
            except InfeasibleError as exc:
                raise InfeasibleError(exc.vehicle_id, exc.constraint,
                                      f"layer '{layer.name}'") from exc
            plans.append((plan.tours, plan.distance_km, plan.time_h))
        return plans
    for a, vehicle, cap_limit in zip(layer.fleet, vehicles, cap_limits):
        weight = a.demand.total_weight_kg
        if a.shuttle_tours is not None:
            tours = a.shuttle_tours
        elif weight > 0:
            tours = max(1, math.ceil(weight / cap_limit))
        else:
            tours = 0
        # round trips with no spread, and one stop at the destination node per trip
        dist, hours, _, _, _ = _tour_times(tours, 0.0, tours,
                                           vehicle.speed_kmh / params.congestion_factor, params)
        plans.append((tours, dist, hours))
    return plans


def layer_constants(layer: LayerSpec, cap_limits: tuple[float, ...]) -> tuple:
    """The part of a layer's totals that no params field or fleet speed changes:
    each assignment's (vehicle, weight, payload limit), the handling column, the
    loaded weight of one subregion, the fractional tours and subregion_count.
    The vehicles are read only for their ids and unit costs."""
    n = layer.subregion_count
    fleet = tuple((a.vehicle, a.demand.total_weight_kg, cap_limit)
                  for a, cap_limit in zip(layer.fleet, cap_limits))
    frac = merge_tallies({v.id: weight / cap} for v, weight, cap in fleet if weight > 0)
    stops = math.fsum(a.demand.total_stops for a in layer.fleet)
    return (fleet, layer.handling_cost_per_delivery * stops * n,
            math.fsum(weight for _, weight, _ in fleet), {k: v * n for k, v in frac.items()}, n)


def layer_totals(constants: tuple, plans,
                 factors: ExternalCostFactors | None) -> TotalsRow:
    """One layer's totals row from its constants and its assignments' plans:
    each column is one fsum over the assignments (fill rate weighted by load)
    plus handling, times subregion_count."""
    fleet, handling, loaded, frac, n = constants
    zeros = (0.0,) * len(EXTERNAL_CATEGORIES)
    tours: dict[str, int] = {}
    columns = []
    for (vehicle, weight, cap_limit), (m, dist, time_h) in zip(fleet, plans):
        fill = 0.0
        if m:
            tours[vehicle.id] = tours.get(vehicle.id, 0) + m
            fill = fill_rate(weight, vehicle, cap_limit, m)
        columns.append((dist, time_h, dist * vehicle.cost_per_km, time_h * vehicle.cost_per_hour,
                        fill * weight,
                        *(factors.amounts(dist) if factors is not None else zeros)))
    dist, time_h, dist_cost, time_cost, fill_weight, *ext = (
        map(math.fsum, zip(*columns)) if columns else (0.0,) * (5 + len(zeros)))
    fill = fill_weight / loaded if loaded > 0 else 0.0
    loaded *= n
    return ((dist * n, time_h * n, dist_cost * n, time_cost * n, handling, loaded, fill * loaded,
             *[v * n for v in ext]),
            fill, {k: v * n for k, v in tours.items()}, dict(frac))


def layer_row(layer: LayerSpec, factors: ExternalCostFactors | None = None) -> TotalsRow:
    """The totals row of one layer: its constants and plans, then layer_totals."""
    cap_limits = capacity_limits(layer)
    plans = layer_plans(layer, layer.params, [a.vehicle for a in layer.fleet], cap_limits)
    return layer_totals(layer_constants(layer, cap_limits), plans, factors)


def evaluate_layer(layer: LayerSpec,
                   factors: ExternalCostFactors | None = None) -> KpiReport:
    """KPIs of one layer: the report of its totals row."""
    return KpiReport.from_row(layer_row(layer, factors))


def evaluate_scheme(scheme: SchemeSpec) -> KpiReport:
    """Column sums over the layers' totals rows; fill rate weighted by each layer's load."""
    return KpiReport.from_rows([layer_row(layer, scheme.external_factors)
                                for layer in scheme.layers])


class ComparisonRow(NamedTuple):
    scheme: str
    report: KpiReport | None
    error: str | None = None


class ComparisonTable(NamedTuple):
    baseline: str
    rows: tuple[ComparisonRow, ...]

    def deltas_vs_baseline(self, row: ComparisonRow) -> dict[str, float | None]:
        base = next(r for r in self.rows if r.scheme == self.baseline)
        out: dict[str, float | None] = {}
        for kpi in ("total_distance_km", "total_time_h", "transport_cost",
                    "handling_cost", "total_cost", "external_cost_total", "fill_rate"):
            if base.report is None or row.report is None:
                out[kpi] = None
                continue
            b = getattr(base.report, kpi)
            v = getattr(row.report, kpi)
            out[kpi] = (v - b) / b * 100.0 if b != 0 else None
        return out


def compare_schemes(schemes, baseline_name: str | None = None) -> ComparisonTable:
    """Evaluate schemes side by side; infeasible ones are flagged, not fatal."""
    schemes = list(schemes)
    if len(schemes) < 2:
        raise DomainError("compare_schemes: need at least 2 schemes")
    baseline = schemes[0].name if baseline_name is None else baseline_name
    if baseline not in {s.name for s in schemes}:
        raise DomainError(f"compare_schemes: baseline '{baseline}' not among schemes")
    rows = []
    for s in schemes:
        try:
            rows.append(ComparisonRow(s.name, evaluate_scheme(s)))
        except InfeasibleError as exc:
            rows.append(ComparisonRow(s.name, None, error=str(exc)))
    return ComparisonTable(baseline=baseline, rows=tuple(rows))


def build_original(suppliers, params: NetworkParams,
                   external_factors: ExternalCostFactors, name: str) -> SchemeSpec:
    """Every supplier delivers independently: one analytical layer per
    supplier.  Every value comes from the caller (a scenario's template)."""
    suppliers = list(suppliers)
    if not suppliers:
        raise DomainError("build_original: empty supplier list")
    layers = tuple(
        LayerSpec(name=f"{s.name}_direct", mode=LayerMode.ANALYTICAL,
                  params=params, fleet=s.assignments())
        for s in suppliers)
    return SchemeSpec(name=name, layers=layers, external_factors=external_factors)


def build_ucc(suppliers, shuttle_vehicle: VehicleType, city_vehicle: VehicleType,
              shuttle_params: NetworkParams, city_params: NetworkParams,
              handling_cost_per_delivery: float,
              external_factors: ExternalCostFactors, name: str) -> SchemeSpec:
    """All demand consolidated at one center, then delivered city-wide.

    Layer 1 shuttles each supplier's goods to the center (tours from weight
    over shuttle capacity); layer 2 serves all stops analytically with the
    city vehicle.  Handling is charged per delivery at the center.  Every
    value comes from the caller (a scenario's template).
    """
    suppliers = list(suppliers)
    if not suppliers:
        raise DomainError("build_ucc: empty supplier list")
    inbound = LayerSpec(
        name="suppliers_to_center", mode=LayerMode.FIXED_SHUTTLE, params=shuttle_params,
        fleet=tuple(FleetAssignment(shuttle_vehicle, s.demand) for s in suppliers),
        handling_cost_per_delivery=handling_cost_per_delivery)
    consolidated = merge_demands(s.demand for s in suppliers)
    outbound = LayerSpec(
        name="center_to_stops", mode=LayerMode.ANALYTICAL, params=city_params,
        fleet=(FleetAssignment(city_vehicle, consolidated),))
    return SchemeSpec(name=name, layers=(inbound, outbound), external_factors=external_factors)


def build_pi(suppliers, shuttle_vehicle: VehicleType, city_vehicle: VehicleType,
             hub_count: int, shuttle_tours_per_hub: int | None,
             consolidate_inbound: bool, hub_weights: tuple[float, ...] | None,
             shuttle_params: NetworkParams, city_params: NetworkParams,
             handling_cost_per_delivery: float,
             external_factors: ExternalCostFactors, name: str) -> SchemeSpec:
    """Open-network transshipment hubs, one per subregion.

    Demand splits across hubs, equally when hub_weights is None.  With
    consolidate_inbound the inbound layer carries one pooled flow per hub,
    reflecting shared inbound transport; otherwise each supplier shuttles to
    each hub separately.  shuttle_tours_per_hub pins each inbound flow's
    round trips; None derives them from weight.  city_params.area_km2 is the
    area of one subregion.  Equal hub weights evaluate a single subregion
    scaled by hub_count; unequal weights get one city layer per hub.  Every
    value comes from the caller (a scenario's template).
    """
    suppliers = list(suppliers)
    if not suppliers:
        raise DomainError("build_pi: empty supplier list")
    if hub_count < 1:
        raise DomainError("build_pi: hub_count must be >= 1")
    if hub_weights is None:
        hub_weights = tuple(1.0 / hub_count for _ in range(hub_count))
    if len(hub_weights) != hub_count:
        raise DomainError("build_pi: one weight per hub required")
    if not math.isclose(math.fsum(hub_weights), 1.0, rel_tol=0, abs_tol=1e-9):
        raise DomainError(
            f"build_pi: hub demand split sums to {math.fsum(hub_weights)}, expected 1")
    consolidated = merge_demands(s.demand for s in suppliers)
    # each source is scaled once per distinct hub weight; hubs of one weight share it
    weights = set(hub_weights)
    pooled = {w: consolidated.scale(w) for w in weights}
    sources = [pooled] if consolidate_inbound else [
        {w: s.demand.scale(w) for w in weights} for s in suppliers]
    if shuttle_tours_per_hub is not None:  # the pinned count must carry each hub's load
        for demand in (d for shares in sources for d in shares.values()):
            cap = effective_capacity(shuttle_vehicle, demand.dominant_unit())
            try:
                fill_rate(demand.total_weight_kg, shuttle_vehicle, cap, shuttle_tours_per_hub)
            except (ConsistencyError, DomainError) as exc:
                raise DomainError(f"build_pi: shuttle_tours_per_hub ({shuttle_tours_per_hub}) "
                                  f"is too few for a hub's inbound load: {exc}") from exc
    inbound = LayerSpec(
        name="suppliers_to_hubs", mode=LayerMode.FIXED_SHUTTLE, params=shuttle_params,
        fleet=tuple(FleetAssignment(shuttle_vehicle, shares[w], shuttle_tours_per_hub)
                    for shares in sources for w in hub_weights),
        handling_cost_per_delivery=handling_cost_per_delivery)

    symmetric = all(math.isclose(w, hub_weights[0], rel_tol=0, abs_tol=1e-12)
                    for w in hub_weights)
    if symmetric:
        city_layers = (LayerSpec(
            name="hubs_to_stops", mode=LayerMode.ANALYTICAL, params=city_params,
            fleet=(FleetAssignment(city_vehicle, pooled[hub_weights[0]]),),
            subregion_count=hub_count),)
    else:
        city_layers = tuple(LayerSpec(
            name=f"hub{i + 1}_to_stops", mode=LayerMode.ANALYTICAL, params=city_params,
            fleet=(FleetAssignment(city_vehicle, pooled[w]),))
            for i, w in enumerate(hub_weights))
    return SchemeSpec(name=name, layers=(inbound, *city_layers),
                      external_factors=external_factors)
