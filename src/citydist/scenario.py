"""Scenario files: a YAML document describing vehicles, demand and schemes.

Loading validates every cross-reference and domain invariant up front and
reports the offending path inside the document.  Error classes:

* ScenarioParseError      -- syntax, wrong types, unknown or missing fields
* ScenarioReferenceError  -- dangling or duplicate identifiers
* ScenarioInvariantError  -- values violating a domain invariant

Emitting writes a canonical form (defaults materialized, fixed key order), so
load -> emit -> load is a fixpoint and identical runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from .model import (
    DeliveryUnitType,
    DemandProfile,
    DomainError,
    ExternalCostFactors,
    NetworkParams,
    TemperatureClass,
    VehicleType,
)
from .optimize import SaConfig
from .schemes import SchemeSpec, Supplier, build_original, build_pi, build_ucc


class ScenarioError(Exception):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ScenarioParseError(ScenarioError):
    pass


class ScenarioReferenceError(ScenarioError):
    pass


class ScenarioInvariantError(ScenarioError):
    pass


_TOP_KEYS = {"name", "description", "network_defaults", "external_factors",
             "vehicles", "unit_classes", "suppliers", "schemes", "optimization", "sa"}
_VEHICLE_KEYS = {"id", "capacity_kg", "speed_kmh", "cost_per_km", "cost_per_hour",
                 "temperature_class", "max_units_footprint"}
_VEHICLE_REQUIRED = {"id", "capacity_kg", "speed_kmh", "cost_per_km", "cost_per_hour"}
_UNIT_KEYS = {"id", "avg_weight_kg"}
_SUPPLIER_KEYS = {"name", "temperature_classes", "pos_count", "fleet", "demand"}
_FLEET_KEYS = {"vehicle", "share"}
_DEMAND_KEYS = {"unit", "stops", "avg_weight_kg"}
_PARAM_KEYS = {"radius_km", "area_km2", "stop_time_h", "daganzo_k",
               "congestion_factor", "shift_duration_h", "lead_time_h"}
_SCHEME_KEYS_COMMON = {"name", "type"}
_SCHEME_KEYS = {
    "original": _SCHEME_KEYS_COMMON | {"params"},
    "ucc": _SCHEME_KEYS_COMMON | {"shuttle_vehicle", "city_vehicle", "shuttle_params",
                                  "city_params", "handling_cost_per_delivery"},
    "pi": _SCHEME_KEYS_COMMON | {"shuttle_vehicle", "city_vehicle", "shuttle_params",
                                 "city_params", "handling_cost_per_delivery",
                                 "hub_count", "shuttle_tours_per_hub",
                                 "consolidate_inbound", "hub_weights"},
}
_EXTERNAL_KEYS = {"accident", "air_pollution", "climate_change", "noise", "congestion"}
_SA_KEYS = {"seed", "initial_temperature", "cooling_rate", "steps_per_temperature",
            "min_temperature", "restarts", "penalty_weight", "grid_step"}
_OPT_KEYS = {"vehicles"}

# libyaml's parser with the same safe constructor and resolver as
# yaml.SafeLoader; the pure-Python parser only where PyYAML lacks libyaml.
_YamlLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _typed(v, kind: type, label: str, path: str):
    if not isinstance(v, kind):
        raise ScenarioParseError(path, f"expected {label}, got {type(v).__name__}")
    return v


def _require_mapping(node, path: str) -> dict:
    return _typed(node, dict, "a mapping", path)


def _require_list(node, path: str) -> list:
    return _typed(node, list, "a list", path)


def _check_keys(node: dict, allowed: set, required: set, path: str):
    unknown = set(node) - allowed
    if unknown:
        raise ScenarioParseError(path, f"unknown field(s): {', '.join(sorted(unknown))}")
    missing = required - set(node)
    if missing:
        raise ScenarioParseError(path, f"missing required field(s): {', '.join(sorted(missing))}")


def _finite(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioParseError(path, "expected a number")
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ScenarioParseError(path, "expected a finite number")
    return v


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioParseError(path, "expected an integer")
    return v


def _name(v, path: str) -> str:
    """An identifier or a reference to one; checked before any lookup, since
    a list or a mapping cannot be a dict key."""
    if not isinstance(v, str) or not v:
        raise ScenarioParseError(path, "expected a non-empty string")
    return v


def _temperature_class(v, path: str) -> TemperatureClass:
    if _name(v, path) not in TemperatureClass.__members__:
        raise ScenarioParseError(path, f"unknown temperature class '{v}'")
    return TemperatureClass(v)


def _number(node: dict, key: str, path: str, default=None):
    if key not in node:
        if default is not None:
            return default
        raise ScenarioParseError(path, f"missing required field(s): {key}")
    return _finite(node[key], f"{path}.{key}")


@dataclass
class SupplierRecord:
    supplier: Supplier
    pos_count: int | None = None


@dataclass
class Scenario:
    """A fully validated scenario document."""

    name: str
    description: str
    network_defaults: dict[str, float]
    external_factors: ExternalCostFactors
    vehicles: dict[str, VehicleType]
    unit_classes: dict[str, float]
    suppliers: list[SupplierRecord]
    scheme_templates: list[dict]
    optimization_vehicles: list[str]
    sa: SaConfig
    source_path: str | None = None

    def scheme_names(self) -> list[str]:
        return [t["name"] for t in self.scheme_templates]

    def params_from(self, block: dict) -> NetworkParams:
        merged = dict(self.network_defaults)
        merged.update(block)
        return NetworkParams(**merged)

    def scheme(self, name: str) -> SchemeSpec:
        template = next((t for t in self.scheme_templates if t["name"] == name), None)
        if template is None:
            raise ScenarioReferenceError(f"schemes.{name}",
                                         f"scheme '{name}' is not defined; "
                                         f"available: {', '.join(self.scheme_names())}")
        suppliers = [rec.supplier for rec in self.suppliers]
        kind = template["type"]
        if kind == "original":
            return build_original(suppliers, params=self.params_from(template["params"]),
                                  external_factors=self.external_factors, name=name)
        shuttle = self.vehicles[template["shuttle_vehicle"]]
        city = self.vehicles[template["city_vehicle"]]
        common = dict(
            shuttle_params=self.params_from(template["shuttle_params"]),
            city_params=self.params_from(template["city_params"]),
            handling_cost_per_delivery=template.get("handling_cost_per_delivery", 10.0),
            external_factors=self.external_factors,
            name=name,
        )
        if kind == "ucc":
            return build_ucc(suppliers, shuttle, city, **common)
        hub_weights = template.get("hub_weights")
        return build_pi(
            suppliers, shuttle, city,
            hub_count=template.get("hub_count", 2),
            shuttle_tours_per_hub=template.get("shuttle_tours_per_hub"),
            consolidate_inbound=template.get("consolidate_inbound", False),
            hub_weights=tuple(hub_weights) if hub_weights else None,
            **common)

    def to_dict(self) -> dict:
        """Canonical nested representation with defaults materialized."""
        return {
            "name": self.name,
            "description": self.description,
            "network_defaults": {k: self.network_defaults[k]
                                 for k in sorted(self.network_defaults)},
            "external_factors": self.external_factors.as_dict(),
            "vehicles": [
                {"id": v.id, "capacity_kg": v.capacity_kg, "speed_kmh": v.speed_kmh,
                 "cost_per_km": v.cost_per_km, "cost_per_hour": v.cost_per_hour,
                 "temperature_class": v.temperature_class.value,
                 "max_units_footprint": v.max_units_footprint}
                for v in self.vehicles.values()],
            "unit_classes": [{"id": k, "avg_weight_kg": w}
                             for k, w in self.unit_classes.items()],
            "suppliers": [
                {"name": rec.supplier.name,
                 "temperature_classes": [c.value for c in rec.supplier.temperature_classes],
                 "pos_count": rec.pos_count,
                 "fleet": [{"vehicle": v.id, "share": share}
                           for v, share in rec.supplier.fleet_shares],
                 "demand": [{"unit": u.id.split(":", 1)[1], "stops": u.stops,
                             "avg_weight_kg": u.avg_weight_kg}
                            for u in rec.supplier.demand.units]}
                for rec in self.suppliers],
            "schemes": self.scheme_templates,
            "optimization": {"vehicles": self.optimization_vehicles},
            "sa": {
                "seed": self.sa.seed,
                "initial_temperature": self.sa.initial_temperature,
                "cooling_rate": self.sa.cooling_rate,
                "steps_per_temperature": self.sa.steps_per_temperature,
                "min_temperature": self.sa.min_temperature,
                "restarts": self.sa.restarts,
                "penalty_weight": self.sa.penalty_weight,
                "grid_step": self.sa.grid_step,
            },
        }


def _parse_external(node, path: str) -> ExternalCostFactors:
    node = _require_mapping(node, path)
    _check_keys(node, _EXTERNAL_KEYS, _EXTERNAL_KEYS, path)
    try:
        return ExternalCostFactors(**{k: _number(node, k, path) for k in _EXTERNAL_KEYS})
    except DomainError as exc:
        raise ScenarioInvariantError(path, str(exc)) from exc


def _parse_vehicles(node, path: str) -> dict[str, VehicleType]:
    vehicles: dict[str, VehicleType] = {}
    for i, item in enumerate(_require_list(node, path)):
        p = f"{path}[{i}]"
        item = _require_mapping(item, p)
        _check_keys(item, _VEHICLE_KEYS, _VEHICLE_REQUIRED, p)
        vid = _name(item["id"], f"{p}.id")
        p = f"{path}[{vid}]"
        if vid in vehicles:
            raise ScenarioReferenceError(p, f"duplicate vehicle id '{vid}'")
        footprint = _integer(item.get("max_units_footprint", 33),
                             f"{p}.max_units_footprint")
        tclass = _temperature_class(item.get("temperature_class", "A"),
                                    f"{p}.temperature_class")
        try:
            vehicles[vid] = VehicleType(
                id=vid,
                capacity_kg=_number(item, "capacity_kg", p),
                speed_kmh=_number(item, "speed_kmh", p),
                cost_per_km=_number(item, "cost_per_km", p),
                cost_per_hour=_number(item, "cost_per_hour", p),
                temperature_class=tclass,
                max_units_footprint=footprint,
            )
        except DomainError as exc:
            raise ScenarioInvariantError(p, str(exc)) from exc
    if not vehicles:
        raise ScenarioParseError(path, "at least one vehicle is required")
    return vehicles


def _parse_unit_classes(node, path: str) -> dict[str, float]:
    classes: dict[str, float] = {}
    for i, item in enumerate(_require_list(node, path)):
        p = f"{path}[{i}]"
        item = _require_mapping(item, p)
        _check_keys(item, _UNIT_KEYS, _UNIT_KEYS, p)
        uid = _name(item["id"], f"{p}.id")
        if uid in classes:
            raise ScenarioReferenceError(f"{path}[{uid}]", f"duplicate unit class '{uid}'")
        w = _number(item, "avg_weight_kg", p)
        if w <= 0:
            raise ScenarioInvariantError(f"{p}.avg_weight_kg", "must be > 0")
        classes[uid] = w
    if not classes:
        raise ScenarioParseError(path, "at least one unit class is required")
    return classes


def _covered(supplier_classes, fleet_vehicles) -> bool:
    # single-class demand needs a matching vehicle (a tri-temperature vehicle
    # covers ambient/fresh/frozen); mixed-class demand rides in temperature
    # containers inside any vehicle
    if len(supplier_classes) >= 2:
        return True
    c = supplier_classes[0]
    for v in fleet_vehicles:
        if v.temperature_class == c:
            return True
        if v.temperature_class == TemperatureClass.T and c in (
                TemperatureClass.A, TemperatureClass.F, TemperatureClass.S):
            return True
    return False


def _parse_suppliers(node, path: str, vehicles: dict[str, VehicleType],
                     unit_classes: dict[str, float]) -> list[SupplierRecord]:
    out: list[SupplierRecord] = []
    names = set()
    for i, item in enumerate(_require_list(node, path)):
        p = f"{path}[{i}]"
        item = _require_mapping(item, p)
        _check_keys(item, _SUPPLIER_KEYS, {"name", "fleet", "demand"}, p)
        sname = _name(item["name"], f"{p}.name")
        p = f"{path}[{sname}]"
        if sname in names:
            raise ScenarioReferenceError(p, f"duplicate supplier '{sname}'")
        names.add(sname)

        tclasses = tuple(
            _temperature_class(c, f"{p}.temperature_classes[{k}]") for k, c in
            enumerate(_require_list(item.get("temperature_classes", ["A"]),
                                    f"{p}.temperature_classes")))

        shares = []
        for k, entry in enumerate(_require_list(item["fleet"], f"{p}.fleet")):
            ep = f"{p}.fleet[{k}]"
            entry = _require_mapping(entry, ep)
            _check_keys(entry, _FLEET_KEYS, {"vehicle"}, ep)
            vid = _name(entry["vehicle"], f"{ep}.vehicle")
            if vid not in vehicles:
                raise ScenarioReferenceError(f"{ep}.vehicle", f"unknown vehicle '{vid}'")
            shares.append((vehicles[vid], _number(entry, "share", ep, default=1.0)))

        units = []
        seen_units = set()
        for k, row in enumerate(_require_list(item["demand"], f"{p}.demand")):
            rp = f"{p}.demand[{k}]"
            row = _require_mapping(row, rp)
            _check_keys(row, _DEMAND_KEYS, {"unit", "stops"}, rp)
            uid = _name(row["unit"], f"{rp}.unit")
            if uid not in unit_classes:
                raise ScenarioReferenceError(f"{rp}.unit", f"unknown unit class '{uid}'")
            if uid in seen_units:
                raise ScenarioReferenceError(f"{rp}.unit",
                                             f"duplicate demand row for unit '{uid}'")
            seen_units.add(uid)
            stops = _number(row, "stops", rp)
            avg_w = _number(row, "avg_weight_kg", rp, default=unit_classes[uid])
            try:
                units.append(DeliveryUnitType(id=f"{sname}:{uid}",
                                              avg_weight_kg=avg_w, stops=stops))
            except DomainError as exc:
                raise ScenarioInvariantError(rp, str(exc)) from exc

        try:
            supplier = Supplier(name=sname, demand=DemandProfile.from_units(units),
                                fleet_shares=tuple(shares),
                                temperature_classes=tclasses)
        except DomainError as exc:
            raise ScenarioInvariantError(p, str(exc)) from exc
        if not _covered(supplier.temperature_classes,
                        [v for v, _ in supplier.fleet_shares]):
            raise ScenarioInvariantError(
                f"{p}.fleet", f"no vehicle covers temperature class "
                f"'{supplier.temperature_classes[0].value}'")
        pos = item.get("pos_count")
        if pos is not None and _integer(pos, f"{p}.pos_count") < 0:
            raise ScenarioParseError(f"{p}.pos_count", "expected a nonnegative integer")
        out.append(SupplierRecord(supplier=supplier, pos_count=pos))
    if not out:
        raise ScenarioParseError(path, "at least one supplier is required")
    return out


def _parse_params_block(node, path: str) -> dict:
    node = _require_mapping(node, path)
    _check_keys(node, _PARAM_KEYS, set(), path)
    return {k: _number(node, k, path) for k in node}


def _parse_schemes(node, path: str, vehicles: dict[str, VehicleType]) -> list[dict]:
    out = []
    names = set()
    for i, item in enumerate(_require_list(node, path)):
        p = f"{path}[{i}]"
        item = _require_mapping(item, p)
        kind = item.get("type")
        if not isinstance(kind, str) or kind not in _SCHEME_KEYS:
            raise ScenarioParseError(f"{p}.type",
                                     f"expected one of {sorted(_SCHEME_KEYS)}, got {kind!r}")
        _check_keys(item, _SCHEME_KEYS[kind],
                    _SCHEME_KEYS_COMMON | ({"params"} if kind == "original" else
                                           {"shuttle_vehicle", "city_vehicle",
                                            "shuttle_params", "city_params"}), p)
        name = _name(item["name"], f"{p}.name")
        p = f"{path}[{name}]"
        if name in names:
            raise ScenarioReferenceError(p, f"duplicate scheme '{name}'")
        names.add(name)
        template = {"name": name, "type": kind}
        if kind == "original":
            template["params"] = _parse_params_block(item["params"], f"{p}.params")
        else:
            for ref in ("shuttle_vehicle", "city_vehicle"):
                if _name(item[ref], f"{p}.{ref}") not in vehicles:
                    raise ScenarioReferenceError(f"{p}.{ref}", f"unknown vehicle '{item[ref]}'")
                template[ref] = item[ref]
            template["shuttle_params"] = _parse_params_block(item["shuttle_params"],
                                                             f"{p}.shuttle_params")
            template["city_params"] = _parse_params_block(item["city_params"],
                                                          f"{p}.city_params")
            template["handling_cost_per_delivery"] = _number(
                item, "handling_cost_per_delivery", p, default=10.0)
        if kind == "pi":
            hubs = _integer(item.get("hub_count", 2), f"{p}.hub_count")
            if hubs < 1:
                raise ScenarioInvariantError(f"{p}.hub_count", "must be an integer >= 1")
            template["hub_count"] = hubs
            tours = item.get("shuttle_tours_per_hub")
            if tours is not None and _integer(tours, f"{p}.shuttle_tours_per_hub") < 1:
                raise ScenarioInvariantError(f"{p}.shuttle_tours_per_hub",
                                             "must be an integer >= 1 (or omitted)")
            template["shuttle_tours_per_hub"] = tours
            template["consolidate_inbound"] = _typed(item.get("consolidate_inbound", False),
                                                      bool, "a boolean",
                                                      f"{p}.consolidate_inbound")
            weights = item.get("hub_weights")
            if weights is not None:
                weights = [_finite(w, f"{p}.hub_weights[{k}]") for k, w in
                           enumerate(_require_list(weights, f"{p}.hub_weights"))]
                if not math.isclose(math.fsum(weights), 1.0, rel_tol=0, abs_tol=1e-9):
                    raise ScenarioInvariantError(
                        f"{p}.hub_weights",
                        f"hub demand split sums to {math.fsum(weights)}, "
                        "but every row of demand shares must sum to 1")
            template["hub_weights"] = weights
        out.append(template)
    return out


def _parse_sa(node, path: str) -> SaConfig:
    if node is None:
        return SaConfig()
    node = _require_mapping(node, path)
    _check_keys(node, _SA_KEYS, set(), path)
    kwargs = {}
    for key in _SA_KEYS:
        if key in node and node[key] is not None:
            v = node[key]
            if key in ("seed", "steps_per_temperature", "restarts"):
                kwargs[key] = _integer(v, f"{path}.{key}")
            else:
                kwargs[key] = _number(node, key, path)
    try:
        return SaConfig(**kwargs)
    except DomainError as exc:
        raise ScenarioInvariantError(path, str(exc)) from exc


def parse_scenario(doc: dict, source_path: str | None = None) -> Scenario:
    doc = _require_mapping(doc, "scenario")
    _check_keys(doc, _TOP_KEYS, {"name", "external_factors", "vehicles",
                                 "unit_classes", "suppliers", "schemes"}, "scenario")
    defaults_node = doc.get("network_defaults", {})
    defaults = _parse_params_block(defaults_node, "network_defaults") if defaults_node else {}
    vehicles = _parse_vehicles(doc["vehicles"], "vehicles")
    unit_classes = _parse_unit_classes(doc["unit_classes"], "unit_classes")
    suppliers = _parse_suppliers(doc["suppliers"], "suppliers", vehicles, unit_classes)
    schemes = _parse_schemes(doc["schemes"], "schemes", vehicles)

    opt_node = doc.get("optimization", {"vehicles": []})
    opt_node = _require_mapping(opt_node, "optimization")
    _check_keys(opt_node, _OPT_KEYS, set(), "optimization")
    opt_vehicles = [str(v) for v in _require_list(opt_node.get("vehicles", []),
                                                  "optimization.vehicles")]
    for v in opt_vehicles:
        if v not in vehicles:
            raise ScenarioReferenceError("optimization.vehicles", f"unknown vehicle '{v}'")

    scenario = Scenario(
        name=_typed(doc["name"], str, "a string", "name"),
        description=_typed(doc.get("description", ""), str, "a string", "description"),
        network_defaults=defaults,
        external_factors=_parse_external(doc["external_factors"], "external_factors"),
        vehicles=vehicles,
        unit_classes=unit_classes,
        suppliers=suppliers,
        scheme_templates=schemes,
        optimization_vehicles=opt_vehicles,
        sa=_parse_sa(doc.get("sa"), "sa"),
        source_path=source_path,
    )
    # materialize every scheme once so layer-level invariants fail at load time
    for name in scenario.scheme_names():
        try:
            scenario.scheme(name)
        except DomainError as exc:
            raise ScenarioInvariantError(f"schemes[{name}]", str(exc)) from exc
    return scenario


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_YamlLoader)
    except OSError as exc:
        raise ScenarioParseError(str(path), f"cannot read scenario: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioParseError(str(path), f"invalid YAML: {exc}") from exc
    return parse_scenario(doc, source_path=str(path))


def emit_scenario(scenario: Scenario, path: str) -> None:
    text = yaml.safe_dump(scenario.to_dict(), sort_keys=False,
                          default_flow_style=False, allow_unicode=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
