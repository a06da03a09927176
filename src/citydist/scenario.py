"""Scenario files: a YAML document describing vehicles, demand and schemes.

Loading validates every cross-reference and domain invariant up front, builds
each scheme once (so a layer's invariants fail there too) and reports the
offending path inside the document.  One reader reads each model record by
its fields' types and leaves the rest to the record's defaults;
network_defaults is checked as NetworkParams, used or not.  Error classes:

* ScenarioParseError      -- syntax, wrong types, unknown or missing fields
* ScenarioReferenceError  -- dangling or duplicate identifiers
* ScenarioInvariantError  -- values violating a domain invariant

Emitting writes a canonical form (defaults materialized, fixed key order), so
load -> emit -> load is a fixpoint and identical runs are byte-identical.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields

import yaml

from .model import (
    DeliveryUnitType,
    DemandProfile,
    DomainError,
    ExternalCostFactors,
    NetworkParams,
    SaConfig,
    TemperatureClass,
    VehicleType,
)
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
_UNIT_KEYS = {"id", "avg_weight_kg"}
_SUPPLIER_KEYS = {"name", "temperature_classes", "pos_count", "fleet", "demand"}
_FLEET_KEYS = {"vehicle", "share"}
_DEMAND_KEYS = {"unit", "stops", "avg_weight_kg"}
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
_OPT_KEYS = {"vehicles"}
# A scenario's handling rate where its scheme gives none.
DEFAULT_HANDLING_COST_PER_DELIVERY = 10.0
# build_pi makes one demand weight, and one inbound assignment per supplier,
# for every hub: far larger counts only exhaust memory.
MAX_HUB_COUNT = 10_000

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


def _check_keys(node: dict, allowed, required, path: str):
    # YAML reads keys such as 1, yes and ~ as int, bool and None
    unknown = sorted(map(str, node.keys() - allowed))
    if unknown:
        raise ScenarioParseError(path, f"unknown field(s): {', '.join(unknown)}")
    missing = [key for key in required if key not in node]
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


# A model field's reader by its annotated type (a string: postponed annotations).
_READERS = {"float": _finite, "int": _integer, "str": _name,
            "TemperatureClass": _temperature_class}
# Per model record read here: its keys, those with no default, each field's reader.
_RECORDS = {record: ({f.name for f in fields(record)},
                     {f.name for f in fields(record) if f.default is MISSING},
                     {f.name: _READERS[f.type] for f in fields(record)})
            for record in (VehicleType, NetworkParams, ExternalCostFactors, SaConfig)}


def _keyed(record, node, path: str) -> dict:
    """node as a mapping with only record's fields, and each one that has no default."""
    allowed, required, _ = _RECORDS[record]
    node = _require_mapping(node, path)
    _check_keys(node, allowed, required, path)
    return node


def _record(record, node, path: str):
    """The record node describes: each given field read by its type, in
    field order, every other left to the record's default."""
    node = _keyed(record, node, path)
    kwargs = {name: read(node[name], f"{path}.{name}")
              for name, read in _RECORDS[record][2].items() if name in node}
    with _invariant(path):
        return record(**kwargs)


@contextmanager
def _invariant(path: str):
    """Report a model DomainError raised in the block at path."""
    try:
        yield
    except DomainError as exc:
        raise ScenarioInvariantError(path, str(exc)) from exc


def _number(node: dict, key: str, path: str, default=None):
    """node[key] as a finite number; default where node lacks the key
    (_check_keys has refused a missing required one)."""
    return _finite(node[key], f"{path}.{key}") if key in node else default


@dataclass
class SupplierRecord:
    supplier: Supplier
    pos_count: int | None = None


@dataclass
class Scenario:
    """A fully validated scenario document; schemes maps each name to the
    scheme built at load, scheme_templates keeps its form for to_dict."""

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
    schemes: dict[str, SchemeSpec]
    source_path: str | None = None

    def scheme_names(self) -> list[str]:
        return [t["name"] for t in self.scheme_templates]

    def scheme(self, name: str) -> SchemeSpec:
        scheme = self.schemes.get(name)
        if scheme is None:
            raise ScenarioReferenceError(f"schemes.{name}",
                                         f"scheme '{name}' is not defined; "
                                         f"available: {', '.join(self.scheme_names())}")
        return scheme

    def to_dict(self) -> dict:
        """Canonical nested representation with defaults materialized."""
        return {
            "name": self.name,
            "description": self.description,
            "network_defaults": {k: self.network_defaults[k]
                                 for k in sorted(self.network_defaults)},
            "external_factors": self.external_factors.as_dict(),
            "vehicles": [{**asdict(v), "temperature_class": v.temperature_class.value}
                         for v in self.vehicles.values()],
            "unit_classes": [{"id": k, "avg_weight_kg": w}
                             for k, w in self.unit_classes.items()],
            "suppliers": [
                {"name": rec.supplier.name,
                 "temperature_classes": [c.value for c in rec.supplier.temperature_classes],
                 "pos_count": rec.pos_count,
                 "fleet": [{"vehicle": v.id, "share": share}
                           for v, share in rec.supplier.fleet_shares],
                 "demand": [{"unit": u.id.removeprefix(f"{rec.supplier.name}:"), "stops": u.stops,
                             "avg_weight_kg": u.avg_weight_kg}
                            for u in rec.supplier.demand.units]}
                for rec in self.suppliers],
            "schemes": self.scheme_templates,
            "optimization": {"vehicles": self.optimization_vehicles},
            "sa": asdict(self.sa),
        }


def _parse_vehicles(node, path: str) -> dict[str, VehicleType]:
    vehicles: dict[str, VehicleType] = {}
    for i, item in enumerate(_require_list(node, path)):
        p = f"{path}[{i}]"
        vid = _name(_keyed(VehicleType, item, p)["id"], f"{p}.id")
        p = f"{path}[{vid}]"
        if vid in vehicles:
            raise ScenarioReferenceError(p, f"duplicate vehicle id '{vid}'")
        vehicles[vid] = _record(VehicleType, item, p)
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
        with _invariant(p):  # the model's rule on a unit of this class
            classes[uid] = DeliveryUnitType(uid, w, 0.0).avg_weight_kg
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
        if not tclasses:
            raise ScenarioParseError(f"{p}.temperature_classes",
                                     "at least one temperature class is required")

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
            with _invariant(rp):
                units.append(DeliveryUnitType(id=f"{sname}:{uid}",
                                              avg_weight_kg=avg_w, stops=stops))

        with _invariant(p):
            supplier = Supplier(name=sname, demand=DemandProfile.from_units(units),
                                fleet_shares=tuple(shares),
                                temperature_classes=tclasses)
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


def _parse_params_block(node, path: str, defaults: dict | None = None) -> dict:
    """A params block as written, each value read by its NetworkParams field's
    type; a layer's block must give every required field that
    network_defaults (passed as defaults) does not."""
    allowed, required, readers = _RECORDS[NetworkParams]
    node = _require_mapping(node, path)
    _check_keys(node, allowed, set() if defaults is None else required - defaults.keys(), path)
    return {k: readers[k](v, f"{path}.{k}") for k, v in node.items()}


def _parse_schemes(node, path: str, vehicles: dict[str, VehicleType],
                   defaults: dict) -> list[dict]:
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
            template["params"] = _parse_params_block(item["params"], f"{p}.params", defaults)
        else:
            for ref in ("shuttle_vehicle", "city_vehicle"):
                if _name(item[ref], f"{p}.{ref}") not in vehicles:
                    raise ScenarioReferenceError(f"{p}.{ref}", f"unknown vehicle '{item[ref]}'")
                template[ref] = item[ref]
            template["shuttle_params"] = _parse_params_block(
                item["shuttle_params"], f"{p}.shuttle_params", defaults)
            template["city_params"] = _parse_params_block(
                item["city_params"], f"{p}.city_params", defaults)
            rate = _number(item, "handling_cost_per_delivery", p,
                           default=DEFAULT_HANDLING_COST_PER_DELIVERY)
            if rate < 0:
                raise ScenarioInvariantError(f"{p}.handling_cost_per_delivery", "must be >= 0")
            template["handling_cost_per_delivery"] = rate
        if kind == "pi":
            hubs = _integer(item.get("hub_count", 2), f"{p}.hub_count")
            if not 1 <= hubs <= MAX_HUB_COUNT:
                raise ScenarioInvariantError(
                    f"{p}.hub_count", f"must be an integer from 1 to {MAX_HUB_COUNT}")
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
                for k, w in enumerate(weights):
                    if w < 0:
                        raise ScenarioInvariantError(f"{p}.hub_weights[{k}]", "must be >= 0")
                if len(weights) != hubs:
                    raise ScenarioInvariantError(
                        f"{p}.hub_weights",
                        f"one weight per hub required: {len(weights)} for {hubs} hubs")
                if not math.isclose(math.fsum(weights), 1.0, rel_tol=0, abs_tol=1e-9):
                    raise ScenarioInvariantError(
                        f"{p}.hub_weights",
                        f"hub demand split sums to {math.fsum(weights)}, "
                        "but every row of demand shares must sum to 1")
            template["hub_weights"] = weights
        out.append(template)
    return out


def _build_scheme(template: dict, scenario: Scenario) -> SchemeSpec:
    """The scheme a template describes, every builder value from here, each
    params block over the network defaults.  A block whose merged values are
    invalid raises ScenarioInvariantError; a layer's invariant, DomainError."""
    def params(block: str) -> NetworkParams:
        with _invariant(f"schemes[{template['name']}].{block}"):
            return NetworkParams(**{**scenario.network_defaults, **template[block]})

    suppliers = [rec.supplier for rec in scenario.suppliers]
    name, kind, factors = template["name"], template["type"], scenario.external_factors
    if kind == "original":
        return build_original(suppliers, params("params"), factors, name)
    vehicles = (scenario.vehicles[template["shuttle_vehicle"]],
                scenario.vehicles[template["city_vehicle"]])
    common = dict(shuttle_params=params("shuttle_params"), city_params=params("city_params"),
                  handling_cost_per_delivery=template["handling_cost_per_delivery"],
                  external_factors=factors, name=name)
    if kind == "ucc":
        return build_ucc(suppliers, *vehicles, **common)
    hub_weights = template["hub_weights"]
    return build_pi(suppliers, *vehicles, hub_count=template["hub_count"],
                    shuttle_tours_per_hub=template["shuttle_tours_per_hub"],
                    consolidate_inbound=template["consolidate_inbound"],
                    hub_weights=tuple(hub_weights) if hub_weights else None, **common)


def parse_scenario(doc: dict, source_path: str | None = None) -> Scenario:
    doc = _require_mapping(doc, "scenario")
    _check_keys(doc, _TOP_KEYS, {"name", "external_factors", "vehicles",
                                 "unit_classes", "suppliers", "schemes"}, "scenario")
    defaults = (_parse_params_block(doc["network_defaults"], "network_defaults")
                if "network_defaults" in doc else {})
    with _invariant("network_defaults"):  # 1.0 stands in for each required field it lacks
        NetworkParams(**{**dict.fromkeys(_RECORDS[NetworkParams][1], 1.0), **defaults})
    vehicles = _parse_vehicles(doc["vehicles"], "vehicles")
    unit_classes = _parse_unit_classes(doc["unit_classes"], "unit_classes")
    suppliers = _parse_suppliers(doc["suppliers"], "suppliers", vehicles, unit_classes)
    templates = _parse_schemes(doc["schemes"], "schemes", vehicles, defaults)

    opt_node = doc.get("optimization", {"vehicles": []})
    opt_node = _require_mapping(opt_node, "optimization")
    _check_keys(opt_node, _OPT_KEYS, set(), "optimization")
    opt_vehicles = [_name(v, f"optimization.vehicles[{i}]") for i, v in enumerate(
        _require_list(opt_node.get("vehicles", []), "optimization.vehicles"))]
    for i, v in enumerate(opt_vehicles):
        if v not in vehicles:
            raise ScenarioReferenceError(f"optimization.vehicles[{i}]",
                                         f"unknown vehicle '{v}'")

    scenario = Scenario(
        name=_typed(doc["name"], str, "a string", "name"),
        description=_typed(doc.get("description", ""), str, "a string", "description"),
        network_defaults=defaults,
        external_factors=_record(ExternalCostFactors, doc["external_factors"],
                                 "external_factors"),
        vehicles=vehicles,
        unit_classes=unit_classes,
        suppliers=suppliers,
        scheme_templates=templates,
        optimization_vehicles=opt_vehicles,
        sa=_record(SaConfig, doc.get("sa", {}), "sa"),
        schemes={},
        source_path=source_path,
    )
    # build every scheme once, so layer-level invariants fail at load time
    for template in templates:
        with _invariant(f"schemes[{template['name']}]"):
            scenario.schemes[template["name"]] = _build_scheme(template, scenario)
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
