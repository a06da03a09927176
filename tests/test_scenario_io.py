import copy
import math
from collections import Counter
from dataclasses import MISSING, asdict, fields

import pytest
import yaml

from citydist.cli import run
from citydist.model import (
    DemandProfile,
    ExternalCostFactors,
    NetworkParams,
    SaConfig,
    VehicleType,
)
import citydist.scenario as scenario_module
from citydist.scenario import (
    Scenario,
    ScenarioError,
    ScenarioInvariantError,
    ScenarioParseError,
    ScenarioReferenceError,
    MAX_HUB_COUNT,
    emit_scenario,
    load_scenario,
    parse_scenario,
)
from citydist.schemes import evaluate_scheme

from conftest import BORDEAUX, SCENARIOS, SINGLE_SUPPLIER


MINIMAL = """
name: minimal
external_factors: {accident: 3.4, air_pollution: 20.5, climate_change: 6.3, noise: 27.4, congestion: 4.0}
network_defaults: {daganzo_k: 0.57, shift_duration_h: 8.0, lead_time_h: 24.0}
vehicles:
  - {id: truck, capacity_kg: 17000, speed_kmh: 20, cost_per_km: 8.0, cost_per_hour: 30, temperature_class: A, max_units_footprint: 30}
unit_classes:
  - {id: pallet, avg_weight_kg: 450}
suppliers:
  - name: s1
    temperature_classes: [A]
    fleet: [{vehicle: truck, share: 1.0}]
    demand:
      - {unit: pallet, stops: 6}
schemes:
  - name: original
    type: original
    params: {radius_km: 30, area_km2: 186, stop_time_h: 0.25}
"""


def _variant(**edits):
    doc = yaml.safe_load(MINIMAL)
    for path, value in edits.items():
        node = doc
        *parents, leaf = path.split(".")
        for key in parents:
            node = node[int(key)] if key.isdigit() else node[key]
        if value is ...:
            del node[leaf]
        else:
            node[int(leaf) if leaf.isdigit() else leaf] = value
    return doc


def test_minimal_scenario_parses():
    scenario = parse_scenario(yaml.safe_load(MINIMAL))
    assert scenario.scheme_names() == ["original"]
    evaluate_scheme(scenario.scheme("original"))


def test_bordeaux_scenario_loads_with_transcribed_values():
    scenario = load_scenario(str(BORDEAUX))
    capacities = sorted({v.capacity_kg for v in scenario.vehicles.values()})
    assert capacities == [2300, 8100, 9450, 10000, 12150, 14850, 17000, 25000]
    assert scenario.unit_classes["parcel"] == 10
    assert scenario.unit_classes["pallet"] == 450
    assert scenario.unit_classes["roll"] == 180
    assert {v.cost_per_km for v in scenario.vehicles.values()} >= {5.0, 7.0, 8.0}
    assert math.fsum(rec.supplier.demand.total_stops
                     for rec in scenario.suppliers) == 84.0
    assert len(scenario.suppliers) == 6
    assert scenario.scheme_names() == ["original", "ucc", "pi", "pi_small"]
    assert scenario.external_factors.total == 61.6


def test_single_supplier_scenario_loads():
    scenario = load_scenario(str(SINGLE_SUPPLIER))
    rec = scenario.suppliers[0]
    assert [share for _, share in rec.supplier.fleet_shares] == [0.1, 0.9]


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scenario")),
                         ids=lambda p: p.name)
def test_load_matches_pure_python_safe_load(path):
    # load_scenario parses with libyaml where PyYAML has it; the document
    # must equal the pure-Python safe_load reference
    reference = parse_scenario(yaml.safe_load(path.read_text(encoding="utf-8")))
    assert load_scenario(str(path)).to_dict() == reference.to_dict()


def test_round_trip_is_fixpoint(tmp_path):
    first = load_scenario(str(BORDEAUX))
    out = tmp_path / "echo.scenario"
    emit_scenario(first, str(out))
    second = load_scenario(str(out))
    assert first.to_dict() == second.to_dict()
    # emitting again is byte-identical
    out2 = tmp_path / "echo2.scenario"
    emit_scenario(second, str(out2))
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("edits", [
    {"suppliers.0.name": "north:dc"},
    {"unit_classes.0.id": "pal:let", "suppliers.0.demand": [{"unit": "pal:let", "stops": 6}]},
], ids=["supplier_name", "unit_class_id"])
def test_round_trip_keeps_a_colon_in_a_name(tmp_path, edits):
    # each demand row's unit id is "<supplier>:<unit class>"
    first = parse_scenario(_variant(**edits))
    out = tmp_path / "echo.scenario"
    emit_scenario(first, str(out))
    assert load_scenario(str(out)).to_dict() == first.to_dict()


def test_round_tripped_scenario_evaluates_identically(tmp_path):
    first = load_scenario(str(BORDEAUX))
    out = tmp_path / "echo.scenario"
    emit_scenario(first, str(out))
    second = load_scenario(str(out))
    for name in first.scheme_names():
        assert evaluate_scheme(first.scheme(name)) == evaluate_scheme(second.scheme(name))


INVALID_CASES = [
    # (description, mutation, expected error class)
    ("missing cost_per_hour names the vehicle",
     {"vehicles.0.cost_per_hour": ...}, ScenarioParseError),
    ("unknown top-level field",
     {"surprise": 1}, ScenarioParseError),
    ("unknown vehicle field",
     {"vehicles.0.wheels": 6}, ScenarioParseError),
    ("fleet shares must sum to 1",
     {"suppliers.0.fleet": [{"vehicle": "truck", "share": 0.9}]},
     ScenarioInvariantError),
    ("negative capacity",
     {"vehicles.0.capacity_kg": -5}, ScenarioInvariantError),
    ("dangling vehicle reference",
     {"suppliers.0.fleet": [{"vehicle": "ghost", "share": 1.0}]},
     ScenarioReferenceError),
    ("congestion factor below 1",
     {"network_defaults.congestion_factor": 0.5}, ScenarioInvariantError),
    ("lead time beyond 24 h",
     {"network_defaults.lead_time_h": 30}, ScenarioInvariantError),
    ("zero speed",
     {"vehicles.0.speed_kmh": 0}, ScenarioInvariantError),
    ("negative external factor",
     {"external_factors.noise": -1}, ScenarioInvariantError),
    ("negative stops",
     {"suppliers.0.demand": [{"unit": "pallet", "stops": -2}]},
     ScenarioInvariantError),
    ("uncovered temperature class",
     {"suppliers.0.temperature_classes": ["S"]}, ScenarioInvariantError),
]


@pytest.mark.parametrize("description,edits,err", INVALID_CASES,
                         ids=[c[0] for c in INVALID_CASES])
def test_invalid_scenarios_rejected_with_correct_class(description, edits, err):
    doc = _variant(**edits)
    with pytest.raises(err):
        parse_scenario(doc)


@pytest.mark.parametrize("field,value", [
    ("speed_kmh", float("nan")),
    ("capacity_kg", float("inf")),
    ("capacity_kg", -float("inf")),
    ("capacity_kg", 10 ** 400),
], ids=["speed_nan", "capacity_inf", "capacity_minus_inf", "capacity_huge_int"])
def test_non_finite_number_rejected_with_path(tmp_path, field, value):
    path = tmp_path / "nonfinite.scenario"
    path.write_text(yaml.safe_dump(_variant(**{f"vehicles.0.{field}": value})))
    with pytest.raises(ScenarioParseError) as e:
        load_scenario(str(path))
    assert str(e.value) == f"vehicles[truck].{field}: expected a finite number"


@pytest.mark.parametrize("old, new, message", [
    ("name:", "1: x\nname:", "scenario: unknown field(s): 1"),
    ("{id: truck,", "{yes: 1, id: truck,", "vehicles[0]: unknown field(s): True"),
    ("params: {", "params: {null: 1, ", "schemes[original].params: unknown field(s): None"),
], ids=["int_top_level", "yes_in_vehicle", "null_in_params"])
def test_key_that_is_not_a_string_is_named_with_path(tmp_path, capsys, old, new, message):
    # YAML reads these keys as int, bool and None
    path = tmp_path / "keys.scenario"
    path.write_text(MINIMAL.replace(old, new, 1))
    assert run(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


@pytest.mark.parametrize("sa, message", [
    (None, "sa: expected a mapping, got NoneType"),
    ({"cooling_rate": 0}, "sa: cooling_rate must be in (0, 1)"),
    ({"cooling_rate": 1}, "sa: cooling_rate must be in (0, 1)"),
    ({"steps_per_temperature": 0}, "sa: steps_per_temperature and restarts must be >= 1"),
    ({"restarts": 0}, "sa: steps_per_temperature and restarts must be >= 1"),
    ({"seed": True}, "sa.seed: expected an integer"),
    ({"seed": 1.5}, "sa.seed: expected an integer"),
    ({"seed": None}, "sa.seed: expected an integer"),
    ({"cooling_rate": None}, "sa.cooling_rate: expected a number"),
    ({"initial_temperature": 5.0}, "sa: unknown field(s): initial_temperature"),
    ({"min_temperature": 0.01}, "sa: unknown field(s): min_temperature"),
    ({"penalty_weight": 1000.0}, "sa: unknown field(s): penalty_weight"),
    ({"grid_step": 0.05}, "sa: unknown field(s): grid_step"),
], ids=["block_null", "cooling_0", "cooling_1", "steps_0", "restarts_0", "seed_bool", "seed_float",
        "seed_null", "cooling_null", "initial_temperature", "min_temperature",
        "penalty_weight", "grid_step"])
def test_sa_block_rejected_with_path(tmp_path, capsys, sa, message):
    doc = _variant(sa=sa)
    with pytest.raises(ScenarioError) as e:
        parse_scenario(doc)
    assert e.value.path.startswith("sa")
    assert str(e.value) == message
    path = tmp_path / "sa.scenario"
    path.write_text(yaml.safe_dump(doc))
    assert run(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


def test_sa_block_loads_its_four_settings():
    sa = {"seed": 7, "cooling_rate": 0.9, "steps_per_temperature": 3, "restarts": 2}
    assert asdict(parse_scenario(_variant(sa=sa)).sa) == sa


@pytest.mark.parametrize("value", [2.7, 30.0, True])
def test_max_units_footprint_must_be_integer(value):
    doc = _variant(**{"vehicles.0.max_units_footprint": value})
    with pytest.raises(ScenarioParseError) as e:
        parse_scenario(doc)
    assert str(e.value) == "vehicles[truck].max_units_footprint: expected an integer"


def test_every_field_type_of_a_loaded_record_has_a_reader():
    # the loader reads each field of these records by its annotated type; a
    # field of a new type must fail here, not raise a KeyError at load
    records = (VehicleType, NetworkParams, ExternalCostFactors, SaConfig)
    assert set(scenario_module._RECORDS) == set(records)
    for record in records:
        for f in fields(record):
            assert f.type in scenario_module._READERS, f"{record.__name__}.{f.name}: {f.type}"


def test_vehicle_without_optional_fields_takes_the_record_defaults():
    doc = _variant(**{"vehicles.0.max_units_footprint": ...,
                      "vehicles.0.temperature_class": ...})
    given = doc["vehicles"][0]
    required = {f.name: given[f.name] for f in fields(VehicleType) if f.default is MISSING}
    assert required.keys() == given.keys()
    assert parse_scenario(doc).vehicles["truck"] == VehicleType(**required)


@pytest.mark.parametrize("edits, message", [
    ({"vehicles.0.max_units_footprint": 2.5, "vehicles.0.capacity_kg": "x"},
     "vehicles[truck].capacity_kg: expected a number"),
    ({"vehicles.0.temperature_class": "Q", "vehicles.0.cost_per_hour": None},
     "vehicles[truck].cost_per_hour: expected a number"),
    ({"sa": {"restarts": 1.5, "cooling_rate": "x", "seed": None}},
     "sa.seed: expected an integer"),
], ids=["vehicle_footprint_and_capacity", "vehicle_class_and_cost", "sa_in_reverse_order"])
def test_first_bad_field_in_field_order_is_named(edits, message):
    with pytest.raises(ScenarioParseError) as e:
        parse_scenario(_variant(**edits))
    assert str(e.value) == message


@pytest.mark.parametrize("field, value, used", [
    ("radius_km", -5, False), ("area_km2", 0, False), ("stop_time_h", -0.25, False),
    ("daganzo_k", 0, True), ("lead_time_h", 30, True),
], ids=["radius_unused", "area_unused", "stop_time_unused", "daganzo_used", "lead_time_used"])
def test_network_default_is_checked_where_it_is_written(tmp_path, capsys, field, value, used):
    # the layer's own params set radius, area and stop time, so a bad default
    # for them was never checked, and validate exited 0
    doc = _variant(**{f"network_defaults.{field}": value})
    assert (field in doc["schemes"][0]["params"]) is not used
    rule = "must be <= 24" if field == "lead_time_h" else "must be > 0 and finite"
    message = f"network_defaults: params.{field} {rule}"
    with pytest.raises(ScenarioInvariantError) as e:
        parse_scenario(doc)
    assert str(e.value) == message
    path = tmp_path / "defaults.scenario"
    path.write_text(yaml.safe_dump(doc))
    assert run(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


@pytest.mark.parametrize("value", [[], 0, False, "", None, 1, ["x"]])
def test_network_defaults_that_is_not_a_mapping_exits_2(tmp_path, capsys, value):
    # an empty or false value is refused as any other non-mapping, not read
    # as an absent block
    doc = _variant(network_defaults=value)
    message = f"network_defaults: expected a mapping, got {type(value).__name__}"
    with pytest.raises(ScenarioParseError) as e:
        parse_scenario(doc)
    assert str(e.value) == message
    path = tmp_path / "defaults.scenario"
    path.write_text(yaml.safe_dump(doc))
    assert run(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


def test_absent_network_defaults_is_an_empty_block():
    doc = _variant(**{"network_defaults": ...})
    doc["schemes"][0]["params"].update(daganzo_k=0.57, shift_duration_h=8.0)
    assert parse_scenario(doc).network_defaults == {}


@pytest.mark.parametrize("entry", [["x"], {"x": 1}, True, 0, None, ""])
def test_optimization_vehicle_is_read_as_a_name_at_its_index(entry):
    doc = _variant(optimization={"vehicles": ["truck", entry]})
    with pytest.raises(ScenarioParseError) as e:
        parse_scenario(doc)
    assert str(e.value) == "optimization.vehicles[1]: expected a non-empty string"
    doc = _variant(optimization={"vehicles": ["truck", "bus"]})
    with pytest.raises(ScenarioReferenceError, match="unknown vehicle 'bus'"):
        parse_scenario(doc)


def test_unknown_optimization_vehicle_is_named_at_its_index(tmp_path, capsys):
    # as a malformed entry, and as every other reference error names its entry
    doc = _variant(optimization={"vehicles": ["truck", "truck", "bus"]})
    message = "optimization.vehicles[2]: unknown vehicle 'bus'"
    with pytest.raises(ScenarioReferenceError) as e:
        parse_scenario(doc)
    assert str(e.value) == message
    assert e.value.path == "optimization.vehicles[2]"
    path = tmp_path / "optimization.scenario"
    path.write_text(yaml.safe_dump(doc))
    assert run(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


@pytest.mark.parametrize("weight", [0, -1, -0.5])
def test_unit_class_weight_is_checked_by_the_model_rule(weight):
    # the same rule and message as a demand row's DeliveryUnitType
    doc = _variant(**{"unit_classes.0.avg_weight_kg": weight})
    with pytest.raises(ScenarioInvariantError) as e:
        parse_scenario(doc)
    assert str(e.value) == ("unit_classes[0]: unit 'pallet': "
                            "avg_weight_kg must be > 0 and finite")


def test_missing_cost_per_hour_error_names_vehicle():
    doc = _variant(**{"vehicles.0.cost_per_hour": ...})
    with pytest.raises(ScenarioParseError) as e:
        parse_scenario(doc)
    assert "cost_per_hour" in str(e.value)


def test_share_sum_error_cites_row_sum_rule():
    doc = _variant(**{"suppliers.0.fleet": [{"vehicle": "truck", "share": 0.9}]})
    with pytest.raises(ScenarioInvariantError) as e:
        parse_scenario(doc)
    assert "0.9" in str(e.value) and "sum" in str(e.value)


def test_unreadable_path_is_parse_error(tmp_path):
    with pytest.raises(ScenarioParseError):
        load_scenario(str(tmp_path / "nope.scenario"))


def test_yaml_syntax_error_is_parse_error(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("vehicles: [unclosed\n")
    with pytest.raises(ScenarioParseError):
        load_scenario(str(bad))


def test_unknown_scheme_is_reference_error():
    scenario = parse_scenario(yaml.safe_load(MINIMAL))
    with pytest.raises(ScenarioReferenceError):
        scenario.scheme("mystery")


def test_each_scheme_is_built_once_per_load(monkeypatch):
    built = Counter()
    for builder in ("build_original", "build_ucc", "build_pi"):
        def counted(*args, _build=getattr(scenario_module, builder), **kwargs):
            scheme = _build(*args, **kwargs)
            built[scheme.name] += 1
            return scheme
        monkeypatch.setattr(scenario_module, builder, counted)
    scenario = load_scenario(str(BORDEAUX))
    names = scenario.scheme_names()
    for name in names:
        scenario.scheme(name)
    assert built == {name: 1 for name in names}
    assert scenario.scheme("pi") is scenario.scheme("pi")


def test_pi_scales_each_demand_once_per_hub_weight(monkeypatch):
    # equal hub weights share one scaled demand: 10,000 hubs used to make
    # 60,004 scale calls for the same 6 distinct results
    doc = yaml.safe_load(BORDEAUX.read_text())
    pi = next(s for s in doc["schemes"] if s["name"] == "pi")
    pi["consolidate_inbound"] = False
    calls = Counter()
    scale = DemandProfile.scale

    def counted(self, factor):
        calls[pi["hub_count"]] += 1
        return scale(self, factor)

    monkeypatch.setattr(DemandProfile, "scale", counted)
    for hubs in (2, MAX_HUB_COUNT):
        pi["hub_count"] = hubs
        scheme = parse_scenario(copy.deepcopy(doc)).scheme("pi")
        assert len(scheme.layers[0].fleet) == 6 * hubs
    assert calls[MAX_HUB_COUNT] == calls[2] > 0
