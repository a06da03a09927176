import json
import subprocess
import sys

import pytest
import yaml

from citydist.cli import run

from conftest import BORDEAUX, SINGLE_SUPPLIER


def test_validate_ok(capsys):
    assert run(["validate", "--scenario", str(BORDEAUX)]) == 0
    assert "bordeaux" in capsys.readouterr().out


def test_validate_rejects_broken_scenario(tmp_path, capsys):
    doc = yaml.safe_load(BORDEAUX.read_text())
    del doc["vehicles"][0]["cost_per_hour"]
    broken = tmp_path / "broken.scenario"
    broken.write_text(yaml.safe_dump(doc))
    assert run(["validate", "--scenario", str(broken)]) == 2
    assert "cost_per_hour" in capsys.readouterr().err


def test_evaluate_writes_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code = run(["evaluate", "--scenario", str(BORDEAUX), "--scheme", "ucc",
                    "--format", "json", "--output", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["handling_cost"] == 840.0


def test_evaluate_unknown_scheme_exits_2(capsys):
    assert run(["evaluate", "--scenario", str(BORDEAUX), "--scheme", "nope"]) == 2


def test_infeasible_scheme_exits_3(tmp_path, capsys):
    doc = yaml.safe_load(BORDEAUX.read_text())
    # a 30 km radius at 20 km/h cannot meet a 1.5 h lead time at any tour count
    for scheme in doc["schemes"]:
        if scheme["name"] == "original":
            scheme["params"]["lead_time_h"] = 1.5
    tight = tmp_path / "tight.scenario"
    tight.write_text(yaml.safe_dump(doc))
    assert run(["evaluate", "--scenario", str(tight), "--scheme", "original"]) == 3
    assert "lead_time" in capsys.readouterr().err


def test_compare_csv_structure(tmp_path):
    out = tmp_path / "cmp.csv"
    code = run(["compare", "--scenario", str(BORDEAUX),
                "--schemes", "original,ucc,pi", "--baseline", "original",
                "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + 3 schemes
    assert lines[0].startswith("scheme,")
    assert lines[1].split(",")[0] == "original"


def test_sweep_rows_and_markers(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--scenario", str(BORDEAUX), "--scheme", "pi",
                "--layer", "2", "--param", "lead_time_h", "--range", "0.25:8:0.25",
                "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 33  # header + 32 grid points
    assert sum("INFEASIBLE" in line for line in lines) == 2


def test_sweep_bad_range_exits_2(capsys):
    assert run(["sweep", "--scenario", str(BORDEAUX), "--scheme", "pi",
                "--layer", "2", "--param", "lead_time_h", "--range", "oops"]) == 2


def test_optimize_oracle_small_instance(tmp_path):
    out = tmp_path / "opt.json"
    code = run(["optimize", "--scenario", str(SINGLE_SUPPLIER),
                "--scheme", "original", "--layer", "1",
                "--vehicles", "truck_25t,truck_17t",
                "--seed", "5", "--oracle", "--format", "json", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["feasible"] is True
    # one unit row per fleet share fragment; all mass lands on the 17t column
    for row in payload["allocation"]:
        assert row[1] == 1.0


def test_optimize_deterministic_per_seed(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = run(["optimize", "--scenario", str(SINGLE_SUPPLIER),
                    "--scheme", "original", "--layer", "1", "--seed", "9",
                    "--format", "json", "--output", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_optimize_layer_out_of_range_exits_2(capsys):
    assert run(["optimize", "--scenario", str(SINGLE_SUPPLIER),
                "--scheme", "original", "--layer", "7", "--seed", "1"]) == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "citydist.cli", "validate",
         "--scenario", str(BORDEAUX)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid" in proc.stdout


_COLD_PATH_CHILD = """
import io, json, sys
from contextlib import redirect_stdout
from citydist.cli import run

s = sys.argv[1]
commands = [
    ["validate", "--scenario", s],
    ["evaluate", "--scenario", s, "--scheme", "original", "--format", "json"],
    ["compare", "--scenario", s, "--schemes", "original,original", "--format", "csv"],
    ["sweep", "--scenario", s, "--scheme", "original", "--layer", "1",
     "--param", "lead_time_h", "--range", "0.25:8:0.25"],
]
oracle = ["optimize", "--scenario", s, "--scheme", "original", "--layer", "1", "--oracle"]
with redirect_stdout(io.StringIO()):
    codes = [run(c) for c in commands]
    numpy_before_oracle = "numpy" in sys.modules
    codes.append(run(oracle))
print(json.dumps({"codes": codes, "numpy_before_oracle": numpy_before_oracle,
                  "numpy_after_oracle": "numpy" in sys.modules}))
"""


def test_cold_path_commands_do_not_import_numpy():
    # Only the grid oracle needs numpy; every other command must start
    # without importing it.  A fresh interpreter, because the test process
    # has numpy loaded already.
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PATH_CHILD, str(SINGLE_SUPPLIER)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["numpy_before_oracle"] is False
    assert result["numpy_after_oracle"] is True


def test_non_numeric_hub_weights_exit_2(tmp_path, capsys):
    doc = yaml.safe_load(BORDEAUX.read_text())
    pi = next(s for s in doc["schemes"] if s["name"] == "pi")
    pi["hub_weights"] = ["a", "b"]
    broken = tmp_path / "broken.scenario"
    broken.write_text(yaml.safe_dump(doc))
    assert run(["evaluate", "--scenario", str(broken), "--scheme", "pi"]) == 2
    assert "schemes[pi].hub_weights[0]: expected a number" in capsys.readouterr().err


def _validate_mutated(tmp_path, field, value) -> int:
    """Run `validate` on bordeaux.scenario with one dotted field replaced."""
    doc = yaml.safe_load(BORDEAUX.read_text())
    *parents, leaf = field.split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if key.isdigit() else node[key]
    node[int(leaf) if leaf.isdigit() else leaf] = value
    broken = tmp_path / "broken.scenario"
    broken.write_text(yaml.safe_dump(doc))
    return run(["validate", "--scenario", str(broken)])


@pytest.mark.parametrize("field, message", [
    ("unit_classes.0.id", "unit_classes[0].id: expected a non-empty string"),
    ("suppliers.0.name", "suppliers[0].name: expected a non-empty string"),
    ("vehicles.0.temperature_class",
     "vehicles[van_2p3t_city].temperature_class: expected a non-empty string"),
    ("suppliers.0.temperature_classes.0",
     "suppliers[supplier_1].temperature_classes[0]: expected a non-empty string"),
    ("suppliers.0.fleet.0.vehicle",
     "suppliers[supplier_1].fleet[0].vehicle: expected a non-empty string"),
    ("suppliers.0.demand.0.unit",
     "suppliers[supplier_1].demand[0].unit: expected a non-empty string"),
    ("schemes.0.name", "schemes[0].name: expected a non-empty string"),
    ("schemes.0.type", "schemes[0].type: expected one of"),
    ("schemes.1.shuttle_vehicle", "schemes[ucc].shuttle_vehicle: expected a non-empty string"),
])
def test_unhashable_identifier_exits_2_with_path(tmp_path, capsys, field, message):
    # a list cannot be looked up as an identifier; it used to raise TypeError
    assert _validate_mutated(tmp_path, field, ["x"]) == 2
    assert f"scenario error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("field, good, bad, message", [
    ("suppliers.0.temperature_classes", ["F"], "AF",
     "suppliers[supplier_1].temperature_classes: expected a list, got str"),
    ("suppliers.0.pos_count", 0, True, "suppliers[supplier_1].pos_count: expected an integer"),
    ("schemes.2.hub_count", 3, True, "schemes[pi].hub_count: expected an integer"),
    ("schemes.2.shuttle_tours_per_hub", 2, True,
     "schemes[pi].shuttle_tours_per_hub: expected an integer"),
    ("sa.seed", 0, True, "sa.seed: expected an integer"),
    ("sa.steps_per_temperature", 10, True, "sa.steps_per_temperature: expected an integer"),
    ("sa.restarts", 2, 2.0, "sa.restarts: expected an integer"),
    ("name", "renamed", ["x"], "name: expected a string, got list"),
    ("description", "", {"a": 1}, "description: expected a string, got dict"),
    ("schemes.2.consolidate_inbound", False, ["x"],
     "schemes[pi].consolidate_inbound: expected a boolean, got list"),
    ("schemes.2.consolidate_inbound", True, 1,
     "schemes[pi].consolidate_inbound: expected a boolean, got int"),
], ids=["temperature_classes_str", "pos_count_bool", "hub_count_bool",
        "shuttle_tours_per_hub_bool", "sa_seed_bool", "sa_steps_bool", "sa_restarts_float",
        "name_list", "description_dict", "consolidate_inbound_list",
        "consolidate_inbound_int"])
def test_wrong_type_exits_2_with_path(tmp_path, capsys, field, good, bad, message):
    assert _validate_mutated(tmp_path, field, good) == 0
    assert _validate_mutated(tmp_path, field, bad) == 2
    assert f"scenario error: {message}" in capsys.readouterr().err
