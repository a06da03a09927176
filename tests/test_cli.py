import copy
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
import hypothesis.strategies as st
import pytest
import yaml

from citydist.cli import run
from citydist.model import DomainError, InfeasibleError
from citydist.scenario import MAX_HUB_COUNT, load_scenario
from citydist.schemes import compare_schemes, evaluate_scheme, merge_demands
from citydist.sweep import SweepSpec, sweep_parameter

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


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_sweep_past_a_field_limit_marks_those_values_invalid(capsys, fmt):
    # lead times above 24 h are refused by the params record: those two
    # points read invalid, and the valid ones above are still swept
    argv = ["sweep", "--scenario", str(BORDEAUX), "--scheme", "original", "--layer", "2",
            "--param", "lead_time_h", "--range", "10:30:5", "--format", fmt]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "json":
        doc = json.loads(out)
        assert [(r["value"], r["kpis"] is None, r["error"]) for r in doc["rows"]] == [
            (10.0, False, None), (15.0, False, None), (20.0, False, None),
            (25.0, True, "invalid value: params.lead_time_h must be <= 24"),
            (30.0, True, "invalid value: params.lead_time_h must be <= 24")]
        assert (doc["infeasible_below"], doc["infeasible_above"]) == (None, None)
        return
    split = (lambda line: line.split(",")) if fmt == "csv" else str.split
    lines = [split(line) for line in out.splitlines()]
    body = lines[1:] if fmt == "csv" else lines[2:]
    assert lines[0][-1] == "status"
    assert [(row[0], row[-1]) for row in body] == [
        ("10.00", "ok"), ("15.00", "ok"), ("20.00", "ok"),
        ("25.00", "invalid"), ("30.00", "invalid")]
    assert all(row[1:-1] == ["INVALID"] * (len(row) - 2) for row in body[3:])


def test_sweep_bad_range_exits_2(capsys):
    # non-finite values, or ~7.75e9 points, would grow the sweep grid until
    # memory runs out
    for range_ in ("oops", "0:8:nan", "0:inf:1", "nan:8:1", "0.25:8:1e-9"):
        assert run(["sweep", "--scenario", str(BORDEAUX), "--scheme", "pi",
                    "--layer", "2", "--param", "lead_time_h", "--range", range_]) == 2
        assert capsys.readouterr().err.startswith("invalid request:")


@pytest.mark.parametrize("range_", ["1:1:1e-18", "1e308:1e308:1"])
def test_sweep_step_lost_to_rounding_exits_2(capsys, range_):
    # start + i*step rounds to start: 1,000,200 points of 1.0, or a grid
    # that never passes its end
    assert run(["sweep", "--scenario", str(BORDEAUX), "--scheme", "original",
                "--layer", "2", "--param", "speed_kmh", f"--range={range_}"]) == 2
    assert capsys.readouterr().err == (
        "invalid request: sweep range asks for more than 1000000 points\n")


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


def test_optimize_oracle_over_grid_budget_falls_back_to_vertices(tmp_path, capsys):
    # 231^6 grid points are over the grid's budget; the 3^6 vertices are not
    out = tmp_path / "opt.json"
    code = run(["optimize", "--scenario", str(BORDEAUX), "--scheme", "pi_small",
                "--layer", "2", "--oracle", "--format", "json", "--output", str(out)])
    assert code == 0
    assert "grid over budget: best of 729 vertex allocations" in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert payload["objective"] == 771.2385998200625
    assert payload["evaluations"] == 729
    assert payload["feasible"] is True
    assert all(sorted(row) == [0.0, 0.0, 1.0] for row in payload["allocation"])
    # with five vehicles the 5^6 vertices are over budget too
    five = "truck_25t_city,truck_17t_city,van_2p3t_city,truck_8p1t,truck_10t_dry"
    assert run(["optimize", "--scenario", str(BORDEAUX), "--scheme", "pi_small",
                "--layer", "2", "--vehicles", five, "--oracle"]) == 2
    assert "5^6 = 15625 vertices exceeds the budget" in capsys.readouterr().err


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

def loaded():
    return [m for m in ("citydist.optimize", "citydist.sweep", "numpy") if m in sys.modules]

on_import = loaded()
s = sys.argv[1]
commands = [
    ["validate", "--scenario", s],
    ["evaluate", "--scenario", s, "--scheme", "original", "--format", "json"],
    ["compare", "--scenario", s, "--schemes", "original,original", "--format", "csv"],
]
sweep = ["sweep", "--scenario", s, "--scheme", "original", "--layer", "1",
         "--param", "lead_time_h", "--range", "0.25:8:0.25"]
oracle = ["optimize", "--scenario", s, "--scheme", "original", "--layer", "1", "--oracle"]
with redirect_stdout(io.StringIO()):
    codes = [run(c) for c in commands]
    after_reports = loaded()
    codes.append(run(sweep))
    after_sweep = loaded()
    numpy_before_oracle = "numpy" in sys.modules
    codes.append(run(oracle))
print(json.dumps({"codes": codes, "on_import": on_import, "after_reports": after_reports,
                  "after_sweep": after_sweep, "numpy_before_oracle": numpy_before_oracle,
                  "numpy_after_oracle": "numpy" in sys.modules}))
"""


def test_cold_path_commands_do_not_import_numpy():
    # Each command imports only what it runs: validate, evaluate and compare
    # load neither the optimizer nor the sweep, sweep does not load the
    # optimizer, and only the grid oracle loads numpy.  A fresh interpreter,
    # because the test process has all of them loaded already.
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PATH_CHILD, str(SINGLE_SUPPLIER)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["on_import"] == []
    assert result["after_reports"] == []
    assert result["after_sweep"] == ["citydist.sweep"]
    assert result["numpy_before_oracle"] is False
    assert result["numpy_after_oracle"] is True


_FORMAT_MODULES_CHILD = """
import io, sys
from contextlib import redirect_stdout
from citydist.cli import run

with redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(code, *(m for m in ("json", "csv") if m in sys.modules))
"""


@pytest.mark.parametrize("argv, printed", [
    (["evaluate", "--scheme", "original"], "0"),
    (["compare", "--schemes", "original,original", "--format", "csv"], "0 csv"),
    (["evaluate", "--scheme", "original", "--format", "json"], "0 json"),
], ids=["evaluate_table", "compare_csv", "evaluate_json"])
def test_report_formats_load_only_their_own_module(argv, printed):
    # render imports json only for --format json and csv only for --format
    # csv; a fresh interpreter whose child script imports neither
    proc = subprocess.run(
        [sys.executable, "-c", _FORMAT_MODULES_CHILD, *argv, "--scenario", str(SINGLE_SUPPLIER)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == printed + "\n"


# ------------------------------------------------------------ process entry point

def _in_process(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of run(argv) in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# the environment of the entry-point children, without PYTHONUNBUFFERED: their
# stdout is block-buffered, as a pipe's is by default, so output that main()
# failed to flush would be lost
_BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _entry_point(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m citydist.cli argv``."""
    proc = subprocess.run([sys.executable, "-m", "citydist.cli", *argv],
                          capture_output=True, text=True, env=_BUFFERED)
    return proc.returncode, proc.stdout, proc.stderr


_ATEXIT_CHILD = """
import atexit
atexit.register(print, "atexit handler ran")
from citydist.cli import main
main()
"""


def test_main_ends_the_process_without_teardown():
    # main() flushes the command's output and calls os._exit: an atexit
    # handler, which interpreter teardown would run, does not run
    argv = ["validate", "--scenario", str(BORDEAUX)]
    proc = subprocess.run([sys.executable, "-c", _ATEXIT_CHILD, *argv],
                          capture_output=True, text=True, env=_BUFFERED)
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv)


@pytest.mark.parametrize("code", [0, 2, 3])
def test_entry_point_matches_in_process_run(tmp_path, code):
    path = str(BORDEAUX)
    if code == 3:  # a 30 km radius at 20 km/h cannot meet a 1.5 h lead time
        path = _written(_mutated(("schemes", _SCHEMES.index("original"), "params",
                                  "lead_time_h"), 1.5), tmp_path)
    argv = ["evaluate", "--scenario", path, "--scheme", "nope" if code == 2 else "original"]
    result = _entry_point(argv)
    assert result[0] == code
    assert result == _in_process(argv)


def test_long_output_reaches_the_reader_complete():
    # 20,001 sweep rows, far more than a pipe buffer holds, all flushed
    # before the process ends
    argv = ["sweep", "--scenario", str(SINGLE_SUPPLIER), "--scheme", "original",
            "--layer", "1", "--param", "speed_kmh", "--range", "10:30:0.001",
            "--format", "csv"]
    result = _entry_point(argv)
    assert result[1].count("\n") == 20_002
    assert result == _in_process(argv)


def test_output_file_holds_what_stdout_would(tmp_path):
    out = tmp_path / "report.json"
    argv = ["compare", "--scenario", str(BORDEAUX), "--schemes", "original,ucc,pi",
            "--format", "json"]
    code, stdout, _ = _entry_point(argv)
    assert (code, stdout) == (0, _in_process(argv)[1])
    assert _entry_point([*argv, "--output", str(out)]) == (0, "", "")
    assert out.read_text(encoding="utf-8") == stdout


@pytest.mark.parametrize("target, reason", [
    ("missing/out.txt", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing_directory", "directory"])
def test_unwritable_output_exits_2_without_traceback(tmp_path, target, reason):
    path = str(tmp_path / target)
    argv = ["evaluate", "--scenario", str(BORDEAUX), "--scheme", "pi", "--output", path]
    message = f"invalid request: cannot write --output {path!r}: {reason}\n"
    assert _in_process(argv) == (2, "", message)
    assert _entry_point(argv) == (2, "", message)


@pytest.mark.parametrize("argv", [
    ["validate", "--scenario", str(BORDEAUX)],
    ["sweep", "--scenario", str(BORDEAUX), "--scheme", "pi", "--layer", "2",
     "--param", "lead_time_h", "--range", "0.25:24:0.05"],
], ids=["validate", "sweep"])
def test_closed_stdout_exits_1_without_traceback(argv):
    # a pipe whose reader is gone, as for `citydist ... | head -0`; validate's
    # one line fails in main()'s flush, the sweep's table in run()'s write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "citydist.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=_BUFFERED)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_process_started_without_stdout_exits_0():
    # with file descriptor 1 closed, sys.stdout is None: nothing to flush
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "citydist.cli",
         "validate", "--scenario", str(BORDEAUX)], stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_non_numeric_hub_weights_exit_2(tmp_path, capsys):
    doc = yaml.safe_load(BORDEAUX.read_text())
    pi = next(s for s in doc["schemes"] if s["name"] == "pi")
    pi["hub_weights"] = ["a", "b"]
    broken = tmp_path / "broken.scenario"
    broken.write_text(yaml.safe_dump(doc))
    assert run(["evaluate", "--scenario", str(broken), "--scheme", "pi"]) == 2
    assert "schemes[pi].hub_weights[0]: expected a number" in capsys.readouterr().err


def test_negative_hub_weight_exits_2_with_path(tmp_path, capsys):
    # the weights sum to 1, so only a per-weight check can refuse -0.5
    assert _validate_mutated(tmp_path, "schemes.2.hub_weights", [1.5, -0.5]) == 2
    assert ("scenario error: schemes[pi].hub_weights[1]: must be >= 0"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field, value, message", [
    ("schemes.2.hub_weights", [0.5, 0.5, 0.0],
     "schemes[pi].hub_weights: one weight per hub required: 3 for 2 hubs"),
    ("schemes.1.handling_cost_per_delivery", -1,
     "schemes[ucc].handling_cost_per_delivery: must be >= 0"),
    ("schemes.1.city_params.radius_km", -1,
     "schemes[ucc].city_params: params.radius_km must be > 0"),
], ids=["hub_weights_count", "handling_cost_negative", "city_params_radius"])
def test_scheme_field_refusal_names_its_path(tmp_path, capsys, field, value, message):
    # each used to be refused by a builder or NetworkParams, under the bare
    # scheme path
    assert _validate_mutated(tmp_path, field, value) == 2
    assert f"scenario error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("vehicles.1.id", "van_2p3t_city",
     "vehicles[van_2p3t_city]: duplicate vehicle id 'van_2p3t_city'"),
    ("unit_classes.1.id", "parcel", "unit_classes[parcel]: duplicate unit class 'parcel'"),
    ("suppliers.1.name", "supplier_1", "suppliers[supplier_1]: duplicate supplier 'supplier_1'"),
    ("schemes.1.name", "original", "schemes[original]: duplicate scheme 'original'"),
    ("suppliers.0.demand", [{"unit": "mixed_drop", "stops": k} for k in (6, 2)],
     "suppliers[supplier_1].demand[1].unit: duplicate demand row for unit 'mixed_drop'"),
    ("suppliers.0.demand.0.unit", "crate",
     "suppliers[supplier_1].demand[0].unit: unknown unit class 'crate'"),
    ("schemes.1.shuttle_vehicle", "blimp",
     "schemes[ucc].shuttle_vehicle: unknown vehicle 'blimp'"),
    ("suppliers.0.temperature_classes", ["Q"],
     "suppliers[supplier_1].temperature_classes[0]: unknown temperature class 'Q'"),
    ("vehicles", [], "vehicles: at least one vehicle is required"),
], ids=["vehicle_id", "unit_class", "supplier", "scheme", "demand_row", "unknown_unit_class",
        "unknown_shuttle_vehicle", "unknown_temperature_class", "no_vehicles"])
def test_reference_and_duplicate_errors_name_their_path(tmp_path, capsys, field, value, message):
    assert _validate_mutated(tmp_path, field, value) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


def test_external_factor_error_is_the_same_under_every_hash_seed(tmp_path):
    # the loader used to take the categories from a set, so which of two bad
    # factors it named first depended on PYTHONHASHSEED (noise at 0, 1, 2, 4
    # and 5, accident at 3); it now reads model.EXTERNAL_CATEGORIES in order
    doc = copy.deepcopy(_DOC)
    doc["external_factors"].update(noise="x", accident="y")
    path = _written(doc, tmp_path)
    children = [subprocess.Popen(
        [sys.executable, "-m", "citydist.cli", "validate", "--scenario", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": str(seed)}) for seed in range(6)]
    results = {(child.communicate()[1], child.returncode) for child in children}
    assert results == {("scenario error: external_factors.accident: expected a number\n", 2)}


def _validate_mutated(tmp_path, field, value) -> int:
    """Run `validate` on bordeaux.scenario with one dotted field replaced, or
    dropped when value is _DROP."""
    path = tuple(int(key) if key.isdigit() else key for key in field.split("."))
    return run(["validate", "--scenario", _written(_mutated(path, value), tmp_path)])


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


# ------------------------------------------------------------ mutated scenarios

_DOC = yaml.safe_load(BORDEAUX.read_text())
_SCHEMES = tuple(scheme["name"] for scheme in _DOC["schemes"])
_DROP = "<drop the field>"
# each leaf of a mutated document is replaced by one of these, or dropped
_MUTATIONS = (["x"], {"x": 1}, True, math.nan, math.inf, -math.inf, 10 ** 30, -1, 0, "x",
              None, _DROP)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, (*path, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaf_paths(child, (*path, i))
    else:
        yield path


# bordeaux.scenario with the optional keys it omits, at values that keep it
# valid: pi's hub weights and pinned shuttle tours (one 25 t shuttle tour per
# hub carries it) and the network_defaults fields every layer sets itself
_FULL_DOC = copy.deepcopy(_DOC)
_FULL_DOC["schemes"][_SCHEMES.index("pi")].update(hub_weights=[0.5, 0.5],
                                                  shuttle_tours_per_hub=1)
_FULL_DOC["network_defaults"].update(radius_km=30, area_km2=186, stop_time_h=0.25)
# the documents the mutation test mutates, and the scheme names of each
_SINGLE_DOC = yaml.safe_load(SINGLE_SUPPLIER.read_text())
_MUTATED_DOCS = (_FULL_DOC, _SINGLE_DOC)
_MUTATED_SCHEMES = tuple(tuple(scheme["name"] for scheme in doc["schemes"])
                         for doc in _MUTATED_DOCS)
_LEAVES = tuple((k, path) for k, doc in enumerate(_MUTATED_DOCS) for path in _leaf_paths(doc))


def _mutated(path, value, base=_DOC) -> dict:
    """A copy of base, bordeaux.scenario by default, with the node at path
    replaced by value, or dropped."""
    doc = copy.deepcopy(base)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return doc


def _written(doc, directory) -> str:
    path = directory / "mutated.scenario"
    path.write_text(yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper)))
    return str(path)


def _run_quietly(command, path, *options) -> tuple[int, str]:
    """Exit code and combined stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([command, "--scenario", path, *options])
    return code, out.getvalue() + err.getvalue()


@pytest.mark.parametrize("base, edit, options, message", [
    (_DOC, None, ["--scheme", "ucc", "--layer", "1"],
     "layer 1 of 'ucc' is not an analytical layer"),
    (_DOC, None, ["--scheme", "pi", "--layer", "2", "--vehicles", "nope,also"],
     "unknown vehicle id(s): nope, also"),
    (_SINGLE_DOC, (("optimization",), _DROP), ["--scheme", "original", "--layer", "1"],
     "no vehicles given: pass --vehicles or add an optimization block to the scenario"),
    (_SINGLE_DOC, (("suppliers", 0, "demand"), []), ["--scheme", "original", "--layer", "1"],
     "layer 1 of 'original' carries no unit demand"),
    # a repeated id gave two report columns that could not be told apart
    (_SINGLE_DOC, None, ["--scheme", "original", "--layer", "1",
                         "--vehicles", "truck_25t,truck_25t"],
     "--vehicles: vehicle id 'truck_25t' is given twice"),
    (_SINGLE_DOC, None, ["--scheme", "original", "--layer", "1", "--vehicles", "truck_25t,,x"],
     "--vehicles: entry 2 of 'truck_25t,,x' is empty"),
    (_SINGLE_DOC, None, ["--scheme", "original", "--layer", "1", "--vehicles", ""],
     "--vehicles: entry 1 of '' is empty"),
], ids=["shuttle_layer", "unknown_vehicles", "no_vehicles", "no_unit_demand",
        "repeated_vehicle", "empty_vehicle", "empty_vehicles"])
def test_optimize_refusal_exits_2(tmp_path, capsys, base, edit, options, message):
    path = _written(_mutated(*edit, base) if edit else base, tmp_path)
    assert run(["optimize", "--scenario", path, *options]) == 2
    assert capsys.readouterr().err == f"invalid request: {message}\n"


@pytest.mark.parametrize("options, message", [
    (["--schemes", "original,,original"], "--schemes: entry 2 of 'original,,original' is empty"),
    (["--schemes", "original,"], "--schemes: entry 2 of 'original,' is empty"),
    (["--schemes", "original,ucc", "--baseline", ""], "--baseline: the scheme name is empty"),
], ids=["inner_scheme", "trailing_scheme", "baseline"])
def test_compare_empty_name_exits_2(capsys, options, message):
    assert run(["compare", "--scenario", str(BORDEAUX), *options]) == 2
    assert capsys.readouterr() == ("", f"invalid request: {message}\n")


def test_compare_schemes_refuses_an_empty_baseline():
    scenario = load_scenario(str(BORDEAUX))
    schemes = [scenario.scheme("original"), scenario.scheme("ucc")]
    assert compare_schemes(schemes).baseline == "original"
    with pytest.raises(DomainError, match="baseline '' not among schemes"):
        compare_schemes(schemes, baseline_name="")


def test_unequal_hub_weights_give_one_city_layer_per_hub(tmp_path, capsys):
    weights = [0.25, 0.25, 0.5]
    doc = copy.deepcopy(_DOC)
    doc["schemes"][_SCHEMES.index("pi")].update(hub_count=3, hub_weights=weights)
    path = _written(doc, tmp_path)
    scenario = load_scenario(path)
    pooled = merge_demands(rec.supplier.demand for rec in scenario.suppliers)
    layers = scenario.scheme("pi").layers[1:]
    assert [layer.name for layer in layers] == ["hub1_to_stops", "hub2_to_stops",
                                                "hub3_to_stops"]
    for layer, weight in zip(layers, weights):
        assert [a.demand for a in layer.fleet] == [pooled.scale(weight)]
        assert layer.subregion_count == 1
    assert run(["evaluate", "--scenario", path, "--scheme", "pi"]) == 0
    assert run(["sweep", "--scenario", path, "--scheme", "pi", "--layer", "4",
                "--param", "lead_time_h", "--range", "1:8:1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("key", ["radius_km", "area_km2", "stop_time_h"])
@pytest.mark.parametrize("scheme_index, block", [
    (i, block) for i, scheme in enumerate(_DOC["schemes"])
    for block in ("params", "shuttle_params", "city_params") if block in scheme])
def test_missing_required_params_field_exits_2_with_path(tmp_path, capsys, scheme_index,
                                                         block, key):
    # network_defaults gives none of these, so each layer's block must; the
    # merged block used to reach NetworkParams() and raise TypeError
    assert _validate_mutated(tmp_path, f"schemes.{scheme_index}.{block}.{key}", _DROP) == 2
    assert (f"scenario error: schemes[{_SCHEMES[scheme_index]}].{block}: "
            f"missing required field(s): {key}") in capsys.readouterr().err
    # a default makes the field optional again
    doc = _mutated(("schemes", scheme_index, block, key), _DROP)
    doc["network_defaults"][key] = _DOC["schemes"][scheme_index][block][key]
    assert run(["validate", "--scenario", _written(doc, tmp_path)]) == 0


def test_empty_temperature_classes_exit_2_with_path(tmp_path, capsys):
    # the coverage check used to read temperature_classes[0] and raise IndexError
    assert _validate_mutated(tmp_path, "suppliers.0.temperature_classes", []) == 2
    assert ("scenario error: suppliers[supplier_1].temperature_classes: "
            "at least one temperature class is required") in capsys.readouterr().err


@pytest.mark.parametrize("hubs", [MAX_HUB_COUNT + 1, 10 ** 30, 0])
def test_hub_count_out_of_range_exits_2_with_path(tmp_path, capsys, hubs):
    # build_pi makes a weight per hub: 10^30 hubs used to exhaust memory
    assert _validate_mutated(tmp_path, "schemes.2.hub_count", hubs) == 2
    assert (f"scenario error: schemes[pi].hub_count: must be an integer from 1 to "
            f"{MAX_HUB_COUNT}") in capsys.readouterr().err


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@settings(max_examples=100, deadline=None, derandomize=True)
# the optional keys (those bordeaux.scenario omits, and a demand row's
# avg_weight_kg), which the 100 drawn examples miss
@example(leaf=(0, ("schemes", 2, "hub_weights", 0)), value=math.nan, scheme=2)
@example(leaf=(0, ("schemes", 2, "shuttle_tours_per_hub")), value=0, scheme=2)
@example(leaf=(0, ("network_defaults", "radius_km")), value=_DROP, scheme=0)
@example(leaf=(0, ("network_defaults", "stop_time_h")), value=-1, scheme=1)
@example(leaf=(1, ("suppliers", 0, "demand", 0, "avg_weight_kg")), value=_DROP, scheme=0)
@given(leaf=st.sampled_from(_LEAVES), value=st.sampled_from(_MUTATIONS),
       scheme=st.integers(0, len(_SCHEMES) - 1))
def test_mutated_scenario_exits_cleanly(mutation_dir, leaf, value, scheme):
    """A malformed scenario is refused with exit 2, or evaluates and sweeps
    to finite KPIs (or an infeasible verdict); nothing raises or prints
    NaN/Infinity."""
    k, path = leaf
    written = _written(_mutated(path, value, _MUTATED_DOCS[k]), mutation_dir)
    code, out = _run_quietly("validate", written)
    assert code in (0, 2)
    assert "NaN" not in out and "Infinity" not in out
    if code == 0:  # a document that fails to load fails these the same way
        names = _MUTATED_SCHEMES[k]
        at = ("--scheme", names[scheme % len(names)], "--format", "json")
        for command, *options in (("evaluate",), ("sweep", "--layer", "1", "--param",
                                                   "lead_time_h", "--range", "4:8:2")):
            code, out = _run_quietly(command, written, *at, *options)
            assert code in (0, 2, 3)
            assert "NaN" not in out and "Infinity" not in out


def test_infeasible_layer_reads_the_same_everywhere(tmp_path, capsys):
    # pi's city layer at a 0.3 h lead time: the 10 km round trip to the hub
    # alone takes longer, so no tour count meets it
    path = _written(_mutated(("schemes", _SCHEMES.index("pi"), "city_params", "lead_time_h"),
                             0.3), tmp_path)
    message = ("no feasible tour count for vehicle 'truck_17t_city': "
               "lead_time constraint diverges (layer 'hubs_to_stops')")
    scenario = load_scenario(path)
    scheme = scenario.scheme("pi")
    with pytest.raises(InfeasibleError) as err:
        evaluate_scheme(scheme)
    assert str(err.value) == message
    table = compare_schemes([scenario.scheme(name) for name in _SCHEMES])
    for row in table.rows:
        assert row.error == (message if row.scheme == "pi" else None)
        assert (row.report is None) == (row.scheme == "pi")
    # the swept layer itself, then an unchanged layer after the swept one
    for layer_index, parameter, value in ((1, "lead_time_h", 0.3), (0, "radius_km", 25.0)):
        report = sweep_parameter(SweepSpec(parameter, value, value, 1.0, scheme, layer_index))
        assert [row.error for row in report.rows] == [message]
    assert run(["evaluate", "--scenario", path, "--scheme", "pi"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"infeasible: {message}\n")


def test_too_few_pinned_shuttle_tours_exit_2_at_load(tmp_path):
    # one 2.3 t van tour per hub cannot carry a hub's 19,946.5 kg: validate
    # used to pass, and evaluate, compare and sweep to exit 4 in fill_rate
    doc = copy.deepcopy(_DOC)
    pi = doc["schemes"][_SCHEMES.index("pi")]
    pi.update(shuttle_vehicle="van_2p3t_city", shuttle_tours_per_hub=1)
    path = _written(doc, tmp_path)
    for command, *options in (
            ("validate",), ("evaluate", "--scheme", "pi"),
            ("compare", "--schemes", "original,pi"),
            ("sweep", "--scheme", "pi", "--layer", "2", "--param", "lead_time_h",
             "--range", "2:8:2")):
        code, out = _run_quietly(command, path, *options)
        assert code == 2
        assert out.startswith("scenario error: schemes[pi]")
        assert "shuttle_tours_per_hub (1)" in out
        assert "load per tour (19946.5 kg) exceeds effective capacity (2300.0 kg)" in out
    # 8 tours still fall short; 9 carry the load, and the scheme evaluates
    pi["shuttle_tours_per_hub"] = 8
    assert _run_quietly("validate", _written(doc, tmp_path))[0] == 2
    pi["shuttle_tours_per_hub"] = 9
    path = _written(doc, tmp_path)
    assert _run_quietly("validate", path)[0] == 0
    code, out = _run_quietly("evaluate", path, "--scheme", "pi", "--format", "json")
    assert code == 0
    assert json.loads(out)["tours_by_vehicle"]["van_2p3t_city"] == 2 * 9
