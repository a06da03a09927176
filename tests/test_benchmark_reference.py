"""The benchmark's own output checks, replayed: the five cold_cli commands
and the five sensitivity sweeps against perfbench/reference/*.json, with
perfbench/workloads.py's parsers and tolerances.  A change to a printed
number fails here rather than as a failed benchmark operation."""

import importlib
import json

import pytest

from citydist.scenario import load_scenario
from citydist.sweep import sweep_parameter

from conftest import REPO

COMMANDS = ("validate", "evaluate", "compare", "sweep", "optimize")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO))
    return importlib.import_module("perfbench.workloads")


def _reference(workloads, name):
    with open(workloads.REFERENCE_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("command", COMMANDS)
def test_cold_cli_output_matches_the_reference(workloads, command):
    assert set(workloads.cli_commands()) == set(COMMANDS)
    code, out, _ = workloads.run_cli(workloads.cli_commands()[command])
    assert code == 0
    assert workloads.numbers_match(workloads.output_numbers(command, out),
                                   _reference(workloads, "cold_cli.json")[command])


def test_sensitivity_sweeps_match_the_reference(workloads):
    reference = _reference(workloads, "sensitivity.json")
    specs = workloads.sweep_specs(load_scenario(str(workloads.BORDEAUX)))
    assert set(specs) == set(reference)
    for label, spec in specs.items():
        assert workloads.sweep_matches(sweep_parameter(spec), reference[label]), label
