"""The record rule: a record class that checks an invariant (``__post_init__``)
or has a factory default is a frozen dataclass; every other record is a
``typing.NamedTuple``, which costs a cold start far less to build than the
six or so methods a dataclass compiles."""
import dataclasses
import importlib
import json
import subprocess
import sys

import pytest

MODULES = ("cli", "model", "optimize", "report", "scenario", "schemes", "sweep")
CONVERTED = (
    ("model", "TourPlan"),
    ("schemes", "FleetAssignment"), ("schemes", "ComparisonRow"), ("schemes", "ComparisonTable"),
    ("report", "OptimizationResult"), ("report", "SweepRow"), ("report", "SweepReport"),
    ("scenario", "SupplierRecord"), ("scenario", "Scenario"),
    ("optimize", "ConstraintSlack"),
)
# the dataclasses importing citydist.cli builds: each checks an invariant or has a factory
COLD_DATACLASSES = ["DeliveryUnitType", "DemandProfile", "ExternalCostFactors", "KpiReport",
                    "LayerSpec", "NetworkParams", "SaConfig", "SchemeSpec", "Supplier",
                    "VehicleType"]


def _classes():
    for name in MODULES:
        module = importlib.import_module(f"citydist.{name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def _converted(module: str, name: str) -> type:
    return getattr(importlib.import_module(f"citydist.{module}"), name)


def test_every_dataclass_checks_an_invariant_or_has_a_factory():
    plain = [cls.__qualname__ for cls in _classes() if dataclasses.is_dataclass(cls)
             and "__post_init__" not in vars(cls)
             and all(f.default_factory is dataclasses.MISSING for f in dataclasses.fields(cls))]
    assert plain == []


@pytest.mark.parametrize("module, name", CONVERTED)
def test_plain_records_are_named_tuples(module, name):
    cls = _converted(module, name)
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert cls._fields and all(isinstance(f, str) for f in cls._fields)


_COUNT_CHILD = """
import dataclasses, json
process = dataclasses._process_class
built = []

def counted(cls, *args, **kwargs):
    built.append(cls.__qualname__)
    return process(cls, *args, **kwargs)
dataclasses._process_class = counted
import citydist.cli
print(json.dumps(sorted(built)))
"""


def test_cold_import_builds_only_the_dataclasses_with_invariants():
    # a fresh interpreter: the test process has every module loaded already
    assert hasattr(dataclasses, "_process_class")
    proc = subprocess.run([sys.executable, "-c", _COUNT_CHILD], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == COLD_DATACLASSES


@pytest.mark.parametrize("module, name", CONVERTED)
def test_converted_record_value_semantics(module, name):
    cls = _converted(module, name)
    values = [f"v{i}" for i in range(len(cls._fields))]
    record, twin = cls(*values), cls(**dict(zip(cls._fields, values)))
    assert record == twin and hash(record) == hash(twin) == hash(tuple(values))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], "changed")
    changed = record._replace(**{cls._fields[-1]: "changed"})
    assert type(changed) is cls and changed[-1] == "changed" and changed[:-1] == record[:-1]
    assert record[-1] == values[-1]  # the original is untouched
    fields = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
    assert repr(record) == f"{name}({fields})"
