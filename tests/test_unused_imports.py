"""Every name a citydist module imports is used in that module.

A name bound on purpose for another module's use is marked on its line
with ``# noqa: F401``, as ``sweep.evaluate_scheme`` is for perfbench's tracer.
"""
import ast

import pytest

from conftest import REPO

SOURCES = sorted((REPO / "src" / "citydist").glob("*.py"))


def _unused_imports(path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            # "import a.b" binds a
            imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_check_sees_an_unused_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import os\nimport sys  # noqa: F401\n"
                      "from math import (\n    fsum,\n    isclose,\n)\n\nprint(fsum([]))\n")
    assert _unused_imports(source) == ["sample.py:1: os", "sample.py:5: isclose"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
