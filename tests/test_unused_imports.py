"""Every name a citydist module imports is used in that module, and every
private module-level name is used somewhere in the package.

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


def _private_definitions(tree) -> dict:
    """Module-level ``_name`` definitions (dunders exempt): name -> the
    nodes that define it, a def's or class's body included."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(node.name, node)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, t) for n in nodes for t in ast.walk(n) if isinstance(t, ast.Name)]
        else:
            continue
        for name, where in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, set()).update(map(id, ast.walk(where)))
    return defined


def _dead_private_names(paths) -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    references = [node for tree in trees.values() for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))
                  or isinstance(node, ast.Attribute)]
    dead = []
    for module, tree in trees.items():
        for name, own in _private_definitions(tree).items():
            if not any(getattr(node, "id", None) == name or getattr(node, "attr", None) == name
                       for node in references if id(node) not in own):
                dead.append(f"{module}: {name}")
    return dead


def test_the_check_sees_a_dead_private_name(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("_LIMIT = 3\n_USED = 4\n__all__ = []\n\n\n"
                      "def _recursive(n):\n    return _recursive(n - 1) if n else _USED\n\n\n"
                      "class _Unused:\n    pass\n")
    other = tmp_path / "other.py"
    other.write_text("from sample import _LIMIT\n\nprint(_LIMIT)\n")
    assert _dead_private_names([source]) == ["sample.py: _LIMIT", "sample.py: _recursive",
                                             "sample.py: _Unused"]
    assert _dead_private_names([source, other]) == ["sample.py: _recursive",
                                                    "sample.py: _Unused"]


def test_no_dead_private_names():
    assert _dead_private_names(SOURCES) == []
