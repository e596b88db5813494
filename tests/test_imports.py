"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = Path(__file__).parents[1] / "src" / "higgs_lab"
MODULES = sorted(p for p in SOURCES.glob("*.py") if p.name != "__init__.py")  # it re-exports


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements (not from __future__) that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path, sys\nfrom a import b, c as d\nd(sys)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name
