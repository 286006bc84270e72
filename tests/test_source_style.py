"""Style checks over the package source: line length and unused imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gmpd"
MODULES = sorted(SRC.glob("*.py"))
MAX_LINE = 99


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_is_longer_than_the_limit(path):
    long = [i for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > MAX_LINE]
    assert long == [], f"{path.name}: lines over {MAX_LINE} characters: {long}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py is exempt: its imports are the package's re-exports
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == [], f"{path.name} imports names it never uses"
