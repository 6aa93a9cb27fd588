"""Every name a `seedmark` module imports is used in that module.

A standard-library stand-in for a linter's unused-import rule, so that
code removed from a module does not leave its imports behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "seedmark"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression in `source` reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\nnp.zeros(loads('1'))\n"
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
