"""Source hygiene: every module reads each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "blockmae"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unread_imports(source):
    """Names a module binds by import but never loads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_detector_finds_an_unread_import():
    source = ("import os\nimport a.b\nfrom . import rng\n"
              "from .tape import Tape as T, ContractError\n"
              "def f():\n    raise ContractError(a.b.c)\n")
    assert _unread_imports(source) == ["T", "os", "rng"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert _unread_imports(path.read_text(encoding="utf-8")) == []
