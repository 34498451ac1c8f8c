"""No linter runs over this repository, so this checks one rule of one from
its syntax trees: every name an import binds in src/ or tests/ is used in
the module that imports it, or is listed in that module's __all__."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/lfsearch/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list:
    """(line, name) of each name an import in `source` binds that no other
    line of it reads. `from __future__` imports bind no name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for line, name in bound if name not in used)


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "from json import dumps as write, loads\n"
              "import numpy as np\n"
              "from . import spare\n"
              "__all__ = ['spare']\n"
              "print(os.sep, np.pi, write({}))\n")
    assert unused_imports(source) == [(3, "loads")]


def test_every_module_is_checked():
    names = {path.relative_to(ROOT).as_posix() for path in MODULES}
    assert {"src/lfsearch/cli.py", "tests/test_unused_imports.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
