"""No code without a caller, checked from syntax trees: every module-level
function and class in src/ is named somewhere in src/, tests/ or perfbench/
besides its own definition. A name counts where the code reads it, as an
attribute, as an imported name or as a word of a string that is not a
docstring (perfbench names the functions it traces in strings)."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINING = sorted(ROOT.glob("src/lfsearch/*.py"))
NAMING = sorted([*DEFINING, *ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")])
WORD = re.compile(r"[A-Za-z_]\w*")


def _names(tree) -> Counter:
    """How often each name is read in `tree`, docstrings left out."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(WORD.findall(node.value))
    return names


def unnamed_definitions(sources: dict, defining) -> list:
    """(path, line, name) of each module-level function or class of the
    `defining` paths that no source of `sources` (path: text) names outside
    its own definition."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    unnamed = []
    for path in defining:
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and named[node.name] == _names(node)[node.name]):
                unnamed.append((path, node.lineno, node.name))
    return unnamed


def test_the_check_sees_a_definition_without_a_caller():
    module = ("def used(): return helper()\n"
              "def helper(): return 1\n"
              "def recursive(n): return recursive(n - 1) if n else 0\n"
              "def documented():\n"
              "    '''documented, named only here.'''\n"
              "class Traced: pass\n"
              "class Spare:\n"
              "    '''Spare is never made.'''\n"
              "    def method(self): return Spare\n")
    caller = ("from module import used\n"
              "import module\n"
              "module.documented()\n"
              "SPANS = ('module.Traced.run',)\n"
              "print(used())\n")
    assert unnamed_definitions({"module.py": module, "caller.py": caller},
                               ["module.py"]) == [("module.py", 3, "recursive"),
                                                  ("module.py", 7, "Spare")]


def test_every_module_is_checked():
    names = {path.relative_to(ROOT).as_posix() for path in NAMING}
    assert {"src/lfsearch/cli.py", "tests/test_unused_definitions.py",
            "perfbench/tracing.py"} <= names


def test_every_definition_is_named():
    sources = {path: path.read_text(encoding="utf-8") for path in NAMING}
    assert unnamed_definitions(sources, DEFINING) == []
