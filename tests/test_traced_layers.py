"""The benchmark's per-layer tracing patches lfsearch functions by module and
attribute name, and skips a name it cannot find, so a renamed function would
drop its per-layer metrics without failing a run; a renamed name that its
scripts import would only show as a failed benchmark run. This checks every
traced and every imported name against the package."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
IMPORTERS = ("child.py", "run.py", "test_perfbench.py")


def traced_layers():
    """LAYERS of perfbench/tracing.py, loaded without writing a bytecode
    cache beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return [(module_name, attr_path) for module_name, attr_path, _work in module.LAYERS]


@pytest.mark.parametrize("module_name, attr_path", traced_layers())
def test_traced_layer_exists(module_name, attr_path):
    owner = importlib.import_module(f"lfsearch.{module_name}")
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def perfbench_imports():
    """(script, module, name) of each lfsearch import in the benchmark's
    scripts, read from their syntax trees, so nothing is compiled beside
    them; the name is None for a plain `import lfsearch.module`."""
    found = []
    for script in IMPORTERS:
        tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "lfsearch":
                found += [(script, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(script, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "lfsearch"]
    return found


def test_the_setup_replay_imports_are_found():
    names = {(module, name) for _script, module, name in perfbench_imports()}
    assert {("lfsearch.cli", None), ("lfsearch.config", "from_dict"),
            ("lfsearch.datasets", "make_pairs")} <= names


@pytest.mark.parametrize("script, module_name, name", perfbench_imports())
def test_perfbench_import_exists(script, module_name, name):
    owner = importlib.import_module(module_name)
    if name is not None and not hasattr(owner, name):
        # `from package import module` imports the submodule.
        importlib.import_module(f"{module_name}.{name}")
