"""The benchmark's per-layer tracing patches lfsearch functions by module and
attribute name, and skips a name it cannot find, so a renamed function would
drop its per-layer metrics without failing a run. This checks every traced
name against the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
