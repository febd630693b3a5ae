"""The bindings perfbench's tracer wraps still exist under their names."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def tracing_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, layer, timed", tracing_targets())
def test_target_resolves_to_a_callable(module_name, attr, layer, timed):
    # A renamed or moved function would otherwise show up only in a traced
    # benchmark run, as a missing attribute or a layer that counts nothing.
    fn = getattr(importlib.import_module(f"fedsim.{module_name}"), attr)
    assert callable(fn)
    # Layers are named after the module that defines the function.
    assert f"{fn.__module__.removeprefix('fedsim.')}.{fn.__name__}" == layer
