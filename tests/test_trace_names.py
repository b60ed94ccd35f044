"""The benchmark's tracer looks its names up with getattr; each must exist."""

import importlib
import importlib.util
import os

import pytest

from deltafield.field import RadialGrid

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("mod", sorted(SPANS.FUNCTIONS))
def test_traced_functions_exist(mod):
    module = importlib.import_module("deltafield." + mod)
    missing = [name for name in SPANS.FUNCTIONS[mod] if not hasattr(module, name)]
    assert not missing, "deltafield.%s lacks traced names %s" % (mod, missing)


def test_traced_grid_methods_exist():
    missing = [name for name in SPANS.GRID_METHODS if name not in RadialGrid.__dict__]
    assert not missing, "RadialGrid lacks traced methods %s" % missing
