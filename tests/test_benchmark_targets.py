"""The benchmark's per-layer tracer finds every target it names in the package.

``perfbench/layertrace.py`` wraps public functions by name; a target that
the package no longer defines would drop out of the traced run.  Its
``TARGETS`` table is read here, not changed.
"""

import importlib
import importlib.util
import os
import sys

import pytest

_LAYERTRACE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "layertrace.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_layertrace", _LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer, owner, attr", _targets())
def test_layertrace_target_resolves(layer, owner, attr):
    mod_name, _, cls_name = owner.partition(":")
    scope = importlib.import_module(mod_name)
    if cls_name:
        scope = vars(scope)[cls_name]
        assert attr in vars(scope), f"{layer}: {owner}.{attr} missing"
    else:
        assert callable(getattr(scope, attr, None)), f"{layer}: {owner}.{attr} missing"


def test_make_grid_is_bound_where_builders_call_it():
    # the tracer patches make_grid at every module that bound it; the
    # benchmark's own check expects at least three
    importlib.import_module("dissipext.cli_io")
    grid = importlib.import_module("dissipext.grid")
    bound = [name for name, mod in list(sys.modules.items())
             if name.startswith("dissipext") and getattr(mod, "make_grid", None) is grid.make_grid]
    assert len(bound) >= 3, bound
