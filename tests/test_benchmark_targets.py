"""The benchmark's per-layer tracer finds every target it names in the package.

``perfbench/layertrace.py`` wraps public functions by name; a target that
the package no longer defines would drop out of the traced run.  Its
``TARGETS`` table is read here, not changed.  It also reads the pencil
dimension as ``len()`` of ``oracle.pencil_min_eig``'s first argument.
"""

import importlib
import importlib.util
import os
import sys

import pytest

from dissipext import criteria, oracle
from reference.problems import equivalence_problem

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


@pytest.mark.parametrize("kind", ["konzert", "shirley", "potsdam", "rank_one", "multiplication"])
def test_pencil_dimension_is_the_first_argument_length(kind, rank_one_direction, monkeypatch):
    # the tracer's oracle.pencil_dim_sum adds len() of pencil_min_eig's
    # first positional argument: n core splines plus the extension vector.
    # A ladder that passed the pencil by keyword would break the count.
    problem = equivalence_problem(kind, rank_one_direction)
    op = oracle.assemble_discrete(problem, 32)
    assert len(op) == len(op.h) == len(op.g) == 32 + 1
    positional = []
    min_eig = oracle.pencil_min_eig

    def recording(*args, **kwargs):
        positional.append(args)
        return min_eig(*args, **kwargs)

    monkeypatch.setattr(oracle, "pencil_min_eig", recording)
    oracle.cross_validate(problem, criteria.decide(problem), meshes=(16, 32))
    assert [len(args[0]) for args in positional] == [16 + 1, 32 + 1]
