"""The traced run's counts repeat exactly, and tracing leaves the package as it was.

    python3 -m pytest -q perfbench/check_counts.py

Two traced rounds of each workload at one seed must give identical per-layer
call counts, pencil dimension sums and ``mpmath.quad`` calls, so that a later
change can cite them as counts.  The file name keeps it out of a plain
``pytest`` run of the repository: it runs every workload's round twice under
tracing, about a minute on two cores.
"""

from __future__ import annotations

import os
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from time import sleep

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_package()

import mpmath  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer, union_length  # noqa: E402

SEED = 7


def _traced_round(wl, inputs):
    rec = workloads.Recorder()
    with Tracer() as tracer:
        out = wl.run_round(inputs, rec)
    return tracer, rec, repr(out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(SEED)
    wl.warmup(inputs)
    first, rec1, out1 = _traced_round(wl, inputs)
    second, rec2, out2 = _traced_round(wl, inputs)
    assert not first.missing
    assert dict(first.calls) == dict(second.calls)
    assert dict(first.counters) == dict(second.counters)
    assert first.calls.get("analytic.mpmath_quad", 0) == second.calls.get("analytic.mpmath_quad", 0)
    assert out1 == out2
    assert rec1.failed == 0 and rec2.failed == 0, rec1.failures + rec2.failures


def _bindings() -> dict:
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "dissipext" or name.startswith("dissipext.")):
            for key, value in vars(mod).items():
                snap[(name, key)] = value
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        snap[(name, key, attr)] = raw
    snap[("mpmath", "quad")] = mpmath.quad
    return snap


def test_tracer_restores_every_binding():
    before = _bindings()
    with Tracer():
        during = _bindings()
    after = _bindings()
    changed = [k for k in before if during.get(k) is not before[k]]
    # make_grid alone is bound in grid, catalog, cli_io and the package
    assert sum(1 for k in changed if k[-1] == "make_grid") >= 3
    assert ("mpmath", "quad") in changed
    assert all(after[k] is before[k] for k in before)


def test_union_length():
    assert union_length([], 0.0, 1.0) == 0.0
    assert union_length([(0.0, 0.5), (0.25, 0.75), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.85)


def test_pool_spans_nest_under_the_open_span():
    fake = types.ModuleType("perfbench_fake_layer")

    def child():
        sleep(0.05)

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(fake.child) for _ in range(4)]:
                f.result()

    fake.child, fake.parent = child, parent
    sys.modules[fake.__name__] = fake
    try:
        targets = (("fake.parent", fake.__name__, "parent"), ("fake.child", fake.__name__, "child"))
        with Tracer(targets) as tracer:
            fake.parent()
    finally:
        del sys.modules[fake.__name__]
    assert fake.parent is parent and fake.child is child
    assert tracer.calls["fake.child"] == 4
    assert len(tracer.root_intervals) == 1
    # four 50 ms children on two threads cover the parent's 100 ms; summing
    # them instead of taking their union would leave -100 ms of self time
    assert 0.0 <= tracer.self_s["fake.parent"] < 0.04
