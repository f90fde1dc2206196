"""Per-layer spans around dissipext's public functions, installed from outside.

A :class:`Tracer` replaces each target function at every name a caller looks
it up under: each module of the package that bound the function at import
time (``catalog`` binds ``make_grid``), the class for methods and
classmethods, and ``mpmath.quad`` for the quadrature that ``analytic``
reaches through the ``mpmath`` module.  Every call becomes a span with a
start, an end and a parent.  A span opened on a worker thread that has no
open span of its own takes the main thread's innermost open span as its
parent, so the sweep's pool work nests under ``cli_io.run_sweep``.

Spans are folded into per-layer totals as they close: ``calls`` and
``self_s``, the span's duration minus the union of its children's
intervals.  Children on different threads overlap, hence the union.
Leaving the ``with`` block restores every original binding.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: (layer, owner, attribute): owner is a module name or "module:Class".
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cli_io.parse_config", "dissipext.cli_io", "parse_config"),
    ("cli_io.run_check", "dissipext.cli_io", "run_check"),
    ("cli_io.run_sweep", "dissipext.cli_io", "run_sweep"),
    ("catalog.build", "dissipext.cli_io", "build_problem"),
    ("catalog.build", "dissipext.catalog", "build_potsdam"),
    ("catalog.build", "dissipext.catalog", "build_shirley"),
    ("catalog.build", "dissipext.catalog", "build_konzert"),
    ("catalog.build", "dissipext.catalog", "build_halfline_schrodinger"),
    ("grid.make_grid", "dissipext.grid", "make_grid"),
    ("grid.from_analytic", "dissipext.grid:GridFunction", "from_analytic"),
    ("criteria.decide", "dissipext.criteria", "decide"),
    ("criteria.necessity_checks", "dissipext.criteria", "necessity_checks"),
    ("criteria.verdict_general", "dissipext.criteria", "verdict_general"),
    ("forms.krein_form", "dissipext.forms", "krein_form"),
    ("forms.friedrichs_form", "dissipext.forms", "friedrichs_form"),
    ("forms.krein_form_sq", "dissipext.forms", "krein_form_sq"),
    ("forms.friedrichs_form_sq", "dissipext.forms", "friedrichs_form_sq"),
    ("forms.discrete_sqrt_pair", "dissipext.forms", "discrete_sqrt_pair"),
    ("forms.vf_solve", "dissipext.forms", "vf_solve"),
    ("forms.projection_P", "dissipext.forms", "projection_P"),
    ("analytic.integral", "dissipext.analytic:AnalyticFunction", "integral"),
    ("analytic.evaluate", "dissipext.analytic:AnalyticFunction", "__call__"),
    ("analytic.mpmath_quad", "mpmath", "quad"),
    ("oracle.assemble_discrete", "dissipext.oracle", "assemble_discrete"),
    ("oracle.pencil_min_eig", "dissipext.oracle", "pencil_min_eig"),
    ("oracle.cross_validate", "dissipext.oracle", "cross_validate"),
    ("eigenh.pencil_extreme", "dissipext.eigenh", "pencil_extreme"),
    ("eigenh.cholesky", "dissipext.eigenh", "cholesky"),
    ("eigenh.eigh", "dissipext.eigenh", "eigh"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

PACKAGE = "dissipext"


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Span:
    __slots__ = ("layer", "start", "parent", "children")

    def __init__(self, layer: str, start: float, parent: "_Span | None"):
        self.layer = layer
        self.start = start
        self.parent = parent
        self.children: list[tuple[float, float]] = []


class Tracer:
    """Context manager that installs the spans, aggregates them and restores.

    ``counters`` holds counts taken at a boundary from its arguments:
    ``oracle.pencil_dim_sum`` adds the dimension of every pencil solved.
    ``root_intervals`` are the spans without a parent; ``missing`` lists
    targets the installed package does not define.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.root_intervals: list[tuple[float, float]] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack: list[_Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[_Span]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent_for(self, stack: list[_Span]) -> _Span | None:
        if stack:
            return stack[-1]
        if stack is not self._main_stack:
            try:
                return self._main_stack[-1]
            except IndexError:
                return None
        return None

    def _close(self, span: _Span, end: float) -> None:
        with self._lock:
            covered = union_length(span.children, span.start, end)
            self.calls[span.layer] += 1
            self.self_s[span.layer] += (end - span.start) - covered
            if span.parent is None:
                self.root_intervals.append((span.start, end))
            else:
                span.parent.children.append((span.start, end))

    def _wrap(self, layer: str, fn):
        tracer = self
        count_dim = layer == "oracle.pencil_min_eig"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = _Span(layer, perf_counter(), tracer._parent_for(stack))
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(span, end)
                if count_dim:
                    with tracer._lock:
                        tracer.counters["oracle.pencil_dim_sum"] += len(args[0])

        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, name: str, new) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, new)

    def _install_one(self, layer: str, owner_spec: str, attr: str) -> None:
        mod_name, _, cls_name = owner_spec.partition(":")
        module = sys.modules.get(mod_name)
        owner = getattr(module, cls_name, None) if cls_name else module
        raw = None
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        elif owner is not None:
            raw = getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{owner_spec}.{attr}")
            return
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(layer, raw.__func__)))
            else:
                self._patch(owner, attr, self._wrap(layer, raw))
            return
        wrapped = self._wrap(layer, raw)
        if not mod_name.startswith(PACKAGE):
            self._patch(owner, attr, wrapped)
            return
        # every module of the package that bound the same function object
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._patch(mod, key, wrapped)

    def __enter__(self) -> "Tracer":
        self.missing = []
        try:
            for layer, owner_spec, attr in self.targets:
                self._install_one(layer, owner_spec, attr)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original binding back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
