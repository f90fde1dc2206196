"""Brute-force dissipativity probe via discretized numerical ranges.

The extension operator is projected onto a finite space spanned by cubic
B-spline elements (supports inside the domain, triple zeros where they touch
the boundary, hence inside every scenario's operator core) plus one column
for the extension vector itself.  The elements, their quadrature panels and
the banded assembly come from the package's one spline layer,
:mod:`dissipext.splines`.  :func:`_reference_mesh` chooses the reference
knot vector on ``[0, 1]``; a span ``[lo, lo + L]`` has its image under
``x = lo + L s`` as knots, and for any reference vector its splines are an
affine image of the reference ones (de Boor, *A Practical Guide to
Splines*, ch. IX).  So what no problem changes is cached per mesh: the
tables, the bands of the Gram matrix ``G_ref`` and of the symmetrized
``int b_k b_l''`` matrix ``S2_ref``, and ``G_ref``'s ``L D L^H`` factor.  A
rung's Gram core is ``L G_ref`` and its factor the cached one with the
pivots scaled by ``L``; only the border is factored per problem.  The action
is read from the problem (:meth:`~dissipext.catalog.ExtensionProblem.expression`
and :meth:`~dissipext.catalog.ExtensionProblem.deviation`), and the
extension vector's entries against itself are closed-form term-sum
integrals.  The right edge of a half-line core span is where the problem's
functions decay, read from their term sums
(:func:`~dissipext.analytic.tail_point`), so a truncation radius beyond
their decay does not move it.  These closed forms do not depend on the mesh,
and a mesh ladder computes them once (:func:`cross_validate`).  The infimum
of the numerical range's imaginary part over that space is the minimal
eigenvalue of the Hermitian pencil ``H x = mu G x`` with
``H = (M - M^H) / 2i`` the Gram-weighted imaginary part of the discretized
action ``M``, which is not kept.  The assembly returns it as one
:class:`eigenh.Pencil`.  ``H``'s core block is real
(:func:`assemble_discrete`), and so is ``G``'s.  Both are band-plus-border
parts (:class:`eigenh.BandBorder`: a real band of half-bandwidth 3 and the
complex extension-vector border), beside the rank-one term of the rank-one
Schroedinger scenario, so one mesh costs ``O(n)`` time and memory;
:func:`eigenh.pencil_extreme` finds the minimum from inertia counts in
``O(n)`` work per shift.  Along a mesh ladder each rung's infimum is the
next rung's first shift (:func:`cross_validate`).

A negative discrete infimum certifies non-dissipativity of the continuum
operator (the discrete vector embeds into the true domain up to quadrature
error); a non-negative one is evidence, not proof, of dissipativity, since
the continuum infimum may only be attained along singular minimizing
sequences.  Reports state this asymmetry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import eigenh, forms, splines
from .analytic import AnalyticFunction, norm_sq, tail_point
from .catalog import ExtensionProblem, MultiplicationPerturbation, RankOnePerturbation

__all__ = [
    "OracleError",
    "OracleReport",
    "assemble_discrete",
    "pencil_min_eig",
    "cross_validate",
    "ASYMMETRY_NOTE",
]

ASYMMETRY_NOTE = (
    "negative discrete infimum certifies non-dissipativity; "
    "a non-negative one is evidence only, as the continuum infimum may be "
    "attained along singular minimizing sequences outside the test span"
)


class OracleError(Exception):
    """Discretization or eigensolver failure in the oracle."""


@dataclass(frozen=True)
class OracleReport:
    """Mesh study of the discrete numerical-range infimum.

    ``agree`` compares the extrapolated infimum's sign with the analytic
    verdict; near-zero margins below ``threshold`` are flagged as
    resolution-limited instead of counted as disagreements.
    """

    meshes: tuple[int, ...]
    infima: tuple[float, ...]
    extrapolated: float
    order: float | None
    agree: bool | None
    resolution_limited: bool
    threshold: float
    note: str = ASYMMETRY_NOTE


# ---------------------------------------------------------------------------
# core span

# Gauss sub-panels per knot interval of the core span
_SUBPANELS = 2


# reference meshes a ladder and its neighbours use
_CACHED_MESHES = 8

#: the most core elements of one mesh; a rung's arrays grow linearly in it
MAX_MESH = 2 ** 14


@dataclass(frozen=True, eq=False)
class _ReferenceMesh:
    """What the assembly reads of ``n`` splines on the reference knots on
    ``[0, 1]``: their ``tables`` (with the knots), the lower bands of the
    symmetrized second-order matrix ``stiffness`` (``(S + S^T) / 2`` with
    ``S[k, l] = int b_k b_l''``) and of the Gram matrix ``mass``, and
    ``gram_core``, ``mass``'s factor (:func:`eigenh.band_factor`).  None of
    them depends on the problem; the arrays are read-only and the factor is
    tuples, since every call shares them."""

    tables: splines.SplineTables
    stiffness: np.ndarray
    mass: np.ndarray
    gram_core: tuple[tuple, tuple]


@functools.lru_cache(maxsize=_CACHED_MESHES)
def _reference_mesh(n: int) -> _ReferenceMesh:
    """The :class:`_ReferenceMesh` of ``n`` splines: the one place that chooses
    the reference knot vector, keyed by what fixes it, ``n`` alone."""
    tab = splines.spline_tables(np.linspace(0.0, 1.0, n + 4), _SUBPANELS)
    second = tab.blocks(tab.w, tab.val, tab.d2)
    stiffness = (tab.band(second) + tab.band(second.swapaxes(1, 2))) / 2.0
    mass = tab.band(tab.blocks(tab.w, tab.val, tab.val))
    for a in (tab.knots, tab.index, tab.x, tab.w, tab.val, tab.d1, tab.d2, stiffness, mass):
        a.flags.writeable = False
    return _ReferenceMesh(tab, stiffness, mass, eigenh.band_factor(mass))


def _check_mesh(n: int) -> None:
    """OracleError unless ``8 <= n <= MAX_MESH``."""
    if n < 8:
        raise OracleError("need at least 8 core elements")
    if n > MAX_MESH:
        raise OracleError(f"a mesh of {n} core elements exceeds the limit of {MAX_MESH}")


def _core_tables(lo: float, hi: float, n: int) -> splines.SplineTables:
    """``n`` cubic splines on ``[lo, hi]``, supports inside: the reference
    tables under ``x = lo + L s``, ``L = hi - lo``, which moves the knots and
    nodes and scales the weights by ``L``, the derivatives by ``1/L^order``."""
    _check_mesh(n)
    ref = _reference_mesh(n).tables
    length = hi - lo
    return replace(ref, knots=lo + length * ref.knots, x=lo + length * ref.x, w=length * ref.w,
                   d1=ref.d1 / length, d2=ref.d2 / (length * length))


# ---------------------------------------------------------------------------
# assembly


def _active_cut(problem: ExtensionProblem) -> float:
    """Right edge of the core span: where the problem data still has mass.

    For the bounded-imaginary-part scenario the symmetric action contributes
    nothing to the imaginary part on core elements, so only elements meeting
    the perturbation supports can lower the infimum and resolution is
    concentrated there.  The unbounded half-line scenario also needs the
    decay range of the extension vector and deviation generator.  The cut
    is the last point where a candidate's envelope reaches ``1e-8`` of its
    largest term peak (:func:`~dissipext.analytic.tail_point`), widened to
    ``1.25 cut + 2`` within ``R``.  Interval problems use the full domain.
    """
    grid = problem.grid
    if not grid.is_halfline:
        return grid.length
    if problem.scenario == "halfline_schrodinger":
        # the deviation is lambda phi or k: it has the support of these
        pert = problem.perturbation
        if isinstance(pert, RankOnePerturbation):
            candidates = [pert.phi]
        else:
            candidates = [pert.v, pert.k]
    else:
        candidates = [problem.v, problem.phi, problem.w_potential]
    tails = [tail_point(fn, grid.length, 1e-8) for fn in candidates if fn is not None]
    cut = max((x for x in tails if x), default=grid.length)
    return min(grid.length, 1.25 * cut + 2.0)


@dataclass(frozen=True, eq=False)
class _MeshFree:
    """The parts of a rung that no mesh changes, for one problem.

    ``hi`` is the right edge of the core span (:func:`_active_cut`);
    ``c2, c1, m`` the :meth:`~ExtensionProblem.expression`; ``action`` the
    term sum of ``(action + L) v``; ``bounded`` the multiplication
    perturbation's ``V`` (None without one);
    ``corner`` is ``Im <v, (action + L + i V) v>`` and ``v_norm_sq``
    ``||v||^2``, both closed form; ``rank_one`` is ``(alpha, phi, <v, phi>)``
    of the rank-one perturbation, or None.
    """

    hi: float
    c2: complex
    c1: complex
    m: AnalyticFunction
    action: AnalyticFunction
    bounded: AnalyticFunction | None
    corner: float
    v_norm_sq: float
    rank_one: tuple | None


def _mesh_free(problem: ExtensionProblem) -> _MeshFree:
    """The :class:`_MeshFree` parts of ``problem``'s rungs."""
    vfn = problem.v
    if not isinstance(vfn, AnalyticFunction):
        raise TypeError(f"the oracle reads v as a term sum, not {type(vfn).__name__}")
    c2, c1, m = problem.expression()
    if c1.real != 0.0:
        raise OracleError(f"expression has Re c1 = {c1.real!r}: the core block of H would not be real")
    end = problem.grid.right_endpoint
    pert = problem.perturbation
    action = problem.action_on(vfn)
    vv = vfn.inner(action, 0.0, end)
    lv = problem.deviation()
    if lv is not None:
        action = action + lv
        vv += vfn.inner(lv, 0.0, end)
    bounded = rank_one = None
    if isinstance(pert, MultiplicationPerturbation):
        bounded = pert.v
        vv += 1.0j * forms.friedrichs_form_sq(problem.spec, vfn)
    elif isinstance(pert, RankOnePerturbation):
        rank_one = (pert.alpha, pert.phi, vfn.inner(pert.phi, 0.0, end))
    return _MeshFree(_active_cut(problem), c2, c1, m, action, bounded, vv.imag,
                     norm_sq(vfn, 0.0, end), rank_one)


def assemble_discrete(
    problem: ExtensionProblem,
    n: int,
    *,
    mesh_free: _MeshFree | None = None,
) -> eigenh.Pencil:
    """Project the extension operator onto ``n`` spline elements plus ``v``.

    The result is the pencil ``H x = mu G x``: with ``M[j,k] = <b_j,
    action(b_k)>``, ``H = (M - M^H) / 2i`` and the Gram matrix ``G`` are
    :class:`eigenh.BandBorder` parts whose border is the extension vector
    ``v`` (the last index), so the pure core block is the band.  The
    rank-one term ``alpha q q^H`` of ``H`` is the pencil's ``rank_one``,
    and ``G``'s factor from the assembly's check its ``g_factor``.

    The action is the problem's :meth:`~ExtensionProblem.expression`
    ``c2 f'' + c1 f' + m f`` plus its :meth:`~ExtensionProblem.deviation` on
    ``v``, plus the bounded imaginary part ``i V`` of the Schroedinger
    scenario.  ``G``'s core on ``[lo, lo + L]`` is ``L G_ref``
    (:func:`_reference_mesh`) and its factor is the reference factor with the
    pivots scaled by ``L``.  ``H``'s core block is real and stored as float:
    with ``M = A + iB`` it is ``(B + B^T) / 2 - i (A - A^T) / 2``, and
    ``A``, the real part of the action on real splines, is symmetric,
    because every scenario's first-order coefficient ``c1`` is imaginary and
    the second-order term is symmetric after integration by parts on splines
    that vanish at the span's ends.  So the assembly builds
    ``(B + B^T) / 2`` alone: ``Im(c2) / L`` times the reference
    ``stiffness`` plus the band of ``int Im(m + i V) b_k b_l`` when that
    weight is not 0, from per-interval 4x4 blocks on Gauss-Legendre panels
    aligned with the knots.  The ``Im(c1)`` term is 0, since
    ``int (b_k b_l' + b_l b_k') = 0`` for splines that vanish at both ends
    of the span; an expression whose ``c1`` has a real part raises
    :class:`OracleError`.  The border rows come from the
    same panels: ``<v, action(b_l)>`` is ``c2 int conj(v) b_l'' + c1 int
    conj(v) b_l' + int conj(v) (m + i V) b_l``.  The entries of ``v``
    against itself are closed form (:class:`_MeshFree`), as is the right
    edge of the core span (:func:`_active_cut`).  ``mesh_free`` is
    ``_mesh_free(problem)``, which a mesh ladder computes once
    (:func:`cross_validate`); without it the assembly computes it.
    """
    if mesh_free is None:
        mesh_free = _mesh_free(problem)
    lo, hi = problem.grid.offset, mesh_free.hi
    tab = _core_tables(lo, hi, n)
    ref = _reference_mesh(n)
    length = hi - lo
    xs, ws = tab.x, tab.w
    c2, c1 = mesh_free.c2, mesh_free.c1

    v_samp = problem.v(xs)
    act_v = mesh_free.action(xs)
    # the multiplier m + i V at the nodes, None where it is 0
    mult = mesh_free.m(xs) if mesh_free.m.terms else None
    if mesh_free.bounded is not None:
        bounded = 1.0j * mesh_free.bounded(xs).real
        act_v = act_v + bounded * v_samp
        mult = bounded if mult is None else mult + bounded

    # H's border (M[n, :n] - conj(M[:n, n])) / 2i, with
    # M[n, l] = <v, action(b_l)> and M[k, n] = <b_k, action(v)>
    wv = ws * np.conj(v_samp)
    weights = -ws * np.conj(act_v)
    if mult is not None:
        weights += wv * mult
    row = tab.vector(weights, tab.val)
    if c2 != 0:
        row += c2 * tab.vector(wv, tab.d2)
    if c1 != 0:
        row += c1 * tab.vector(wv, tab.d1)
    band = np.zeros((tab.nbasis, 4))
    if c2.imag != 0:
        band += (c2.imag / length) * ref.stiffness
    if mult is not None and np.any(mult.imag != 0.0):
        band += tab.band(tab.blocks(ws * mult.imag, tab.val, tab.val))
    h = eigenh.BandBorder(band, (row / 2.0j)[None, :], np.array([[mesh_free.corner]], dtype=complex))
    g = eigenh.BandBorder(length * ref.mass, tab.vector(wv, tab.val)[None, :],
                          np.array([[mesh_free.v_norm_sq]]))
    sub, pivots = ref.gram_core
    factor = _check_gram(g, (sub, [length * p for p in pivots]))
    rank_one = None
    if mesh_free.rank_one is not None:
        # alpha |phi><phi| of H on the whole span, with q_j = <e_j, phi>
        alpha, phi, phi_v = mesh_free.rank_one
        rank_one = (alpha, np.append(tab.vector(ws * phi(xs), tab.val), phi_v))
    return eigenh.Pencil(h, g, rank_one, factor)


def _check_gram(gram: eigenh.BandBorder, core: tuple) -> eigenh.GramFactor:
    """The ``L D L^H`` factor of the Gram matrix, which the pencil solver
    reuses, from ``core``, the factor of its band (:func:`eigenh.band_factor`),
    after checking positive definiteness and the pivot ratio ``max D / min D``,
    a lower bound on its condition."""
    try:
        factor = eigenh.GramFactor(gram, core)
    except eigenh.NotPositiveDefiniteError as exc:
        raise OracleError(f"basis Gram not positive definite: {exc}") from None
    d = factor.pivots
    cond_est = float(d.max()) / float(d.min())
    if cond_est > 1e12:
        raise OracleError(f"basis Gram condition estimate {cond_est:.2e} exceeds 1e12")
    return factor


# ---------------------------------------------------------------------------
# pencil probe


def pencil_min_eig(
    pencil: eigenh.Pencil, *, guess: tuple[float, float] | None = None
) -> tuple[float, np.ndarray]:
    """Minimal eigenvalue and eigenvector of the :class:`eigenh.Pencil`
    ``H x = mu G x``, as :func:`assemble_discrete` returns it.

    ``H`` must be Hermitian and ``G`` Hermitian positive definite; the
    residual of the returned pair satisfies
    ``||H x - mu G x|| <= 1e-9 ||H|| ||x||``.  ``guess`` is passed to
    :func:`eigenh.pencil_extreme`.
    """
    # off the diagonal the parts are Hermitian by storage
    h = pencil.h
    scale = max(h.max_abs(), 1e-300)
    skew = max(float(np.max(np.abs(h.band[:, 0].imag), initial=0.0)),
               float(np.max(np.abs(h.corner - h.corner.conj().T), initial=0.0)))
    if skew > 1e-10 * scale:
        raise OracleError("imaginary-part matrix is not Hermitian")
    try:
        mu, x = eigenh.pencil_extreme(pencil, guess=guess)
    except eigenh.NotPositiveDefiniteError as exc:
        raise OracleError(f"Gram matrix not positive definite: {exc}") from None
    # checked on 2^-k H (eigenh.unit_scaled), which decides as H does but
    # keeps ||H|| and the residual's square in the float range
    k, pencil = eigenh.unit_scaled(pencil)
    hnorm = _inf_norm(pencil)
    resid = float(np.linalg.norm(pencil.h_matvec(x) - math.ldexp(mu, -k) * pencil.g.matvec(x)))
    if hnorm > 0 and resid > 1e-9 * hnorm * float(np.linalg.norm(x)):
        raise OracleError(f"pencil residual {resid * 2.0 ** k:.2e} out of tolerance")
    return mu, x


def _inf_norm(pencil: eigenh.Pencil) -> float:
    """``||H||_inf`` of ``H = h + alpha q q^H``: the rank-one row sums
    ``|alpha| |q_i| ||q||_1``, corrected on the stored pattern."""
    h = pencil.h
    if pencil.rank_one is None:
        return float(np.max(h.abs_row_sums()))
    alpha, q = pencil.rank_one
    r = eigenh.BandBorder.outer(alpha, q, h)
    both = eigenh.BandBorder(*(a + b for a, b in zip(h.parts, r.parts)))
    full = abs(alpha) * np.abs(q) * float(np.sum(np.abs(q)))
    return float(np.max(both.abs_row_sums() - r.abs_row_sums() + full))


def _extrapolate(infima: list[float], floor: float = 0.0) -> tuple[float, float | None]:
    """Geometric-sequence completion of the mesh ladder (Aitken style).

    The decrement ratio is capped at 0.9: ratios close to 1 mean the ladder
    has not reached its asymptotic regime and the uncapped completion would
    amplify noise arbitrarily.  A last decrement within ``floor``, the
    pencils' rounding floor (:func:`eigenh.rounding_floor`), is rounding:
    the ladder shows no order then.
    """
    if len(infima) < 3:
        return infima[-1], None
    m1, m2, m3 = infima[-3:]
    d1, d2 = m2 - m1, m3 - m2
    if d1 * d2 <= 0 or abs(d1) <= abs(d2) * (1.0 + 1e-12) or abs(d2) <= floor:
        return m3, None
    ratio = min(d2 / d1, 0.9)
    order = math.log(1.0 / ratio) / math.log(2.0)
    return m3 + d2 * ratio / (1.0 - ratio), order


def cross_validate(
    problem: ExtensionProblem,
    verdict,
    meshes=(64, 128, 256),
    *,
    tol: float = 1e-6,
) -> OracleReport:
    """Run the discrete infimum over a mesh ladder and compare signs.

    The closed forms that no mesh changes (:class:`_MeshFree`) are computed
    once and passed to each rung's :func:`assemble_discrete`, which gives
    the same bits as when it computes them itself.  Each rung after the
    first starts its pencil's downward walk at the
    previous infimum ``mu1`` with the step ``2 |mu1 - mu2| + 0.05 |mu1|``
    (``mu2`` the infimum before it, if any): close guesses save
    factorizations, and the certified minimum is the same either way.
    Agreement means: non-negative (within ``tol``) extrapolated infimum for
    a dissipative verdict, strictly negative for a non-dissipative one.
    Verdict margins below the ``10 h^2`` resolution threshold of the finest
    mesh are reported as resolution-limited rather than as disagreements.
    """
    meshes = tuple(int(m) for m in meshes)
    if not meshes:
        raise OracleError("the mesh ladder is empty")
    if any(m2 <= m1 for m1, m2 in zip(meshes, meshes[1:])):
        raise OracleError("meshes must be strictly increasing")
    for m in meshes:  # before any rung is paid for
        _check_mesh(m)
    mesh_free = _mesh_free(problem)
    infima = []
    floor = 0.0
    for m in meshes:
        op = assemble_discrete(problem, m, mesh_free=mesh_free)
        floor = max(floor, eigenh.rounding_floor(op))
        guess = None
        if infima:
            prev = infima[-1]
            step = abs(prev - infima[-2]) if len(infima) > 1 else 0.0
            guess = (prev, 2.0 * step + 0.05 * abs(prev))
        mu, _ = pencil_min_eig(op, guess=guess)
        infima.append(mu)
    extrap, order = _extrapolate(infima, floor)
    span = problem.grid.length - problem.grid.offset
    threshold = 10.0 * (span / max(meshes)) ** 2
    margin = verdict.margin
    resolution_limited = (not math.isnan(margin)) and abs(margin) < threshold
    if verdict.dissipative is None:
        agree = None
    elif verdict.dissipative:
        agree = extrap >= -tol
    else:
        agree = extrap < -tol or min(infima) < -tol
    return OracleReport(
        meshes,
        tuple(infima),
        extrap,
        order,
        agree,
        resolution_limited,
        threshold,
    )
