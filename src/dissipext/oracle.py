"""Brute-force dissipativity probe via discretized numerical ranges.

The extension operator is projected onto a finite space spanned by cubic
B-spline elements (supports inside the domain, triple zeros where they touch
the boundary, hence inside every scenario's operator core) plus one column
for the extension vector itself.  The elements, their quadrature panels and
the banded assembly come from the package's one spline layer,
:mod:`dissipext.splines`, on a uniform knot vector: tables on ``[0, 1]``,
cached per mesh, mapped onto the core span.  The action is read
from the problem (:meth:`~dissipext.catalog.ExtensionProblem.expression`
and :meth:`~dissipext.catalog.ExtensionProblem.deviation`), and the
extension vector's entries against itself are closed-form term-sum
integrals.  The right edge of a half-line core span is where the problem's
functions decay, read from their term sums
(:func:`~dissipext.analytic.tail_point`), so a truncation radius beyond
their decay does not move it.  The infimum of the numerical range's imaginary
part over that space is the minimal eigenvalue of the Hermitian pencil
``H x = mu G x`` with ``H = (M - M^H) / 2i`` the Gram-weighted imaginary
part of the discretized action ``M``, which is not kept.  ``H``'s core
block is real (:class:`DiscreteOperator`), and so is ``G``'s.  The
assembly adds its per-panel blocks straight into the band-plus-border
parts of ``H`` and ``G`` (:class:`eigenh.BandBorder`: a real band of
half-bandwidth 3 and the complex extension-vector border) and records
the rank-one term of the rank-one Schroedinger scenario beside them, so
one mesh costs ``O(n)`` time and memory; :func:`eigenh.pencil_extreme`
finds the minimum from inertia counts in ``O(n)`` work per shift.  Along
a mesh ladder each rung's infimum is the next rung's first shift
(:func:`cross_validate`).

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
from .analytic import norm_sq, tail_point
from .catalog import ExtensionProblem, MultiplicationPerturbation, RankOnePerturbation

__all__ = [
    "OracleError",
    "DiscreteOperator",
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


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """The pencil ``H x = mu G x`` of the action on one spline space plus ``v``.

    With ``M[j,k] = <b_j, action(b_k)>``, ``h`` holds the Hermitian
    ``H = (M - M^H) / 2i`` and ``gram`` the Gram matrix ``G``, both as
    :class:`eigenh.BandBorder` parts whose border is the extension vector
    ``v`` (the last index), so the pure core block is the band.  That block
    of ``H`` is real and stored as float: with ``M = A + iB`` it is
    ``(B + B^T) / 2 - i (A - A^T) / 2``, and ``A``, the real part of the
    action on real splines, is symmetric, because every scenario's
    first-order coefficient ``c1`` is imaginary and the second-order term is
    symmetric after integration by parts on splines that vanish at the
    span's ends.  So the assembly builds ``(B + B^T) / 2`` alone, and
    refuses an expression with ``Re c1 != 0``.
    ``structure`` carries the rank-one term ``alpha q q^H`` of ``H`` (as
    ``(alpha, q)``; the parts never hold it) and the Gram matrix's factor
    from the assembly's check; the pencil solver reads it.
    """

    h: eigenh.BandBorder
    gram: eigenh.BandBorder
    structure: eigenh.PencilStructure


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
    verdict_margin: float
    verdict_dissipative: bool | None
    agree: bool | None
    resolution_limited: bool
    threshold: float
    note: str = ASYMMETRY_NOTE


# ---------------------------------------------------------------------------
# core span

# Gauss sub-panels per knot interval of the core span
_SUBPANELS = 2


# reference tables of the meshes a ladder and its neighbours use
_CACHED_MESHES = 8


@functools.lru_cache(maxsize=_CACHED_MESHES)
def _reference_tables(n: int) -> splines.SplineTables:
    """Tables of the ``n`` splines on the reference knots, uniform on
    ``[0, 1]``; their arrays are read-only, since every call shares them.
    The knots are an affine image of these on every span, so the key is the
    reference knot vector, which ``n`` alone fixes while it is uniform."""
    tab = splines.spline_tables(np.linspace(0.0, 1.0, n + 4), _SUBPANELS)
    for a in (tab.index, tab.x, tab.w, tab.val, tab.d1, tab.d2):
        a.flags.writeable = False
    return tab


def _core_tables(lo: float, hi: float, n: int) -> splines.SplineTables:
    """``n`` cubic splines on uniform knots of ``[lo, hi]``, supports inside:
    the reference tables mapped by ``x = lo + L s``, ``L = hi - lo``, which
    scales the weights by ``L`` and the derivatives by ``1/L`` and ``1/L^2``."""
    if n < 8:
        raise OracleError("need at least 8 core elements")
    ref = _reference_tables(n)
    length = hi - lo
    return replace(ref, x=lo + length * ref.x, w=length * ref.w,
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


def _core_action(problem: ExtensionProblem, tab: splines.SplineTables, bounded=0.0) -> np.ndarray:
    """Action samples ``(panels, 4, q)`` of every active spline: the problem's
    expression plus the multiplier ``bounded`` (samples at the panel nodes)."""
    c2, c1, m = problem.expression()
    mult = m(tab.x) + bounded
    return c2 * tab.d2 + c1 * tab.d1 + mult[:, None, :] * tab.val


def assemble_discrete(
    problem: ExtensionProblem,
    n: int,
    *,
    include_bounded_v: bool = True,
) -> DiscreteOperator:
    """Project the extension operator onto ``n`` spline elements plus ``v``.

    The action is the problem's :meth:`~ExtensionProblem.expression` plus
    its :meth:`~ExtensionProblem.deviation` on ``v``, plus the bounded
    imaginary part of the Schroedinger scenario.  Core entries come from
    per-interval 4x4 local blocks on Gauss-Legendre panels aligned with the
    knots, so every polynomial factor integrates exactly; the blocks are
    added by the splines' indices straight into the band parts of ``H``
    (only the imaginary-part blocks, a real band) and ``G``
    (:class:`DiscreteOperator`); an expression whose ``c1`` has a real part
    raises :class:`OracleError`.  The entries of ``v`` against
    itself are closed form: ``<v, (action + L) v>`` as a term-sum integral
    plus the bounded part's form, whose imaginary part is ``H``'s corner,
    and ``||v||^2`` from :func:`norm_sq`; the rank-one ``<v, phi>`` is
    :func:`forms.inner`.  The right edge of the core span comes from the
    term sums too (:func:`_active_cut`).
    ``include_bounded_v=False`` drops the bounded imaginary part from the
    action (used for semibound studies of the deviated symmetric part alone).
    """
    c1 = problem.expression()[1]
    if c1.real != 0.0:
        raise OracleError(f"expression has Re c1 = {c1.real!r}: the core block of H would not be real")
    lo, hi = problem.grid.offset, _active_cut(problem)
    end = problem.grid.right_endpoint
    tab = _core_tables(lo, hi, n)
    xs, ws = tab.x, tab.w
    pert = problem.perturbation if include_bounded_v else None

    # extension column data
    vfn = problem.v
    v_samp = vfn(xs)
    act = problem.action_on(vfn)
    act_v = act(xs)
    vv = (vfn.conj() * act).integral(0.0, end)
    lv = problem.deviation()
    if lv is not None:
        act_v = act_v + lv(xs)
        vv += forms.inner(problem.v, lv, end)
    bounded = 0.0
    if isinstance(pert, MultiplicationPerturbation):
        bounded = 1.0j * pert.v(xs).real
        act_v = act_v + bounded * v_samp
        vv += 1.0j * forms.friedrichs_form_sq(problem.spec, problem.v)
    act_local = _core_action(problem, tab, bounded)

    # M[:nb, nb], M[nb, :nb] and G[:nb, nb], nb = tab.nbasis the border
    col = tab.vector(ws * act_v, tab.val)
    row = tab.vector(ws * np.conj(v_samp), act_local)
    gv = tab.vector(ws * v_samp, tab.val)
    # H's core is (B + B^T) / 2 with B = Im M, real (DiscreteOperator)
    imag_blocks = tab.blocks(ws, tab.val, act_local.imag)
    h = eigenh.BandBorder((tab.band(imag_blocks) + tab.band(imag_blocks.swapaxes(1, 2))) / 2.0,
                          ((row - np.conj(col)) / 2.0j)[None, :], np.array([[vv.imag]], dtype=complex))
    gram = eigenh.BandBorder(tab.band(tab.blocks(ws, tab.val, tab.val)), np.conj(gv)[None, :],
                             np.array([[norm_sq(vfn, 0.0, end)]]))
    rank_one = None
    if isinstance(pert, RankOnePerturbation):
        # alpha |phi><phi| of H on the whole span, with q_j = <e_j, phi>
        q = np.append(tab.vector(ws * pert.phi(xs), tab.val),
                      forms.inner(problem.v, pert.phi, end))
        rank_one = (pert.alpha, q)
    return DiscreteOperator(h, gram, eigenh.PencilStructure(rank_one, _check_gram(gram)))


def _check_gram(gram: eigenh.BandBorder) -> eigenh.GramFactor:
    """The ``L D L^H`` factor of the Gram matrix, which the pencil solver
    reuses, after checking positive definiteness and the pivot ratio
    ``max D / min D``, a lower bound on its condition."""
    try:
        factor = eigenh.GramFactor(gram)
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
    h: eigenh.BandBorder,
    g: eigenh.BandBorder,
    structure: eigenh.PencilStructure | None = None,
    *,
    guess: tuple[float, float] | None = None,
) -> tuple[float, np.ndarray]:
    """Minimal eigenvalue and eigenvector of ``H x = mu G x``.

    ``h`` and ``g`` are band-plus-border parts (:attr:`DiscreteOperator.h`
    and :attr:`DiscreteOperator.gram`).  ``H`` is ``h`` plus the rank-one
    term of ``structure`` (:attr:`DiscreteOperator.structure`), must be
    Hermitian, and ``G`` Hermitian positive definite; the residual of the
    returned pair satisfies ``||H x - mu G x|| <= 1e-9 ||H|| ||x||``.
    ``guess`` is passed to :func:`eigenh.pencil_extreme`.
    """
    # off the diagonal the parts are Hermitian by storage
    scale = max(h.max_abs(), 1e-300)
    skew = max(float(np.max(np.abs(h.band[:, 0].imag), initial=0.0)),
               float(np.max(np.abs(h.corner - h.corner.conj().T), initial=0.0)))
    if skew > 1e-10 * scale:
        raise OracleError("imaginary-part matrix is not Hermitian")
    if structure is None:
        structure = eigenh.PencilStructure()
    try:
        mu, x = eigenh.pencil_extreme(h, g, structure, guess=guess)
    except eigenh.NotPositiveDefiniteError as exc:
        raise OracleError(f"Gram matrix not positive definite: {exc}") from None
    hnorm = _inf_norm(h, structure)
    resid = float(np.linalg.norm(structure.matvec(h, x) - mu * g.matvec(x)))
    if hnorm > 0 and resid > 1e-9 * hnorm * float(np.linalg.norm(x)):
        raise OracleError(f"pencil residual {resid:.2e} out of tolerance")
    return mu, x


def _inf_norm(h: eigenh.BandBorder, structure: eigenh.PencilStructure) -> float:
    """``||H||_inf`` of ``H = h + alpha q q^H``: the rank-one row sums
    ``|alpha| |q_i| ||q||_1``, corrected on the stored pattern."""
    if structure.rank_one is None:
        return float(np.max(h.abs_row_sums()))
    alpha, q = structure.rank_one
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

    Each rung after the first starts its pencil's downward walk at the
    previous infimum ``mu1`` with the step ``2 |mu1 - mu2| + 0.05 |mu1|``
    (``mu2`` the infimum before it, if any): close guesses save
    factorizations, and the certified minimum is the same either way.
    Agreement means: non-negative (within ``tol``) extrapolated infimum for
    a dissipative verdict, strictly negative for a non-dissipative one.
    Verdict margins below the ``10 h^2`` resolution threshold of the finest
    mesh are reported as resolution-limited rather than as disagreements.
    """
    meshes = tuple(int(m) for m in meshes)
    if any(m2 <= m1 for m1, m2 in zip(meshes, meshes[1:])):
        raise OracleError("meshes must be strictly increasing")
    infima = []
    floor = 0.0
    for m in meshes:
        op = assemble_discrete(problem, m)
        floor = max(floor, eigenh.rounding_floor(op.h, op.gram, op.structure))
        guess = None
        if infima:
            prev = infima[-1]
            step = abs(prev - infima[-2]) if len(infima) > 1 else 0.0
            guess = (prev, 2.0 * step + 0.05 * abs(prev))
        mu, _ = pencil_min_eig(op.h, op.gram, op.structure, guess=guess)
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
        margin,
        verdict.dissipative,
        agree,
        resolution_limited,
        threshold,
    )
