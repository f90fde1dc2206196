"""Brute-force dissipativity probe via discretized numerical ranges.

The extension operator is projected onto a finite space spanned by cubic
B-spline elements (supports inside the domain, triple zeros where they touch
the boundary, hence inside every scenario's operator core) plus one column
for the extension vector itself.  The elements, their quadrature panels and
the banded assembly come from the package's one spline layer,
:mod:`dissipext.splines`, on a uniform knot vector.  The action is read
from the problem (:meth:`~dissipext.catalog.ExtensionProblem.expression`
and :meth:`~dissipext.catalog.ExtensionProblem.deviation`), and the
extension vector's entries against itself are closed-form term-sum
integrals.  The right edge of a half-line core span is where the problem's
functions decay, read from their term sums
(:func:`~dissipext.analytic.tail_point`), so the assembled matrices do not
depend on ``[grid] n``.  The infimum of the numerical range's imaginary
part over that space is the minimal eigenvalue of the Hermitian pencil
``H x = mu G x`` with ``H`` the Gram-weighted imaginary part of the
discretized action.  The assembly records the pencil's pattern (a band of
half-bandwidth 3, the extension-vector border and the rank-one term of the
rank-one Schroedinger scenario), and :func:`eigenh.pencil_extreme` finds the
minimum from inertia counts in ``O(n)`` work per shift.

A negative discrete infimum certifies non-dissipativity of the continuum
operator (the discrete vector embeds into the true domain up to quadrature
error); a non-negative one is evidence, not proof, of dissipativity, since
the continuum infimum may only be attained along singular minimizing
sequences.  Reports state this asymmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    "hermitian_part",
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
    """Sesquilinear data ``M[j,k] = <b_j, action(b_k)>`` with Gram ``G``.

    ``v_index`` marks the extension-vector column when present (always the
    last), so the pure core block is ``matrix[:v_index, :v_index]``.
    ``structure`` is the band-plus-border pattern the assembly built, with
    the rank-one term of the imaginary part when there is one and the Gram
    matrix's factor from the assembly's check; the pencil solver reads it
    (``None``: treat the matrices as dense and factor the Gram matrix).
    """

    basis: str
    matrix: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)
    v_index: int | None = None
    structure: eigenh.PencilStructure | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


def _core_tables(lo: float, hi: float, n: int) -> splines.SplineTables:
    """``n`` cubic splines on uniform knots of ``[lo, hi]``, supports inside."""
    if n < 8:
        raise OracleError("need at least 8 core elements")
    return splines.spline_tables(np.linspace(lo, hi, n + 4), _SUBPANELS)


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
    per-interval 4x4 local blocks (the spline basis is banded) on
    Gauss-Legendre panels aligned with the knots, so every polynomial
    factor integrates exactly.  The entries of ``v`` against itself are
    closed form: ``<v, (action + L) v>`` as a term-sum integral plus the
    bounded part's form, and ``||v||^2`` from :func:`norm_sq`; the rank-one
    ``<v, phi>`` is :func:`forms.inner`.  The right edge of the core span
    comes from the term sums too (:func:`_active_cut`), so the result does
    not depend on ``[grid] n``.
    ``include_bounded_v=False`` drops the bounded imaginary part from the
    action (used for semibound studies of the deviated symmetric part alone).
    """
    lo, hi = problem.grid.offset, _active_cut(problem)
    end = problem.grid.right_endpoint
    tab = _core_tables(lo, hi, n)
    xs, ws = tab.x, tab.w
    nb = tab.nbasis
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

    dim = nb + 1
    mat = np.zeros((dim, dim), dtype=complex)
    gram = np.zeros((dim, dim), dtype=complex)
    mat[:nb, :nb] = tab.matrix(ws, tab.val, act_local)
    mat[:nb, nb] = tab.vector(ws * act_v, tab.val)
    mat[nb, :nb] = tab.vector(ws * np.conj(v_samp), act_local)
    mat[nb, nb] = vv
    rank_one = None
    if isinstance(pert, RankOnePerturbation):
        # i alpha |phi><phi| on the whole span, with q_j = <e_j, phi>
        q = np.append(tab.vector(ws * pert.phi(xs), tab.val),
                      forms.inner(problem.v, pert.phi, end))
        mat += 1.0j * pert.alpha * np.outer(q, np.conj(q))
        rank_one = (pert.alpha, q)
    gram[:nb, :nb] = tab.matrix(ws, tab.val, tab.val)
    gv = tab.vector(ws * v_samp, tab.val)
    gram[:nb, nb] = gv
    gram[nb, :nb] = np.conj(gv)
    gram[nb, nb] = norm_sq(vfn, 0.0, end)
    # splines that share a panel are at most index.shape[1] - 1 apart
    pattern = eigenh.PencilStructure(tab.index.shape[1] - 1, 1, rank_one)
    structure = replace(pattern, gram=_check_gram(gram, pattern))
    return DiscreteOperator(
        f"{nb} cubic spline elements on [{lo:g},{hi:g}] + extension vector",
        mat,
        gram,
        v_index=nb,
        structure=structure,
    )


def _check_gram(gram: np.ndarray, structure: eigenh.PencilStructure) -> eigenh.GramFactor:
    """The ``L D L^H`` factor of the Gram matrix, which the pencil solver
    reuses, after checking positive definiteness and the pivot ratio
    ``max D / min D``, a lower bound on its condition."""
    try:
        factor = eigenh.GramFactor(gram, structure)
    except eigenh.NotPositiveDefiniteError as exc:
        raise OracleError(f"basis Gram not positive definite: {exc}") from None
    d = factor.pivots
    cond_est = float(d.max()) / float(d.min())
    if cond_est > 1e12:
        raise OracleError(f"basis Gram condition estimate {cond_est:.2e} exceeds 1e12")
    return factor


# ---------------------------------------------------------------------------
# pencil probe


def hermitian_part(op: DiscreteOperator) -> np.ndarray:
    """Gram-weighted imaginary part ``H = (M - M^H) / 2i`` (Hermitian)."""
    return (op.matrix - op.matrix.conj().T) / 2.0j


def pencil_min_eig(
    h: np.ndarray, g: np.ndarray, structure: eigenh.PencilStructure | None = None
) -> tuple[float, np.ndarray]:
    """Minimal eigenvalue and eigenvector of ``H x = mu G x``.

    ``H`` must be Hermitian and ``G`` Hermitian positive definite; the
    residual of the returned pair satisfies
    ``||H x - mu G x|| <= 1e-9 ||H|| ||x||``.  ``structure`` is the
    pencil's band-plus-border pattern (:attr:`DiscreteOperator.structure`);
    without it the matrices are treated as dense.
    """
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex)
    scale = max(float(np.max(np.abs(h))), 1e-300)
    if float(np.max(np.abs(h - h.conj().T))) > 1e-10 * scale:
        raise OracleError("imaginary-part matrix is not Hermitian")
    try:
        mu, x = eigenh.pencil_extreme(h, g, structure)
    except eigenh.NotPositiveDefiniteError as exc:
        raise OracleError(f"Gram matrix not positive definite: {exc}") from None
    hnorm = float(np.linalg.norm(h, ord=np.inf))
    resid = float(np.linalg.norm(h @ x - mu * (g @ x)))
    if hnorm > 0 and resid > 1e-9 * hnorm * float(np.linalg.norm(x)):
        raise OracleError(f"pencil residual {resid:.2e} out of tolerance")
    return mu, x


def _extrapolate(infima: list[float]) -> tuple[float, float | None]:
    """Geometric-sequence completion of the mesh ladder (Aitken style).

    The decrement ratio is capped at 0.9: ratios close to 1 mean the ladder
    has not reached its asymptotic regime and the uncapped completion would
    amplify noise arbitrarily.
    """
    if len(infima) < 3:
        return infima[-1], None
    m1, m2, m3 = infima[-3:]
    d1, d2 = m2 - m1, m3 - m2
    if d1 * d2 <= 0 or abs(d1) <= abs(d2) * (1.0 + 1e-12):
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

    Agreement means: non-negative (within ``tol``) extrapolated infimum for
    a dissipative verdict, strictly negative for a non-dissipative one.
    Verdict margins below the ``10 h^2`` resolution threshold of the finest
    mesh are reported as resolution-limited rather than as disagreements.
    """
    meshes = tuple(int(m) for m in meshes)
    if any(m2 <= m1 for m1, m2 in zip(meshes, meshes[1:])):
        raise OracleError("meshes must be strictly increasing")
    infima = []
    for m in meshes:
        op = assemble_discrete(problem, m)
        mu, _ = pencil_min_eig(hermitian_part(op), op.gram, op.structure)
        infima.append(mu)
    extrap, order = _extrapolate(infima)
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
