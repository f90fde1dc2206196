"""Brute-force dissipativity probe via discretized numerical ranges.

The extension operator is projected onto a finite space spanned by cubic
B-spline elements (supports inside the domain, triple zeros where they touch
the boundary, hence inside every scenario's operator core) plus one column
for the extension vector itself.  The elements, their quadrature panels and
the banded assembly come from the package's one spline layer,
:mod:`dissipext.splines`, on a uniform knot vector.  The infimum of the
numerical range's imaginary part over that space is the minimal eigenvalue
of the Hermitian pencil ``H x = mu G x`` with ``H`` the Gram-weighted
imaginary part of the discretized action; it is computed with the in-repo
symmetric-reduction solver.

A negative discrete infimum certifies non-dissipativity of the continuum
operator (the discrete vector embeds into the true domain up to quadrature
error); a non-negative one is evidence, not proof, of dissipativity, since
the continuum infimum may only be attained along singular minimizing
sequences.  Reports state this asymmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import eigenh, splines
from .catalog import ExtensionProblem, MultiplicationPerturbation, RankOnePerturbation
from .grid import GridFunction

__all__ = [
    "OracleError",
    "DiscreteOperator",
    "OracleReport",
    "assemble_discrete",
    "assemble_core_pair",
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
    """

    basis: str
    matrix: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)
    v_index: int | None = None

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


def _sample_problem_function(gf: GridFunction | None, xs: np.ndarray) -> np.ndarray:
    if gf is None:
        return np.zeros(len(xs), dtype=complex)
    return gf.analytic(xs)


def _core_action_weights(problem: ExtensionProblem, xs: np.ndarray) -> dict:
    """Scenario coefficients turning basis samples into action samples."""
    if problem.scenario == "potsdam":
        w = _sample_problem_function(problem.w_potential, xs) if problem.w_potential is not None else 0.0
        return {"d2": -1.0j, "d1": 0.0, "mult": w}
    if problem.scenario == "shirley":
        return {"d2": -1.0j, "d1": 0.0, "mult": -problem.gamma / xs**2}
    if problem.scenario == "konzert":
        return {"d2": 0.0, "d1": 1.0j, "mult": 1.0j * problem.gamma / xs}
    # halfline_schrodinger: bounded imaginary parts are added separately
    return {"d2": -1.0, "d1": 0.0, "mult": 0.0}


def _lv_samples(problem: ExtensionProblem, xs: np.ndarray) -> np.ndarray:
    if problem.lv is not None:
        return _sample_problem_function(problem.lv, xs)
    if problem.phi is not None and problem.phi.analytic.terms:
        spec = problem.spec
        if spec.is_laplacian:
            return -problem.phi.analytic.derivative().derivative()(xs)
        if spec.family == "multiplication":
            return (spec.weight.analytic * problem.phi.analytic)(xs)
        raise OracleError("deviation generator unsupported in assembly")
    return np.zeros(len(xs), dtype=complex)


def _active_cut(problem: ExtensionProblem) -> float:
    """Right edge of the core span: where the problem data still has mass.

    For the bounded-imaginary-part scenario the symmetric action contributes
    nothing to the imaginary part on core elements, so only elements meeting
    the perturbation supports can lower the infimum and resolution is
    concentrated there.  The unbounded half-line scenario also needs the
    decay range of the extension vector and deviation generator.  Interval
    problems use the full domain.
    """
    grid = problem.grid
    if not grid.is_halfline:
        return grid.length
    if problem.scenario == "halfline_schrodinger":
        candidates = [problem.lv]
        if isinstance(problem.perturbation, RankOnePerturbation):
            candidates.append(problem.perturbation.phi)
        elif isinstance(problem.perturbation, MultiplicationPerturbation):
            candidates.extend([problem.perturbation.v, problem.perturbation.k])
    else:
        candidates = [problem.v, problem.phi, problem.lv, problem.w_potential]
    xs = grid.nodes
    cut = 0.0
    for gf in candidates:
        if gf is None:
            continue
        mag = np.abs(gf.values)
        peak = float(mag.max())
        if peak == 0.0:
            continue
        live = xs[mag > 1e-8 * peak]
        if len(live):
            cut = max(cut, float(live[-1]))
    if cut == 0.0:
        cut = grid.length
    return min(grid.length, 1.25 * cut + 2.0)


def assemble_discrete(
    problem: ExtensionProblem,
    n: int,
    *,
    include_bounded_v: bool = True,
) -> DiscreteOperator:
    """Project the extension operator onto ``n`` spline elements plus ``v``.

    Core entries come from per-interval 4x4 local blocks (the spline basis
    is banded) on Gauss-Legendre panels aligned with the knots, so every
    polynomial factor integrates exactly.  The second-order diagonal entry
    of the extension column is integrated by parts against the analytically
    known boundary traces.  ``include_bounded_v=False`` drops the bounded
    imaginary part from the action (used for semibound studies of the
    deviated symmetric part alone).
    """
    lo, hi = problem.grid.offset, _active_cut(problem)
    tab = _core_tables(lo, hi, n)
    shape = tab.x.shape
    xs, ws = tab.x.ravel(), tab.w.ravel()
    nb = tab.nbasis
    coeff = _core_action_weights(problem, xs)
    mult = np.asarray(coeff["mult"], dtype=complex)
    if mult.ndim == 0:
        mult = np.full(len(xs), complex(mult))
    pert = problem.perturbation if include_bounded_v else None
    if isinstance(pert, MultiplicationPerturbation):
        mult = mult + 1.0j * _sample_problem_function(pert.v, xs).real

    # local action samples (panels, 4, q): action applied to each active spline
    act_local = (
        complex(coeff["d2"]) * tab.d2
        + complex(coeff["d1"]) * tab.d1
        + mult.reshape(shape)[:, None, :] * tab.val
    )
    m_core = tab.matrix(tab.w, tab.val, act_local)
    gram_core = tab.matrix(tab.w, tab.val, tab.val)

    # extension column data
    vfn = problem.v.analytic
    v_samp = vfn(xs)
    act_v = problem.action_on(vfn)(xs)
    if problem.scenario == "potsdam" and problem.w_potential is not None:
        act_v = act_v + _sample_problem_function(problem.w_potential, xs) * v_samp
    lv = _lv_samples(problem, xs)
    act_v_full = act_v + lv
    if isinstance(pert, RankOnePerturbation):
        phi_s = pert.phi.analytic(xs)
        ip = np.sum(ws * np.conj(phi_s) * v_samp)
        act_v_full = act_v_full + 1.0j * pert.alpha * ip * phi_s
    elif isinstance(pert, MultiplicationPerturbation):
        act_v_full = act_v_full + 1.0j * _sample_problem_function(pert.v, xs).real * v_samp

    dim = nb + 1
    mat = np.zeros((dim, dim), dtype=complex)
    gram = np.zeros((dim, dim), dtype=complex)
    mat[:nb, :nb] = m_core
    gram[:nb, :nb] = gram_core
    mat[:nb, nb] = tab.vector((ws * act_v_full).reshape(shape), tab.val)
    row = tab.vector((ws * np.conj(v_samp)).reshape(shape), act_local)
    if isinstance(pert, RankOnePerturbation):
        pvec = tab.vector((ws * phi_s).reshape(shape), tab.val)
        row = row + 1.0j * pert.alpha * np.sum(ws * np.conj(v_samp) * phi_s) * np.conj(pvec)
        mat[:nb, :nb] += 1.0j * pert.alpha * np.outer(pvec, np.conj(pvec))
    mat[nb, :nb] = row
    mat[nb, nb] = _vv_entry(problem, include_bounded_v)
    gv = tab.vector((ws * v_samp).reshape(shape), tab.val)
    gram[:nb, nb] = gv
    gram[nb, :nb] = np.conj(gv)
    gram[nb, nb] = np.sum(problem.grid.weights * np.abs(vfn(problem.grid.nodes)) ** 2)
    _check_gram(gram)
    return DiscreteOperator(
        f"{nb} cubic spline elements on [{lo:g},{hi:g}] + extension vector",
        mat,
        gram,
        v_index=nb,
    )


def _windowed(fn) -> bool:
    return any(t.lo is not None or t.hi is not None for t in fn.terms)


def _v_against(problem: ExtensionProblem, gf: GridFunction | None) -> complex:
    """``<v, g>`` over the full domain; symbolic when g carries windows.

    Gauss panels do not align with indicator jumps, so windowed factors are
    integrated in closed form; everything else goes through quadrature.
    """
    if gf is None:
        return 0.0
    vfn = problem.v.analytic
    if _windowed(gf.analytic):
        return complex((vfn.conj() * gf.analytic).integral(0.0, problem.grid.right_endpoint))
    xs, ws = problem.grid.nodes, problem.grid.weights
    return complex(np.sum(ws * np.conj(vfn(xs)) * gf.analytic(xs)))


def _vv_entry(problem: ExtensionProblem, include_bounded_v: bool) -> complex:
    """``<v, (action + L) v>`` with the stiffness part integrated by parts.

    Quadrature runs on the full problem grid (the core span may be shorter);
    exact boundary traces carry the integration-by-parts boundary terms.
    """
    vfn = problem.v.analytic
    xs, ws = problem.grid.nodes, problem.grid.weights
    v_samp = vfn(xs)
    if problem.scenario == "konzert":
        act = problem.action_on(vfn)(xs)
        total = complex(np.sum(ws * np.conj(v_samp) * act))
    else:
        c = -1.0j if problem.scenario in ("potsdam", "shirley") else -1.0
        dv = vfn.derivative()(xs)
        t = problem.v.traces
        boundary = np.conj(t.value_b) * t.deriv_b - np.conj(t.value0) * t.deriv0
        total = complex(c * (boundary - np.sum(ws * np.abs(dv) ** 2)))
        if problem.scenario == "shirley":
            total += complex(-problem.gamma * np.sum(ws * np.abs(v_samp) ** 2 / xs**2))
        if problem.scenario == "potsdam" and problem.w_potential is not None:
            wv = _sample_problem_function(problem.w_potential, xs)
            total += complex(np.sum(ws * wv * np.abs(v_samp) ** 2))
    # deviation term
    if problem.lv is not None:
        total += _v_against(problem, problem.lv)
    elif problem.phi is not None and problem.phi.analytic.terms:
        lv_fn = -1.0 * problem.phi.analytic.derivative().derivative()
        total += complex(np.sum(ws * np.conj(v_samp) * lv_fn(xs)))
    # bounded imaginary part
    pert = problem.perturbation if include_bounded_v else None
    if isinstance(pert, RankOnePerturbation):
        ip = np.sum(ws * np.conj(pert.phi.analytic(xs)) * v_samp)
        total += complex(1.0j * pert.alpha * abs(ip) ** 2)
    elif isinstance(pert, MultiplicationPerturbation):
        if _windowed(pert.v.analytic):
            hi = problem.grid.right_endpoint
            total += complex(1.0j * (vfn.conj() * pert.v.analytic * vfn).integral(0.0, hi))
        else:
            vx = _sample_problem_function(pert.v, xs).real
            total += complex(1.0j * np.sum(ws * vx * np.abs(v_samp) ** 2))
    return total


def _check_gram(gram: np.ndarray) -> None:
    try:
        l = eigenh.cholesky(0.5 * (gram + gram.conj().T))
    except eigenh.NotPositiveDefiniteError as exc:
        raise OracleError(f"basis Gram not positive definite: {exc}") from None
    d = np.abs(np.diag(l))
    cond_est = (float(d.max()) / float(d.min())) ** 2
    if cond_est > 1e12:
        raise OracleError(f"basis Gram condition estimate {cond_est:.2e} exceeds 1e12")


def assemble_core_pair(problem: ExtensionProblem, n: int):
    """Matrices of the dual pair's two actions on the core span alone."""
    lo, hi = problem.grid.offset, problem.grid.length
    tab = _core_tables(lo, hi, n)
    coeff = _core_action_weights(problem, tab.x.ravel())
    mult = np.broadcast_to(np.asarray(coeff["mult"], dtype=complex), tab.x.size)
    act = (
        coeff["d2"] * tab.d2
        + coeff["d1"] * tab.d1
        + mult.reshape(tab.x.shape)[:, None, :] * tab.val
    )
    m = tab.matrix(tab.w, tab.val, act)
    gram = tab.matrix(tab.w, tab.val, tab.val)
    desc = f"{tab.nbasis} cubic spline elements on [{lo:g},{hi:g}]"
    return (
        DiscreteOperator(desc, m, gram),
        DiscreteOperator(desc, m.conj().T.copy(), gram),
    )


# ---------------------------------------------------------------------------
# pencil probe


def hermitian_part(op: DiscreteOperator) -> np.ndarray:
    """Gram-weighted imaginary part ``H = (M - M^H) / 2i`` (Hermitian)."""
    return (op.matrix - op.matrix.conj().T) / 2.0j


def pencil_min_eig(h: np.ndarray, g: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimal eigenvalue and eigenvector of ``H x = mu G x``.

    ``H`` must be Hermitian and ``G`` Hermitian positive definite; the
    residual of the returned pair satisfies
    ``||H x - mu G x|| <= 1e-9 ||H|| ||x||``.
    """
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex)
    scale = max(float(np.max(np.abs(h))), 1e-300)
    if float(np.max(np.abs(h - h.conj().T))) > 1e-10 * scale:
        raise OracleError("imaginary-part matrix is not Hermitian")
    try:
        mu, x = eigenh.pencil_extreme(h, g, which="min")
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
        mu, _ = pencil_min_eig(hermitian_part(op), op.gram)
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
