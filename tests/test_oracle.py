import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from dissipext import analytic, catalog, cli_io, criteria, eigenh, oracle, splines
from dissipext.analytic import AnalyticFunction, Term, constant, exponential, indicator, norm_sq
from reference.assembly import assemble_dense, core_rounding_scale, dense_pencil, expand
from reference.bspline import cox_de_boor
from reference.dense import band_border, pencil_eigh
from reference.margins import semibound_estimate
from reference.problems import equivalence_problem


def _konzert(c):
    return catalog.build_konzert(0.25, constant(c) if c else None)


# ---------------------------------------------------------------------------
# assembly structure


def _dense_core(lo, hi, n):
    """The oracle's ``n`` core splines on ``[lo, hi]`` by the textbook
    recursion on its knots, sampled densely at its own nodes and weights."""
    tab = oracle._core_tables(lo, hi, n)
    xs, ws = tab.x.ravel(), tab.w.ravel()
    val = np.array([cox_de_boor(tab.knots, k, xs) for k in range(n)])
    d1 = np.array([cox_de_boor(tab.knots, k, xs, 1) for k in range(n)])
    return xs, ws, val, d1


def test_konzert_hermitian_block_is_multiplication_matrix():
    # the first-order action contributes a boundary-free symmetric part on
    # vanishing-trace elements, so the imaginary part reduces to the
    # weighted multiplication matrix
    prob = _konzert(1.0)
    op = oracle.assemble_discrete(prob, 64)
    h = expand(op.h)
    nb = len(op.h.band)
    xs, ws, val, _ = _dense_core(prob.grid.offset, 1.0, 64)
    mult = (val * (ws * 0.25 / xs)) @ val.T
    assert np.max(np.abs(h[:nb, :nb] - mult)) < 1e-12


def test_shirley_hermitian_block_is_stiffness(shirley_instance):
    op = oracle.assemble_discrete(shirley_instance, 64)
    h = expand(op.h)
    nb = len(op.h.band)
    _, ws, _, d1 = _dense_core(shirley_instance.grid.offset, 1.0, 64)
    stiff = (d1 * ws) @ d1.T
    assert np.max(np.abs(h[:nb, :nb] - stiff)) < 1e-10 * np.max(np.abs(stiff))


def test_hermitian_part_exact():
    # off the diagonal the parts are Hermitian by storage; the diagonal and
    # the corner are exactly so, and H's core is (M - M^H) / 2i of the dense
    # M up to rounding (its border: test_band_assembly_matches_dense_reference)
    prob = _konzert(1.2)
    h = oracle.assemble_discrete(prob, 64).h
    assert np.all(h.band[:, 0].imag == 0.0)
    assert np.array_equal(h.corner, h.corner.conj().T)
    m, _ = assemble_dense(prob, 64)
    core = np.s_[:-1, :-1]
    gap = np.abs(expand(h)[core] - ((m - m.conj().T) / 2.0j)[core])
    # The band sums the mass products w Im(m) b_k b_l (the Im(c1) term is 0
    # exactly), the dense reference the products w b_k Im(action b_l): two
    # orders of the same exact integrals.  By the argument of
    # test_band_assembly_matches_dense_reference each is within gamma_2K of
    # the moduli of its summands, which S = core_rounding_scale(np.imag)
    # bounds, so they differ by at most 2 gamma_2K (S + S^T) / 2.
    two_k_eps = 2 * 4 * 16 * np.finfo(float).eps
    s = core_rounding_scale(prob, 64, np.imag)
    assert np.all(gap <= 2.0 * two_k_eps / (1.0 - two_k_eps) * (s + s.T) / 2.0)


def test_gram_positive_definite():
    op = oracle.assemble_discrete(_konzert(0.0), 64)
    w = np.linalg.eigvalsh(expand(op.g))
    assert float(w.min()) > 0.0


def _gauss(f, breaks, panels=512):
    """Composite 8-point Gauss-Legendre integral of ``f`` over each piece
    between consecutive ``breaks``."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    total = 0.0j
    for lo, hi in zip(breaks, breaks[1:]):
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        xs = (mid[:, None] + half[:, None] * nodes).ravel()
        total += np.sum((half[:, None] * weights).ravel() * f(xs))
    return complex(total)


def _vv_reference(prob, c2, c1, m, lv, breaks):
    """``<v, (c2 v'' + c1 v' + m v + Lv)>`` by quadrature, the second-order
    part integrated by parts: ``<v, v''> = [conj(v) v'] - ||v'||^2``."""
    v = prob.v
    dv = v.derivative()
    hi = breaks[-1]
    edge = np.conj(v.value_at(hi)) * dv.value_at(hi) - np.conj(v.value_at(0.0)) * dv.value_at(0.0)
    total = c2 * (edge - _gauss(lambda x: np.abs(dv(x)) ** 2, breaks))
    return total + _gauss(lambda x: np.conj(v(x)) * (c1 * dv(x) + m(x) * v(x) + lv(x)), breaks)


@pytest.mark.parametrize("builder,kwargs", [
    ("konzert", {}),
    ("shirley", {}),
    ("potsdam", {}),
    ("schrodinger_rank1", {}),
    ("schrodinger_mult", {}),
])
def test_v_column_matches_criteria_lhs(builder, kwargs, shirley_instance, rank_one_direction):
    # each scenario's action, deviation and bounded part stated here again,
    # integrated on the test's own quadrature
    sq2, gamma = math.sqrt(2.0), math.sqrt(3.0)
    zero = lambda x: 0.0 * x
    halfline = [0.0, 1.0, 40.0]
    cases = {
        "konzert": (_konzert(1.2), 0.0, 1j, lambda x: 0.25j / x, lambda x: 1.2 + zero(x), [0.0, 1.0]),
        "shirley": (shirley_instance, -1j, 0.0, lambda x: -gamma / x**2, lambda x: -2.0 + zero(x),
                    [0.0, 1.0]),
        "potsdam": (
            catalog.build_potsdam(
                exponential(0.5, -1.0), -1.2 + 0j, AnalyticFunction((Term(1j, 1.0, -1.0),))
            ),
            -1j, 0.0, lambda x: 0.5 * np.exp(-x), lambda x: -1j * (x - 2.0) * np.exp(-x), halfline,
        ),
        "schrodinger_rank1": (
            catalog.build_halfline_schrodinger(
                1j, catalog.RankOnePerturbation(1.0, rank_one_direction, 2.4)
            ),
            -1.0, 0.0, zero, lambda x: 2.4 * sq2 * np.exp(-x), halfline,
        ),
        "schrodinger_mult": (
            catalog.build_halfline_schrodinger(
                1 + 1j,
                catalog.MultiplicationPerturbation(indicator(0.0, 1.0), 2.2 * indicator(0.0, 1.0)),
            ),
            -1.0, 0.0, zero, lambda x: np.where(x < 1.0, 2.2, 0.0), halfline,
        ),
    }
    prob, c2, c1, m, lv, breaks = cases[builder]
    ref = _vv_reference(prob, c2, c1, m, lv, breaks)
    v = prob.v
    if builder == "schrodinger_rank1":  # i alpha |<phi, v>|^2 with alpha = 1
        ref += 1j * abs(_gauss(lambda x: sq2 * np.exp(-x) * v(x), breaks)) ** 2
    if builder == "schrodinger_mult":  # i int_0^1 |v|^2
        ref += 1j * _gauss(lambda x: np.abs(v(x)) ** 2, [0.0, 1.0])
    h, _ = dense_pencil(oracle.assemble_discrete(prob, 128))
    assert abs(h[-1, -1] - ref.imag) < 1e-8
    assert abs(criteria._general_lhs(prob, prob.deviation()) - ref.imag) < 1e-8


_GRID_CASES = {
    "shirley": "name = shirley\ngamma = 2\nrho = 0.5+0.375i\nphi = x^2 - x\n\n[grid]\noffset = 1e-6\n",
    "konzert": "name = konzert\ngamma = 0.25\nell = 1.2\n\n[grid]\noffset = 1e-6\n",
    "potsdam": "name = potsdam\nrho = 1\nphi = i*x*exp(-x)\nW = 0.5*exp(-x)\n\n[grid]\nR = 80\n",
    "rank_one": ("name = halfline_schrodinger\nh = 1+1i\nperturbation = rank_one\nalpha = 1\n"
                 "lambda = 2\n\n[grid]\nR = 80\n"),
    "multiplication": ("name = halfline_schrodinger\nh = 1+1i\nperturbation = multiplication\n"
                       "V = indicator(0,1)\nk = 2*indicator(0,1)\n\n[grid]\nR = 80\n"),
}


@pytest.mark.parametrize("scenario", sorted(_GRID_CASES))
def test_assembly_independent_of_sample_grid(scenario, phi_x2_minus_x, phi_ix_exp,
                                             rank_one_direction):
    # every entry and the half-line core span's right edge come from term
    # sums: a config's [grid] section (the default offset, or a truncation
    # radius beyond the functions' decay) changes no bit of the operator
    # that the catalog's builder gives
    if scenario == "shirley":
        direct = catalog.build_shirley(2.0, 0.5 + 0.375j, phi_x2_minus_x)
    elif scenario == "konzert":
        direct = catalog.build_konzert(0.25, constant(1.2))
    elif scenario == "potsdam":
        direct = catalog.build_potsdam(exponential(0.5, -1.0), 1.0 + 0j, phi_ix_exp)
    else:
        if scenario == "rank_one":
            pert = catalog.RankOnePerturbation(1.0, rank_one_direction, 2.0)
        else:
            pert = catalog.MultiplicationPerturbation(indicator(0.0, 1.0), 2.0 * indicator(0.0, 1.0))
        direct = catalog.build_halfline_schrodinger(1 + 1j, pert)
    configured = cli_io.build_problem(cli_io.parse_config("[scenario]\n" + _GRID_CASES[scenario]))
    a_op, b_op = (oracle.assemble_discrete(p, 64) for p in (direct, configured))
    for name in ("h", "g"):
        for a, b in zip(getattr(a_op, name).parts, getattr(b_op, name).parts):
            assert np.array_equal(a, b), name


def test_assembly_needs_analytic_vector():
    # the oracle reads the term sum of every problem function; samples
    # cannot stand in for one
    prob = _konzert(1.0)
    assert isinstance(prob.v, AnalyticFunction) and isinstance(prob.lv, AnalyticFunction)
    sampled = dataclasses.replace(prob, v=prob.v(np.linspace(0.1, 1.0, 8)))
    with pytest.raises(TypeError):
        oracle.assemble_discrete(sampled, 64)


# ---------------------------------------------------------------------------
# pencil probe


def test_pencil_min_eig_examples():
    g = band_border(np.eye(2))
    lam, _ = oracle.pencil_min_eig(eigenh.Pencil(band_border(np.eye(2)), g))
    assert lam == pytest.approx(1.0)
    lam, _ = oracle.pencil_min_eig(eigenh.Pencil(band_border(np.diag([-1.0, 2.0])), g))
    assert lam == pytest.approx(-1.0)


def test_pencil_min_eig_residual_contract():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    h = 0.5 * (a + a.conj().T)
    b = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    g = b @ b.conj().T + 50 * np.eye(50)
    lam, x = oracle.pencil_min_eig(eigenh.Pencil(band_border(h), band_border(g)))
    ref = pencil_eigh(h, g)[0][0]
    assert lam == pytest.approx(ref, abs=1e-9 * max(1, abs(ref)))
    assert np.linalg.norm(h @ x - lam * (g @ x)) <= 1e-9 * np.linalg.norm(h, 2) * np.linalg.norm(x)


def _assemble(kind, prob, n):
    """The oracle's pencil of ``prob`` on ``n`` splines; for
    ``rank_one_symmetric_part`` without its rank-one term, which leaves the
    deviated symmetric part alone."""
    op = oracle.assemble_discrete(prob, n)
    if kind == "rank_one_symmetric_part":
        op = dataclasses.replace(op, rank_one=None)
    return op


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("kind", ["konzert", "shirley", "potsdam", "rank_one", "multiplication",
                                  "rank_one_symmetric_part"])
def test_band_solver_matches_dense_spectrum(kind, n, rank_one_direction):
    # the band-plus-border solver against the dense full-spectrum reference
    prob = equivalence_problem(kind, rank_one_direction)
    op = _assemble(kind, prob, n)
    assert (op.rank_one is not None) == (kind == "rank_one")
    mu, _ = oracle.pencil_min_eig(op)
    w, _ = pencil_eigh(*dense_pencil(op))
    assert abs(mu - w[0]) <= 1e-10 * abs(w[0])


@pytest.mark.parametrize("kind", ["konzert", "shirley", "potsdam", "rank_one", "multiplication",
                                  "rank_one_symmetric_part"])
def test_band_assembly_matches_dense_reference(kind, rank_one_direction):
    # the band parts of H and G against the dense np.add.at assembly,
    # rank-one term and the multiplication i V block included
    prob = equivalence_problem(kind, rank_one_direction)
    op = _assemble(kind, prob, 64)
    assert op.h.band.dtype == op.g.band.dtype == np.float64
    m_ref, g_ref = assemble_dense(prob, 64, include_bounded_v=kind != "rank_one_symmetric_part")
    h_ref = (m_ref - m_ref.conj().T) / 2.0j
    h, g = dense_pencil(op)
    assert h.shape == h_ref.shape and g.shape == g_ref.shape
    assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))
    tol = 1e-14 * np.max(np.abs(h_ref))
    core = np.s_[:-1, :-1]
    border = np.ones(h.shape, dtype=bool)
    border[core] = False
    assert np.max(np.abs(h - h_ref)[border]) <= tol
    assert np.max(np.abs(h[core].real - h_ref[core].real)) <= tol
    # H's core is stored real; the reference's core imaginary part is
    # -(A - A^T) / 2 with A = Re M, 0 in exact arithmetic (Re c1 = 0)
    assert np.all(expand(op.h)[core].imag == 0.0)
    # A priori bound on that rounding: each of A[k, l] and A[l, k] is a sum
    # of at most K = 4 * 16 quadrature products w b_k Re(action b_l) (four
    # shared knot intervals of two 8-point panels), whose moduli add up to
    # S[k, l].  Summing them costs at most gamma_(K-1) S (Higham, Accuracy
    # and Stability of Numerical Algorithms, ch. 4), and each product's
    # factors (the mapped nodes and weights, de Boor's three recurrence
    # steps, the action's products and sums) carry fewer than K further
    # roundings.  So each computed entry is within gamma_2K S[k, l] of the
    # exact integral, which is symmetric: |A - A^T| / 2 <= gamma_2K (S + S^T) / 2.
    two_k_eps = 2 * 4 * 16 * np.finfo(float).eps
    s = core_rounding_scale(prob, 64)
    assert np.all(np.abs(h_ref[core].imag) <= two_k_eps / (1.0 - two_k_eps) * (s + s.T) / 2.0)


def test_assembly_refuses_a_first_order_term_with_real_part(monkeypatch):
    # Re c1 != 0 would leave an antisymmetric real part in M, so H's core
    # would not be real: the assembly says so instead of dropping it
    prob = _konzert(1.2)
    c2, _, m = prob.expression()
    monkeypatch.setattr(catalog.ExtensionProblem, "expression", lambda self: (c2, 1.0, m))
    with pytest.raises(oracle.OracleError, match="c1"):
        oracle.assemble_discrete(prob, 32)


_README_SCHRODINGER = {
    "multiplication": "perturbation = multiplication\nV = indicator(0,1)\nk = 2*indicator(0,1)\n",
    "rank_one": "perturbation = rank_one\nalpha = 1\nlambda = 2\nphi = exp(-x)\n",
}


@pytest.mark.parametrize("case", sorted(_README_SCHRODINGER))
def test_dissipative_schrodinger_infima_carry_no_rounding_noise(case):
    # margin 0: with H's core real, the infima are not the rounding of an
    # antisymmetric part any more (about -2e-10 at n = 256 when it was complex)
    text = "[scenario]\nname = halfline_schrodinger\nh = 1+1i\n" + _README_SCHRODINGER[case]
    prob = cli_io.build_problem(cli_io.parse_config(text))
    report = oracle.cross_validate(prob, criteria.decide(prob))
    assert report.meshes == (64, 128, 256)
    assert min(report.infima) >= -1e-20, report.infima


@pytest.mark.parametrize("lo, hi", [(1e-6, 1.0), (0.0, 17.5)], ids=["interval", "halfline"])
def test_core_tables_map_the_reference_tables(lo, hi):
    # the cached tables on [0, 1], mapped onto the span, are the tables of
    # the span's own knots up to rounding
    got = oracle._core_tables(lo, hi, 40)
    want = splines.spline_tables(got.knots, 2)
    assert got.nbasis == want.nbasis and np.array_equal(got.index, want.index)
    for name in ("x", "w", "val", "d1", "d2"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name


@pytest.mark.parametrize("n", [16, 64])
def test_reference_mesh_is_its_knots_tables(n):
    # the knot vector the cached tables carry is the one they were built
    # from, and every span maps it from lo onto hi; nothing here depends on
    # which reference vector on [0, 1] the oracle chooses
    ref = oracle._reference_mesh(n).tables
    want = splines.spline_tables(ref.knots, oracle._SUBPANELS)
    assert ref.nbasis == want.nbasis == n
    for name in ("index", "x", "w", "val", "d1", "d2"):
        assert np.array_equal(getattr(ref, name), getattr(want, name)), name
    assert ref.knots[0] == 0.0 and ref.knots[-1] == 1.0
    for lo, hi in ((1e-6, 1.0), (0.0, 17.5)):
        knots = oracle._core_tables(lo, hi, n).knots
        assert len(knots) == n + 4 and np.all(np.diff(knots) > 0)
        assert knots[0] == lo and abs(knots[-1] - hi) <= 4 * np.spacing(hi)


def test_reference_tables_are_read_only():
    tab = oracle._core_tables(0.0, 1.0, 16)
    for a in (tab.index, tab.val, oracle._reference_mesh(16).tables.d1):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    with pytest.raises(ValueError):
        oracle._reference_mesh(16).tables.knots[0] = 1.0


def test_reference_bands_and_factor_are_immutable():
    # every rung of every problem on 16 splines reads these
    ref = oracle._reference_mesh(16)
    for a in (ref.stiffness, ref.mass):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    sub, pivots = ref.gram_core
    assert isinstance(sub, tuple) and isinstance(pivots, tuple)
    assert all(isinstance(s, tuple) for s in sub)
    assert len(pivots) == len(sub[0]) == ref.tables.nbasis


def test_oracle_payload_independent_of_table_cache():
    # cold: the tables, bands and Gram core factor of each mesh are built;
    # warm: every rung reads them from the cache
    cfg = cli_io.parse_config("[scenario]\nname = potsdam\nrho = 1\nphi = i*x*exp(-x)\nW = 0.5*exp(-x)\n")
    oracle._reference_mesh.cache_clear()
    cold = json.dumps(cli_io.run_oracle(cfg))
    info = oracle._reference_mesh.cache_info()
    assert info.currsize == info.misses == 3
    cached = [oracle._reference_mesh(n) for n in (64, 128, 256)]
    assert all(ref.stiffness.shape == ref.mass.shape and ref.gram_core for ref in cached)
    warm = json.dumps(cli_io.run_oracle(cfg))
    assert oracle._reference_mesh.cache_info().misses == 3
    assert all(oracle._reference_mesh(n) is ref for n, ref in zip((64, 128, 256), cached))
    assert cold == warm


def test_oracle_mesh_memory_is_linear():
    # band-plus-border storage: no (n+1)^2 matrix, which alone would take
    # 16.8 MB at n = 1024
    prob = equivalence_problem("potsdam", None)  # the README Potsdam config
    oracle.assemble_discrete(prob, 64)
    tracemalloc.start()
    try:
        op = oracle.assemble_discrete(prob, 1024)
        oracle.pencil_min_eig(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("kind", ["konzert", "potsdam", "rank_one"])
def test_each_pencil_factors_its_gram_once(kind, rank_one_direction, monkeypatch):
    # G's core is L G_ref on the reference knots: its factor is computed once
    # per mesh and process, the assembly's Gram check adds the border to it,
    # and the pencil solver never factors G again
    cores = []
    ldl_core = eigenh._ldl_core

    def recording(band, cap=None):
        cores.append(list(band[0]))  # the diagonal, padded with three zeros
        return ldl_core(band, cap)

    monkeypatch.setattr(eigenh, "_ldl_core", recording)
    prob = equivalence_problem(kind, rank_one_direction)
    second = _konzert(0.7)
    oracle._reference_mesh.cache_clear()
    for n in (16, 32):
        cores.clear()
        op = oracle.assemble_discrete(prob, n)
        reference_diagonal = oracle._reference_mesh(n).mass[:, 0].tolist() + [0.0] * 3
        assert cores == [reference_diagonal]
        cores.clear()
        other = oracle.assemble_discrete(second, n)
        oracle.pencil_min_eig(op)
        oracle.pencil_min_eig(other)
        gram_diagonals = [g.band[:, 0].tolist() + [0.0] * 3 for g in (op.g, other.g)]
        assert len(cores) > 4
        assert not any(diag == reference_diagonal or diag in gram_diagonals for diag in cores)


@pytest.mark.parametrize("kind", ["potsdam", "rank_one"])
def test_each_rung_computes_its_pencil_values_once(kind, rank_one_direction, monkeypatch):
    # per rung one x^a e^{bx} per distinct (power, rate), shared by all the
    # functions read at the nodes, and one max|H|, which the scaled pencil
    # and the checks share; one start vector per size and process; per
    # inverse-iteration round after the first three products, since the
    # G x of a round's last step is the next round's first; and no product
    # outside the solver, whose residual check reads the last round's
    prob = equivalence_problem(kind, rank_one_direction)
    verdict = criteria.decide(prob)
    events = []

    def record(owner, name, tag):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            events.append((tag, args[:2]))
            out = inner(*args, **kwargs)
            events.append((tag + " end", ()))
            return out

        monkeypatch.setattr(owner, name, wrapper)

    record(analytic, "_power_exp", "factor")
    record(eigenh, "_largest_modulus", "max")
    record(eigenh.BandBorder, "matvec", "matvec")
    record(eigenh, "_ldl_solve", "solve")
    record(eigenh, "pencil_extreme", "extreme")
    record(oracle, "assemble_discrete", "rung")
    eigenh._start_vector.cache_clear()
    for _ in range(2):
        events.clear()
        oracle.cross_validate(prob, verdict, meshes=(64, 128, 256))
        starts = [i for i, (tag, _) in enumerate(events) if tag == "rung"]
        assert len(starts) == 3
        for lo, hi in zip(starts, starts[1:] + [len(events)]):
            rung = [(tag, args) for tag, args in events[lo:hi] if not tag.endswith(" end")]
            factors = [args for tag, args in rung if tag == "factor"]
            assert factors and len(factors) == len(set(factors)), factors
            assert [tag for tag, _ in rung].count("max") == 1
            begin = next(i for i in range(lo, hi) if events[i][0] == "extreme")
            end = events.index(("extreme end", ()), begin)
            inside = [tag for tag, _ in events[begin:end]]
            rounds, rest = divmod(inside.count("solve"), eigenh._INVERSE_STEPS)
            assert rounds and not rest
            assert inside.count("matvec") == 3 * rounds + 1
            assert [tag for tag, _ in rung].count("matvec") == inside.count("matvec")
    assert eigenh._start_vector.cache_info().misses == 3


@pytest.mark.parametrize("kind", ["konzert", "shirley", "potsdam", "rank_one", "multiplication"])
def test_cached_gram_core_matches_a_fresh_factor(kind, rank_one_direction):
    # the reference factor with its pivots scaled by the span's length, and
    # the border added, against a factorization of the whole assembled G.
    # The last pivot is the Schur complement ||v||^2 - w^H D^-1 w of the
    # corner: its rounding is relative to the corner entry it cancels.
    prob = equivalence_problem(kind, rank_one_direction)
    for n in (64, 256):
        op = oracle.assemble_discrete(prob, n)
        cached, fresh = op.g_factor.pivots, eigenh.GramFactor(op.g).pivots
        assert cached.shape == fresh.shape == (len(op.g),)
        scale = np.append(np.abs(fresh[:-1]), op.g.corner[0, 0].real)
        assert np.max(np.abs(cached - fresh) / scale) <= 1e-14


def test_indefinite_gram_border_is_refused(monkeypatch):
    # the cached core is positive definite; a border that makes G indefinite
    # (here ||v||^2 = 0 in the corner) still fails the Gram check
    monkeypatch.setattr(oracle, "norm_sq", lambda *args, **kwargs: 0.0)
    with pytest.raises(oracle.OracleError, match="not positive definite"):
        oracle.assemble_discrete(_konzert(1.2), 64)


@pytest.mark.parametrize("kind", ["konzert", "shirley", "potsdam", "rank_one", "multiplication"])
def test_ladder_rungs_equal_standalone_assembly(kind, rank_one_direction, monkeypatch):
    # cross_validate computes the mesh-free closed forms once per ladder;
    # each rung is still bit for bit what assemble_discrete gives alone
    rungs = []
    assemble = oracle.assemble_discrete

    def recording(problem, n, **kwargs):
        op = assemble(problem, n, **kwargs)
        rungs.append((n, op))
        return op

    monkeypatch.setattr(oracle, "assemble_discrete", recording)
    prob = equivalence_problem(kind, rank_one_direction)
    oracle.cross_validate(prob, criteria.decide(prob))
    assert [n for n, _ in rungs] == [64, 128, 256]
    for n, op in rungs:
        alone = assemble(prob, n)
        for name in ("h", "g"):
            for a, b in zip(getattr(op, name).parts, getattr(alone, name).parts):
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, name)
        assert np.array_equal(op.g_factor.pivots, alone.g_factor.pivots)
        if kind == "rank_one":
            (alpha, q), (beta, r) = op.rank_one, alone.rank_one
            assert alpha == beta and np.array_equal(q, r)
        else:
            assert op.rank_one is alone.rank_one is None


def test_residual_norm_counts_the_rank_one_term(rank_one_direction):
    # ||H||_inf of the residual check, from the parts and (alpha, q) alone
    op = oracle.assemble_discrete(equivalence_problem("rank_one", rank_one_direction), 32)
    h, _ = dense_pencil(op)
    got = eigenh._inf_norm(op)
    assert got == pytest.approx(np.linalg.norm(h, np.inf), rel=1e-13)


def test_pencil_min_eig_rejects_bad_inputs():
    with pytest.raises(oracle.OracleError):
        oracle.pencil_min_eig(eigenh.Pencil(band_border(np.eye(2)),
                                            band_border(np.diag([1.0, -1.0]))))
    eye = band_border(np.eye(4), 1, 2)
    # a complex diagonal, a complex corner diagonal, a non-Hermitian corner
    for band, corner in ((np.array([[1j, 0.0], [1.0, 0.0]]), np.eye(2)),
                         (eye.band, np.diag([1.0, 1j])), (eye.band, np.array([[1.0, 1.0], [0.0, 1.0]]))):
        with pytest.raises(oracle.OracleError):
            oracle.pencil_min_eig(eigenh.Pencil(eigenh.BandBorder(band, eye.rows, corner), eye))


# ---------------------------------------------------------------------------
# mesh studies


@pytest.mark.parametrize("kind", ["konzert", "shirley", "potsdam", "rank_one", "multiplication",
                                  "rank_one_symmetric_part"])
def test_variational_monotonicity_nested_meshes(kind, rank_one_direction):
    # dyadically nested knot refinements can only lower the infimum
    prob = equivalence_problem(kind, rank_one_direction)
    mus = []
    n0 = 61  # m = 64 knot intervals; next level doubles them
    for n in (n0, 2 * (n0 + 3) - 3, 4 * (n0 + 3) - 3):
        op = _assemble(kind, prob, n)
        mu, _ = oracle.pencil_min_eig(op)
        mus.append(mu)
    assert mus[1] <= mus[0] + 1e-10
    assert mus[2] <= mus[1] + 1e-10


def _ladder_draw(kind, rng, rank_one_direction):
    """An acceptance-5 instance of ``kind``: redrawn until |margin| > 0.05."""
    while True:
        if kind == "potsdam":
            phi = float(rng.uniform(0.2, 1.5)) * AnalyticFunction((Term(1j, 1.0, -1.0),))
            prob = catalog.build_potsdam(None, complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0)), phi)
        elif kind == "shirley":
            s = float(rng.uniform(-1.2, 1.2))
            prob = catalog.build_shirley(float(rng.uniform(math.sqrt(3.0), 4.0)),
                                         complex(rng.uniform(-0.6, 1.6), rng.uniform(-0.8, 0.8)),
                                         AnalyticFunction((Term(s, 2.0), Term(-s, 1.0))))
        elif kind == "konzert":
            c = complex(rng.normal(0, 0.8), rng.normal(0, 0.8))
            prob = catalog.build_konzert(float(rng.uniform(0.08, 0.45)), constant(c))
        else:
            h = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.5))
            if kind == "rank_one":
                lam = complex(rng.normal(0, 1.5), rng.normal(0, 1.5))
                pert = catalog.RankOnePerturbation(float(rng.uniform(0.5, 2.0)), rank_one_direction, lam)
            else:
                pert = catalog.MultiplicationPerturbation(
                    indicator(0.0, 1.0), float(rng.uniform(0.0, 4.0)) * indicator(0.0, 1.0))
            prob = catalog.build_halfline_schrodinger(h, pert)
        verdict = criteria.decide(prob)
        if abs(verdict.margin) > 0.05:
            return prob, verdict


@pytest.mark.parametrize("seed", range(1, 11))
def test_warm_ladder_matches_cold_pencils(seed, rank_one_direction, monkeypatch):
    # each rung after the first starts from the previous infimum, and ends
    # at the minimum a cold start certifies
    guesses = []
    cold_min_eig = oracle.pencil_min_eig

    def recording(pencil, *, guess=None):
        guesses.append(guess)
        return cold_min_eig(pencil, guess=guess)

    monkeypatch.setattr(oracle, "pencil_min_eig", recording)
    rng = np.random.default_rng(seed)
    for kind in ("potsdam", "shirley", "konzert", "rank_one", "multiplication"):
        prob, verdict = _ladder_draw(kind, rng, rank_one_direction)
        guesses.clear()
        report = oracle.cross_validate(prob, verdict)
        assert guesses[0] is None and None not in guesses[1:]
        for m, mu in zip(report.meshes, report.infima):
            op = oracle.assemble_discrete(prob, m)
            cold, _ = cold_min_eig(op)
            tol = 1e-11 if abs(cold) < 1e-8 else 1e-12 * abs(cold)
            assert abs(mu - cold) <= tol, (kind, m, mu, cold)


def test_cross_validate_konzert_nondissipative():
    # analytic margin -0.22: the discrete infimum is decisively negative
    prob = _konzert(1.2)
    verdict = criteria.decide(prob)
    report = oracle.cross_validate(prob, verdict)
    assert all(mu < -1e-3 for mu in report.infima[1:])
    assert report.agree is True
    assert not report.resolution_limited


def test_cross_validate_shirley_dissipative(shirley_instance):
    verdict = criteria.decide(shirley_instance)
    report = oracle.cross_validate(shirley_instance, verdict)
    assert all(mu >= -1e-6 for mu in report.infima)
    assert report.agree is True


def test_cross_validate_proper_selfadjoint_boundaries():
    # zero deviation with a symmetric-plus-positive action stays non-negative
    k0 = _konzert(0.0)
    rep = oracle.cross_validate(k0, criteria.decide(k0))
    assert all(mu >= -1e-6 for mu in rep.infima)
    pinf = catalog.build_potsdam(None, catalog.RHO_INF, None)
    repp = oracle.cross_validate(pinf, criteria.decide(pinf))
    assert all(mu >= -1e-6 for mu in repp.infima)
    assert repp.agree is True


def test_cross_validate_resolution_limited_flag():
    prob = _konzert(1.0)  # margin exactly 0
    verdict = criteria.decide(prob)
    report = oracle.cross_validate(prob, verdict, meshes=(64, 128))
    assert report.resolution_limited is True


def test_cross_validate_requires_increasing_meshes():
    prob = _konzert(1.0)
    with pytest.raises(oracle.OracleError):
        oracle.cross_validate(prob, criteria.decide(prob), meshes=(128, 64))


@pytest.mark.parametrize("meshes, match", [((), "empty"),
                                           ((64, 128, 10 ** 12), "exceeds the limit"),
                                           ((4, 64), "at least 8")])
def test_cross_validate_refuses_a_bad_ladder_before_the_first_rung(monkeypatch, meshes, match):
    prob = _konzert(1.0)
    verdict = criteria.decide(prob)
    rungs = []
    monkeypatch.setattr(oracle, "assemble_discrete", lambda *args, **kw: rungs.append(args))
    with pytest.raises(oracle.OracleError, match=match):
        oracle.cross_validate(prob, verdict, meshes=meshes)
    assert rungs == []


def test_report_records_asymmetry_note():
    prob = _konzert(1.2)
    report = oracle.cross_validate(prob, criteria.decide(prob), meshes=(64, 128))
    assert "certifies non-dissipativity" in report.note
    assert "evidence" in report.note


def test_extrapolation_needs_a_decrement_above_the_rounding_floor():
    # a ladder of rounding noise shows no order: these infima of the
    # rank-one contract config would give order 18.5
    noise = [1.6969938761554024e-26, -2.2274449580517307e-31, -2.6771517243103205e-31]
    assert oracle._extrapolate(noise)[1] > 18.0
    assert oracle._extrapolate(noise, 1e-14) == (noise[-1], None)
    ladder = [0.014332066194762795, 0.007359238514115835, 0.003730532594252323]
    assert oracle._extrapolate(ladder, 1e-14) == oracle._extrapolate(ladder)


def test_semibound_oracle_bound(rank_one_direction):
    # discrete infimum of the deviated symmetric part alone respects the
    # lower bound -||L||^2 / (4 eps)
    rng = np.random.default_rng(3)
    for _ in range(5):
        h = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        lam = complex(rng.normal(), rng.normal())
        prob = catalog.build_halfline_schrodinger(
            h, catalog.RankOnePerturbation(1.0, rank_one_direction, lam)
        )
        op = oracle.assemble_discrete(prob, 128)
        # the symmetric part alone: the pencil without its rank-one term
        mu, _ = oracle.pencil_min_eig(dataclasses.replace(op, rank_one=None))
        norm_v_sq = norm_sq(prob.v, 0.0, math.inf)
        eps = h.imag / norm_v_sq
        l_norm = math.sqrt(abs(lam) ** 2 / norm_v_sq)
        bound = semibound_estimate(eps, l_norm)
        assert mu >= bound - 1e-6
