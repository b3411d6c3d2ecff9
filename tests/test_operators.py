import numpy as np
import pytest

from berezin_lab import (
    KernelEvaluator,
    OperatorExpr,
    Symbol,
    TruncatedOperator,
    WeightedMeasure,
    axler_zheng_report,
    berezin,
    boundary_profile,
    build_space,
    decompose_product,
    expr_from_json,
    expr_to_json,
    hankel_gram,
    make_domain,
    materialize,
    product_decomposition_residual,
    semi_commutator_residual,
    tail_norm,
    toeplitz,
)
from berezin_lab.bergman import GRAM_EIGENVALUE_FLOOR
from berezin_lab.errors import ConditioningError, NumericError, ParameterError
from berezin_lab.labcli import _monomial_symbols
from berezin_lab.operators import HP, T
from berezin_lab.quadrature import log_monomial_moments, polar_tensor_rule

DISK = make_domain("disk")


def disk_space(r, n):
    return build_space(WeightedMeasure(DISK, r), n)


def sym(text, dim=1):
    return Symbol.parse(text, dim)


def test_toeplitz_identity_symbol():
    sp = disk_space(0.0, 16)
    m = toeplitz(sp, sym("1")).matrix
    assert np.array_equal(m, np.eye(sp.size, dtype=complex))


def test_toeplitz_shift_entries():
    sp = disk_space(0.0, 16)
    m = toeplitz(sp, sym("z")).matrix
    nb = sp.size
    for k in range(nb - 1):
        assert m[k + 1, k] == pytest.approx(np.sqrt((k + 1) / (k + 2)), rel=1e-14)
    m[np.arange(1, nb), np.arange(nb - 1)] = 0
    assert np.max(np.abs(m)) == 0


def test_toeplitz_diagonal_symbol():
    sp = disk_space(0.0, 16)
    m = toeplitz(sp, sym("1-abs2(z)")).matrix
    for k in range(16):
        assert m[k, k] == pytest.approx(1.0 / (k + 2), rel=1e-13)


def test_toeplitz_radial_quadrature_matches_exact():
    sp = disk_space(1.0, 24)
    exact = toeplitz(sp, sym("1-abs2(z)")).matrix          # polynomial path
    rad = toeplitz(sp, sym("max(0, 1-abs2(z))")).matrix    # radial path, same values
    assert np.max(np.abs(exact - rad)) < 1e-12


def test_toeplitz_general_quadrature_matches_exact():
    sp = disk_space(0.0, 12)
    exact = toeplitz(sp, sym("re(z)")).matrix
    forced_general = toeplitz(sp, sym("re(z) + 0*abs(z)*re(z)")).matrix
    assert np.max(np.abs(exact - forced_general)) < 1e-10


def test_toeplitz_norm_bound_and_linearity_and_adjoint():
    sp = disk_space(0.0, 24)
    for text, sup in (("1-abs2(z)", 1.0), ("re(z)", 1.0), ("z*z", 1.0),
                      ("0.5*conj(z)", 0.5)):
        m = toeplitz(sp, sym(text)).matrix
        assert np.linalg.norm(m, 2) <= sup + 1e-8
    a = toeplitz(sp, sym("z")).matrix
    b = toeplitz(sp, sym("1-abs2(z)")).matrix
    combo = toeplitz(sp, sym("2*z + (1-abs2(z))*3")).matrix
    assert np.max(np.abs(combo - 2 * a - 3 * b)) < 1e-12
    adj = toeplitz(sp, sym("conj(z)")).matrix
    assert np.max(np.abs(adj - a.conj().T)) < 1e-10


def test_hankel_gram_examples():
    sp = disk_space(0.0, 20)
    zb = sym("conj(z)")
    hg = hankel_gram(sp, zb, zb)
    assert hg[0, 0] == pytest.approx(0.5, rel=1e-13)
    evals = np.linalg.eigvalsh(0.5 * (hg + hg.conj().T))
    assert evals[0] >= -1e-10
    z = sym("z")
    hz = hankel_gram(sp, z, z)
    block = hz[:19, :19]     # degrees <= N - deg(phi)
    assert np.max(np.abs(block)) < 1e-12


def test_hankel_gram_psd_for_real_symbol():
    sp = disk_space(1.0, 16)
    s = sym("re(z)")
    hg = hankel_gram(sp, s, s)
    evals = np.linalg.eigvalsh(0.5 * (hg + hg.conj().T))
    assert evals[0] >= -1e-10


def test_semi_commutator_examples():
    sp = disk_space(0.0, 24)
    assert semi_commutator_residual(sp, sym("conj(z)"), sym("z"), 1) < 1e-10
    assert semi_commutator_residual(sp, sym("z"), sym("conj(z)"), 1) < 1e-10
    assert semi_commutator_residual(sp, sym("1"), sym("1"), 1) == 0.0
    with pytest.raises(ParameterError):
        semi_commutator_residual(sp, sym("z*z"), sym("z"), 1)
    with pytest.raises(ParameterError):
        semi_commutator_residual(sp, sym("max(0,1-abs(z))"), sym("z"), 4)


def test_semi_commutator_invariant_sweep():
    # all monomial pairs of degree <= 3 on the disk, r in {0, 1, 2}
    syms = _monomial_symbols(1, 3)
    for r in (0.0, 1.0, 2.0):
        sp = disk_space(r, 24)
        worst = max(semi_commutator_residual(sp, s2, s1, 3)
                    for s2 in syms for s1 in syms)
        assert worst < 1e-9
    # ball spot-check at small truncation
    ball = make_domain("ball", n=2)
    spb = build_space(WeightedMeasure(ball, 0.0), 12)
    symsb = _monomial_symbols(2, 2)
    worst = max(semi_commutator_residual(spb, s2, s1, 2)
                for s2 in symsb[:8] for s1 in symsb[:8])
    assert worst < 1e-9


def test_decompose_product_structure():
    s1, s2, s3 = sym("conj(z)"), sym("z"), sym("z*z")
    e1 = decompose_product([s1])
    assert e1.terms == ((("toeplitz", s1),),)
    e2 = decompose_product([s2, s1])
    assert len(e2.terms) == 2
    lead = e2.terms[0][0]
    assert lead[0] == "toeplitz" and lead[1].poly == (s2 * s1).poly
    corr = e2.terms[1]
    assert corr[0][0] == "scalar" and corr[0][1] == -1.0
    assert corr[1][0] == "hankel_pair"
    assert corr[1][1] is s2 and corr[1][2] is s1     # symbols shared by reference
    e3 = decompose_product([s3, s2, s1])
    assert len(e3.terms) == 3
    # middle term: -T_{s3} H*_{conj(s2)} H_{s1}
    mid = e3.terms[1]
    kinds = [f[0] for f in mid]
    assert kinds == ["scalar", "toeplitz", "hankel_pair"]
    assert mid[1][1] is s3 and mid[2][1] is s2 and mid[2][2] is s1
    # last term: -H*_{conj(s3)} H_{s2 s1}
    last = e3.terms[2]
    assert last[1][0] == "hankel_pair" and last[1][1] is s3
    assert last[1][2].poly == (s2 * s1).poly


def test_empty_expressions_rejected():
    with pytest.raises(ParameterError):
        OperatorExpr(())
    with pytest.raises(ParameterError):
        decompose_product([])


def test_materialize_identity_and_scalar():
    sp = disk_space(0.0, 8)
    ident = materialize(OperatorExpr.identity(), sp).matrix
    assert np.array_equal(ident, np.eye(sp.size, dtype=complex))
    two = materialize(OperatorExpr(((("scalar", 2.0 + 0j), ("identity",)),)), sp).matrix
    assert np.array_equal(two, 2 * np.eye(sp.size, dtype=complex))


def test_materialize_decomposition_matches_direct_product():
    syms = _monomial_symbols(1, 2)
    sp = disk_space(0.0, 32)
    rng = np.random.default_rng(8)
    lists = [[syms[i] for i in rng.integers(0, len(syms), size=k)]
             for k in (2, 2, 3, 3, 3)]
    for symbols in lists:
        margin = sum(s.degree for s in symbols)
        assert product_decomposition_residual(sp, symbols, max(margin, 1)) < 1e-9


def dense_materialize(expr, space):
    """Reference: dense factor matrices multiplied in the written order."""
    from berezin_lab.operators import _chain_matmul, _factor_matrix
    total = np.zeros((space.size, space.size), dtype=complex)
    for product in expr.terms:
        scal = 1.0 + 0j
        mats = []
        for f in product:
            if f[0] == "scalar":
                scal *= f[1]
            else:
                mats.append(_factor_matrix(f, space, None))
        total += scal * _chain_matmul(mats)
    return total


def test_shift_and_dense_materialization_agree():
    ball = make_domain("ball", n=2)
    sp = build_space(WeightedMeasure(ball, 0.0), 10)
    s1, s2 = Symbol.parse("z1*conj(z2)", 2), Symbol.parse("conj(z1)", 2)
    expr = decompose_product([s2, s1])
    shift = materialize(expr, sp).matrix
    assert np.max(np.abs(shift - dense_materialize(expr, sp))) < 1e-14


@pytest.mark.parametrize("domain,r,n", [("disk", 0.0, 48), ("disk", 1.0, 48),
                                        ("ball", 0.0, 16)])
def test_semi_commutator_matches_dense_recomputation_exactly(domain, r, n):
    dom = make_domain(domain, n=2) if domain == "ball" else make_domain(domain)
    sp = build_space(WeightedMeasure(dom, r), n)
    syms = _monomial_symbols(dom.dim, 2)
    keep = sp.degrees <= sp.N - 2
    for s2 in syms:
        for s1 in syms:
            t2 = toeplitz(sp, s2).matrix
            t1 = toeplitz(sp, s1).matrix
            t21 = toeplitz(sp, s2 * s1).matrix
            psi = s2.conj()
            hg = (toeplitz(sp, s1 * psi.conj()).matrix
                  - toeplitz(sp, psi).matrix.conj().T @ toeplitz(sp, s1).matrix)
            dense = np.max(np.abs((t2 @ t1 - t21 + hg)[np.ix_(keep, keep)]))
            assert semi_commutator_residual(sp, s2, s1, 2) == dense


def dense_toeplitz(space, symbol):
    """Reference: entry by entry, T[beta, alpha] = c m_{alpha+gamma} / sqrt(m_alpha m_beta)."""
    index = {tuple(a): i for i, a in enumerate(space.alphas)}
    logm = log_monomial_moments(space.measure, space.alphas)
    mat = np.zeros((space.size, space.size), dtype=complex)
    for (gamma, delta), c in symbol.poly.items():
        for i, alpha in enumerate(space.alphas):
            beta = tuple(int(a) + g - d for a, g, d in zip(alpha, gamma, delta))
            j = index.get(beta)
            if j is not None:
                ext = log_monomial_moments(space.measure, [alpha + np.array(gamma)])[0]
                mat[j, i] += c * np.exp(ext - 0.5 * logm[i] - 0.5 * logm[j])
    return mat


@pytest.mark.parametrize("dim,n,texts", [
    (1, 16, ("1-abs2(z)", "z + z*abs2(z)", "conj(z)")),
    (2, 8, ("2*z1*conj(z2) + z1*abs2(z2)", "1-abs2(z1)", "conj(z2)")),
])
def test_shift_path_matches_dense_factor_products(dim, n, texts):
    # symbols whose monomials share a shift (z and z*abs2(z) both move by +1)
    dom = make_domain("disk") if dim == 1 else make_domain("ball", n=2)
    sp = build_space(WeightedMeasure(dom, 0.0), n)
    syms = [sym(t, dim) for t in texts]
    ref = {id(s): dense_toeplitz(sp, s) for s in syms}
    for s in syms:
        assert np.max(np.abs(toeplitz(sp, s).matrix - ref[id(s)])) < 1e-14
    for phi in syms:
        for psi in syms:
            want = (dense_toeplitz(sp, phi * psi.conj())
                    - ref[id(psi)].conj().T @ ref[id(phi)])
            assert np.max(np.abs(hankel_gram(sp, phi, psi) - want)) < 1e-14
            expr = decompose_product([psi, phi])
            shift = materialize(expr, sp).matrix
            assert np.max(np.abs(shift - dense_materialize(expr, sp))) < 1e-14
            direct = materialize(OperatorExpr(((T(psi), T(phi)),)), sp).matrix
            assert np.max(np.abs(direct - ref[id(psi)] @ ref[id(phi)])) < 1e-14


def test_composition_through_truncated_index():
    # T_z e_N leaves the truncation, so (T_conj(z) T_z)[N, N] is 0 while
    # T_abs2(z)[N, N] is not
    sp = disk_space(0.0, 12)
    z, zb = sym("z"), sym("conj(z)")
    prod = materialize(OperatorExpr(((T(zb), T(z)),)), sp).matrix
    dense = toeplitz(sp, zb).matrix @ toeplitz(sp, z).matrix
    assert np.max(np.abs(prod - dense)) < 1e-15
    assert prod[sp.N, sp.N] == 0
    assert toeplitz(sp, sym("abs2(z)")).matrix[sp.N, sp.N] != 0
    ball = build_space(WeightedMeasure(make_domain("ball", n=2), 0.0), 6)
    z1, z2b = sym("z1", 2), sym("conj(z2)", 2)
    prod = materialize(OperatorExpr(((T(z2b), T(z1)), (T(z1), T(z2b)))), ball).matrix
    dense = (toeplitz(ball, z2b).matrix @ toeplitz(ball, z1).matrix
             + toeplitz(ball, z1).matrix @ toeplitz(ball, z2b).matrix)
    assert np.max(np.abs(prod - dense)) < 1e-15


def test_berezin_identity_and_cauchy_schwarz():
    sp = disk_space(0.0, 24)
    ident = TruncatedOperator(np.eye(sp.size, dtype=complex), sp)
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = [0.9 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)]
        assert berezin(ident, z) == pytest.approx(1.0, abs=1e-12)
    m = rng.standard_normal((sp.size, sp.size)) + 1j * rng.standard_normal((sp.size, sp.size))
    op = TruncatedOperator(m, sp)
    bound = np.linalg.norm(m, 2) + 1e-9
    for _ in range(20):
        z = [0.95 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)]
        assert abs(berezin(op, z)) <= bound


def test_berezin_examples():
    sp = disk_space(0.0, 48)
    assert berezin(toeplitz(sp, sym("abs2(z)")), [0.0]) == pytest.approx(0.5, abs=1e-12)
    assert berezin(toeplitz(sp, sym("re(z)")), [0.5]) == pytest.approx(0.5, abs=1e-9)


def test_boundary_profile_harmonic_and_flags():
    sp = disk_space(0.0, 96)
    op = toeplitz(sp, sym("re(z)"))
    ts = [0.5, 0.7, 0.9, 0.9999]
    prof = boundary_profile(op, [1.0], ts)
    for s, t in zip(prof[:3], ts[:3]):
        assert not s.trunc_flag
        assert s.value.real == pytest.approx(t, abs=1e-6)
    assert prof[-1].trunc_flag           # -rho = 2e-4 < 0.02 contract
    assert prof[-1].tail_fraction > 0

    ident = TruncatedOperator(np.eye(sp.size, dtype=complex), sp)
    prof = boundary_profile(ident, [1.0], [0.3, 0.6, 0.9])
    assert all(s.value.real == pytest.approx(1.0, abs=1e-12) for s in prof)


def test_boundary_profile_decreasing_weighted_defect():
    sp = disk_space(1.0, 64)
    op = toeplitz(sp, sym("1-abs2(z)"))
    prof = boundary_profile(op, [1.0], np.linspace(0.5, 0.95, 10))
    mags = [abs(s.value) for s in prof]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_tail_norm_examples():
    sp = disk_space(0.0, 24)
    ident = TruncatedOperator(np.eye(sp.size, dtype=complex), sp)
    for k in (0, 5, 23):
        assert tail_norm(ident, k) == pytest.approx(1.0)
    op = toeplitz(sp, sym("1-abs2(z)"))
    for k in (0, 3, 10):
        assert tail_norm(op, k) == pytest.approx(1.0 / (k + 2), rel=1e-12)
    zero = TruncatedOperator(np.zeros((sp.size, sp.size), dtype=complex), sp)
    assert tail_norm(zero, 4) == 0.0
    with pytest.raises(ParameterError):
        tail_norm(ident, 99)


def test_tail_norm_monotone_for_diagonal_and_bounded():
    sp = disk_space(0.0, 24)
    op = toeplitz(sp, sym("1-abs2(z)"))
    tails = [tail_norm(op, k) for k in range(sp.N + 1)]
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    rng = np.random.default_rng(5)
    m = rng.standard_normal((sp.size, sp.size)) + 0j
    gen = TruncatedOperator(m, sp)
    full = np.linalg.norm(m, 2)
    assert all(tail_norm(gen, k) <= full + 1e-12 for k in range(sp.N + 1))


def svd_tail(op, k):
    return float(np.linalg.norm(op.matrix[:, op.space.degrees >= k], 2))


def test_tail_norm_diagonal_matches_svd_exactly():
    poly = build_space(WeightedMeasure(make_domain("smoothed_polydisk"), 0.0), 16)
    disk = disk_space(0.0, 24)
    ops = [
        toeplitz(poly, sym("max(0, 1-(1-abs(z2))/0.3)", 2)),
        toeplitz(disk, sym("1-abs2(z)")),
        TruncatedOperator(np.eye(disk.size, dtype=complex), disk),
        TruncatedOperator(np.zeros((disk.size, disk.size), dtype=complex), disk),
        materialize(OperatorExpr(((HP(sym("abs(z)"), sym("abs(z)")),),)), disk),
    ]
    for op in ops:
        assert op._abs_diagonal is not None
        for k in range(op.space.N + 1):
            assert tail_norm(op, k) == svd_tail(op, k)


def test_tail_norm_general_matches_svd_exactly():
    sp = disk_space(0.0, 24)
    rng = np.random.default_rng(7)
    near_diag = np.diag(np.linspace(1.0, 0.1, sp.size)).astype(complex)
    near_diag[3, 17] = 0.5
    ops = [
        TruncatedOperator(rng.standard_normal((sp.size, sp.size)) + 0j, sp),
        toeplitz(sp, sym("re(z)")),
        TruncatedOperator(near_diag, sp),
    ]
    for op in ops:
        assert op._abs_diagonal is None
        for k in range(sp.N + 1):
            assert tail_norm(op, k) == svd_tail(op, k)


@pytest.mark.parametrize("entry", [(2, 2), (2, 5)])
def test_tail_norm_nan_entry_fails_like_svd(entry):
    sp = disk_space(0.0, 8)
    m = np.eye(sp.size, dtype=complex)
    m[entry] = np.nan
    op = TruncatedOperator(m, sp)
    with pytest.raises(np.linalg.LinAlgError):
        svd_tail(op, 1)
    with pytest.raises(np.linalg.LinAlgError):
        tail_norm(op, 1)


def test_az_report_compact_and_noncompact():
    sp = disk_space(0.0, 48)
    expr = OperatorExpr.toeplitz(sym("1-abs2(z)"))
    rep = axler_zheng_report(expr, sp, [[1.0], [1.0j], [-1.0]], [])
    assert rep.verdict == "consistent" and rep.classification == "compact"
    assert rep.berezin_vanishing and rep.tail_vanishing
    rep = axler_zheng_report(OperatorExpr.identity(), sp, [[1.0]], [])
    assert rep.verdict == "consistent" and rep.classification == "noncompact"
    assert not rep.berezin_vanishing and not rep.tail_vanishing


def test_az_report_contradictory_when_profile_stops_early():
    # rank-one projection: tail norms vanish past degree 0, but a t-grid
    # stopping at 0.6 leaves the Berezin transform large at the strong point
    sp = disk_space(0.0, 24)
    m = np.zeros((sp.size, sp.size), dtype=complex)
    m[0, 0] = 1.0
    expr = OperatorExpr.identity()   # provenance placeholder

    import berezin_lab.operators as ops
    orig = ops.materialize

    def fake_materialize(e, space, rule=None):
        return TruncatedOperator(m, space, provenance=e)

    ops.materialize = fake_materialize
    try:
        rep = axler_zheng_report(expr, sp, [[1.0]], [],
                                 {"t_grid": np.linspace(0.3, 0.6, 8)})
    finally:
        ops.materialize = orig
    assert rep.classification == "contradictory"
    assert rep.verdict == "inconsistent"


def test_az_report_requires_strong_points():
    sp = disk_space(0.0, 8)
    with pytest.raises(ParameterError):
        axler_zheng_report(OperatorExpr.identity(), sp, [], [])


def test_expr_json_roundtrip_and_errors():
    s1, s2 = sym("conj(z)"), sym("z")
    expr = decompose_product([s1, s2])
    obj = expr_to_json(expr)
    sp = disk_space(0.0, 16)
    back = expr_from_json(obj, 1)
    m1 = materialize(expr, sp).matrix
    m2 = materialize(back, sp).matrix
    assert np.max(np.abs(m1 - m2)) == 0.0
    with pytest.raises(ParameterError):
        expr_from_json({"bad": []}, 1)
    with pytest.raises(ParameterError):
        expr_from_json({"sum": [{"prod": [{"mystery": {}}]}]}, 1)
    scal = expr_from_json({"sum": [{"prod": [{"scalar": [0.0, 2.0]},
                                             {"identity": {}}]}]}, 1)
    m = materialize(scal, sp).matrix
    assert m[0, 0] == 2.0j


def test_toeplitz_quadrature_singular_gram_raises():
    # 16 nodes cannot resolve 41 basis functions: the Gram is singular
    measure = WeightedMeasure(DISK, 0.0)
    sp = build_space(measure, 40)
    rule = polar_tensor_rule(measure, radial_order=4, angular_order=4)
    with pytest.raises(ConditioningError) as info:
        toeplitz(sp, sym("max(0, re(z))"), rule=rule)
    assert info.value.smallest_eigenvalue < GRAM_EIGENVALUE_FLOOR


def test_toeplitz_hermitian_for_real_symbols():
    sp = disk_space(1.0, 20)
    for text in ("1-abs2(z)", "re(z)", "im(z)*2"):
        m = toeplitz(sp, sym(text)).matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-10


@pytest.mark.parametrize("text", [
    "1/im(z)",          # general path: the default polar rule has nodes with im z = 0
    "abs(z)/0",         # radial path
])
def test_toeplitz_symbol_not_finite_at_node_raises(text):
    sp = disk_space(0.0, 12)
    with pytest.raises(NumericError) as info:
        toeplitz(sp, sym(text))
    assert info.value.node is not None
