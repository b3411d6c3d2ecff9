import gc
import hashlib
import itertools
import re
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berezin_lab import (
    OperatorExpr,
    Symbol,
    SymbolTag,
    TruncatedOperator,
    WeightedMeasure,
    axler_zheng_report,
    berezin,
    boundary_point,
    boundary_profile,
    build_space,
    decompose_product,
    domain_from_config,
    expr_from_json,
    hankel_gram,
    inflate,
    make_domain,
    materialize,
    product_decomposition_residual,
    semi_commutator_residual,
    tail_norm,
    toeplitz,
)
from berezin_lab import _accel, labcli, operators
from berezin_lab.bergman import WeightedSpace
from berezin_lab.errors import (BoundaryError, CapabilityError, NumericError,
                                ParameterError)
from berezin_lab.labcli import _monomial_symbols
from berezin_lab.operators import _RADIAL_ORDER, DEFAULT_T_GRID, HP, SC, T
from berezin_lab.quadrature import (finite_node_values, log_monomial_moments,
                                    measure_node_weights, radial_rule)

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


RADIAL_CASES = [("disk", {}, 0.0, 48, "max(0, 1-abs(z))"),
                ("disk", {}, 1.0, 48, "abs(z)"),
                ("ball", {"n": 2}, 0.0, 24, "max(0, 1-abs2(z1)-abs(z2))"),
                ("egg", {"m": 2}, 0.5, 24, "abs(z1)*abs(z2) + sqrt(abs(z2))"),
                ("smoothed_polydisk", {}, 0.0, 40, "max(0, 1-(1-abs(z2))/0.3)")]


@pytest.mark.parametrize("name,kw,r,n,text", RADIAL_CASES)
def test_toeplitz_radial_matches_dense_monomial_reference(name, kw, r, n, text):
    # the diagonal as a basis x nodes monomial matrix would give it
    dom = make_domain(name, **kw)
    sp = build_space(WeightedMeasure(dom, r), n)
    s = sym(text, dom.dim)
    rule = radial_rule(sp.measure, order=_RADIAL_ORDER)
    w = measure_node_weights(sp.measure, rule)
    mon2 = np.abs(_accel.monomial_matrix(rule.nodes, sp.alphas)) ** 2
    want = (mon2 @ (w * finite_node_values(s, rule.nodes, "symbol"))) / (mon2 @ w)
    m = toeplitz(sp, s).matrix
    assert np.count_nonzero(m - np.diag(np.diagonal(m))) == 0
    assert np.max(np.abs(np.diagonal(m) - want) / np.abs(want)) <= 1e-14


@pytest.fixture(scope="module")
def shared_space():
    """``space(name, kw, r, n)``: one space per argument tuple for this
    module's radial tests.  The space keeps its radial diagonal, so each
    dimension-3 radial rule (160^3 = 4.1 M nodes) is built once."""
    spaces = {}

    def space(name, kw, r, n):
        key = (name, tuple(sorted(kw.items())), r, n)
        if key not in spaces:
            spaces[key] = build_space(WeightedMeasure(make_domain(name, **kw), r), n)
        return spaces[key]

    yield space
    spaces.clear()


@pytest.mark.parametrize("name,kw,r,n", [("disk", {}, 1.0, 48),
                                         ("ball", {"n": 2}, 0.0, 24),
                                         ("smoothed_polydisk", {}, 0.0, 16),
                                         ("ball", {"n": 3}, 0.0, 10)])
def test_toeplitz_radial_of_one_is_exact_identity(shared_space, name, kw, r, n):
    # radial and not a polynomial, and 1 on the whole domain
    sp = shared_space(name, kw, r, n)
    m = toeplitz(sp, sym("max(1, abs(z))", sp.measure.domain.dim)).matrix
    assert np.array_equal(m, np.eye(sp.size))


@pytest.mark.parametrize("r", (0.0, 1.0))
def test_ball3_radial_diagonal_is_the_exact_moment_ratio(shared_space, r):
    # abs(z1)*abs(z1) is |z1|^2 but not a polynomial symbol, so it takes the
    # radial path: <T e_alpha, e_alpha> = m_{alpha+e1} / m_alpha
    # = (alpha1 + 1) / (|alpha| + 4 + r) on ball3
    sp = shared_space("ball", {"n": 3}, r, 10)
    s = sym("abs(z1)*abs(z1)", 3)
    assert s.poly is None and s.radial
    diagonal = toeplitz(sp, s).diagonal
    a = sp.alphas
    assert np.max(np.abs(diagonal - (a[:, 0] + 1) / (a.sum(axis=1) + 4 + r))) <= 1e-13


def test_radial_bump_on_inflated_ball2_assembles_in_shift_form(shared_space, monkeypatch):
    def no_dense_form(*args):
        raise AssertionError("a dense form was built")

    monkeypatch.setattr(operators, "_DenseForm", no_dense_form)
    # ball2 inflated with p = 1, r = 1 has ball3's exponents (2, 2, 2), so
    # its radial rule and diagonal are ball3's
    sp = build_space(WeightedMeasure(inflate(make_domain("ball", n=2), 1, 1.0), 0.0), 10)
    bump = sym("max(0, 1-abs(z1)/0.5)", 3)
    op = toeplitz(sp, bump)
    assert op.diagonal is not None
    assert np.array_equal(op.diagonal,
                          toeplitz(shared_space("ball", {"n": 3}, 0.0, 10), bump).diagonal)


def test_toeplitz_radial_builds_no_basis_by_nodes_array(traced_peak):
    # B = 861 and 25,600 radial nodes: a complex monomial matrix would be 353 MB
    sp = build_space(WeightedMeasure(make_domain("smoothed_polydisk"), 0.0), 40)
    _, peak = traced_peak(lambda: toeplitz(sp, sym("max(0, 1-(1-abs(z2))/0.3)", 2)))
    assert peak < 50e6


@pytest.mark.parametrize("domain,n,name", [
    ({"name": "ball", "n": 2}, 2, "ball2"), ({"name": "ball", "n": 3}, 3, "ball3"),
    ({"name": "egg", "m": 2}, 2, "egg2")])
def test_toeplitz_general_symbol_without_rule_is_refused_naming_the_dimension(
        monkeypatch, domain, n, name):
    # dist is phase-dependent, so no radial or polynomial path assembles it;
    # it is refused before a rule is built (ball3's radial rule is 4.1 M nodes)
    def no_rule(*args, **kwargs):
        raise AssertionError("a quadrature rule was built")

    monkeypatch.setattr(operators, "radial_rule", no_rule)
    sp = build_space(WeightedMeasure(domain_from_config(domain), 0.0), 4)
    message = ("general (non-polynomial, non-radial) symbols are assembled only on "
               f"the disk; {name} has dimension {n}")
    with pytest.raises(CapabilityError, match=f"^{re.escape(message)}$"):
        toeplitz(sp, Symbol.parse("dist(0.5)", n))


def test_radial_symbol_in_dimension_4_is_refused_before_its_rule_is_built():
    # order 160 in dimension 4 would be 6.6e8 nodes
    sp = build_space(WeightedMeasure(inflate(make_domain("ball", n=2), 2, 1.0), 0.0), 2)
    with pytest.raises(ParameterError, match=r"^a tensor rule in dimension 4 would have "
                                             r"6\.55e\+08 nodes"):
        toeplitz(sp, Symbol.parse("max(0, 1-abs(z1)/0.5)", 4))


def test_toeplitz_general_quadrature_matches_exact():
    # polynomials disguised as general symbols take the angular Fourier
    # modes, whose quadrature is exact on them up to rounding
    for N, r in itertools.product((12, 48, 96), (0.0, 1.0)):
        sp = disk_space(r, N)
        for exact, general in (("re(z)", "re(z) + 0*abs(z)*re(z)"),
                               ("z*z*conj(z)", "z*z*conj(z) + 0*abs(z)")):
            diff = toeplitz(sp, sym(general)).matrix - toeplitz(sp, sym(exact)).matrix
            assert np.max(np.abs(diff)) < 1e-12, (N, r, general)
        one = toeplitz(sp, sym("1 + 0*re(z)*abs(z)")).matrix
        assert np.max(np.abs(one - np.eye(sp.size))) < 1e-14, (N, r)


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_toeplitz_general_symbol_equals_the_dense_sum_on_the_same_nodes(r):
    # shift k is the angular Fourier mode k of phi on the radial rule's radii
    # times A = 2 max(128, N + 32) phases: the same sum as a basis x nodes
    # table on those nodes, normalized by the rule's diagonal Gram
    N = 24
    sp = disk_space(r, N)
    rule = radial_rule(sp.measure, order=_RADIAL_ORDER)
    phases = 2 * max(128, N + 32)
    ring = np.exp(2j * np.pi * np.arange(phases) / phases)
    nodes = (rule.nodes[:, :1] * ring).reshape(-1, 1)
    w = np.repeat(measure_node_weights(sp.measure, rule), phases) / phases
    x = sp.basis_values(nodes)
    gram = np.sum(w * np.abs(x) ** 2, axis=1)
    for text in ("max(0, 1-dist(-1)/0.8)", "conj(z)*dist(0.3)",
                 "im(z)*abs(z) + 2*z*z*dist(-0.5)"):
        # [beta, alpha] = sum w phi e_alpha conj(e_beta)
        want = (x.conj() * (w * sym(text)(nodes))) @ x.T / np.sqrt(np.outer(gram, gram))
        assert np.max(np.abs(toeplitz(sp, sym(text)).matrix - want)) < 1e-13, text


def test_toeplitz_general_symbol_builds_no_basis_by_nodes_array(traced_peak):
    # 257 shifts of length 129 and a 160 x 320 grid of symbol values; a basis
    # x nodes table on that grid alone would be 106 MB
    sp = disk_space(0.0, 128)
    _, peak = traced_peak(lambda: toeplitz(sp, sym("max(0, 1-dist(-1)/0.8)")))
    assert peak < 50e6


@pytest.mark.parametrize("text", ["1e309*abs2(z)", "1e200*1e200*z", "0*1e309 + z"])
def test_toeplitz_polynomial_with_a_non_finite_coefficient_raises(text):
    sp = disk_space(0.0, 8)
    for _ in range(2):          # nothing is cached: the second call raises too
        with pytest.raises(NumericError, match=re.escape(f"symbol {text!r} has a "
                                                         "non-finite coefficient")):
            toeplitz(sp, sym(text))


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
    z, zb = sym("z"), sym("conj(z)")
    assert max(semi_commutator_residual(sp, [(zb, z), (z, zb)], 1)) < 1e-10
    assert semi_commutator_residual(sp, [(sym("1"), sym("1"))], 1) == [0.0]
    assert semi_commutator_residual(sp, [], 1) == []
    with pytest.raises(ParameterError):
        semi_commutator_residual(sp, [(z, z), (sym("z*z"), z)], 1)
    with pytest.raises(ParameterError):
        semi_commutator_residual(sp, [(sym("max(0,1-abs(z))"), z)], 4)
    with pytest.raises(NumericError, match="non-finite coefficient"):
        product_decomposition_residual(sp, [[z, sym("1e200*1e200*z"), zb]], 3)


def test_semi_commutator_invariant_sweep():
    # all monomial pairs of degree <= 3 on the disk, r in {0, 1, 2}
    syms = _monomial_symbols(1, 3)
    for r in (0.0, 1.0, 2.0):
        sp = disk_space(r, 24)
        worst = max(semi_commutator_residual(sp, itertools.product(syms, syms), 3))
        assert worst < 1e-9
    # ball spot-check at small truncation
    ball = make_domain("ball", n=2)
    spb = build_space(WeightedMeasure(ball, 0.0), 12)
    symsb = _monomial_symbols(2, 2)
    worst = max(semi_commutator_residual(spb, itertools.product(symsb[:8], symsb[:8]), 2))
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
        assert product_decomposition_residual(sp, [symbols], max(margin, 1))[0] < 1e-9


def dense_materialize(expr, space):
    """Reference: public factor matrices multiplied in the written order."""
    factors = {"toeplitz": lambda f: toeplitz(space, f[1]).matrix,
               "hankel_pair": lambda f: hankel_gram(space, f[2], f[1].conj()),
               "identity": lambda f: np.eye(space.size, dtype=complex)}
    total = np.zeros((space.size, space.size), dtype=complex)
    for product in expr.terms:
        scal = 1.0 + 0j
        acc = np.eye(space.size, dtype=complex)
        for f in product:
            if f[0] == "scalar":
                scal *= f[1]
            else:
                acc = acc @ factors[f[0]](f)
        total += scal * acc
    return total


def test_shift_and_dense_materialization_agree():
    ball = make_domain("ball", n=2)
    sp = build_space(WeightedMeasure(ball, 0.0), 10)
    s1, s2 = Symbol.parse("z1*conj(z2)", 2), Symbol.parse("conj(z1)", 2)
    expr = decompose_product([s2, s1])
    shift = materialize(expr, sp).matrix
    assert np.max(np.abs(shift - dense_materialize(expr, sp))) < 1e-14


def test_decomposition_with_a_general_factor_matches_dense_factor_products():
    # z*z is a polynomial product and abs(z) a general symbol: their product
    # and the Hankel pairs with H-symbol z*abs(z) go through the AST
    sp = disk_space(0.0, 24)
    z, a = sym("z"), sym("abs(z)")
    expr = decompose_product([z, z, a])
    assert expr.terms[0][0][1].tag is SymbolTag.GENERAL
    shift = materialize(expr, sp).matrix
    assert np.max(np.abs(shift - dense_materialize(expr, sp))) < 1e-14


@pytest.mark.parametrize("domain,r,n", [("disk", 0.0, 48), ("disk", 1.0, 48),
                                        ("ball", 0.0, 16)])
def test_semi_commutator_matches_dense_recomputation_exactly(domain, r, n):
    dom = make_domain(domain, n=2) if domain == "ball" else make_domain(domain)
    sp = build_space(WeightedMeasure(dom, r), n)
    syms = _monomial_symbols(dom.dim, 2)
    keep = sp.degrees <= sp.N - 2
    got = iter(semi_commutator_residual(sp, itertools.product(syms, syms), 2))
    for s2 in syms:
        for s1 in syms:
            t2 = toeplitz(sp, s2).matrix
            t1 = toeplitz(sp, s1).matrix
            t21 = toeplitz(sp, s2 * s1).matrix
            psi = s2.conj()
            hg = (toeplitz(sp, s1 * psi.conj()).matrix
                  - toeplitz(sp, psi).matrix.conj().T @ toeplitz(sp, s1).matrix)
            dense = np.max(np.abs((t2 @ t1 - t21 + hg)[np.ix_(keep, keep)]))
            assert next(got) == dense


@pytest.mark.parametrize("domain,n", [("disk", 24), ("ball", 12)])
def test_product_decomposition_matches_dense_recomputation_exactly(domain, n):
    # T3 T2 T1 - (T_{s3 s2 s1} - T3 H*_{conj s2} H_{s1} - H*_{conj s3} H_{s2 s1})
    dom = make_domain(domain, n=2) if domain == "ball" else make_domain(domain)
    sp = build_space(WeightedMeasure(dom, 0.0), n)
    syms = _monomial_symbols(dom.dim, 1)
    block = np.ix_(sp.degrees <= sp.N - 3, sp.degrees <= sp.N - 3)

    def t(s):
        return toeplitz(sp, s).matrix

    got = iter(product_decomposition_residual(sp, itertools.product(syms, repeat=3), 3))
    for s3, s2, s1 in itertools.product(syms, repeat=3):
        direct = t(s3) @ t(s2) @ t(s1)
        decomposition = (t(s3 * s2 * s1) - t(s3) @ hankel_gram(sp, s1, s2.conj())
                         - hankel_gram(sp, s2 * s1, s3.conj()))
        dense = np.max(np.abs((direct - decomposition)[block]))
        assert next(got) == dense


_WARM = {dim: build_space(WeightedMeasure(make_domain("disk") if dim == 1
                                          else make_domain("ball", n=2), 0.0), 12)
         for dim in (1, 2)}


@st.composite
def _poly_symbols(draw, dim):
    """1-3 monomials of degree <= 2 with complex coefficients; few distinct
    values, so that products of different draws share polynomial keys."""
    exps = st.tuples(*[st.integers(0, 1)] * (2 * dim)).filter(lambda e: sum(e) <= 2)
    coeff = st.sampled_from([1.0, -1.0, 1j, 0.5 - 2j, 1.5 + 0.25j])
    monos = draw(st.dictionaries(exps, coeff, min_size=1, max_size=3))
    return Symbol.from_monomials({(e[:dim], e[dim:]): c for e, c in monos.items()}, dim)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2]).flatmap(lambda d: st.lists(_poly_symbols(d), min_size=3,
                                                          max_size=3)))
def test_residuals_on_a_warm_space_equal_a_fresh_space(symbols):
    warm = _WARM[symbols[0].dim]

    def fresh():
        return build_space(warm.measure, warm.N)

    s3, s2, s1 = symbols
    margin = max(s2.degree, s1.degree)
    assert (semi_commutator_residual(warm, [(s2, s1)], margin)
            == semi_commutator_residual(fresh(), [(s2, s1)], margin))
    margin = sum(s.degree for s in symbols)
    assert (product_decomposition_residual(warm, [symbols], margin)
            == product_decomposition_residual(fresh(), [symbols], margin))


# sha256 of the repr of every residual, pairs table then triples table, one
# per line: the 252 and 3,600 residuals of the criterion-4 configs
_C4_RESIDUAL_DIGESTS = {
    "c4-disk-r0": ({"name": "disk"}, 48,
                   "915f8b4b9d4e5f71b36090b29eb938868ba2b652557de8df1f255a8c0747ba3a"),
    "c4-ball2": ({"name": "ball", "n": 2}, 32,
                 "3d5c429dba7f40c8a4ba0696eb4de8bb80673a95607e6fcf83186384eca7bafd"),
}


@pytest.mark.parametrize("label", sorted(_C4_RESIDUAL_DIGESTS))
def test_criterion_4_residuals_keep_their_bits(label):
    domain, n, digest = _C4_RESIDUAL_DIGESTS[label]
    report = labcli.run("semi-commutator", {"domain": domain, "r": 0.0, "N": n,
                                            "degree": 2, "tolerance": 1e-9}, write=False)
    rows = report.tables["pairs"].rows + report.tables["triples"].rows
    text = "\n".join(repr(row[-1]) for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_residual_batches_are_permutation_and_chunk_invariant(monkeypatch):
    # every identity's residual is its own: a permuted batch gives the permuted
    # residuals, and a batch of one or batches cut into small chunks give the
    # same bits as the full batch
    sp = build_space(WeightedMeasure(make_domain("ball", n=2), 0.0), 16)
    syms = _monomial_symbols(2, 2)
    poly = [Symbol.from_monomials({((1, 0), (0, 0)): 0.5 - 2j, ((0, 0), (0, 1)): 1j}, 2),
            Symbol.from_monomials({((0, 1), (1, 0)): -1.0, ((0, 0), (0, 0)): 1.5 + 0.25j}, 2)]
    triples = [list(t) for t in itertools.product(syms[:5] + poly, repeat=3)]
    full = product_decomposition_residual(sp, triples, 6)
    order = np.random.default_rng(3).permutation(len(triples))
    assert product_decomposition_residual(sp, [triples[i] for i in order], 6) == [
        full[i] for i in order]
    for i in (0, len(triples) // 2, len(triples) - 1):
        assert product_decomposition_residual(sp, [triples[i]], 6) == [full[i]]
    pairs = [t[:2] for t in triples]
    pair_full = semi_commutator_residual(sp, pairs, 4)
    monkeypatch.setattr(_accel, "BLOCK_ENTRIES", 8 * 3 * sp.size)    # a few rows a chunk
    assert product_decomposition_residual(sp, triples, 6) == full
    assert semi_commutator_residual(sp, pairs, 4) == pair_full
    mixed = [triples[0], triples[1][:2], triples[2][:1], triples[3]]
    assert product_decomposition_residual(sp, mixed, 6) == [
        product_decomposition_residual(sp, [t], 6)[0] for t in mixed]


def test_residual_over_monomial_identities_of_distinct_total_shifts_is_their_max():
    # (1 + zbar_1) z_2 zbar_1 z_2 zbar_1 splits into two monomial identities
    # of distinct total shifts, on disjoint entries: each one's entries are
    # masked by its own shift's safe block, and the residual is their max
    sp = build_space(WeightedMeasure(make_domain("ball", n=2), 0.5), 16)
    one, zbar1 = ((0, 0), (0, 0)), ((0, 0), (1, 0))
    s = Symbol.from_monomials({((0, 1), (1, 0)): 1.0}, 2)
    parts = [Symbol.from_monomials({m: 1.0}, 2) for m in (one, zbar1)]
    whole = Symbol.from_monomials({one: 1.0, zbar1: 1.0}, 2)
    assert product_decomposition_residual(sp, [(whole, s, s)], 6) == [
        max(product_decomposition_residual(sp, [(p, s, s) for p in parts], 6))]


def test_polynomial_residuals_keep_their_bits():
    # sha256 of the repr of every residual, pairs then triples, over the
    # complex-coefficient polynomials of the batch test mixed with five
    # monomials: pins the coefficient products and the sums per total shift
    sp = build_space(WeightedMeasure(make_domain("ball", n=2), 0.0), 16)
    poly = [Symbol.from_monomials({((1, 0), (0, 0)): 0.5 - 2j, ((0, 0), (0, 1)): 1j}, 2),
            Symbol.from_monomials({((0, 1), (1, 0)): -1.0, ((0, 0), (0, 0)): 1.5 + 0.25j}, 2)]
    syms = _monomial_symbols(2, 2)[:5] + poly
    residuals = (semi_commutator_residual(sp, list(itertools.product(syms, repeat=2)), 4)
                 + product_decomposition_residual(sp, list(itertools.product(syms, repeat=3)),
                                                  6))
    assert hashlib.sha256("\n".join(map(repr, residuals)).encode()).hexdigest() == (
        "772ad0bdb1e8e8e2b243ec19bc585704e0b052f327d3415f46e8698a06291bcb")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2]).flatmap(lambda d: st.lists(_poly_symbols(d), min_size=3,
                                                          max_size=3)))
def test_polynomial_residuals_match_dense_recomputation(symbols):
    # multi-monomial symbols with complex coefficients: each residual is the
    # coefficient-weighted sum of monomial ones, against the dense matrices of
    # decompose_product and the direct product over the safe block
    space = _WARM[symbols[0].dim]

    def dense_residual(symbols, margin, expr):
        direct = np.eye(space.size, dtype=complex)
        for s in symbols:
            direct = direct @ toeplitz(space, s).matrix
        keep = space.degrees <= space.N - margin
        return np.max(np.abs((direct - dense_materialize(expr, space))[np.ix_(keep, keep)]))

    s3, s2, s1 = symbols
    margin = max(s2.degree, s1.degree)
    got = semi_commutator_residual(space, [(s2, s1)], margin)[0]
    assert abs(got - dense_residual([s2, s1], margin, decompose_product([s2, s1]))) < 1e-14
    margin = sum(s.degree for s in symbols)
    got = product_decomposition_residual(space, [symbols], margin)[0]
    assert abs(got - dense_residual(symbols, margin, decompose_product(symbols))) < 1e-14


def test_residual_caches_are_freed_with_their_space():
    syms = _monomial_symbols(2, 1)
    gc.collect()
    gc.disable()
    try:
        sp = build_space(WeightedMeasure(make_domain("ball", n=2), 0.0), 8)
        semi_commutator_residual(sp, [syms[1:3]], 1)
        product_decomposition_residual(sp, [syms[1:4]], 3)
        space = weakref.ref(sp)
        del sp
        assert space() is None
    finally:
        gc.enable()


def _module_container_sizes():
    """len() of every dict, list and set bound in a berezin_lab module or on
    one of its classes."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "berezin_lab" or name.startswith("berezin_lab.")):
            continue
        owners = [(name, vars(module))] + [
            (f"{name}.{k}", vars(v)) for k, v in vars(module).items()
            if isinstance(v, type) and v.__module__ == name]
        for owner, namespace in owners:
            for attr, val in namespace.items():
                if isinstance(val, (dict, list, set)):
                    sizes[owner, attr] = len(val)
    return sizes


def test_semi_commutator_runs_leave_no_module_level_growth(tmp_path):
    config = {"domain": {"name": "ball", "n": 2}, "r": 0.0, "N": 8, "degree": 1,
              "out": str(tmp_path)}
    labcli.run("semi-commutator", dict(config))
    first = _module_container_sizes()
    labcli.run("semi-commutator", dict(config))
    grown = {k: (first.get(k), v) for k, v in _module_container_sizes().items()
             if v > first.get(k, 0)}
    assert grown == {}


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
    for t in ("inf", "nan"):     # not finite, so not in the domain
        with pytest.raises(BoundaryError, match=rf"^point \[{t}"):
            boundary_profile(op, [1.0], [0.5, float(t)])


def test_boundary_profile_decreasing_weighted_defect():
    sp = disk_space(1.0, 64)
    op = toeplitz(sp, sym("1-abs2(z)"))
    prof = boundary_profile(op, [1.0], np.linspace(0.5, 0.95, 10))
    mags = [abs(s.value) for s in prof]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def _profile_case(name):
    """(operator, boundary point) of a disk N=96 or smoothed_polydisk N=40 profile."""
    if name == "disk":
        return toeplitz(disk_space(0.0, 96), sym("re(z)")), np.array([1.0 + 0j])
    dom = make_domain("smoothed_polydisk")
    sp = build_space(WeightedMeasure(dom, 0.0), 40)
    op = toeplitz(sp, sym("max(0, 1-(1-abs(z2))/0.3)", 2))
    return op, boundary_point(dom, np.array([0.7 + 0.7j, 0.1j]))


@pytest.mark.parametrize("name", ["disk", "smoothed_polydisk"])
def test_batched_kernel_methods_equal_pointwise(name):
    op, p0 = _profile_case(name)
    sp = op.space
    zs = DEFAULT_T_GRID[:, None] * p0
    for method in (sp.normalized_kernel, sp.truncation_tail_fraction,
                   sp.inside_contract, lambda z: berezin(op, z)):
        batched = method(zs)
        assert np.array_equal(batched, np.array([method(z) for z in zs]))
    # the first point outside the closed domain is named, as in one-point calls
    outside = np.vstack([zs[:3], 1.5 * p0, 2.0 * p0])
    with pytest.raises(BoundaryError) as err:
        sp.inside_contract(outside)
    with pytest.raises(BoundaryError) as one:
        sp.inside_contract(1.5 * p0)
    assert str(err.value) == str(one.value)


def test_boundary_profile_evaluates_the_basis_at_most_twice(monkeypatch):
    op, p0 = _profile_case("disk")
    calls = []
    orig = WeightedSpace.basis_values

    def counting(self, points):
        calls.append(points)
        return orig(self, points)

    monkeypatch.setattr(WeightedSpace, "basis_values", counting)
    prof = boundary_profile(op, p0, DEFAULT_T_GRID)
    assert len(prof) == len(DEFAULT_T_GRID)
    assert len(calls) <= 2


@pytest.mark.parametrize("name", ["disk", "smoothed_polydisk"])
def test_boundary_profile_evaluates_the_basis_once(monkeypatch, name):
    # one basis table serves the Berezin values and the tail shares, which
    # keep the bits of their separate calls
    op, p0 = _profile_case(name)
    zs = DEFAULT_T_GRID[:, None] * p0
    vals, tails = berezin(op, zs), op.space.truncation_tail_fraction(zs)
    calls = []
    orig = WeightedSpace.basis_values

    def counting(self, points):
        calls.append(points)
        return orig(self, points)

    monkeypatch.setattr(WeightedSpace, "basis_values", counting)
    prof = boundary_profile(op, p0, DEFAULT_T_GRID)
    assert len(calls) == 1
    assert np.array_equal([s.value for s in prof], vals)
    assert np.array_equal([s.tail_fraction for s in prof], tails)


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
        materialize(OperatorExpr.identity(), disk),
    ]
    for op in ops:
        assert op.diagonal is not None
        for k in range(op.space.N + 1):
            assert tail_norm(op, k) == svd_tail(op, k)


def test_tail_norm_general_matches_svd_exactly():
    # dense matrices carry no structural diagonal, even diagonal ones
    sp = disk_space(0.0, 24)
    rng = np.random.default_rng(7)
    near_diag = np.diag(np.linspace(1.0, 0.1, sp.size)).astype(complex)
    near_diag[3, 17] = 0.5
    ops = [
        TruncatedOperator(rng.standard_normal((sp.size, sp.size)) + 0j, sp),
        toeplitz(sp, sym("re(z)")),
        TruncatedOperator(near_diag, sp),
        TruncatedOperator(np.eye(sp.size, dtype=complex), sp),
        TruncatedOperator(np.zeros((sp.size, sp.size), dtype=complex), sp),
        materialize(OperatorExpr(((HP(sym("abs(z)"), sym("abs(z)")),),)), sp),
    ]
    for op in ops:
        assert op.diagonal is None
        for k in range(sp.N + 1):
            assert tail_norm(op, k) == svd_tail(op, k)


def test_diagonal_is_the_zero_shift_of_the_assembled_form():
    sp = disk_space(0.0, 16)
    for op in (toeplitz(sp, sym("max(0, 1-abs(z))")), toeplitz(sp, sym("1-abs2(z)")),
               materialize(OperatorExpr.identity(), sp)):
        assert np.array_equal(op.diagonal, np.diagonal(op.matrix))
        assert np.count_nonzero(op.matrix - np.diag(op.diagonal)) == 0
        assert not op.diagonal.flags.writeable    # may be the space's cached weights
    assert toeplitz(sp, sym("re(z)")).diagonal is None
    assert materialize(OperatorExpr.identity(), sp).diagonal.dtype == complex


@pytest.mark.parametrize("domain,n,text,p0", [
    ("disk", 96, "abs2(z)", [1.0]),
    ("smoothed_polydisk", 16, "max(0, 1-(1-abs(z2))/0.3)", [0.7 + 0.1j, 0.9j]),
])
def test_berezin_of_a_diagonal_operator_equals_the_dense_form_bitwise(domain, n, text, p0):
    dom = make_domain(domain)
    sp = build_space(WeightedMeasure(dom, 0.0), n)
    op = toeplitz(sp, sym(text, dom.dim))
    assert op.diagonal is not None
    zs = DEFAULT_T_GRID[:, None] * np.asarray(p0)
    dense = TruncatedOperator(op.matrix, sp)
    assert np.array_equal(berezin(op, zs), berezin(dense, zs))


def test_az_report_on_a_radial_symbol_builds_no_dense_matrix(traced_peak):
    # B = 861: the dense B x B complex matrix alone would be 11.9 MB
    dom = make_domain("smoothed_polydisk")
    sp = build_space(WeightedMeasure(dom, 0.0), 40)
    b = (1 - 0.1 ** 8) ** (1 / 8)
    expr = OperatorExpr.toeplitz(sym("max(0, 1-(1-abs(z2))/0.3)", 2))
    rep, peak = traced_peak(lambda: axler_zheng_report(
        expr, sp, [[b, 0.1], [1j * b, 0.1j]], [[0.0, 1.0]], tail_k=8))
    assert rep.classification == "localized"
    assert peak < sp.size ** 2 * 16


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
    expr = OperatorExpr.identity()   # placeholder: materialize is replaced

    import berezin_lab.operators as ops
    orig = ops.materialize

    def fake_materialize(e, space):
        return TruncatedOperator(m, space)

    ops.materialize = fake_materialize
    try:
        rep = axler_zheng_report(expr, sp, [[1.0]], [], t_grid=np.linspace(0.3, 0.6, 8))
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
    obj = {"sum": [{"prod": [{"toeplitz": {"symbol": "(conj(z))*(z)"}}]},
                   {"prod": [{"scalar": -1.0},
                             {"hankelpair": {"psi": "conj(z)", "phi": "z"}}]}]}
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


def _factors(*factors):
    return {"sum": [{"prod": list(factors)}]}


@pytest.mark.parametrize("call,piece", [
    (lambda: Symbol.parse(3, 1), "symbol 3 is not a string"),
    (lambda: expr_from_json(_factors("identity"), 1), "factor 'identity' is not an object"),
    (lambda: expr_from_json(_factors({"toeplitz": {}}), 1), "has no 'symbol'"),
    (lambda: expr_from_json(_factors({"toeplitz": "z"}), 1), "has no 'symbol'"),
    (lambda: expr_from_json(_factors({"hankelpair": {"phi": "z"}}), 1), "has no 'psi'"),
    (lambda: expr_from_json(_factors({"hankelpair": {"psi": "z"}}), 1), "has no 'phi'"),
    (lambda: expr_from_json(_factors({"scalar": [1]}), 1), "scalar [1] is neither"),
    (lambda: expr_from_json(_factors({"scalar": [1, 2, 3]}), 1), "scalar [1, 2, 3] is neither"),
    (lambda: expr_from_json(_factors({"scalar": None}), 1), "scalar None is neither"),
    (lambda: expr_from_json(_factors({"scalar": {"a": 1}}), 1), "scalar {'a': 1} is neither"),
    (lambda: expr_from_json(_factors({"scalar": [1, "a"]}), 1), "scalar [1, 'a'] is neither"),
    (lambda: expr_from_json(_factors({"scalar": "2"}), 1), "scalar '2' is neither"),
    (lambda: expr_from_json(_factors({"scalar": True}), 1), "scalar True is neither"),
    (lambda: expr_from_json(_factors({"toeplitz": {"symbol": "z"}, "identity": {}}), 1),
     "'identity': {}} does not have exactly one key"),
    (lambda: expr_from_json(_factors({"identity": 5}), 1),
     "identity factor {'identity': 5} is not an object"),
    (lambda: expr_from_json(_factors({"identity": {"x": 1}}), 1),
     "identity factor {'identity': {'x': 1}} has an unknown key 'x'"),
    (lambda: expr_from_json(_factors({"toeplitz": {"symbol": "z", "extra": 1}}), 1),
     "toeplitz factor {'toeplitz': {'symbol': 'z', 'extra': 1}} has an unknown key 'extra'"),
    (lambda: expr_from_json(_factors({"hankelpair": {"psi": "z", "phi": "z", "x": 2}}), 1),
     "has an unknown key 'x'"),
    (lambda: expr_from_json({"sum": 5}, 1), 'must be {"sum": [...]}'),
    (lambda: expr_from_json({"sum": [{"prod": 5}]}, 1), 'must be {"prod": [...]}'),
], ids=["symbol-not-str", "factor-not-object", "toeplitz-no-symbol", "toeplitz-not-object",
        "hankelpair-no-psi", "hankelpair-no-phi", "scalar-of-one", "scalar-of-three",
        "scalar-none", "scalar-object", "scalar-pair-of-text", "scalar-text", "scalar-bool",
        "factor-of-two-kinds", "identity-not-object", "identity-with-key",
        "toeplitz-extra-key", "hankelpair-extra-key", "sum-not-list", "prod-not-list"])
def test_malformed_library_input_raises_parameter_error_naming_it(call, piece):
    with pytest.raises(ParameterError, match=re.escape(piece)):
        call()


def test_toeplitz_hermitian_for_real_symbols():
    sp = disk_space(1.0, 20)
    for text in ("1-abs2(z)", "re(z)", "im(z)*2"):
        m = toeplitz(sp, sym(text)).matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-10


@pytest.mark.parametrize("text", [
    "1/im(z)",          # general path: its phase-0 nodes have im z = 0
    "abs(z)/0",         # radial path
])
def test_toeplitz_symbol_not_finite_at_node_raises(text):
    sp = disk_space(0.0, 12)
    with warnings.catch_warnings():
        # the error names the node; numpy's divide warnings stay quiet
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as info:
            toeplitz(sp, sym(text))
    assert info.value.node is not None


def test_operator_whose_assembly_overflows_raises_naming_it():
    # finite coefficients and scalars whose sums and products pass the
    # largest float, in shift form and in dense form (a non-polynomial
    # Hankel pair); numpy's overflow and invalid warnings stay quiet
    sp = disk_space(0.0, 8)
    big, z, a = sym("1e308*abs2(z) + 1e308"), sym("z"), sym("abs(z)")
    cases = [
        (lambda: toeplitz(sp, big), "T(1e308*abs2(z) + 1e308)"),
        (lambda: hankel_gram(sp, big, sym("1")), "H*_(1) H_(1e308*abs2(z) + 1e308)"),
        (lambda: materialize(OperatorExpr(((SC(1e308), SC(1e308), T(z)),)), sp),
         "1e+308 * 1e+308 * T(z)"),
        (lambda: materialize(OperatorExpr(((SC(1e200), T(z), T(sym("1e200*conj(z)"))),)), sp),
         "1e+200 * T(z) * T(1e200*conj(z))"),
        (lambda: materialize(OperatorExpr(((T(z),), (SC(1e308), SC(1e308j), HP(a, a)))), sp),
         "T(z) + 1e+308 * 0+1e+308j * HP(abs(z), abs(z))"),
    ]
    for build, text in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as info:
                build()
        assert str(info.value) == (f"operator {text} is not finite: a product of its "
                                   "scalars and weights overflows")
