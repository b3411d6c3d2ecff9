import gc
import itertools

import numpy as np
import pytest

from berezin_lab import Symbol, SymbolTag, symbols
from berezin_lab.errors import ParameterError


def rand_points(dim, m=64, seed=0):
    rng = np.random.default_rng(seed)
    return 0.7 * (rng.uniform(-1, 1, (m, dim)) + 1j * rng.uniform(-1, 1, (m, dim)))


@pytest.mark.parametrize("text,fn", [
    ("1-abs2(z)", lambda z: 1 - np.abs(z[:, 0]) ** 2),
    ("re(z)", lambda z: z[:, 0].real),
    ("im(z)", lambda z: z[:, 0].imag),
    ("conj(z)*z", lambda z: np.abs(z[:, 0]) ** 2),
    ("2.5*z - 1e-1", lambda z: 2.5 * z[:, 0] - 0.1),
    ("max(0, 1-2*abs(z))", lambda z: np.maximum(0, 1 - 2 * np.abs(z[:, 0]))),
    ("min(abs(z), 0.5)", lambda z: np.minimum(np.abs(z[:, 0]), 0.5)),
    ("sqrt(abs2(z))", lambda z: np.abs(z[:, 0])),
    ("-z/(2)", lambda z: -z[:, 0] / 2),
])
def test_parser_matches_numpy_dim1(text, fn):
    sym = Symbol.parse(text, 1)
    pts = rand_points(1)
    assert np.allclose(sym(pts), fn(pts), atol=1e-14)


def test_parser_dim2_and_dist():
    sym = Symbol.parse("abs2(z1) + conj(z2)", 2)
    pts = rand_points(2)
    want = np.abs(pts[:, 0]) ** 2 + np.conj(pts[:, 1])
    assert np.allclose(sym(pts), want)
    d = Symbol.parse("dist(1, 0)", 2)
    want = np.linalg.norm(pts - np.array([1.0, 0.0]), axis=1)
    assert np.allclose(d(pts), want)


def test_tags_and_degree():
    assert Symbol.parse("1-abs2(z)", 1).tag is SymbolTag.POLYNOMIAL
    assert Symbol.parse("1-abs2(z)", 1).degree == 2
    assert Symbol.parse("re(z)", 1).tag is SymbolTag.POLYNOMIAL
    assert Symbol.parse("max(0, 1-abs(z))", 1).tag is SymbolTag.RADIAL
    assert Symbol.parse("re(z)*abs(z)", 1).tag is SymbolTag.GENERAL
    # dist is not structurally radial even when it happens to be (center 0)
    assert Symbol.parse("dist(0, 0)", 2).tag is SymbolTag.GENERAL


def test_radial_detection():
    assert Symbol.parse("abs2(z1) + abs(z2)", 2).radial
    assert Symbol.parse("abs(z1*z2)", 2).radial            # monomial inside abs
    assert Symbol.parse("max(0, 1-(1-abs(z2))/0.3)", 2).radial
    assert not Symbol.parse("re(z1)", 2).radial
    assert not Symbol.parse("abs(z1+z2)", 2).radial        # not a monomial


def test_polynomial_expansion_matches_eval():
    for text, dim in (("(1-abs2(z))*(2+re(z))", 1),
                      ("im(z1*conj(z2)) + abs2(z2)", 2),
                      ("conj(z)*conj(z)", 1)):
        sym = Symbol.parse(text, dim)
        assert sym.poly is not None
        pts = rand_points(dim, seed=3)
        direct = sym(pts)
        via_poly = Symbol.from_monomials(sym.poly, dim)(pts)
        assert np.allclose(direct, via_poly, atol=1e-13)


def test_conj_and_product():
    z = Symbol.parse("z", 1)
    zb = z.conj()
    pts = rand_points(1, seed=5)
    assert np.allclose(zb(pts), np.conj(pts[:, 0]))
    prod = z * zb
    assert prod.tag is SymbolTag.POLYNOMIAL and prod.degree == 2
    assert np.allclose(prod(pts), np.abs(pts[:, 0]) ** 2)


def test_points_dimension_check():
    sym = Symbol.parse("z1+z2", 2)
    with pytest.raises(ParameterError):
        sym(rand_points(3))


def test_polynomial_products_are_interned():
    z1, w = Symbol.parse("z1", 2), Symbol.parse("conj(z2)", 2)
    zw = z1 * w
    assert zw.poly == {((1, 0), (0, 1)): 1.0}
    assert z1 * w is zw and w * z1 is zw      # one Symbol per polynomial
    assert (zw * z1).key == (z1 * zw).key
    assert z1.conj() is z1.conj()
    assert z1.conj().conj().key == z1.key
    assert (z1 * z1.conj()).radial             # read off the product polynomial


def test_product_tables_form_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        syms = [Symbol.from_monomials({((a,), (b,)): c}, 1)
                for a, b, c in ((0, 0, 2.0), (1, 0, 1.0), (0, 1, 0.5j), (1, 1, 1.0))]
        for a, b, c in itertools.product(syms, repeat=3):
            (a * b * c).conj() * a * (b.conj() * a).conj()
        del syms, a, b, c
        assert gc.collect() == 0
    finally:
        gc.enable()


Z, Z2 = ("var", 0), ("var", 1)


def num(c):
    return ("num", complex(c))


def call(name, *args):
    return ("call", name, list(args))


def _nested(kind, depth):
    node = Z
    for _ in range(depth):
        node = (kind, node)
    return node


# the tuple AST of each string, as the grammar has always read it
_GRAMMAR_TABLE = [
    ("z", 1, Z),
    ("z2", 2, Z2),
    ("z01", 1, Z),
    ("1+2*z", 1, ("+", num(1), ("*", num(2), Z))),
    ("(1+2)*z", 1, ("*", ("+", num(1), num(2)), Z)),
    ("z-1-2", 1, ("-", ("-", Z, num(1)), num(2))),
    ("z/2/4", 1, ("/", ("/", Z, num(2)), num(4))),
    ("1-z*z/3", 1, ("-", num(1), ("/", ("*", Z, Z), num(3)))),
    ("-z*z", 1, ("*", ("neg", Z), Z)),
    ("z*-z", 1, ("*", Z, ("neg", Z))),
    ("--z", 1, ("neg", ("neg", Z))),
    ("+z", 1, Z),
    ("-+-z", 1, ("neg", ("neg", Z))),
    ("1 - -z", 1, ("-", num(1), ("neg", Z))),
    ("dist(-1, 0)", 2, call("dist", ("neg", num(1)), num(0))),
    ("dist(-0.5, -(1+2))", 2, call("dist", ("neg", num(0.5)),
                                   ("neg", ("+", num(1), num(2))))),
    ("dist(2*-1)", 1, call("dist", ("*", num(2), ("neg", num(1))))),
    ("dist(1*0, 1-0)", 2, call("dist", ("*", num(1), num(0)), ("-", num(1), num(0)))),
    ("7", 1, num(7)),
    ("00", 1, num(0)),
    ("1.", 1, num(1)),
    (".5", 1, num(0.5)),
    ("00.5", 1, num(0.5)),
    ("1.5e3", 1, num(1500)),
    ("2E-2", 1, num(0.02)),
    ("1e+2", 1, num(100)),
    ("1" + "0" * 400, 1, num(float("inf"))),      # refused at assembly, not here
    ("conj(z)", 1, call("conj", Z)),
    ("abs2(z1*conj(z2))", 2, call("abs2", ("*", Z, call("conj", Z2)))),
    ("max(0, 1-(1-abs(z2))/0.3)", 2,
     call("max", num(0), ("-", num(1), ("/", ("-", num(1), call("abs", Z2)), num(0.3))))),
    ("min(re(z), im(z))", 1, call("min", call("re", Z), call("im", Z))),
    ("sqrt(abs (z))", 1, call("sqrt", call("abs", Z))),
    (" \t z \n +  1 ", 1, ("+", Z, num(1))),
    ("-" * 199 + "z", 1, _nested("neg", 199)),     # MAX_DEPTH levels
]


@pytest.mark.parametrize("text,dim,want", _GRAMMAR_TABLE, ids=lambda v: str(v)[:24])
def test_parser_reads_the_frozen_grammar_table(text, dim, want):
    assert Symbol.parse(text, dim).ast == want


_REFUSED = [
    "z**2", "z < 1", "z == z", "z if z else 1", "max(z, a=1)", "max(**z)", "abs(*z)",
    "max(z, 1,)", "abs(z,)", "z # c", "0x1", "0o7", "0b1", "1_0", "007", "-01", "2j",
    "z²", "٣", "é", "ｚ", "z.real", "(z, z)", "z and z", "not z", "z // 2", "...", "None",
    "True", "await z", "(yield z)", "abs(z for z in z)", "dist()", "abs(z)(1)", "1(2)",
    "", "   ", "z*", "1 + ) ", "1.5.3", "1e", "2z", "abs", "q + 1", "foo(z)", "z0", "z3",
    "max(1)", "dist(z)", "dist(1/0, 0)",
    # nesting: Python's parser gives up, or the tree passes MAX_DEPTH levels
    "(" * 500 + "z" + ")" * 500, "+".join(["z"] * 3000), "-" * 3000 + "z",
    "abs(" * 400 + "z" + ")" * 400, "-" * 200 + "z", "+".join(["z"] * 201),
]


@pytest.mark.parametrize("text", _REFUSED, ids=lambda v: repr(v[:24]))
def test_parser_errors(text):
    with pytest.raises(ParameterError):
        Symbol.parse(text, 2)


def test_parser_depth_cap_is_the_module_constant():
    assert symbols.MAX_DEPTH == 200
    deepest = "abs(" * (symbols.MAX_DEPTH - 1) + "z" + ")" * (symbols.MAX_DEPTH - 1)
    assert Symbol.parse(deepest, 1).radial
    with pytest.raises(ParameterError, match="nests deeper than 200 levels"):
        Symbol.parse("-" + deepest, 1)


def test_polynomial_times_general_symbol_is_a_general_symbol():
    p = Symbol.from_monomials({((1,), (0,)): 2.0, ((0,), (1,)): 1j}, 1)
    a = Symbol.parse("abs(z)", 1)
    pts = rand_points(1, seed=7)
    for prod, want in ((p * a, (2 * pts[:, 0] + 1j * np.conj(pts[:, 0])) * np.abs(pts[:, 0])),
                       (a * p.conj(), np.abs(pts[:, 0]) * (2 * np.conj(pts[:, 0])
                                                         - 1j * pts[:, 0]))):
        assert prod.tag is SymbolTag.GENERAL and prod.poly is None
        assert np.allclose(prod(pts), want, atol=1e-14)
    assert (Symbol.from_monomials({((1,), (1,)): 1.0}, 1) * a).tag is SymbolTag.RADIAL


def test_symbols_built_from_polynomials_evaluate_through_a_shallow_tree():
    # more terms, and a higher degree, than Python's recursion limit
    exps = itertools.islice(itertools.product(range(7), repeat=4), 1500)
    poly = {(e[:2], e[2:]): 1.0 / (1 + sum(e)) for e in exps}
    pts = rand_points(2, seed=9)
    zb = np.conj(pts)
    want = sum(c * np.prod(pts ** a * zb ** b, axis=1) for (a, b), c in poly.items())
    assert np.allclose(Symbol.from_monomials(poly, 2)(pts), want, atol=1e-13)
    u = np.exp(1j * np.linspace(0.0, 6.0, 8))      # |u| = 1, so u^1100 is not tiny
    high = Symbol.from_monomials({((1100, 0), (0, 0)): 1.0}, 2)
    assert np.allclose(high(np.column_stack([u, u])), u ** 1100, rtol=1e-10)
    assert Symbol.from_monomials({}, 2)(pts).tolist() == [0j] * len(pts)
