import gc
import itertools

import numpy as np
import pytest

from berezin_lab import Symbol, SymbolTag
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


def test_parser_errors():
    with pytest.raises(ParameterError):
        Symbol.parse("q + 1", 1)
    with pytest.raises(ParameterError):
        Symbol.parse("foo(z)", 1)
    with pytest.raises(ParameterError):
        Symbol.parse("z2", 1)
    with pytest.raises(ParameterError):
        Symbol.parse("z*", 1)
    with pytest.raises(ParameterError):
        Symbol.parse("max(1)", 1)
    with pytest.raises(ParameterError):
        Symbol.parse("dist(z)", 1)       # dist needs constant coordinates
    with pytest.raises(ParameterError):
        Symbol.parse("1 + ) ", 1)


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
