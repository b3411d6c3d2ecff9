import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berezin_lab import (
    EllipsoidDomain,
    PointKind,
    boundary_point,
    classify_boundary,
    domain_from_config,
    inflate,
    inflated_boundary_classification_check,
    make_domain,
)
from berezin_lab.domains import _ray_root, on_boundary, sample_boundary
from berezin_lab.errors import BoundaryError, ParameterError

DISK = make_domain("disk")
BALL2 = make_domain("ball", n=2)
EGG2 = make_domain("egg", m=2)
POLY4 = make_domain("smoothed_polydisk")


def test_rho_examples():
    assert DISK.rho([0.0]) == pytest.approx(-1.0)
    assert BALL2.rho([0.0, 1.0]) == pytest.approx(0.0)
    assert EGG2.rho([2 ** -0.5, 0.0]) == pytest.approx(-0.5)


def test_rho_dimension_mismatch():
    with pytest.raises(ParameterError):
        DISK.rho([0.1, 0.2])


def test_rho_sign_sampling():
    rng = np.random.default_rng(3)
    for dom in (DISK, BALL2, EGG2, POLY4, inflate(DISK, 1, 1.0)):
        n = dom.dim
        count = 0
        while count < 1000:
            u = rng.uniform(-1, 1, size=(2000, 2 * n))
            z = u[:, 0::2] + 1j * u[:, 1::2]
            inside = np.atleast_1d(dom.rho(z)) < 0
            pts = z[inside]
            count += len(pts)
            assert np.all(np.atleast_1d(dom.rho(pts)) < 0)
            # scale interior points out past the boundary
            out = np.array([boundary_point(dom, p) * 1.01 for p in pts[:50]])
            if len(out):
                assert np.all(np.atleast_1d(dom.rho(out)) > 0)


def _bisect_200(domain, d):
    """The boundary point by bisection on the sign of rho along the ray, run
    for all 200 steps."""
    lo, hi = 0.0, 1.0
    while domain.rho(hi * d) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if domain.rho(mid * d) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * d


class _CountingRho:
    def __init__(self, domain):
        self.domain = domain
        self.exponents = domain.exponents
        self.dim = domain.dim
        self.calls = 0

    def rho(self, z):
        self.calls += 1
        return self.domain.rho(z)


def test_boundary_point_is_the_ray_root_next_to_the_bisection_point():
    rng = np.random.default_rng(11)
    for dom in (DISK, BALL2, make_domain("ball", n=3), EGG2,
                make_domain("egg", m=3), POLY4, inflate(DISK, 2, 1.0),
                inflate(EGG2, 3, 2.0), EllipsoidDomain((0.5, 3.0, 7.3))):
        for k in range(40):
            d = rng.normal(size=dom.dim) + 1j * rng.normal(size=dom.dim)
            if k % 4 == 0 and dom.dim > 1:
                d[rng.integers(dom.dim)] = 0.0
            d *= 10.0 ** rng.uniform(-6.0, 6.0) / np.linalg.norm(d)
            counting = _CountingRho(dom)
            got = boundary_point(counting, d)
            assert counting.calls == 0
            assert np.array_equal(got, _ray_root(dom.exponents, np.abs(d).tolist()) * d)
            want = _bisect_200(dom, d)
            assert np.linalg.norm(got - want) <= 16 * 2.0 ** -53 * np.linalg.norm(want)
            assert abs(dom.rho(got)) <= 1e-14


def test_ray_root_solves_the_ray_equation():
    rng = np.random.default_rng(2)
    for q in ((2.0, 2.0), (8.0, 8.0, 8.0), (2.0, 4.0), (0.5, 3.0, 7.3)):
        for _ in range(20):
            a = np.abs(rng.normal(size=len(q))) * 10.0 ** rng.uniform(-6.0, 6.0)
            s = _ray_root(q, a.tolist())
            assert sum((s * x) ** e for x, e in zip(a, q)) == pytest.approx(1.0, abs=1e-14)
            if len(set(q)) == 1:
                want = np.sum(a ** q[0]) ** (-1.0 / q[0])
                assert s == pytest.approx(want, rel=1e-15)


def test_boundary_point_refuses_non_finite_and_zero_directions():
    for d in ((np.nan, 0.5), (0.5, np.inf), (complex(0.5, -np.inf), 0.0),
              (complex(np.nan, 1.0), 1.0)):
        with pytest.raises(ParameterError, match="finite"):
            boundary_point(BALL2, d)
    for d in ((0.0, 0.0), (1e-8, -1e-8j)):
        with pytest.raises(ParameterError, match="nonzero"):
            boundary_point(BALL2, d)
    with pytest.raises(ParameterError):
        boundary_point(BALL2, (1.0, 0.0, 0.0))
    # just past the zero threshold the ray still reaches the boundary
    assert on_boundary(BALL2, boundary_point(BALL2, (2e-8, 0.0)))


def test_boundary_point_on_boundary_for_huge_directions():
    rng = np.random.default_rng(5)
    for dom in (DISK, BALL2, EGG2, POLY4, EllipsoidDomain((0.5, 3.0, 7.3))):
        for scale in (1e20, 1e100, 1e200, 1e250):
            d = rng.normal(size=dom.dim) + 1j * rng.normal(size=dom.dim)
            d *= scale / np.linalg.norm(d)
            assert on_boundary(dom, boundary_point(dom, d))
    assert on_boundary(BALL2, boundary_point(BALL2, (1e300, 1e300)))


def _levi(domain, point, x, y):
    """The complex Hessian form sum_jk H_jk x_j conj(y_k) at ``point``."""
    return complex(np.asarray(x) @ domain.hessian_matrix(point) @ np.conj(y))


def test_hessian_disk_constant():
    for p in (0.0, 0.3 + 0.1j, -0.7j):
        assert DISK.hessian_matrix([p])[0, 0] == pytest.approx(1.0)
        assert _levi(DISK, [p], [1.0], [1.0]) == pytest.approx(1.0)


def test_hessian_egg_against_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    x1, y1, x2, y2 = sympy.symbols("x1 y1 x2 y2", real=True)
    rho = x1 ** 2 + y1 ** 2 + (x2 ** 2 + y2 ** 2) ** 2 - 1
    xs = [x1, x2]
    ys = [y1, y2]

    def wirtinger_hessian(j, k, point):
        # d^2/dz_j dzbar_k = 1/4 [(dx_j dx_k + dy_j dy_k) + i (dx_j dy_k - dy_j dx_k)]
        subs = {x1: point[0].real, y1: point[0].imag,
                x2: point[1].real, y2: point[1].imag}
        re = (sympy.diff(rho, xs[j], xs[k]) + sympy.diff(rho, ys[j], ys[k])) / 4
        im = (sympy.diff(rho, xs[j], ys[k]) - sympy.diff(rho, ys[j], xs[k])) / 4
        return complex(re.subs(subs)) + 1j * complex(im.subs(subs))

    for point in ([0.0, 1.0], [1.0, 0.0], [0.3 + 0.2j, 0.5 - 0.4j]):
        point = np.asarray(point, dtype=complex)
        h = EGG2.hessian_matrix(point)
        for (j, k) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            ej = np.eye(2)[j]
            ek = np.eye(2)[k]
            want = wirtinger_hessian(j, k, point)
            assert h[j, k] == pytest.approx(want, abs=1e-12)
            assert _levi(EGG2, point, ej, ek) == pytest.approx(want, abs=1e-12)


def test_hessian_egg_examples():
    assert _levi(EGG2, [0, 1], [1, 0], [1, 0]) == pytest.approx(1.0)
    assert _levi(EGG2, [1, 0], [0, 1], [0, 1]) == pytest.approx(0.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-0.9, 0.9), min_size=8, max_size=8))
def test_hessian_conjugate_symmetry_and_reality(vals):
    p = np.array([vals[0] + 1j * vals[1], vals[2] + 1j * vals[3]])
    x = np.array([vals[4] + 1j * vals[5], 1.0])
    y = np.array([vals[6] + 1j * vals[7], -0.5j])
    hxy = _levi(EGG2, p, x, y)
    hyx = _levi(EGG2, p, y, x)
    assert hxy == pytest.approx(np.conj(hyx), abs=1e-12)
    hxx = _levi(EGG2, p, x, x)
    assert abs(hxx.imag) < 1e-13


def test_classify_disk_strong():
    cls = classify_boundary(DISK, [1.0])
    assert cls.kind is PointKind.STRONGLY_PSEUDOCONVEX
    assert cls.min_tangential_eigenvalue == np.inf


def test_classify_egg_weak_and_strong():
    weak = classify_boundary(EGG2, [1.0, 0.0])
    assert weak.kind is PointKind.WEAKLY_PSEUDOCONVEX
    assert weak.min_tangential_eigenvalue == pytest.approx(0.0, abs=1e-12)
    strong = classify_boundary(EGG2, [0.0, 1.0])
    assert strong.kind is PointKind.STRONGLY_PSEUDOCONVEX
    assert strong.min_tangential_eigenvalue == pytest.approx(1.0)


def test_classify_smoothed_polydisk_weak_circles():
    for p in ([0.0, 1.0], [1.0, 0.0], [0.0, 1.0j]):
        assert classify_boundary(POLY4, p).kind is PointKind.WEAKLY_PSEUDOCONVEX
    interior_dir = [1.0, 1.0]
    p = boundary_point(POLY4, interior_dir)
    assert classify_boundary(POLY4, p).kind is PointKind.STRONGLY_PSEUDOCONVEX


def test_classify_off_boundary_raises():
    with pytest.raises(BoundaryError):
        classify_boundary(DISK, [0.5])


class _ScaledEgg:
    """The egg m=2 with defining function c * rho."""

    name = "scaled-egg"
    dim = 2

    def __init__(self, c):
        self.c = c

    def rho(self, z):
        return self.c * EGG2.rho(z)

    def grad_rho(self, z):
        return self.c * EGG2.grad_rho(z)

    def hessian_matrix(self, point):
        return self.c * EGG2.hessian_matrix(point)


def test_classify_scale_invariance_of_kind():
    # rescaling the defining function scales the eigenvalue, not the kind
    for c in (0.085, 1.0, 37.0):
        scaled = _ScaledEgg(c)
        strong = classify_boundary(scaled, [0.0, 1.0])
        assert strong.kind is PointKind.STRONGLY_PSEUDOCONVEX
        assert strong.min_tangential_eigenvalue == pytest.approx(c)
        weak = classify_boundary(scaled, [1.0, 0.0])
        assert weak.kind is PointKind.WEAKLY_PSEUDOCONVEX


@settings(max_examples=25, deadline=None)
@given(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
def test_classify_rotation_invariance(t1, t2):
    base = np.array([0.0, 1.0])
    rotated = base * np.exp(1j * np.array([t1, t2]))
    cls = classify_boundary(EGG2, rotated)
    assert cls.kind is PointKind.STRONGLY_PSEUDOCONVEX
    assert cls.min_tangential_eigenvalue == pytest.approx(1.0, abs=1e-9)


def test_inflate_disk_is_ball():
    infl = inflate(DISK, 1, 1.0)
    assert infl.dim == 2
    assert infl.exponents == (2.0, 2.0)
    assert infl.rho([0.5, 0.5]) == pytest.approx(-0.5)
    # pointwise match with the two-summand formula
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        w = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        lhs = infl.rho(np.array([z, w]))
        rhs = DISK.rho(np.array([z])) + abs(w) ** 2
        assert lhs == pytest.approx(rhs)


def test_inflate_exponent_and_parameter_errors():
    assert inflate(DISK, 2, 2.0).exponents == (2.0, 2.0, 2.0)
    assert inflate(DISK, 2, 1.0).exponents == (2.0, 4.0, 4.0)
    with pytest.raises(ParameterError):
        inflate(DISK, 1, 0.0)
    with pytest.raises(ParameterError):
        inflate(DISK, 1, 1.5)
    with pytest.raises(ParameterError):
        inflate(DISK, 0, 0.5)


def test_inflated_boundary_classification_disk():
    rep = inflated_boundary_classification_check(DISK, 1, 1.0, [1.0], samples=100, seed=1)
    assert rep.fraction_strong == 1.0
    assert rep.min_tangential_eigenvalue > 0


def test_inflated_boundary_classification_egg():
    rep = inflated_boundary_classification_check(EGG2, 1, 1.0, [0.0, 1.0], samples=60,
                                                  seed=2)
    assert rep.fraction_strong == 1.0


def test_inflated_boundary_check_rejects_weak_base_point():
    with pytest.raises(ParameterError):
        inflated_boundary_classification_check(EGG2, 1, 1.0, [1.0, 0.0], samples=10)


CATALOG = [({"name": "disk"}, (2.0,)),
           ({"name": "ball", "n": 1}, (2.0,)),
           ({"name": "ball", "n": 2}, (2.0, 2.0)),
           ({"name": "ball", "n": 3}, (2.0, 2.0, 2.0)),
           ({"name": "egg", "m": 2}, (2.0, 4.0)),
           ({"name": "egg", "m": 3}, (2.0, 6.0)),
           ({"name": "smoothed_polydisk"}, (8.0, 8.0)),
           ({"name": "ellipsoid", "exponents": [2.0, 5.0]}, (2.0, 5.0))]
INFLATIONS = [(None, ()), ({"p": 1, "r": 1.0}, (2.0,)), ({"p": 2, "r": 1.0}, (4.0, 4.0)),
              ({"p": 3, "r": 2.0}, (3.0, 3.0, 3.0))]


def test_every_domain_is_an_ellipsoid_and_the_inflated_disk_is_the_ball():
    for spec, exponents in CATALOG:
        for inflation, fiber in INFLATIONS:
            cfg = spec if inflation is None else {**spec, "inflate": inflation}
            dom = domain_from_config(cfg)
            assert type(dom) is EllipsoidDomain, cfg
            assert dom.exponents == exponents + fiber, cfg
            assert dom.dim == len(exponents + fiber), cfg
    # one pass over all coordinates: inflate(disk, 1, 1) is ball2 bit for bit
    infl = inflate(DISK, 1, 1.0)
    rng = np.random.default_rng(7)
    z = rng.uniform(-1, 1, size=(20_000, 2)) + 1j * rng.uniform(-1, 1, size=(20_000, 2))
    assert np.array_equal(infl.rho(z), BALL2.rho(z))
    assert all(infl.rho(p) == BALL2.rho(p) for p in z[:200])


def test_domain_from_config():
    dom = domain_from_config({"name": "egg", "m": 2})
    assert dom.name == "egg2"
    with pytest.raises(ParameterError):
        domain_from_config({"name": "nosuch"})
    assert domain_from_config({"name": "disk", "inflate": {"p": 1, "r": 1.0}}).dim == 2
    with pytest.raises(ParameterError, match="'r'"):
        domain_from_config({"name": "disk", "inflate": {"p": 1}})
    with pytest.raises(ParameterError, match="'M'"):
        domain_from_config({"name": "egg", "M": 3})
    with pytest.raises(ParameterError, match="'n'"):
        domain_from_config({"name": "disk", "n": 2, "inflate": {"p": 1, "r": 1.0}})
    with pytest.raises(ParameterError, match="'m'"):
        make_domain("ball", m=2)
    assert make_domain("ellipsoid", exponents=[2.0, 4.0]).dim == 2
    with pytest.raises(ParameterError):
        make_domain("egg", m=5)
    with pytest.raises(ParameterError):
        make_domain("ball", n=4)


@pytest.mark.parametrize("make", [
    lambda: make_domain("ball", n=2.7), lambda: make_domain("ball", n=float("nan")),
    lambda: make_domain("egg", m=2.5), lambda: make_domain("smoothed_polydisk", m=4.9),
    lambda: EllipsoidDomain((2.0, float("nan"))), lambda: EllipsoidDomain((2.0, float("inf"))),
    lambda: make_domain("ellipsoid", exponents=[float("inf")])],
    ids=["ball-2.7", "ball-nan", "egg-2.5", "polydisk-4.9", "exponent-nan",
         "exponent-inf", "ellipsoid-inf"])
def test_catalog_parameters_are_checked_not_truncated(make):
    with pytest.raises(ParameterError):
        make()


def test_sample_boundary_on_boundary():
    for dom in (EGG2, POLY4):
        pts = sample_boundary(dom, 32, seed=5)
        assert len(pts) == 32
        vals = np.atleast_1d(dom.rho(pts))
        assert np.max(np.abs(vals)) < 1e-12
