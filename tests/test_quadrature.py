import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from berezin_lab import (
    Scheme,
    WeightedMeasure,
    dilation_identity_check,
    inflate,
    inflation_constant,
    inflation_constant_mc,
    make_domain,
    monomial_moment,
    monomial_moment_mc,
    monte_carlo_rule,
    polar_tensor_rule,
    radial_rule,
)
from berezin_lab import quadrature
from berezin_lab.errors import (BoundaryError, CapabilityError, NumericError,
                                ParameterError)

DISK = make_domain("disk")
BALL2 = make_domain("ball", n=2)
BALL3 = make_domain("ball", n=3)
DISK_2_1 = inflate(DISK, 2, 1.0)        # exponents (2, 4, 4)


def integrate(f, measure, rule):
    """sum_i w_i f(node_i) (-rho(node_i))^r, the rule's sum of f against the
    measure; raises NumericError naming a node where f is not finite."""
    vals = quadrature.finite_node_values(f, rule.nodes, "integrand")
    return complex(np.sum(quadrature.measure_node_weights(measure, rule) * vals))


def disk_moment_quad_oracle(k, r):
    """1D radial quadrature oracle: 2 pi int_0^1 rho^{2k+1} (1-rho^2)^r d rho."""
    val, _ = quad(lambda t: t ** (2 * k + 1) * (1 - t * t) ** r, 0.0, 1.0,
                  epsabs=1e-14, epsrel=1e-14)
    return 2 * np.pi * val


def test_disk_moments_against_radial_oracle():
    for r in (0.0, 1.0, 2.5):
        meas = WeightedMeasure(DISK, r)
        for k in (0, 1, 3, 10):
            closed = monomial_moment(meas, [k])
            oracle = disk_moment_quad_oracle(k, r)
            assert closed == pytest.approx(oracle, rel=1e-12)
    # spec spot values
    assert monomial_moment(WeightedMeasure(DISK, 0.0), [0]) == pytest.approx(np.pi)
    assert monomial_moment(WeightedMeasure(DISK, 0.0), [1]) == pytest.approx(np.pi / 2)


def test_ball_volume_against_mc_oracle():
    meas = WeightedMeasure(BALL2, 0.0)
    vol = monomial_moment(meas, [0, 0])
    assert vol == pytest.approx(np.pi ** 2 / 2, rel=1e-13)
    est = monomial_moment_mc(meas, [0, 0], samples=400_000, seed=11)
    assert abs(est.value - vol) < 3 * est.stderr


def test_moment_argument_errors():
    meas = WeightedMeasure(DISK, 0.0)
    with pytest.raises(ParameterError):
        monomial_moment(meas, [0, 1])
    with pytest.raises(ParameterError):
        monomial_moment(meas, [-1])
    with pytest.raises(ParameterError):
        WeightedMeasure(DISK, -0.5)


def test_moments_decreasing_along_coordinate_chains():
    # adding one step to any coordinate strictly decreases the moment
    for meas in (WeightedMeasure(DISK, 0.0), WeightedMeasure(DISK, 1.5)):
        vals = [monomial_moment(meas, [k]) for k in range(41)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
    meas = WeightedMeasure(BALL2, 1.0)
    for alpha in ([0, 0], [3, 2], [10, 7], [20, 19]):
        base = monomial_moment(meas, alpha)
        for j in range(2):
            step = list(alpha)
            step[j] += 1
            assert monomial_moment(meas, step) < base


def test_polar_tensor_disk_exactness():
    # degree <= 2*order-1 polynomial moments against closed forms, 1e-12 relative
    for r in (0.0, 1.0, 2.5):
        meas = WeightedMeasure(DISK, r)
        rule = polar_tensor_rule(meas, radial_order=128, angular_order=256)
        assert rule.scheme is Scheme.POLAR_TENSOR
        assert np.all(rule.weights > 0)
        assert np.all(np.atleast_1d(DISK.rho(rule.nodes)) < 0)
        for k in (0, 1, 5, 40, 120):
            got = integrate(lambda z, k=k: np.abs(z[:, 0]) ** (2 * k), meas, rule)
            want = monomial_moment(meas, [k])
            assert abs(got.real - want) / want < 1e-12
            assert abs(got.imag) < 1e-14


def _polar_tensor_reference(measure, radial_order, angular_order):
    """(nodes, weights, negrho) of the polar tensor rule as built before it
    kept its radial and torus factors: one broadcast product per coordinate,
    on the n = 1 Gauss-Jacobi grid or the n = 2 Duffy grid t1 = u1,
    t2 = (1-u1) u2."""
    from berezin_lab.quadrature import _jac01
    q = np.asarray(measure.domain.exponents, dtype=float)
    r = measure.r
    theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
    if len(q) == 1:
        t, wt = _jac01(radial_order, r, 2.0 / q[0] - 1.0)
        nodes = ((t ** (1.0 / q[0]))[:, None] * np.exp(1j * theta)[None, :]).reshape(-1, 1)
        base = wt / q[0] / (1.0 - t) ** r * (2.0 * np.pi / angular_order)
        return (nodes, np.repeat(base, angular_order), np.repeat(1.0 - t, angular_order))
    u1, w1 = _jac01(radial_order, 2.0 / q[1] + r, 2.0 / q[0] - 1.0)
    u2, w2 = _jac01(radial_order, r, 2.0 / q[1] - 1.0)
    t1 = np.repeat(u1, radial_order)
    t2 = (1.0 - t1) * np.tile(u2, radial_order)
    negrho = (1.0 - t1) * (1.0 - np.tile(u2, radial_order))
    wr = np.outer(w1, w2).ravel() / (q[0] * q[1]) / negrho ** r
    phase = np.exp(1j * theta)
    shape = (len(t1), angular_order, angular_order)
    z1 = np.broadcast_to((t1 ** (1.0 / q[0]))[:, None, None] * phase[None, :, None], shape)
    z2 = np.broadcast_to((t2 ** (1.0 / q[1]))[:, None, None] * phase[None, None, :], shape)
    per = angular_order * angular_order
    return (np.stack([z1.ravel(), z2.ravel()], axis=1),
            np.repeat(wr * (2.0 * np.pi / angular_order) ** 2, per),
            np.repeat(negrho, per))


@pytest.mark.parametrize("dom,r,orders", [
    (DISK, 0.0, (32, 64)), (DISK, 1.5, (32, 64)), (DISK, 1.0, (7, 5)),
    (BALL2, 0.0, (6, 8)), (BALL2, 1.5, (5, 7))])
def test_polar_tensor_rule_nodes_are_its_radial_times_torus_factors(dom, r, orders):
    meas = WeightedMeasure(dom, r)
    rule = polar_tensor_rule(meas, *orders)
    nodes, weights, negrho = _polar_tensor_reference(meas, *orders)
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)
    assert np.array_equal(rule.negrho, negrho)
    radial, torus = rule.factors
    n = dom.dim
    assert radial.dtype == np.float64 and torus.dtype == np.complex128
    assert radial.shape == (len(rule) // orders[1] ** n, n)
    assert torus.shape == (orders[1] ** n, n)
    assert np.max(np.abs(np.abs(torus) - 1.0)) < 1e-15
    assert np.array_equal(rule.nodes.reshape(len(radial), len(torus), n),
                          radial[:, None, :] * torus[None, :, :])


def test_integrate_examples():
    meas0 = WeightedMeasure(DISK, 0.0)
    rule0 = polar_tensor_rule(meas0, radial_order=96)
    one = lambda z: np.ones(len(z))
    assert integrate(one, meas0, rule0).real == pytest.approx(np.pi, abs=1e-12)
    meas1 = WeightedMeasure(DISK, 1.0)
    rule1 = polar_tensor_rule(meas1, radial_order=96)
    assert integrate(one, meas1, rule1).real == pytest.approx(np.pi / 2, abs=1e-10)
    f = lambda z: np.abs(z[:, 0]) ** 2
    assert integrate(f, meas0, rule0).real == pytest.approx(np.pi / 2, abs=1e-10)


def test_integrate_linearity_and_positivity():
    meas = WeightedMeasure(DISK, 1.0)
    rule = polar_tensor_rule(meas, radial_order=64)
    f = lambda z: np.abs(z[:, 0]) ** 2
    g = lambda z: np.real(z[:, 0]) + 1.0
    lin = integrate(lambda z: 2 * f(z) + 3j * g(z), meas, rule)
    assert lin == pytest.approx(2 * integrate(f, meas, rule) + 3j * integrate(g, meas, rule))
    assert integrate(g, meas, rule).real > 0


def test_integrate_reports_bad_node():
    meas = WeightedMeasure(DISK, 0.0)
    rule = polar_tensor_rule(meas, radial_order=16)

    def bad(z):
        out = np.ones(len(z), dtype=complex)
        out[7] = np.nan
        return out

    with pytest.raises(NumericError) as err:
        integrate(bad, meas, rule)
    assert err.value.node is not None


def test_radial_rule_matches_full_rule_for_radial_integrands():
    meas = WeightedMeasure(make_domain("egg", m=2), 1.0)
    rad = radial_rule(meas, order=96)
    assert rad.scheme is Scheme.RADIAL
    f = lambda z: np.abs(z[:, 0]) ** 2 * np.abs(z[:, 1]) ** 4
    got = integrate(f, meas, rad)
    want = monomial_moment(meas, [1, 2])
    assert got.real == pytest.approx(want, rel=5e-6)


def test_radial_rule_nodes_are_its_duffy_factors():
    # stick-breaking: t_1 = u_1, t_j = u_j prod_{i<j} (1 - u_i), and -rho is
    # the stick left over, prod_j (1 - u_j)
    for dom in (DISK, make_domain("egg", m=2), BALL3, DISK_2_1):
        q = dom.exponents
        rule = radial_rule(WeightedMeasure(dom, 0.5), order=12)
        assert len(rule) == 12 ** dom.dim
        grid = np.meshgrid(*rule.factors, indexing="ij")
        stick = 1.0
        for j, u in enumerate(grid):
            assert np.array_equal(rule.nodes[:, j], ((stick * u) ** (1.0 / q[j])).ravel())
            stick = stick * (1.0 - u)
        assert np.array_equal(rule.negrho, stick.ravel())


@pytest.mark.parametrize("r", (0.0, 1.0))
def test_ball3_radial_rule_integrates_monomials_exactly(r):
    # |z^alpha|^2 on ball3 is a polynomial of degree |alpha| in each
    # stick-breaking level, so order 8 integrates |alpha| <= 15 exactly
    meas = WeightedMeasure(BALL3, r)
    rule = radial_rule(meas, order=8)
    assert rule.scheme is Scheme.RADIAL
    for alpha in ((0, 0, 0), (1, 0, 0), (0, 0, 2), (2, 3, 1), (5, 0, 4), (3, 7, 5)):
        got = integrate(lambda z, a=alpha: np.prod(np.abs(z) ** (2 * np.array(a)), axis=1),
                        meas, rule)
        want = monomial_moment(meas, alpha)
        assert abs(got.real - want) / want < 1e-12, alpha


def test_radial_rule_factors_are_read_only():
    rule = radial_rule(WeightedMeasure(DISK, 1.0), order=16)
    again = radial_rule(WeightedMeasure(DISK, 1.0), order=16)
    assert np.array_equal(rule.nodes, again.nodes)
    assert np.array_equal(rule.weights, again.weights)
    with pytest.raises(ValueError):
        rule.factors[0][0] = 0.5


def test_tensor_rules_refuse_what_they_cannot_hold_before_building():
    # order 160 in dimension 4 would be 6.6e8 nodes, about 42 GB of complex nodes
    with pytest.raises(ParameterError, match=r"^a tensor rule in dimension 4 would have "
                                             r"6\.55e\+08 nodes, more than 2e7"):
        radial_rule(WeightedMeasure(inflate(BALL2, 2, 1.0), 0.0), order=160)
    with pytest.raises(ParameterError, match=r"^a tensor rule in dimension 2 would have "
                                             r"2\.5e\+07 nodes"):
        polar_tensor_rule(WeightedMeasure(BALL2, 0.0), 100, 50)
    with pytest.raises(CapabilityError, match="^polar tensor rule supports n <= 2, got n = 3$"):
        polar_tensor_rule(WeightedMeasure(BALL3, 0.0), 4, 4)


def test_monte_carlo_rule_reproducible_and_interior():
    meas = WeightedMeasure(BALL2, 0.0)
    rule_a = monte_carlo_rule(meas, samples=200_000, seed=9)
    rule_b = monte_carlo_rule(meas, samples=200_000, seed=9)
    assert np.array_equal(rule_a.nodes, rule_b.nodes)
    assert rule_a.scheme is Scheme.MONTE_CARLO
    assert np.all(np.atleast_1d(BALL2.rho(rule_a.nodes)) < 0)
    vol = integrate(lambda z: np.ones(len(z)), meas, rule_a).real
    assert vol == pytest.approx(np.pi ** 2 / 2, rel=0.02)


def test_inflation_constant_closed_forms():
    assert inflation_constant(1, 1.0) == pytest.approx(np.pi, rel=1e-14)
    for p in (1, 2, 3):
        assert inflation_constant(p, float(p)) == pytest.approx(
            np.pi ** p / math.factorial(p), rel=1e-12)
    with pytest.raises(ParameterError):
        inflation_constant(1, 1.5)
    with pytest.raises(ParameterError):
        inflation_constant(2, 0.0)


def test_inflation_constant_mc_agreement_small():
    for p, r in ((1, 1.0), (2, 1.0), (2, 0.5)):
        cf = inflation_constant(p, r)
        est = inflation_constant_mc(p, r, samples=400_000, seed=42)
        assert abs(cf - est.value) < 3 * est.stderr


def test_inflation_constant_mc_bit_reproducible():
    a = inflation_constant_mc(2, 1.0, samples=300_000, seed=123)
    b = inflation_constant_mc(2, 1.0, samples=300_000, seed=123)
    assert a.value == b.value and a.stderr == b.stderr


def test_inflated_moment_mc_cross_check():
    # inflated Reinhardt moments (Dirichlet closed form) vs MC, once per (p, r)
    for p, r in ((1, 1.0), (2, 2.0)):
        infl = inflate(DISK, p, r)
        meas = WeightedMeasure(infl, 0.0)
        alpha = [1] + [1] * p
        closed = monomial_moment(meas, alpha)
        est = monomial_moment_mc(meas, alpha, samples=400_000, seed=21)
        assert abs(closed - est.value) < 4 * est.stderr


def _reference_hits(seed, samples, p, r, half):
    """Hit count of one rng.uniform draw of all samples (unblocked)."""
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, 2 * p)) / half
    return np.count_nonzero(
        np.sum((u[:, 0::2] ** 2 + u[:, 1::2] ** 2) ** (p / r), axis=1) < 1)


def test_mc_hit_counts_match_one_unblocked_draw():
    samples = 100_003                   # not a multiple of the draw block
    for p, r in ((1, 1.0), (2, 1.0), (2, 2.0), (3, 2.0), (2, 0.5)):
        est = inflation_constant_mc(p, r, samples=samples, seed=7)
        assert est.value == 4.0 ** p * (_reference_hits(7, samples, p, r, 1.0) / samples)
    chk = dilation_identity_check(DISK, 1, 1.0, [0.6], samples=samples, seed=7)
    s = -float(DISK.rho(np.array([0.6], dtype=complex)))
    half = s ** 0.5
    hits = _reference_hits(7, samples, 1, 1.0, half)
    assert chk.lhs == 4.0 * hits / samples
    rhs_hits = _reference_hits(8, samples, 1, 1.0, 1.0)
    assert chk.rhs == s * (4.0 * (rhs_hits / samples))


@pytest.mark.parametrize("seed,want", [
    (42, [7854324, 4845651, 3085059, 1782445, 5719696]),
    (7, [7852304, 4843672, 3085391, 1782391, 5716162]),
])
def test_criterion_3_hit_counts_are_pinned(seed, want):
    # the constants acceptance run's pairs at its 10^7 samples: a change to
    # the hit-count kernel must not move a single count
    pairs = [(1, 1.0), (2, 1.0), (2, 2.0), (3, 2.0), (2, 0.5)]
    assert quadrature.inflation_hits(pairs, 10_000_000, seed) == want


def test_dilation_identity_check():
    chk = dilation_identity_check(DISK, 1, 1.0, [0.0], samples=400_000, seed=42)
    assert chk.residual < 1e-2
    assert chk.rhs_closed_form == pytest.approx(np.pi, rel=1e-12)
    chk6 = dilation_identity_check(DISK, 1, 1.0, [0.6], samples=400_000, seed=42)
    assert chk6.rhs_closed_form == pytest.approx(0.64 * np.pi, rel=1e-12)
    assert chk6.lhs == pytest.approx(0.64 * np.pi, rel=1e-2)
    chk21 = dilation_identity_check(DISK, 2, 1.0, [0.0], samples=400_000, seed=42)
    assert chk21.rhs_closed_form == pytest.approx(inflation_constant(2, 1.0), rel=1e-12)
    with pytest.raises(BoundaryError):
        dilation_identity_check(DISK, 1, 1.0, [1.5])


def test_dilation_identity_check_counts_a_fiber_that_scales_with_z():
    # drawn on a box that scaled with the fiber, lhs / s^r would be the same
    # count at every z; on the unit box the fiber's share of it moves with z
    ratios = [dilation_identity_check(DISK, 1, 1.0, [z], samples=400_000, seed=42).lhs
              / (1.0 - z * z) for z in (0.0, 0.6)]
    assert ratios[1] != pytest.approx(ratios[0], rel=1e-9)
    assert ratios == pytest.approx([np.pi] * 2, rel=1e-2)


def test_dilation_identity_check_refuses_a_fiber_wider_than_the_unit_box():
    class Wide:
        name = "wide"

        def rho(self, z):
            return -2.0

    with pytest.raises(ParameterError, match="unit box"):
        dilation_identity_check(Wide(), 1, 1.0, [0.0], samples=1000)


def test_total_mass_positive():
    for dom, r in ((DISK, 0.0), (DISK, 2.0), (BALL2, 1.0),
                   (make_domain("egg", m=3), 0.5)):
        assert WeightedMeasure(dom, r).total_mass() > 0


def _catalog_jacobi_pairs():
    """The (a, b) of every 1-D Gauss-Jacobi factor the rules build for the
    disk, ball2, ball3, egg m in {2, 3}, the smoothed polydisk and the disk
    inflated with p = 2, r = 1, at r in {0, 0.5, 1, 2}: one stick-breaking
    level j per coordinate, (r + sum_{i>j} a_i, a_j - 1) with a_j = 2/q_j
    (see ``_stick_breaking``)."""
    pairs = set()
    for dom in (DISK, BALL2, BALL3, make_domain("egg", m=2), make_domain("egg", m=3),
                make_domain("smoothed_polydisk"), DISK_2_1):
        a = 2.0 / np.asarray(dom.exponents, dtype=float)
        for r in (0.0, 0.5, 1.0, 2.0):
            pairs.update((r + float(np.sum(a[j + 1:])), a[j] - 1.0) for j in range(len(a)))
    return sorted(pairs)


@pytest.mark.parametrize("n", (8, 32, 128, 160, 256, 320))
def test_golub_welsch_rule_matches_the_scipy_seeded_rule(n):
    from scipy.special import roots_jacobi
    from berezin_lab.quadrature import _jac01, _jacobi_recurrence, _polished_rule
    for a, b in _catalog_jacobi_pairs():
        u, w = _jac01.__wrapped__(n, a, b)
        alpha, beta = _jacobi_recurrence(n + 1, a, b)
        u_ref, w_ref = _polished_rule(roots_jacobi(n, a, b)[0], alpha, np.sqrt(beta), a, b)
        assert np.all(np.abs(u - u_ref) <= 4e-15 * u_ref), (a, b)
        assert np.all(np.abs(w - w_ref) <= 4e-15 * w_ref), (a, b)


def test_lgamma_matches_scipy_gammaln():
    from scipy.special import gammaln
    from berezin_lab.quadrature import _lgamma
    v = np.concatenate([np.geomspace(1e-6, 1000.0, 4000), np.arange(1, 1001) / 2.0])
    ref = gammaln(v)
    got = _lgamma(v.reshape(-1, 2))
    assert got.shape == (len(v) // 2, 2)
    assert np.all(np.abs(got.ravel() - ref) <= 4e-15 * np.maximum(1.0, np.abs(ref)))
    # the array path evaluates each distinct value once, as the scalar path does
    assert np.array_equal(got.ravel(), [_lgamma(x) for x in v])
    assert _lgamma(2.5) == math.lgamma(2.5)


def test_lgamma_is_exact_at_whole_numbers_and_raises_past_overflow():
    # the disk and ball moments take log Gamma at whole numbers, where
    # math.lgamma is a few ulp off; log((k-1)!) is correctly rounded there
    from berezin_lab.quadrature import _lgamma
    k = np.arange(1, 172)
    assert _lgamma(3.0) == math.log(2.0)
    assert np.array_equal(_lgamma(k.astype(float)),
                          [math.log(math.factorial(j - 1)) for j in k])
    assert inflation_constant(2, 2.0) == np.pi ** 2 / 2
    for bad in (1e306, math.inf, math.nan):
        with pytest.raises(ParameterError, match="log Gamma"):
            _lgamma(bad)
        with pytest.raises(ParameterError, match="log Gamma"):
            _lgamma(np.array([2.0, bad]))


@pytest.mark.parametrize("values", [
    [1.0, 171.0, 172.0, 0.5, 2.5, 1e5],
    [172.0, 1.0, 1.0, 2.5, 171.0, 1e5, 0.5, 3.0],
    [[0.5, 171.0], [1e5, 1.0]],
    [2.0, 5.0, 171.0],          # whole numbers only: the table alone
    [0.5, 172.0, 1e5],          # none of them: math.lgamma alone
])
def test_lgamma_array_path_equals_scalar_path_bitwise(values):
    # whole numbers up to 171 come from the table by one take, the rest from
    # math.lgamma; either way each entry is the scalar path's float
    from berezin_lab.quadrature import _lgamma
    x = np.array(values)
    got = _lgamma(x)
    assert got.shape == x.shape and got.dtype == np.float64
    want = np.array([_lgamma(v) for v in x.ravel()]).reshape(x.shape)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_log_moments_rows_do_not_depend_on_the_other_rows():
    # the shift form computes log m_{alpha+gamma} once for every alpha of a
    # space and reads the rows it needs
    from berezin_lab.bergman import multiindices
    from berezin_lab.quadrature import log_monomial_moments
    alphas = multiindices(2, 12) + np.array([1, 2])
    cols = np.arange(0, len(alphas), 3)
    for dom in (BALL2, make_domain("egg", m=3)):
        meas = WeightedMeasure(dom, 0.5)
        whole = log_monomial_moments(meas, alphas)
        assert np.array_equal(whole[cols], log_monomial_moments(meas, alphas[cols]))


def test_log_moments_leave_numpy_ma_unimported():
    # numpy.ma costs about 1 MB of RSS; np.unique without an inverse imports
    # it (numpy 2.4), so the non-integer moment arguments of the smoothed
    # polydisk must not reach that form
    code = ("import sys; import numpy as np; from berezin_lab import make_domain, "
            "WeightedMeasure; from berezin_lab.bergman import multiindices; "
            "from berezin_lab.quadrature import log_monomial_moments as lm; "
            "v = lm(WeightedMeasure(make_domain('smoothed_polydisk'), 0.5), "
            "multiindices(2, 6)); assert np.isfinite(v).all(); "
            "print('numpy.ma' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
