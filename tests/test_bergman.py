import hashlib
import itertools
import time

import numpy as np
import pytest

from berezin_lab import (
    WeightedMeasure,
    build_space,
    diagonal_comparability_check,
    dilation_identity_check,
    inflate,
    inflation_constant,
    inflation_constant_mc,
    kernel_mass_outside,
    make_domain,
    monte_carlo_rule,
    multiindices,
    polar_tensor_rule,
    radial_rule,
    slice_inequality_check,
)
from berezin_lab import _accel, labcli
from berezin_lab.bergman import (WeightedSpace, build_inflated_space,
                                 inflation_kernel_residuals)
from berezin_lab.quadrature import measure_node_weights
from berezin_lab.errors import BoundaryError, ParameterError

DISK = make_domain("disk")
BALL2 = make_domain("ball", n=2)
EGG2 = make_domain("egg", m=2)


def disk_space(r, n):
    return build_space(WeightedMeasure(DISK, r), n)


def closed_disk_kernel(r):
    return lambda z, w: (r + 1) / np.pi * (1 - z * np.conj(w)) ** (-(r + 2.0))


def test_disk_basis_normalizers():
    sp = disk_space(0.0, 8)
    # e_k = sqrt((k+1)/pi) z^k
    for k in range(9):
        assert sp.coeffs[k].real == pytest.approx(np.sqrt((k + 1) / np.pi))
    assert sp.gram_residual < 1e-10


def _dense_normalizer_rows(coeffs, rows):
    """Rows ``rows`` of the dense matrix diag(coeffs)."""
    block = np.zeros((len(rows), len(coeffs)), dtype=np.complex128)
    block[np.arange(len(rows)), rows] = coeffs[rows]
    return block


def _row_blocks(size, step=512):
    return [np.arange(i, min(i + step, size)) for i in range(0, size, step)]


def _dense_basis_values(sp, pts):
    """diag(coeffs) @ monomials, a block of rows at a time (each entry is one
    nonzero product plus exact zeros, so blocking cannot change it)."""
    mon = _accel.monomial_matrix(pts, sp.alphas)
    return np.vstack([_dense_normalizer_rows(sp.coeffs, rows) @ mon
                      for rows in _row_blocks(sp.size)])


def _dense_eval_series(sp, v, pts):
    """series_values of v @ diag(coeffs), a block of columns at a time."""
    mono = np.concatenate([v @ _dense_normalizer_rows(sp.coeffs, cols).T
                           for cols in _row_blocks(sp.size)])
    return _accel.series_values(pts, sp.alphas, mono)


def _closed_moment_spaces():
    yield disk_space(1.0, 40), np.array([[0.3 + 0.4j], [-0.5], [-0.7 - 0.0j], [0.0]])
    yield (build_space(WeightedMeasure(make_domain("ball", n=2), 1.0), 16),
           np.array([[0.2 - 0.3j, 0.4j], [-0.5, -0.3], [-0.6, 0.0], [0.1, -0.2 + 0.1j]]))
    # crit 2.1: the inflated space of the disk with r = 2, p = 2 (B = 6545)
    infl = build_inflated_space(disk_space(2.0, 32), 2)
    assert infl.size == 6545
    yield infl, np.array([[0.4, 0.0, 0.0], [-0.4, 0.0, 0.0], [-0.2 + 0.3j, 0.0, 0.0],
                          [0.1j, -0.3, 0.2 - 0.1j]])


def test_normalizer_vector_matches_dense_form_exactly():
    rng = np.random.default_rng(5)
    for sp, pts in _closed_moment_spaces():
        assert sp.coeffs.shape == (sp.size,)
        assert sp.coeffs.dtype == np.complex128
        assert np.array_equal(sp.basis_values(pts), _dense_basis_values(sp, pts))
        v = rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size)
        assert np.array_equal(sp.eval_series(v, pts), _dense_eval_series(sp, v, pts))


def test_multiindex_count_egg():
    sp = build_space(WeightedMeasure(EGG2, 0.0), 6)
    assert sp.size == 28
    assert sp.gram_residual < 1e-10


def test_kernel_closed_form_ray_grid():
    for r in (0.0, 1.0):
        sp = disk_space(r, 64)
        closed = closed_disk_kernel(r)
        ts = 0.8 * np.arange(10) / 9
        phase = np.exp(0.3j)
        worst = 0.0
        for tz in ts:
            for tw in ts:
                z, w = tz * phase, tw * phase
                kc = closed(z, w)
                worst = max(worst, abs(sp.kernel([z], [w]) - kc) / abs(kc))
        assert worst < 1e-8


def test_kernel_at_zero():
    assert disk_space(0.0, 16).kernel([0.0], [0.0]) == pytest.approx(1 / np.pi)


def test_kernel_hermitian_symmetry_to_machine_rounding():
    sp = build_space(WeightedMeasure(EGG2, 0.5), 10)
    rng = np.random.default_rng(12)
    for _ in range(100):
        z = 0.6 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        w = 0.6 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        a = sp.kernel(z, w)
        b = np.conj(sp.kernel(w, z))
        # a few ulp: numpy's vectorized complex multiply rounds the two
        # cross products asymmetrically (FMA), so bitwise equality is not
        # available even though the arithmetic is symmetric
        assert abs(a - b) <= 1e-14 * max(abs(a), 1.0)


def test_kernel_diag_monotone_in_truncation():
    vals = [disk_space(1.0, n).kernel([0.7], [0.7]).real for n in range(4, 40, 4)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_kernel_truncation_geometric_decay():
    closed = closed_disk_kernel(0.0)(0.8, 0.8)
    errs = []
    for n in (8, 16, 24, 32, 40):
        errs.append(abs(disk_space(0.0, n).kernel([0.8], [0.8]) - closed))
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    assert all(r < 0.2 for r in ratios)   # |z w| = 0.64 per extra degree block


def _unblocked_kernel(sp, zs, ws):
    """The one-table kernel sum, with numpy's own operand order (the
    conjugate temporary is elided from 256 KiB)."""
    ez = sp.basis_values(zs)
    ew = sp.basis_values(ws)
    return np.sum(ez * np.conj(ew), axis=0)


def _random_points(m, n, scale, seed):
    rng = np.random.default_rng(seed)
    return scale * (rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n)))


def test_kernel_blocks_keep_the_bits_of_the_one_table_sum():
    # crit 2.1's space: B = 6545, so a block holds 10 points at the budget,
    # and 2 * 10 + 1 points would leave a lone last point (blocks 10, 9, 2)
    infl = build_inflated_space(disk_space(2.0, 32), 2)
    width = _accel.BLOCK_ENTRIES // infl.size
    zs = _random_points(2 * width + 1, 3, 0.3, 20)
    ws = _random_points(2 * width + 1, 3, 0.3, 21)
    assert np.array_equal(infl.kernel(zs, ws), _unblocked_kernel(infl, zs, ws))
    assert infl.kernel(zs[0], ws[0]) == complex(_unblocked_kernel(infl, zs[:1], ws[:1])[0])


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 9, 10])
def test_kernel_small_blocks_keep_the_bits_of_the_one_table_sum(monkeypatch, m):
    # below 256 KiB numpy keeps ez * conj(ew) in order; blocks of 4 points
    sp = disk_space(1.0, 64)
    monkeypatch.setattr(_accel, "BLOCK_ENTRIES", 4 * sp.size)
    zs, ws = _random_points(m, 1, 0.6, 22), _random_points(m, 1, 0.6, 23)
    assert np.array_equal(sp.kernel(zs, ws), _unblocked_kernel(sp, zs, ws))


@pytest.mark.parametrize("w_shape", [(2, 1), (1, 1)])
def test_kernel_refuses_points_it_cannot_pair(w_shape):
    sp = disk_space(0.0, 8)
    with pytest.raises(ParameterError, match=rf"got points of shape \(3, 1\) and "
                                             rf"\({w_shape[0]}, 1\)"):
        sp.kernel(np.full((3, 1), 0.5), np.full(w_shape, 0.2))


_C1 = {"domain": {"name": "disk"}, "N": 64, "grid_points": 10, "radius": 0.8,
       "phase": 0.3, "tolerance": 1e-8}
_C2 = {"domain": {"name": "disk"}, "grid_points": 8, "radius": 0.6, "phase": 0.2}
# sha256 of the repr of every kernel value the criterion 1 and 2 runs
# compute, taken before kernel evaluated its points in blocks
_KERNEL_DIGESTS = {
    "c1-r0": ("kernel-check", dict(_C1, r=0.0),
              "1a3db9096a1f74ced77b8f7ecdc1d8205e78fbb817a68f4c410862331f232472"),
    "c1-r1": ("kernel-check", dict(_C1, r=1.0),
              "302ecfb147ae999a07d253f08f3732ca54024a3e745a42a60fe7571dfcf34ddc"),
    "c1-r2": ("kernel-check", dict(_C1, r=2.0),
              "34d0d6c10206b6e836a899afcc84faeeeb1cd684d8615cfadc45103ff9769615"),
    "c2-p1": ("inflation-check", dict(_C2, r=1.0, p=1, N=48, tolerance=1e-8),
              "dc25a0a1f81de7156917b20f11dd93c98e985d4ac65156f9172f8ac575190fc1"),
    "c2-p2": ("inflation-check", dict(_C2, r=2.0, p=2, N=32, tolerance=1e-6),
              "b94e789de08ad061de9084c4fd7f4127b7dc52467332c08dc61bfb369801d09b"),
}


@pytest.mark.parametrize("label", sorted(_KERNEL_DIGESTS))
def test_criteria_1_and_2_kernel_values_keep_their_bits(monkeypatch, label):
    experiment, config, digest = _KERNEL_DIGESTS[label]
    values = []
    kernel = WeightedSpace.kernel

    def spy(self, z, w):
        values.append(kernel(self, z, w))
        return values[-1]

    monkeypatch.setattr(WeightedSpace, "kernel", spy)
    labcli.run(experiment, config, write=False)
    text = "\n".join(repr(complex(k)) for ks in values for k in ks)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_inflated_kernel_of_criterion_2_stays_within_10_mb_traced(traced_peak):
    # three 6545 x 64 complex tables at once were 20.7 MB
    experiment, config, _ = _KERNEL_DIGESTS["c2-p2"]
    labcli.run(experiment, config, write=False)
    report, peak = traced_peak(lambda: labcli.run(experiment, config, write=False))
    assert report.verdicts["pass"]
    assert peak <= 10e6


_C6 = {"domain": {"name": "disk"}, "r": 0.0, "N": 192, "symbol": "1",
       "point": [1.0, 0.0], "t_grid": [0.95, 0.99],
       "mass_outside": {"center": [1.0, 0.0], "radius": 0.3, "quad_order": 256,
                        "tolerance": 0.1}}


def test_criterion_6_off_mass_keeps_its_bits_within_13_mb_traced(traced_peak):
    # both points' 131,072-node |k_z|^2 at once were 16.1 MB
    labcli.run("berezin-profile", _C6, write=False)
    report, peak = traced_peak(lambda: labcli.run("berezin-profile", _C6, write=False))
    masses = [repr(row[1]) for row in report.tables["mass_outside"].rows]
    assert masses == ["0.03751089950513965", "0.0038025289006614763"]
    assert peak <= 13e6


def test_normalized_kernel_unit_norm_and_center():
    sp = disk_space(0.0, 24)
    for z in ([0.3], [0.8j], [-0.5 + 0.4j]):
        v = sp.normalized_kernel(z)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    v0 = sp.normalized_kernel([0.0])
    assert v0[0] == pytest.approx(1.0)
    assert np.max(np.abs(v0[1:])) < 1e-15


def test_mass_concentration_near_peak_point():
    # off-neighborhood mass of |k_z|^2 shrinks as z approaches the peak point
    sp = disk_space(0.0, 192)
    rule = polar_tensor_rule(sp.measure, radial_order=192, angular_order=384)
    m95 = kernel_mass_outside(sp, [0.95], [1.0], 0.3, rule)
    m99 = kernel_mass_outside(sp, [0.99], [1.0], 0.3, rule)
    assert m99 < m95 < 0.2
    assert m99 < 0.1


def test_kernel_mass_outside_batched_equals_per_point():
    sp = disk_space(0.0, 48)
    # 128 radii x 256 torus points: 4 x 128 series rows at the torus points
    rule = polar_tensor_rule(sp.measure, radial_order=128, angular_order=256)
    pts = np.array([[0.5], [0.9j], [-0.7 + 0.2j], [0.95]])
    batched = kernel_mass_outside(sp, pts, [1.0], 0.3, rule)
    single = [kernel_mass_outside(sp, z, [1.0], 0.3, rule) for z in pts]
    assert all(type(m) is float for m in single)
    assert batched.shape == (4,)
    assert list(batched) == single


@pytest.mark.parametrize("dom,N,orders,pts,center", [
    (DISK, 48, (64, 128), [[0.5], [0.9j], [0.95]], [1.0]),
    (BALL2, 6, (6, 10), [[0.5, 0.3j], [0.0, 0.0]], [0.6, 0.0])])
def test_kernel_mass_outside_blocks_move_no_bits(monkeypatch, dom, N, orders, pts,
                                                 center):
    sp = build_space(WeightedMeasure(dom, 0.0), N)
    rule = polar_tensor_rule(sp.measure, *orders)
    pts = np.array(pts, dtype=np.complex128)
    whole = kernel_mass_outside(sp, pts, center, 0.5, rule)
    # blocks of 5 radii, the last one short, and of 5 radii's nodes
    monkeypatch.setattr(_accel, "BLOCK_ENTRIES", 5 * len(rule.factors[1]) + 1)
    assert list(kernel_mass_outside(sp, pts, center, 0.5, rule)) == list(whole)


def _direct_mass_outside(sp, z, center, radius, rule):
    """sum w |k_z|^2 over the rule nodes outside the ball, each node's
    series evaluated at the node itself."""
    v = sp.normalized_kernel(z)
    dens = np.abs(sp.eval_series(v, rule.nodes)) ** 2
    w = measure_node_weights(sp.measure, rule)
    outside = np.linalg.norm(rule.nodes - np.asarray(center)[None, :], axis=1) >= radius
    return np.sum(w * dens * outside, axis=-1)


@pytest.mark.parametrize("dom,r,N,orders,pts,center", [
    (DISK, 0.0, 48, (64, 128), [[0.5], [0.9j], [-0.7 + 0.2j], [0.95]], [1.0]),
    (DISK, 1.0, 48, (64, 128), [[0.5], [0.9j], [-0.7 + 0.2j], [0.95]], [1.0]),
    (DISK, 2.0, 48, (64, 128), [[0.5], [0.9j], [-0.7 + 0.2j], [0.95]], [1.0]),
    (BALL2, 0.5, 6, (6, 10), [[0.5, 0.3j], [-0.2, 0.7], [0.0, 0.0]], [0.6, 0.0])])
def test_kernel_mass_outside_matches_the_direct_sum_over_nodes(dom, r, N, orders,
                                                               pts, center):
    sp = build_space(WeightedMeasure(dom, r), N)
    rule = polar_tensor_rule(sp.measure, *orders)
    pts = np.array(pts, dtype=np.complex128)
    got = kernel_mass_outside(sp, pts, center, 0.5, rule)
    want = _direct_mass_outside(sp, pts, center, 0.5, rule)
    assert np.all(want > 0)
    assert np.max(np.abs(got - want) / want) < 1e-13


def test_kernel_mass_outside_evaluates_per_radius_at_the_torus_points(monkeypatch):
    # the c6 criterion's size: N = 192, 256 radii x 512 torus points, 2 points;
    # one torus table per point and block of radii, never a basis x nodes
    # table (131,072 nodes)
    sp = disk_space(0.0, 192)
    rule = polar_tensor_rule(sp.measure, radial_order=256, angular_order=512)
    entries = []
    build = _accel.monomial_matrix

    def spy(points, alphas):
        out = build(points, alphas)
        entries.append(out.size)
        return out

    monkeypatch.setattr(_accel, "monomial_matrix", spy)
    kernel_mass_outside(sp, np.array([[0.95], [0.99]]), [1.0], 0.3, rule)
    blocks = -(-256 // (_accel.BLOCK_ENTRIES // 512))
    assert sum(entries) <= (2 * blocks * 512 + 256 + 2) * sp.size


def test_kernel_mass_outside_refuses_rules_it_cannot_factor():
    sp = disk_space(0.0, 8)
    # a Radial rule's nodes lie on the real-positive section, where |k_z|^2
    # is not torus-invariant
    for rule in (monte_carlo_rule(sp.measure, samples=2_000, seed=3),
                 radial_rule(sp.measure, order=64)):
        with pytest.raises(ParameterError, match="needs a PolarTensor rule, "
                                                 f"got a {rule.scheme.value} rule"):
            kernel_mass_outside(sp, [0.5], [1.0], 0.3, rule)


@pytest.mark.parametrize("N", [48, 49])
def test_polar_rule_sums_the_whole_kernel_mass_from_order_half_n(N):
    # the whole-domain mass of |k_z|^2 is 1; the rule sums it exactly iff
    # 2 order - 1 >= N, the bound the CLI holds mass_outside.quad_order to
    sp = disk_space(0.0, N)
    pts = np.array([[0.0], [0.9]])
    need = N // 2 + 1
    for order, exact in ((need, True), (need - 1, False)):
        rule = polar_tensor_rule(sp.measure, radial_order=order,
                                 angular_order=2 * order)
        err = np.abs(kernel_mass_outside(sp, pts, [0.0], 0.0, rule) - 1.0)
        assert (np.max(err) < 1e-13) == exact


def test_kernel_mass_outside_rejects_points_outside_the_domain():
    sp = disk_space(0.0, 16)
    rule = polar_tensor_rule(sp.measure, radial_order=32, angular_order=64)
    kernel_mass_outside(sp, [1.0], [1.0], 0.3, rule)        # boundary point: allowed
    # the last three overflow rho and its tolerance to inf, without a warning
    for z in (1.0 + 1e-6, np.inf, np.nan, complex(0.0, np.inf), 1e308, 1e200 + 1e200j,
              -1e160):
        with pytest.raises(BoundaryError, match="outside disk"):
            kernel_mass_outside(sp, [z], [1.0], 0.3, rule)


@pytest.mark.parametrize("p,r", [(1.5, 1.0), (0, 0.5), (1, 1.5), (2, 0.0)])
def test_every_inflation_entry_point_checks_p_and_r_alike(p, r):
    sp = disk_space(r, 8)
    calls = [lambda: inflation_constant(p, r),
             lambda: inflation_constant_mc(p, r, samples=100),
             lambda: dilation_identity_check(DISK, p, r, [0.2], samples=100),
             lambda: inflate(DISK, p, r),
             lambda: build_inflated_space(sp, p),
             lambda: inflation_kernel_residuals(sp, p, [0.2], [0.2]),
             lambda: slice_inequality_check(sp, p, lambda z, w: np.ones(len(w)), [0.2])]
    for call in calls:
        with pytest.raises(ParameterError,
                           match=r"inflation needs an integer p >= 1 and 0 < r <= p"):
            call()


def _project(space, f, rule):
    """Quadrature Bergman projection: the coefficients <f, e_b> in the basis."""
    vals = np.asarray(f(rule.nodes), dtype=np.complex128)
    w = measure_node_weights(space.measure, rule)
    return np.conj(space.basis_values(rule.nodes)) @ (w * vals)


def test_reproducing_property_via_quadrature():
    for r in (0.0, 1.0):
        sp = disk_space(r, 24)
        rule = polar_tensor_rule(sp.measure, radial_order=96)
        for z in ([0.4], [0.7 - 0.3j]):
            z = np.asarray(z, dtype=complex)
            kz = lambda w: sp.eval_series(
                np.conj(sp.basis_values(z.reshape(1, -1))[:, 0]), w)
            coeffs = _project(sp, kz, rule)
            # <K(., z), e_a> = conj(e_a(z))
            want = np.conj(sp.basis_values(z.reshape(1, -1))[:, 0])
            assert np.max(np.abs(coeffs - want)) < 1e-9


@pytest.mark.parametrize("r,p,N,z,xi,tol", [
    (1.0, 1, 48, [0.0], [0.0], 1e-10),
    (1.0, 1, 48, [0.5], [0.3], 1e-8),
    (2.0, 2, 32, [0.4], [0.4], 1e-6),
])
def test_inflation_kernel_residuals_examples(r, p, N, z, xi, tol):
    sp = disk_space(r, N)
    res, kb, ki = inflation_kernel_residuals(sp, p, [z, [0.0]], [xi, [0.0]])
    assert res.shape == kb.shape == ki.shape == (2,)
    assert res[0] < tol and res[1] < 1e-10
    # K^r(0, 0) on the disk is (r + 1) / pi
    assert kb[1] == pytest.approx((r + 1.0) / np.pi)
    assert kb[0] == pytest.approx(sp.kernel(z, xi))
    assert ki[0] == pytest.approx(inflation_kernel_residuals(sp, p, z, xi)[2][0],
                                  rel=1e-13)


def test_slice_inequality():
    sp = disk_space(1.0, 16)
    const = lambda z, w: np.ones(len(w))
    chk = slice_inequality_check(sp, 1, const, [0.0])
    assert abs(chk.margin) < 1e-10
    lin = lambda z, w: w[:, 0]
    chk = slice_inequality_check(sp, 1, lin, [0.0])
    assert chk.lhs == 0.0 and chk.margin > 0
    aff = lambda z, w: 1.0 + w[:, 0]
    chk = slice_inequality_check(sp, 1, aff, [0.2])
    assert chk.margin >= 0
    assert chk.margin == pytest.approx(0.48, abs=1e-8)
    with pytest.raises(BoundaryError):
        slice_inequality_check(sp, 1, const, [1.2])


def test_comparability_identical_and_scaled():
    sp = disk_space(1.0, 32)
    samples = [[0.1 * k] for k in range(1, 9)]
    chk = diagonal_comparability_check(sp, sp, samples, c=1.0)
    assert chk.ratio_min == pytest.approx(1.0) and chk.ratio_max == pytest.approx(1.0)
    # doubling the measure halves the kernel: basis scales by 1/sqrt(2)
    doubled = WeightedSpace(sp.measure, sp.N, sp.alphas,
                            sp.coeffs / np.sqrt(2.0), sp.gram_residual,
                            log_moments=sp.log_moments)
    chk = diagonal_comparability_check(sp, doubled, samples, c=2.0)
    assert chk.ratio_min == pytest.approx(0.5) and chk.ratio_max == pytest.approx(0.5)
    assert chk.within_weight_bounds and chk.within_kernel_bounds


def test_comparability_disk_weights():
    # weights (1-|z|^2) and (1-|z|) are comparable with c = 2
    sp1 = build_space(WeightedMeasure(make_domain("ellipsoid", exponents=[2.0]), 1.0), 128)
    sp2 = build_space(WeightedMeasure(make_domain("ellipsoid", exponents=[1.0]), 1.0), 128)
    samples = [[0.95 * k / 19] for k in range(20)]
    chk = diagonal_comparability_check(sp1, sp2, samples, c=2.0)
    assert chk.within_weight_bounds
    assert 1.0 - 1e-9 <= chk.ratio_min and chk.ratio_max <= 2.0


def test_multiindices_ordering():
    mi = multiindices(2, 3)
    assert len(mi) == 10
    degs = mi.sum(axis=1)
    assert all(a <= b for a, b in zip(degs, degs[1:]))


def _multiindices_by_sorting(dim, max_degree):
    """The earlier definition: every combination counted out, then sorted by
    (degree, multiindex)."""
    out = []
    for deg in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(dim), deg):
            alpha = [0] * dim
            for j in combo:
                alpha[j] += 1
            out.append(alpha)
    return np.array(sorted(out, key=lambda a: (sum(a), a)), dtype=np.int64)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("max_degree", [0, 1, 2, 5, 9])
def test_multiindices_equal_the_sorted_combinations(dim, max_degree):
    got = multiindices(dim, max_degree)
    assert got.dtype == np.int64
    assert np.array_equal(got, _multiindices_by_sorting(dim, max_degree))


def test_multiindices_at_the_largest_disk_degree_the_budget_admits_are_quick():
    # linear in the basis size: the quadratic count took seconds here
    t0 = time.perf_counter()
    mi = multiindices(1, 11576)
    assert time.perf_counter() - t0 < 0.1
    assert np.array_equal(mi[:, 0], np.arange(11577))
