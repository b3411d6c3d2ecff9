import numpy as np
import pytest

from berezin_lab import (
    CustomDomain,
    KernelEvaluator,
    Symbol,
    WeightedMeasure,
    build_space,
    diagonal_comparability_check,
    inflation_kernel_check,
    kernel_mass_outside,
    make_domain,
    monte_carlo_rule,
    multiindices,
    polar_tensor_rule,
    project,
    slice_inequality_check,
    toeplitz,
)
from berezin_lab import _accel, operators
from berezin_lab.bergman import WeightedSpace, build_inflated_space
from berezin_lab.errors import (BoundaryError, CapabilityError,
                                ConditioningError, ParameterError)

DISK = make_domain("disk")
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
        assert sp.normalized_monomials and sp.coeffs.shape == (sp.size,)
        assert sp.coeffs.dtype == np.complex128
        assert np.array_equal(sp.basis_values(pts), _dense_basis_values(sp, pts))
        v = rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size)
        assert np.array_equal(sp.eval_series(v, pts), _dense_eval_series(sp, v, pts))


def test_plugin_space_keeps_matrix_and_quadrature_toeplitz(monkeypatch):
    custom = CustomDomain(
        "custom-disk", 1,
        rho=lambda z: np.abs(np.atleast_2d(z)[:, 0]) ** 2 - 1.0
        if np.ndim(z) > 1 else float(np.abs(z[0]) ** 2 - 1.0),
        grad_rho=lambda z: np.conj(z),
        hessian=lambda p, x, y: complex(np.sum(x * np.conj(y))))
    rule = polar_tensor_rule(WeightedMeasure(DISK, 0.0), radial_order=64)
    sp = build_space(WeightedMeasure(custom, 0.0), 8, rule=rule)
    assert sp.coeffs.shape == (sp.size, sp.size) and not sp.normalized_monomials
    calls = []
    quad = operators._toeplitz_quad

    def spy(space, sym, rule):
        calls.append(sym.text)
        return quad(space, sym, rule)

    monkeypatch.setattr(operators, "_toeplitz_quad", spy)
    for text in ("1", "z", "1-abs2(z)"):
        m = toeplitz(sp, Symbol.parse(text, 1), rule=rule).matrix
        assert m.shape == (sp.size, sp.size)
    assert calls == ["1", "z", "1-abs2(z)"]
    assert np.max(np.abs(toeplitz(sp, Symbol.parse("1", 1), rule=rule).matrix
                         - np.eye(sp.size))) < 1e-10


def test_multiindex_count_egg():
    sp = build_space(WeightedMeasure(EGG2, 0.0), 6)
    assert sp.size == 28
    assert sp.gram_residual < 1e-10


def test_kernel_closed_form_ray_grid():
    for r in (0.0, 1.0):
        sp = disk_space(r, 64)
        ev = KernelEvaluator(sp)
        closed = closed_disk_kernel(r)
        ts = 0.8 * np.arange(10) / 9
        phase = np.exp(0.3j)
        worst = 0.0
        for tz in ts:
            for tw in ts:
                z, w = tz * phase, tw * phase
                kc = closed(z, w)
                worst = max(worst, abs(ev.kernel([z], [w]) - kc) / abs(kc))
        assert worst < 1e-8


def test_kernel_at_zero():
    ev = KernelEvaluator(disk_space(0.0, 16))
    assert ev.kernel([0.0], [0.0]) == pytest.approx(1 / np.pi)


def test_kernel_hermitian_symmetry_to_machine_rounding():
    sp = build_space(WeightedMeasure(EGG2, 0.5), 10)
    ev = KernelEvaluator(sp)
    rng = np.random.default_rng(12)
    for _ in range(100):
        z = 0.6 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        w = 0.6 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        a = ev.kernel(z, w)
        b = np.conj(ev.kernel(w, z))
        # a few ulp: numpy's vectorized complex multiply rounds the two
        # cross products asymmetrically (FMA), so bitwise equality is not
        # available even though the arithmetic is symmetric
        assert abs(a - b) <= 1e-14 * max(abs(a), 1.0)


def test_kernel_diag_monotone_in_truncation():
    vals = [KernelEvaluator(disk_space(1.0, n)).kernel_diag([0.7]) for n in range(4, 40, 4)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_kernel_truncation_geometric_decay():
    closed = closed_disk_kernel(0.0)(0.8, 0.8)
    errs = []
    for n in (8, 16, 24, 32, 40):
        ev = KernelEvaluator(disk_space(0.0, n))
        errs.append(abs(ev.kernel([0.8], [0.8]) - closed))
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    assert all(r < 0.2 for r in ratios)   # |z w| = 0.64 per extra degree block


def test_normalized_kernel_unit_norm_and_center():
    sp = disk_space(0.0, 24)
    ev = KernelEvaluator(sp)
    for z in ([0.3], [0.8j], [-0.5 + 0.4j]):
        v = ev.normalized_kernel(z)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    v0 = ev.normalized_kernel([0.0])
    assert v0[0] == pytest.approx(1.0)
    assert np.max(np.abs(v0[1:])) < 1e-15


def test_mass_concentration_near_peak_point():
    # off-neighborhood mass of |k_z|^2 shrinks as z approaches the peak point
    sp = disk_space(0.0, 192)
    ev = KernelEvaluator(sp)
    rule = polar_tensor_rule(sp.measure, radial_order=192, angular_order=384)
    m95 = kernel_mass_outside(ev, [0.95], [1.0], 0.3, rule)
    m99 = kernel_mass_outside(ev, [0.99], [1.0], 0.3, rule)
    assert m99 < m95 < 0.2
    assert m99 < 0.1


def test_project_examples():
    sp = disk_space(0.0, 12)
    rule = polar_tensor_rule(sp.measure, radial_order=64)
    e2 = lambda w: sp.basis_values(w)[2]
    c = project(sp, e2, rule)
    assert abs(c[2] - 1.0) < 1e-10
    c[2] = 0.0
    assert np.max(np.abs(c)) < 1e-10

    conj_z = lambda w: np.conj(w[:, 0])
    assert np.max(np.abs(project(sp, conj_z, rule))) < 1e-10

    abs2 = lambda w: np.abs(w[:, 0]) ** 2
    c = project(sp, abs2, rule)
    # P(|z|^2) is the constant 1/2
    val_at_zero = sp.eval_series(c, np.array([[0.0 + 0j]]))[0]
    assert val_at_zero == pytest.approx(0.5, abs=1e-10)


def test_project_idempotent():
    sp = disk_space(1.0, 10)
    rule = polar_tensor_rule(sp.measure, radial_order=64)
    f = lambda w: np.exp(w[:, 0]) + np.conj(w[:, 0]) ** 2
    c1 = project(sp, f, rule)
    c2 = project(sp, lambda w: sp.eval_series(c1, w), rule)
    assert np.max(np.abs(c2 - c1)) < 1e-10


def test_reproducing_property_via_quadrature():
    for r in (0.0, 1.0):
        sp = disk_space(r, 24)
        rule = polar_tensor_rule(sp.measure, radial_order=96)
        ev = KernelEvaluator(sp)
        for z in ([0.4], [0.7 - 0.3j]):
            z = np.asarray(z, dtype=complex)
            kz = lambda w: ev.space.eval_series(
                np.conj(sp.basis_values(z.reshape(1, -1))[:, 0]), w)
            coeffs = project(sp, kz, rule)
            # <K(., z), e_a> = conj(e_a(z))
            want = np.conj(sp.basis_values(z.reshape(1, -1))[:, 0])
            assert np.max(np.abs(coeffs - want)) < 1e-9


def test_inflation_kernel_check_examples():
    sp1 = disk_space(1.0, 48)
    chk = inflation_kernel_check(sp1, 1, [0.0], [0.0])
    assert chk.base_value == pytest.approx(2 / np.pi)
    assert chk.residual < 1e-10
    chk = inflation_kernel_check(sp1, 1, [0.5], [0.3])
    assert chk.residual < 1e-8
    sp2 = disk_space(2.0, 32)
    chk = inflation_kernel_check(sp2, 2, [0.4], [0.4])
    assert chk.residual < 1e-6


def test_inflation_kernel_check_preconditions():
    sp0 = disk_space(0.0, 16)
    with pytest.raises(ParameterError):
        inflation_kernel_check(sp0, 1, [0.2], [0.2])   # r = 0 excluded
    sp1 = disk_space(1.0, 16)
    with pytest.raises(ParameterError):
        inflation_kernel_check(sp1, 0, [0.2], [0.2])
    with pytest.raises(BoundaryError):
        inflation_kernel_check(sp1, 1, [0.999], [0.2])


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


def test_gram_orthogonalized_space_matches_exact():
    # plug-in domain without closed moments: same unit disk via callables
    custom = CustomDomain(
        "custom-disk", 1,
        rho=lambda z: np.abs(np.atleast_2d(z)[:, 0]) ** 2 - 1.0
        if np.ndim(z) > 1 else float(np.abs(z[0]) ** 2 - 1.0),
        grad_rho=lambda z: np.conj(z),
        hessian=lambda p, x, y: complex(np.sum(x * np.conj(y))))
    exact = disk_space(0.0, 8)
    rule = polar_tensor_rule(exact.measure, radial_order=64)
    sp = build_space(WeightedMeasure(custom, 0.0), 8, rule=rule)
    assert sp.gram_residual < 1e-10
    ev = KernelEvaluator(sp)
    ev_exact = KernelEvaluator(exact)
    for z, w in (([0.3], [0.5]), ([0.2 + 0.4j], [-0.6j])):
        assert ev.kernel(z, w) == pytest.approx(ev_exact.kernel(z, w), rel=1e-10)


def test_gram_orthogonalization_conditioning_error():
    custom = CustomDomain(
        "custom-disk", 1,
        rho=lambda z: np.abs(np.atleast_2d(z)[:, 0]) ** 2 - 1.0
        if np.ndim(z) > 1 else float(np.abs(z[0]) ** 2 - 1.0),
        grad_rho=lambda z: np.conj(z),
        hessian=lambda p, x, y: complex(np.sum(x * np.conj(y))))
    rule = monte_carlo_rule(WeightedMeasure(DISK, 0.0), samples=8, seed=4)
    with pytest.raises(ConditioningError) as err:
        build_space(WeightedMeasure(custom, 0.0), 8, rule=rule)
    assert err.value.smallest_eigenvalue < 1e-12


def test_space_requires_rule_without_closed_moments():
    custom = CustomDomain("c", 1, rho=lambda z: -1.0, grad_rho=lambda z: z,
                          hessian=lambda p, x, y: 0.0)
    with pytest.raises(CapabilityError):
        build_space(WeightedMeasure(custom, 0.0), 4)


def test_multiindices_ordering():
    mi = multiindices(2, 3)
    assert len(mi) == 10
    degs = mi.sum(axis=1)
    assert all(a <= b for a, b in zip(degs, degs[1:]))
