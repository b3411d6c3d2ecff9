import numpy as np

from berezin_lab import _accel


def rand_points(m, n, seed=0):
    rng = np.random.default_rng(seed)
    return 0.8 * (rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n)))


def test_backend_name_valid():
    assert _accel.backend_name() == "numpy"


def test_monomial_matrix_against_direct_power():
    pts = rand_points(50, 2, seed=1)
    alphas = np.array([[0, 0], [1, 0], [0, 3], [2, 2], [5, 1]], dtype=np.int64)
    got = _accel.monomial_matrix(pts, alphas)
    want = np.array([pts[:, 0] ** a[0] * pts[:, 1] ** a[1] for a in alphas])
    assert np.allclose(got, want, rtol=1e-13)


def test_series_values_chunking_consistent():
    pts = rand_points(1000, 1, seed=4)
    alphas = np.arange(33, dtype=np.int64).reshape(-1, 1)
    coeffs = np.linspace(1, 0.1, 33).astype(complex)
    small = _accel.series_values(pts, alphas, coeffs, chunk=64)
    big = _accel.series_values(pts, alphas, coeffs, chunk=10 ** 6)
    assert np.array_equal(small, big)
    direct = coeffs @ _accel.monomial_matrix(pts, alphas)
    assert np.array_equal(big, direct)
