import os
import tracemalloc

import numpy as np
import pytest

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


def test_monomial_matrix_in_table_order_takes_no_copy():
    # a disk basis 0..N is the power table's own row order: a 16,384-node
    # chunk at N = 192 is a 50.6 MB result, which the fancy-indexed copy of
    # the table used to double
    pts = rand_points(16384, 1, seed=2)
    alphas = np.arange(193, dtype=np.int64).reshape(-1, 1)
    tracemalloc.start()
    try:
        got = _accel.monomial_matrix(pts, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * got.nbytes
    assert np.array_equal(got, _accel._power_tables(pts, [192])[0][alphas[:, 0]])
    shuffled = alphas[::-1]
    assert np.array_equal(_accel.monomial_matrix(pts, shuffled), got[::-1])


def test_series_values_chunking_consistent():
    pts = rand_points(1000, 1, seed=4)
    alphas = np.arange(33, dtype=np.int64).reshape(-1, 1)
    coeffs = np.linspace(1, 0.1, 33).astype(complex)
    small = _accel.series_values(pts, alphas, coeffs, chunk=64)
    big = _accel.series_values(pts, alphas, coeffs, chunk=10 ** 6)
    assert np.array_equal(small, big)
    direct = coeffs @ _accel.monomial_matrix(pts, alphas)
    assert np.array_equal(big, direct)


def test_series_values_rows_equal_one_series_calls():
    pts = rand_points(1000, 2, seed=5)
    alphas = np.array([[a, b] for a in range(6) for b in range(6 - a)], dtype=np.int64)
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal((3, len(alphas))) + 1j * rng.standard_normal((3, len(alphas)))
    got = _accel.series_values(pts, alphas, coeffs, chunk=64)
    want = np.stack([_accel.series_values(pts, alphas, c, chunk=64) for c in coeffs])
    assert got.shape == (3, 1000)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", (1, 2, 3))
@pytest.mark.parametrize("exponent", (0.5, 1.0, 1.5, 2.0, 4.0))
def test_count_inside_matches_reference_sum(p, exponent):
    u = np.random.default_rng(10 * p + int(4 * exponent)).uniform(-1, 1, (50_000, 2 * p))
    want = np.count_nonzero(
        np.sum((u[:, 0::2] ** 2 + u[:, 1::2] ** 2) ** exponent, axis=1) < 1)
    got = _accel._count_block(u.copy(), exponent)    # squares its input in place
    assert 0 < got < len(u)
    assert got == want


def _generator(seed):
    """A PCG64 generator holding a buffered 32-bit half-output, which
    ``random`` leaves alone."""
    rng = np.random.default_rng(seed)
    rng.integers(2 ** 32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _unblocked_hits(seed, samples, p, exponent, half):
    """The hit count from one ``rng.uniform`` call, and the generator's state
    after it."""
    rng = _generator(seed)
    u = rng.uniform(-half, half, size=(samples, 2 * p)) / half
    hits = np.count_nonzero(
        np.sum((u[:, 0::2] ** 2 + u[:, 1::2] ** 2) ** exponent, axis=1) < 1)
    return hits, rng.bit_generator.state


@pytest.mark.parametrize("cpus", (1, 2, 3))
@pytest.mark.parametrize("p", (1, 2, 3))
@pytest.mark.parametrize("half", (1.0, 0.37))
def test_count_inside_split_draws_the_unblocked_stream(monkeypatch, cpus, p, half):
    # any split of the blocks over threads counts the hits of one unblocked
    # rng.uniform draw and leaves the caller's generator where it leaves it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for samples in (1000, 16384, 16385, 32769, 100003):
        rng = _generator(samples)
        got = _accel.count_inside(rng, samples, p, p / 0.7, half)
        want, state = _unblocked_hits(samples, samples, p, p / 0.7, half)
        assert got == want
        assert rng.bit_generator.state == state
