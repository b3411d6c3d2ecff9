import os
import sys
import threading
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
@pytest.mark.parametrize("exponent", (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0, 2 / 0.7))
def test_count_inside_matches_reference_sum(p, exponent):
    u = np.random.default_rng(10 * p + int(4 * exponent)).uniform(-1, 1, (50_000, 2 * p))
    want = np.count_nonzero(
        np.sum((u[:, 0::2] ** 2 + u[:, 1::2] ** 2) ** exponent, axis=1) < 1)
    t = _accel._pair_sums(u.ravel().copy(), np.empty(u.size // 2))  # squares its input in place
    got = _accel._count_block(t.reshape(len(u), p), exponent, np.empty(u.size))
    assert 0 < got < len(u)
    assert got == want


def _boundary_rows(p, exponent, rows=500, seed=0):
    """Pair sums whose row sums of powers straddle 1: the first p - 1 of a
    row uniform, the last solving sum_j t_j**exponent = 1, then moved by
    -8..8 ulp."""
    rng = np.random.default_rng(seed)
    head = rng.uniform(0.0, 1.0, (rows, p - 1)) * (1.0 / p) ** (1.0 / exponent)
    last = (1.0 - np.sum(head ** exponent, axis=1)) ** (1.0 / exponent)
    steps = [last]
    for toward in (np.inf, -np.inf):
        step = last
        for _ in range(8):
            step = np.nextafter(step, toward)
            steps.append(step)
    return np.vstack([np.column_stack([head, step]) for step in steps])


def test_count_block_decides_rows_on_the_boundary_as_np_power(monkeypatch):
    # the proxy powers can round a row to the other side of 1; the rows near
    # it are recounted with np.power, and without that band some come out wrong
    moved = 0
    for p in (2, 3):
        for exponent in (1.5, 2.5, 3.0, 4.0, 8.0):
            t = _boundary_rows(p, exponent, seed=10 * p + int(2 * exponent))
            want = np.count_nonzero(np.sum(t ** exponent, axis=1) < 1)
            assert 0 < want < len(t)
            assert _accel._count_block(t, exponent, np.empty(2 * t.size)) == want
            with monkeypatch.context() as patch:
                patch.setattr(_accel, "_BAND", 0.0)
                moved += _accel._count_block(t, exponent, np.empty(2 * t.size)) != want
    assert moved > 0


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
    u = rng.uniform(-1.0, 1.0, size=(samples, 2 * p)) / half
    hits = np.count_nonzero(
        np.sum((u[:, 0::2] ** 2 + u[:, 1::2] ** 2) ** exponent, axis=1) < 1)
    return hits, rng.bit_generator.state


@pytest.mark.parametrize("cpus", (1, 2, 3))
@pytest.mark.parametrize("p", (1, 2, 3))
@pytest.mark.parametrize("half", (1.0, 0.9))
def test_count_inside_split_draws_the_unblocked_stream(monkeypatch, cpus, p, half):
    # any split of the blocks over threads counts the hits of one unblocked
    # rng.uniform draw and leaves the caller's generator where it leaves it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for samples in (1000, 16384, 16385, 32769, 100003):
        rng = _generator(samples)
        got, = _accel.count_inside(rng, samples, [(p, p / 0.7)], half)
        want, state = _unblocked_hits(samples, samples, p, p / 0.7, half)
        assert got == want
        assert rng.bit_generator.state == state


def test_count_inside_queue_gives_each_block_to_one_worker(monkeypatch):
    # eight workers on 313 small blocks, switching threads as often as the
    # interpreter allows: a block counted twice or skipped moves a count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(_accel, "_CHUNK", 64)
    shapes = [(1, 1.5), (2, 2.0), (3, 3 / 0.7)]
    samples = 20011
    rng = _generator(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _accel.count_inside(rng, samples, shapes, 0.9)
    finally:
        sys.setswitchinterval(interval)
    assert got == [_unblocked_hits(3, samples, p, e, 0.9)[0] for p, e in shapes]
    assert rng.bit_generator.state == _unblocked_hits(3, samples, 3, 1.0, 0.9)[1]


@pytest.mark.parametrize("cpus", (1, 2, 3))
def test_count_inside_reraises_a_worker_exception(monkeypatch, cpus):
    # a failure on a worker thread surfaces in the caller, the other workers
    # take no further block, and every worker has ended by then
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    count_block = _accel._count_block
    calls = []
    lock = threading.Lock()

    def fail_first(t, exponent, scratch):
        with lock:
            calls.append(len(calls))
            if len(calls) == 1:
                raise FloatingPointError("block failed")
        return count_block(t, exponent, scratch)

    monkeypatch.setattr(_accel, "_count_block", fail_first)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="block failed"):
        _accel.count_inside(np.random.default_rng(0), 50 * _accel._CHUNK, [(1, 1.0)], 1.0)
    assert threading.active_count() == threads
    assert 1 <= len(calls) <= cpus


@pytest.mark.parametrize("cpus", (1, 2, 3))
@pytest.mark.parametrize("half", (1.0, 0.9))
@pytest.mark.parametrize("shapes", (
    [(3, 3 / 0.7), (1, 1 / 0.7), (2, 2 / 0.7)],
    [(2, 2 / 0.7), (5, 5 / 0.7)],
    [(4, 4 / 0.7), (6, 6 / 0.7)],
    [(1, 1.0), (7, 7 / 0.7)],
    [(2, 1.0), (2, 2.0), (2, 4.0), (2, 2 / 0.7)],
))
def test_count_inside_one_pass_counts_each_shape_as_its_own_stream(
        monkeypatch, cpus, half, shapes):
    # every shape's count is that of its own unblocked rng.uniform draw from
    # the same state, and the caller's generator ends where the longest
    # shape's draw leaves it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    longest = max(p for p, _ in shapes)
    for samples in (1000, 16384, 16385, 100003):
        rng = _generator(samples)
        got = _accel.count_inside(rng, samples, shapes, half)
        want = [_unblocked_hits(samples, samples, p, exponent, half)[0]
                for p, exponent in shapes]
        assert got == want
        state = _unblocked_hits(samples, samples, longest, 1.0, half)[1]
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("cpus", (1, 2, 3))
def test_count_inside_splits_coprime_p_into_passes_of_a_few_blocks(monkeypatch, cpus):
    # lcm(97, 89) = 8633 fits in a block, and with 83 it would be 716,539
    coprime = [(97, 1.0), (89, 2.0), (83, 83 / 0.7)]
    assert [group for group, _ in _accel._passes(coprime)] == [[0, 1], [2]]
    # rows that long almost never hit, so count the same split on short
    # rows with 16-row blocks: lcm(5, 3) = 15 fits, and with 7 it would be 105
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(_accel, "_CHUNK", 16)
    shapes = [(5, 5 / 0.7), (3, 3 / 0.7), (7, 7 / 0.7)]
    assert [group for group, _ in _accel._passes(shapes)] == [[0, 1], [2]]
    samples = 100003
    # the first copy of a bit generator imports numpy.random's pickle helpers
    _accel.count_inside(_generator(0), 1000, shapes, 0.9)
    rng = _generator(6)
    tracemalloc.start()
    try:
        got = _accel.count_inside(rng, samples, shapes, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each worker holds 3 doubles per pair sum of one block, at most 16 * 7
    # pair sums, where the longest shape's draws at once are 11.2 MB
    assert peak <= cpus * 3 * 8 * 16 * 7 + 2 ** 16
    assert got == [_unblocked_hits(6, samples, p, e, 0.9)[0] for p, e in shapes]
    assert min(got) > 0
    assert rng.bit_generator.state == _unblocked_hits(6, samples, 7, 1.0, 0.9)[1]
