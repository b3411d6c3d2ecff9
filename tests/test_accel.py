import os
import threading

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


def test_monomial_matrix_in_table_order_takes_no_copy(traced_peak):
    # a disk basis 0..N is the power table's own row order: a 16,384-node
    # chunk at N = 192 is a 50.6 MB result, which the fancy-indexed copy of
    # the table used to double
    pts = rand_points(16384, 1, seed=2)
    alphas = np.arange(193, dtype=np.int64).reshape(-1, 1)
    got, peak = traced_peak(lambda: _accel.monomial_matrix(pts, alphas))
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


def _ball2_case():
    # ball2 at N = 40 (B = 861): a chunk of 16,384 points was a 225 MB table
    alphas = np.array([[a, d - a] for d in range(41) for a in range(d + 1)],
                      dtype=np.int64)
    return alphas, rand_points(1000, 2, seed=7)


def _c6_torus_case():
    # criterion 6's series: the disk at N = 192 on a 512-point torus, which
    # was one chunk
    phase = np.exp(2j * np.pi * np.arange(512) / 512)
    return np.arange(193, dtype=np.int64).reshape(-1, 1), phase[:, None]


@pytest.mark.parametrize("case", [_ball2_case, _c6_torus_case])
def test_series_values_chunks_hold_at_most_the_block_budget(monkeypatch, case):
    alphas, pts = case()
    coeffs = np.linspace(1, 0.1, len(alphas)).astype(complex)
    whole = _accel.series_values(pts, alphas, coeffs, chunk=len(pts))
    entries = []
    build = _accel.monomial_matrix

    def spy(points, alphas):
        out = build(points, alphas)
        entries.append(out.size)
        return out

    monkeypatch.setattr(_accel, "monomial_matrix", spy)
    assert np.array_equal(_accel.series_values(pts, alphas, coeffs), whole)
    assert sum(entries) == len(pts) * len(alphas)
    assert max(entries) <= _accel.BLOCK_ENTRIES


@pytest.mark.parametrize("p", (1, 2, 3))
@pytest.mark.parametrize("exponent", (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0, 2 / 0.7))
def test_count_inside_matches_reference_sum(p, exponent):
    rng = np.random.default_rng(10 * p + int(4 * exponent))
    t = rng.random((50_000, p)) * (4.0 / np.pi)
    want = np.count_nonzero(np.sum(t ** exponent, axis=1) < 1)
    got = _accel._count_block(t, exponent, np.empty(2 * t.size))
    assert 0 < got < len(t)
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


def _unblocked_hits(seed, samples, p, exponent, half):
    """The hit count from one ``rng.random`` call of every squared modulus."""
    t = np.random.default_rng(seed).random((samples, p)) * (4.0 / (np.pi * half * half))
    return np.count_nonzero(np.sum(t ** exponent, axis=1) < 1)


@pytest.mark.parametrize("cpus", (1, 2, 3))
@pytest.mark.parametrize("p", (1, 2, 3))
@pytest.mark.parametrize("half", (1.0, 0.9))
def test_count_inside_split_draws_the_unblocked_stream(monkeypatch, cpus, p, half):
    # any split of the blocks over threads counts the hits of one unblocked
    # rng.random draw
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for samples in (1000, 16384, 16385, 32769, 100003):
        got, = _accel.count_inside(samples, samples, [(p, p / 0.7)], half)
        assert got == _unblocked_hits(samples, samples, p, p / 0.7, half)


@pytest.mark.parametrize("cpus", (1, 2, 3, 8))
def test_count_inside_reads_rows_that_straddle_a_stride_from_the_overlap(monkeypatch, cpus):
    # a 17-row stride of the longest shape is 119 doubles, which no row of
    # p = 2, 3 or 5 divides: their rows straddle the stride boundaries, and
    # one worker steps its generator back over each overlap it has read
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(_accel, "_CHUNK", 17)
    shapes = [(2, 2 / 0.7), (3, 1.5), (5, 5 / 0.7), (7, 7 / 0.7)]
    for samples in (1000, 16385, 20011):
        got = _accel.count_inside(samples, samples, shapes, 0.9)
        assert got == [_unblocked_hits(samples, samples, p, e, 0.9) for p, e in shapes]
        assert min(got) > 0


@pytest.mark.parametrize("cpus", (1, 2, 3))
def test_count_inside_reraises_a_worker_exception(monkeypatch, cpus):
    # a failure on a worker thread surfaces in the caller, and every worker
    # has ended by then
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
        _accel.count_inside(0, 50 * _accel._CHUNK, [(1, 1.0)], 1.0)
    assert threading.active_count() == threads
    assert calls


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
    # every shape's count is that of its own unblocked rng.random draw from
    # the same seed
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for samples in (1000, 16384, 16385, 100003):
        got = _accel.count_inside(samples, samples, shapes, half)
        assert got == [_unblocked_hits(samples, samples, p, exponent, half)
                       for p, exponent in shapes]


@pytest.mark.parametrize("cpus", (1, 2, 3))
@pytest.mark.parametrize("shapes", (
    [(97, 1.0), (89, 2.0), (83, 83 / 0.7)],
    [(5, 5 / 0.7), (3, 3 / 0.7), (7, 7 / 0.7)],
))
def test_count_inside_counts_coprime_p_in_one_pass_of_one_block_a_worker(
        monkeypatch, cpus, shapes, traced_peak):
    # coprime p share no block boundary but take one pass: each worker holds
    # 3 doubles per modulus of one block (16 rows of the longest shape and
    # its overlap), where the longest shape's draws at once are 1.6 MB
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(_accel, "_CHUNK", 16)
    longest = max(p for p, _ in shapes)
    samples = 200_003 // longest
    got, peak = traced_peak(lambda: _accel.count_inside(6, samples, shapes, 0.9))
    assert peak <= cpus * 3 * 8 * (16 * longest + longest - 1) + 2 ** 16
    assert got == [_unblocked_hits(6, samples, p, e, 0.9) for p, e in shapes]


def _unit_box_hits(rng, samples, p, exponent, half, chunk=100_000):
    """Hits of w drawn on the unit box [-1, 1]^{2p}, two doubles a
    coordinate, in chunks."""
    hits = 0
    for start in range(0, samples, chunk):
        u = rng.uniform(-1.0, 1.0, (min(chunk, samples - start), 2 * p)) / half
        hits += np.count_nonzero(
            np.sum((u[:, 0::2] ** 2 + u[:, 1::2] ** 2) ** exponent, axis=1) < 1)
    return hits


@pytest.mark.parametrize("p,exponent,half", [
    (1, 1.0, 1.0), (1, 1 / 0.7, 0.9), (3, 1.5, 1.0), (2, 4.0, 0.9)])
def test_count_inside_hits_follow_the_unit_box_law(p, exponent, half):
    # one double per squared modulus counts hits with the law of the box draw
    samples = 1_000_000
    got, = _accel.count_inside(11, samples, [(p, exponent)], half)
    box = _unit_box_hits(np.random.default_rng(12), samples, p, exponent, half)
    variance = sum(h * (samples - h) / samples for h in (got, box))
    assert 0 < box < samples
    assert abs(got - box) <= 4 * np.sqrt(variance)


@pytest.mark.parametrize("half", (0.0, -0.5, 1.0 + 2 ** -52, 2.0, np.inf, np.nan))
def test_count_inside_refuses_a_half_outside_the_unit_interval(half):
    # above 1 the fiber's disc leaves the unit square, and the box law differs
    with pytest.raises(ValueError, match=r"half = .* must lie in \(0, 1\]"):
        _accel.count_inside(0, 10, [(1, 1.0)], half)
