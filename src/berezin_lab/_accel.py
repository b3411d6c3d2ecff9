"""Hot numeric kernels in plain numpy.

Monomial matrices come from iterated power tables and fixed left-to-right
products, so results are bit-reproducible run to run.  The Monte Carlo hit
count draws one double per squared modulus, runs on every usable CPU and
still draws the serial stream exactly.
"""

import os
import threading

import numpy as np


def backend_name():
    return "numpy"


def _power_tables(points, kmax):
    """Tables P[j][k, i] = points[i, j]**k built by iterated multiplication,
    in the dtype of ``points``.  Each row is multiplied into place: the
    tables are rebuilt for every block of points a caller evaluates, where
    the per-row call overhead is most of their cost."""
    m, n = points.shape
    tables = []
    for j in range(n):
        t = np.empty((kmax[j] + 1, m), dtype=points.dtype)
        t[0] = 1.0
        col = points[:, j]
        for prev, row in zip(t[:-1], t[1:]):
            np.multiply(prev, col, out=row)
        tables.append(t)
    return tables


# entries (basis size x points) of one basis-by-points table, 1 MiB of
# complex128: the point blocks of ``WeightedSpace.kernel`` and the chunks of
# ``series_values`` hold at most this many, or their minimum number of points
# (1 and 32) when the basis is larger
BLOCK_ENTRIES = 2 ** 16


def monomial_matrix(points, alphas):
    """Matrix z**alphas[b] at each point: shape (len(alphas), len(points))."""
    points = np.ascontiguousarray(points, dtype=np.complex128)
    alphas = np.asarray(alphas, dtype=np.int64)
    kmax = alphas.max(axis=0)
    tables = _power_tables(points, kmax)
    out = tables[0]
    if len(alphas) != len(out) or np.any(alphas[:, 0] != np.arange(len(out))):
        out = out[alphas[:, 0]]        # else the table is already in basis order
    for j in range(1, points.shape[1]):
        out *= tables[j][alphas[:, j]]
    return out


def _row_sums(t, out):
    """Left-to-right sums of the rows of ``t`` (m, p): in ``out`` (m,) when
    p > 1, else column 0 of ``t`` itself."""
    s = t[:, 0]
    if t.shape[1] > 1:
        s = np.add(s, t[:, 1], out=out)
        for j in range(2, t.shape[1]):
            s += t[:, j]
    return s


# rows whose proxy sum lies within this of 1 are recounted with np.power
_BAND = 2.0 ** -40


def _count_block(t, exponent, scratch):
    """Rows of the squared moduli ``t`` (m, p) with sum_j t[:, j]**exponent < 1.

    Leaves ``t`` as it is and works in ``scratch``, a flat buffer of at least
    t.size + m doubles.  The power is taken on a contiguous array and the
    coordinates are summed left to right, which for p < 8 rounds exactly like
    ``np.sum(t**exponent, axis=1)`` (numpy sums longer rows pairwise).

    When k = 2 exponent is a whole number 1 <= k <= 16 other than 2 and 4,
    the row sums s' are first formed from a proxy power without ``np.power``:
    sqrt(t) times (k - 1)/2 factors t for odd k, t*t times k/2 - 2 factors t
    for even k.  Rows with s' < 1 - _BAND count as inside, rows with
    s' >= 1 + _BAND as outside, and only the rows in between are recounted
    with ``np.power`` and the same left-to-right sum.  That decides every row
    as ``np.power`` does.  With u = 2^-53, the proxy takes at most k/2 <= 8
    roundings, so it is within 8u of t^exponent relatively; ``np.power`` is
    within 4 ulp <= 8u; and a left-to-right sum of p non-negative terms is
    within (p - 1) u of their exact sum.  So the row sum s from ``np.power``
    has |s' - s| <= (2p + 15) u s (terms that underflow add a negligible
    absolute error), which is below 2^-40 s for p < 4000: a row with
    s' < 1 - _BAND has s < 1, and a row with s' >= 1 + _BAND has s >= 1.
    For any other exponent, or p >= 4000, the proxy is the exact power
    itself and the band is empty.
    """
    m, p = t.shape
    k = 2.0 * exponent
    power = scratch[:t.size].reshape(m, p)
    band = 0.0
    if exponent == 1.0:
        power = t
    elif exponent == 2.0:
        np.multiply(t, t, out=power)
    elif 1 <= k <= 16 and k == int(k) and p < 4000:
        if k % 2:
            np.sqrt(t, out=power)
            factors = (int(k) - 1) // 2
        else:
            np.multiply(t, t, out=power)
            factors = int(k) // 2 - 2
        for _ in range(factors):
            power *= t
        band = _BAND
    else:
        np.power(t, exponent, out=power)
    s = _row_sums(power, scratch[t.size:t.size + m])
    inside = int(np.count_nonzero(s < 1.0 - band))
    if band and np.count_nonzero(s < 1.0 + band) > inside:
        near = t[(s >= 1.0 - band) & (s < 1.0 + band)]
        exact = _row_sums(np.power(near, exponent, out=near), np.empty(len(near)))
        inside += int(np.count_nonzero(exact < 1.0))
    return inside


_CHUNK = 16384


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity API on this platform
        return os.cpu_count() or 1


def count_inside(seed, samples, shapes, half):
    """For each shape (p, exponent), a hit count with the law of how many of
    ``samples`` draws w uniform on the unit box [-1, 1]^{2p} of R^{2p} ~ C^p
    satisfy sum_j |w_j / half|^{2 exponent} < 1; one count per shape, in
    order.  ``half`` must lie in (0, 1].

    The draw takes each squared modulus t_j = |w_j / half|^2 from one
    uniform double u_j as t_j = u_j * 4 / (pi half^2), not w_j from two.
    For w uniform on the unit square, P(|w|^2 < x) = pi x / 4 for x <= 1
    (a quarter disc of radius sqrt(x) in each quadrant), so for half <= 1
    P(|w / half|^2 < x) = pi half^2 x / 4 for x <= 1, the law of t on
    [0, 1).  A coordinate with t_j >= 1 puts its row outside under either
    draw, and the coordinates are independent under both.  So each count is
    Binomial(samples, vol / 4^p) for the fiber's volume vol, as with the box
    draw, and only the disc area pi / 4 enters, not the fiber's closed form.

    Every shape reads the stream T of scaled doubles that
    ``np.random.default_rng(seed)`` draws, row i of shape p being
    T[p i : p i + p], so one pass serves every shape and each count is the
    one that shape alone gives.  Block b reads T[b S, b S + S + max(p) - 1)
    for the stride S = ``_CHUNK`` rows of the longest shape, and each shape
    counts its rows that start in [b S, b S + S), reading one that
    straddles the boundary from the overlap: a worker holds
    O(_CHUNK max(p)) doubles.  W = min(usable CPUs, blocks) threads take
    the blocks round-robin (worker w takes b = w, w + W, ...), each with its
    own PCG64 from ``seed``, advanced to the block's first double modulo
    the period 2^128 (so past an overlap it steps back).  Each double takes
    one 64-bit output, so every draw and hit is the serial loop's on any
    CPU count.  A worker's exception is raised once every thread has
    ended.  Each count takes cheap proxy powers and recounts only the rows
    whose proxy sum is within ``_BAND`` of 1 (see ``_count_block``); a
    power that overflows is inf, which puts its row outside.  The drawing
    and the ufunc loops release the GIL.  Worker threads call only
    ``_count_block`` with its helpers and numpy, never a module-level name
    that a tracer may wrap (such wrappers are not thread-safe): tracing
    sees one call, on the calling thread, covering all the work.
    """
    if not 0.0 < half <= 1.0:
        raise ValueError(f"half = {half!r} must lie in (0, 1]: a larger fiber "
                         f"leaves the unit box")
    scale = 4.0 / (np.pi * half * half)
    longest = max(p for p, _ in shapes)
    total = samples * longest
    stride = _CHUNK * longest
    size = min(stride + longest - 1, total)
    workers = max(1, min(_usable_cpus(), -(-total // stride)))
    # each worker's hit counts, or the exception it raised, re-raised below
    results = [None] * workers

    def count(w, moduli, scratch, gen):
        try:
            hits = [0] * len(shapes)
            pos = 0
            with np.errstate(over="ignore"):     # numpy's is per thread
                for start in range(w * stride, total, workers * stride):
                    gen.bit_generator.advance((start - pos) % 2 ** 128)
                    t = moduli[:min(size, total - start)]
                    pos = start + len(t)
                    gen.random(out=t)
                    t *= scale
                    for k, (p, exponent) in enumerate(shapes):
                        first = -(-start // p)
                        end = min(-(-(start + stride) // p), samples)
                        if end > first:
                            hits[k] += _count_block(
                                t[first * p - start:end * p - start].reshape(-1, p),
                                exponent, scratch)
            results[w] = hits
        except BaseException as exc:
            results[w] = exc

    # buffers and generators are made here, not in each worker's malloc arena
    threads = [threading.Thread(target=count, args=(
        w, np.empty(size), np.empty(2 * size), np.random.default_rng(seed)))
        for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    return [sum(col) for col in zip(*results)]


def series_values(points, alphas, coeffs, chunk=None):
    """Evaluate sum_b coeffs[b] * z**alphas[b] at each point, chunked.

    ``coeffs`` is one series (B,), giving shape (m,), or k series (k, B),
    giving (k, m).  Each chunk of ``chunk`` points (by default the most
    multiples of 32, at least one, that keep chunk * len(alphas) within
    ``BLOCK_ENTRIES``) has its monomial matrix built once and freed before
    the next, so peak memory stays at chunk * len(alphas) entries regardless
    of the node count; every series takes its own vector product with it, so
    each row rounds as a one-series call does.

    The default chunks give the bits of one chunk of all the points when
    OpenBLAS runs on 1, 2, 4 or 8 threads and every thread's share of the
    whole call is a multiple of four points; the benchmark and the tests pin
    at most two threads.  On other thread counts a point may round
    differently from one chunking to another.
    """
    points = np.asarray(points, dtype=np.complex128)
    if points.ndim == 1:
        points = points[:, None]
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    rows = np.atleast_2d(coeffs)
    m = points.shape[0]
    if chunk is None:
        # OpenBLAS's gemv takes each thread's share of the points four at a
        # time and rounds a ragged tail of one to three points differently:
        # on two threads a 76-point chunk moves the last two points of each
        # half.  Chunks of a multiple of 32 points leave no such tail on 1,
        # 2, 4 or 8 threads (32 points do not split evenly on 3, 5, 6 or 7),
        # so there a point rounds as in any other such chunk.
        chunk = max(1, BLOCK_ENTRIES // len(alphas) // 32) * 32
    out = np.empty((len(rows), m), dtype=np.complex128)
    for start in range(0, m, chunk):
        mon = monomial_matrix(points[start:start + chunk], alphas)
        for row, c in zip(out, rows):
            row[start:start + chunk] = c @ mon
        del mon
    return out if coeffs.ndim == 2 else out[0]
