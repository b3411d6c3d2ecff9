"""Hot numeric kernels in plain numpy.

Monomial matrices come from iterated power tables and fixed left-to-right
products, so results are bit-reproducible run to run.  The Monte Carlo hit
count runs on every usable CPU and still draws the serial stream exactly.
"""

import copy
import os
import threading

import numpy as np


def backend_name():
    return "numpy"


def _power_tables(points, kmax):
    """Tables P[j][k, i] = points[i, j]**k built by iterated multiplication,
    in the dtype of ``points``."""
    m, n = points.shape
    tables = []
    for j in range(n):
        t = np.empty((kmax[j] + 1, m), dtype=points.dtype)
        t[0] = 1.0
        for k in range(1, kmax[j] + 1):
            t[k] = t[k - 1] * points[:, j]
        tables.append(t)
    return tables


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


def _pair_sums(u, out):
    """out[k] = u[2k]**2 + u[2k+1]**2, the |w_k|^2 of flat real pairs ``u``.

    Squares ``u`` in place, so pass a copy to keep it.
    """
    np.multiply(u, u, out=u)
    return np.add(u[0::2], u[1::2], out=out)


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
    """Rows of the pair sums ``t`` (m, p) with sum_j t[:, j]**exponent < 1.

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


def _passes(shapes):
    """Indices of ``shapes`` in order, grouped so that each group's p values
    have an lcm of at most ``_CHUNK`` (or are one p), and that lcm."""
    groups = []
    for k, (p, _) in enumerate(shapes):
        if groups and np.lcm(groups[-1][1], p) <= _CHUNK:
            groups[-1][0].append(k)
            groups[-1][1] = int(np.lcm(groups[-1][1], p))
        else:
            groups.append([[k], p])
    return groups


def _count_pass(bitgen, samples, shapes, lcm, half):
    """Hit counts of ``shapes`` from copies of ``bitgen``; see ``count_inside``."""
    longest = max(p for p, _ in shapes)
    total = samples * longest
    # a block is a whole number of rows of every shape, and at most _CHUNK
    # rows of the longest
    block = _CHUNK * longest // lcm * lcm
    blocks = -(-total // block)
    workers = max(1, min(_usable_cpus(), blocks))
    starts = iter(range(0, total, block))
    lock = threading.Lock()
    failed = threading.Event()

    def take():
        with lock:
            return None if failed.is_set() else next(starts, None)

    # each worker's hit counts, or the exception it raised, re-raised below
    results = [None] * workers

    def count(i, draws, sums, gen):
        try:
            hits = [0] * len(shapes)
            pos = 0
            while (start := take()) is not None:
                if start != pos:
                    gen.bit_generator.advance(2 * (start - pos))
                n = min(block, total - start)
                pos = start + n
                u = draws[:2 * n]
                gen.random(out=u)
                u *= 2.0
                u += -1.0
                if half != 1.0:         # x / 1.0 is x
                    u /= half
                t = _pair_sums(u, sums[:n])
                for k, (p, exponent) in enumerate(shapes):
                    rows = min(n, samples * p - start) // p
                    if rows > 0:        # the spent draws are its scratch
                        hits[k] += _count_block(t[:rows * p].reshape(rows, p),
                                                exponent, draws)
            results[i] = hits
        except BaseException as exc:
            failed.set()
            results[i] = exc

    # buffers and generators are made on the calling thread, not in each
    # worker's malloc arena
    n = min(block, total)
    threads = [threading.Thread(target=count, args=(
        i, np.empty(2 * n), np.empty(n), np.random.Generator(copy.deepcopy(bitgen))))
        for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    return [sum(col) for col in zip(*results)]


def count_inside(rng, samples, shapes, half):
    """For each shape (p, exponent), how many of ``samples`` draws w uniform
    on the unit box [-1, 1]^{2p} of R^{2p} ~ C^p satisfy
    sum_j |w_j / half|^{2 exponent} < 1; one count per shape, in order.

    ``rng`` is a PCG64 ``Generator`` (``np.random.default_rng``), and every
    shape reads the same stream, as if each had its own generator in
    ``rng``'s state: a row of 2p doubles is p consecutive pair sums
    T[k] = x_{2k}^2 + x_{2k+1}^2 of the scaled stream x, and row i of shape p
    is T[p i : p i + p].  So one pass serves every shape drawn from the same
    stream.  It draws the longest shape's samples * 2 max(p) doubles once,
    scales, squares and pair-sums them once, then takes each shape's power,
    row sums and count on its prefix of T.  Scaling ``rng.random`` as
    low + (high - low) x, as ``rng.uniform`` does, gives the same stream and
    the same rounding as ``rng.uniform(-1.0, 1.0)`` followed by ``/ half``,
    and each count is the one a separate call with that shape alone gives.

    T is drawn in blocks of a whole number of rows of every shape (a
    multiple of the lcm of the p values).  W = min(usable CPUs, blocks)
    threads take the blocks in order from one queue, so each works until the
    pass ends however the shapes' work falls along the stream.  Each thread
    has its own copy of ``rng``'s bit generator and advances it past the
    draws before any block that does not follow its last one.  Each double
    takes exactly one 64-bit output, so every draw and every hit is the
    serial loop's whichever thread counts the block, and ``rng`` is left
    where the longest shape's serial loop leaves it.  A thread that fails
    stops the queue, and its exception is raised once every thread has
    ended.  A shape whose p would push the lcm past ``_CHUNK`` starts another
    pass over the stream, so a worker holds O(_CHUNK max(p)) doubles for any
    shapes.  Each count takes cheap proxy powers and recounts only the rows
    whose proxy sum is within ``_BAND`` of 1 (see ``_count_block``).  The
    drawing and the ufunc loops release the GIL.  Worker threads call only
    ``_pair_sums``, ``_count_block`` with its helpers and numpy, never a
    module-level name that a tracer may wrap (such wrappers are not
    thread-safe): tracing sees one call, on the calling thread, covering all
    the work.
    """
    bitgen = rng.bit_generator
    hits = [0] * len(shapes)
    for group, lcm in _passes(shapes):
        counts = _count_pass(bitgen, samples, [shapes[k] for k in group], lcm, half)
        for k, c in zip(group, counts):
            hits[k] = c
    # advance() drops the buffered 32-bit half-output that random() keeps
    state = bitgen.state
    bitgen.advance(samples * 2 * max((p for p, _ in shapes), default=0))
    bitgen.state = {**bitgen.state, "has_uint32": state["has_uint32"],
                    "uinteger": state["uinteger"]}
    return hits


def series_values(points, alphas, coeffs, chunk=_CHUNK):
    """Evaluate sum_b coeffs[b] * z**alphas[b] at each point, chunked.

    ``coeffs`` is one series (B,), giving shape (m,), or k series (k, B),
    giving (k, m).  Each chunk's monomial matrix is built once and freed
    before the next, so peak memory stays at chunk * len(alphas) entries
    regardless of the node count; every series takes its own vector product
    with it, so each row rounds as a one-series call does.
    """
    points = np.asarray(points, dtype=np.complex128)
    if points.ndim == 1:
        points = points[:, None]
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    rows = np.atleast_2d(coeffs)
    m = points.shape[0]
    out = np.empty((len(rows), m), dtype=np.complex128)
    for start in range(0, m, chunk):
        mon = monomial_matrix(points[start:start + chunk], alphas)
        for row, c in zip(out, rows):
            row[start:start + chunk] = c @ mon
        del mon
    return out if coeffs.ndim == 2 else out[0]
