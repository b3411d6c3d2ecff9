"""Hot numeric kernels in plain numpy.

Monomial matrices come from iterated power tables and fixed left-to-right
products, so results are bit-reproducible run to run.  The Monte Carlo hit
count runs on every usable CPU and still draws the serial stream exactly.
"""

import copy
import os
from concurrent.futures import ThreadPoolExecutor

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


def _count_block(u, exponent):
    """Rows of u (real pairs per coordinate) with sum_j |u_j|**(2 exponent) < 1.

    Squares ``u`` in place, so pass a copy to keep it.  Each |u_j|^2 is
    added through a contiguous (m, p, 2) view and the coordinates are
    summed left to right, which rounds exactly like
    ``np.sum((u[:, 0::2]**2 + u[:, 1::2]**2)**exponent, axis=1)``.
    """
    np.multiply(u, u, out=u)
    pairs = u.reshape(len(u), -1, 2)
    t = np.add(pairs[:, :, 0], pairs[:, :, 1])
    if exponent == 2.0:
        t *= t
    elif exponent != 1.0:
        np.power(t, exponent, out=t)
    s = t[:, 0]
    for j in range(1, t.shape[1]):
        s += t[:, j]
    return int(np.count_nonzero(s < 1.0))


_CHUNK = 16384


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity API on this platform
        return os.cpu_count() or 1


def count_inside(rng, samples, p, exponent, half):
    """How many of ``samples`` draws w uniform on the box [-half, half]^{2p}
    of R^{2p} ~ C^p satisfy sum_j |w_j / half|^{2 exponent} < 1.

    ``rng`` is a PCG64 ``Generator`` (``np.random.default_rng``).  Rows are
    drawn ``_CHUNK`` at a time into reused buffers; scaling ``rng.random`` as
    low + (high - low) x, as ``rng.uniform`` does, gives the same stream and
    the same rounding as ``rng.uniform(-half, half)`` followed by ``/ half``,
    whatever the block size.

    The blocks are split into W contiguous ranges, W = min(usable CPUs,
    blocks), each counted on its own thread by a copy of ``rng``'s bit
    generator advanced past the rows before the range.  Each double takes
    exactly one 64-bit output, so every draw and every hit is the serial
    loop's, and ``rng`` is left where the serial loop leaves it.  The
    drawing and the ufunc loops release the GIL.  Worker threads call only
    ``_count_block`` and numpy, never a module-level name that a tracer may
    wrap (such wrappers are not thread-safe): tracing sees one call, on the
    calling thread, covering all the work.
    """
    width = 2 * p
    blocks = -(-samples // _CHUNK)
    workers = max(1, min(_usable_cpus(), blocks))
    edges = [min(blocks * i // workers * _CHUNK, samples) for i in range(workers + 1)]
    # allocated on the calling thread, not in each worker's malloc arena
    bufs = [np.empty((min(_CHUNK, hi - lo), width)) for lo, hi in zip(edges, edges[1:])]

    def count(lo, hi, buf, gen):
        hits = 0
        for start in range(lo, hi, _CHUNK):
            u = buf[:hi - start]
            gen.random(out=u)
            u *= 2.0 * half
            u += -half
            u /= half
            hits += _count_block(u, exponent)
        return hits

    bitgen = rng.bit_generator
    gens = []
    for lo in edges[:-1]:
        copied = copy.deepcopy(bitgen)
        copied.advance(lo * width)
        gens.append(np.random.Generator(copied))
    with ThreadPoolExecutor(workers) as pool:
        hits = sum(pool.map(count, edges[:-1], edges[1:], bufs, gens))
    # advance() drops the buffered 32-bit half-output that random() keeps
    state = bitgen.state
    bitgen.advance(samples * width)
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
