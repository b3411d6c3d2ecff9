"""Hot numeric kernels in plain numpy.

Monomial matrices come from iterated power tables and fixed left-to-right
products, so results are bit-reproducible run to run.
"""

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


def count_inside(u, exponent):
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
