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
    out = tables[0][alphas[:, 0]]
    for j in range(1, points.shape[1]):
        out *= tables[j][alphas[:, j]]
    return out


def count_inside(u, exponent):
    """Rows of u (real pairs per coordinate) with sum_j |u_j|**(2 exponent) < 1."""
    s = np.sum((u[:, 0::2] ** 2 + u[:, 1::2] ** 2) ** exponent, axis=1)
    return int(np.count_nonzero(s < 1.0))


_CHUNK = 16384


def series_values(points, alphas, coeffs, chunk=_CHUNK):
    """Evaluate sum_b coeffs[b] * z**alphas[b] at each point, chunked.

    Chunking keeps the basis matrix peak memory at chunk * len(alphas)
    entries regardless of the node count.
    """
    points = np.asarray(points, dtype=np.complex128)
    if points.ndim == 1:
        points = points[:, None]
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    m = points.shape[0]
    out = np.empty(m, dtype=np.complex128)
    for start in range(0, m, chunk):
        block = points[start:start + chunk]
        out[start:start + chunk] = coeffs @ monomial_matrix(block, alphas)
    return out
