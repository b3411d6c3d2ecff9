"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The backend is chosen once at import time from the environment variable
``BEREZIN_LAB_BACKEND``:

* ``"numba"`` -- require numba, fail loudly if it cannot be imported;
* ``"numpy"`` -- force the pure-numpy fallback;
* ``"auto"`` (default, or unset) -- numba when importable, numpy otherwise.

Both paths evaluate the same arithmetic (iterated power tables, fixed
left-to-right products), so they agree to a few ulp; results are
bit-reproducible within one backend.
"""

import os

import numpy as np

_FLAG = os.environ.get("BEREZIN_LAB_BACKEND", "auto").strip().lower()
if _FLAG not in ("auto", "numba", "numpy"):
    raise ValueError(f"BEREZIN_LAB_BACKEND must be auto|numba|numpy, got {_FLAG!r}")

_HAVE_NUMBA = False
if _FLAG in ("auto", "numba"):
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:
        if _FLAG == "numba":
            raise

USE_NUMBA = _HAVE_NUMBA and _FLAG in ("auto", "numba")


def backend_name():
    return "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def _power_tables_numpy(points, kmax):
    """Tables P[j][k, i] = points[i, j]**k built by iterated multiplication."""
    m, n = points.shape
    tables = []
    for j in range(n):
        t = np.empty((kmax[j] + 1, m), dtype=np.complex128)
        t[0] = 1.0
        for k in range(1, kmax[j] + 1):
            t[k] = t[k - 1] * points[:, j]
        tables.append(t)
    return tables


def monomial_matrix_numpy(points, alphas):
    points = np.ascontiguousarray(points, dtype=np.complex128)
    alphas = np.asarray(alphas, dtype=np.int64)
    kmax = alphas.max(axis=0)
    tables = _power_tables_numpy(points, kmax)
    out = tables[0][alphas[:, 0]]
    for j in range(1, points.shape[1]):
        out *= tables[j][alphas[:, j]]
    return out


def count_inside_numpy(u, exponent):
    s = np.sum((u[:, 0::2] ** 2 + u[:, 1::2] ** 2) ** exponent, axis=1)
    return int(np.count_nonzero(s < 1.0))


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if USE_NUMBA:

    @njit(cache=True)
    def _monomial_matrix_jit(points, alphas, kmax):  # pragma: no cover - jitted
        m, n = points.shape
        nb = alphas.shape[0]
        kbig = 0
        for j in range(n):
            if kmax[j] > kbig:
                kbig = kmax[j]
        table = np.empty((n, kbig + 1, m), dtype=np.complex128)
        for j in range(n):
            for i in range(m):
                table[j, 0, i] = 1.0 + 0.0j
            for k in range(1, kmax[j] + 1):
                for i in range(m):
                    table[j, k, i] = table[j, k - 1, i] * points[i, j]
        out = np.empty((nb, m), dtype=np.complex128)
        for b in range(nb):
            for i in range(m):
                out[b, i] = table[0, alphas[b, 0], i]
            for j in range(1, n):
                for i in range(m):
                    out[b, i] *= table[j, alphas[b, j], i]
        return out

    @njit(cache=True)
    def _count_inside_jit(u, exponent):  # pragma: no cover - jitted
        m, two_p = u.shape
        p = two_p // 2
        count = 0
        for i in range(m):
            s = 0.0
            for j in range(p):
                x = u[i, 2 * j]
                y = u[i, 2 * j + 1]
                s += (x * x + y * y) ** exponent
            if s < 1.0:
                count += 1
        return count

    def monomial_matrix_numba(points, alphas):
        points = np.ascontiguousarray(points, dtype=np.complex128)
        alphas = np.ascontiguousarray(alphas, dtype=np.int64)
        kmax = alphas.max(axis=0).astype(np.int64)
        return _monomial_matrix_jit(points, alphas, kmax)

    def count_inside_numba(u, exponent):
        return int(_count_inside_jit(np.ascontiguousarray(u), float(exponent)))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

if USE_NUMBA:
    monomial_matrix = monomial_matrix_numba
    count_inside = count_inside_numba
else:
    monomial_matrix = monomial_matrix_numpy
    count_inside = count_inside_numpy

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
