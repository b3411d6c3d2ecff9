"""Orthonormal bases, weighted Bergman kernels, and checks.

A :class:`WeightedSpace` is the degree-<=N polynomial model of the weighted
Bergman space: on the lab's Reinhardt (ellipsoid) domains the monomials are
exactly orthogonal and the basis is e_alpha = z^alpha / sqrt(m_alpha) with
closed-form moments.  The truncated kernel is
K(z, w) = sum_b e_b(z) conj(e_b(w)).

The space evaluates its kernel itself (``kernel``, ``normalized_kernel``,
``truncation_tail_fraction``, ``inside_contract``), at one point of shape
(n,) or at an (m, n) array of points: one basis evaluation per call (the
kernel's in point blocks of bounded size), and a scalar or one value per
point back.  Kernel evaluations are advertised for
-rho(z) >= DELTA_INTERIOR; nearer the boundary values are still returned,
with the last-degree share of K(z, z) available as a truncation-error
heuristic.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import _accel
from .domains import BOUNDARY_TOL_COEFF, _as_points, inflate, inflation_parameters
from .errors import BoundaryError, CapabilityError, ParameterError
from .quadrature import (Scheme, WeightedMeasure, inflation_constant,
                         log_monomial_moments, measure_node_weights,
                         polar_tensor_rule, require_full_rule)

DELTA_INTERIOR = 0.02        # accuracy contract: kernel advertised for -rho >= this
UNDERFLOW_FLOOR = 1e-300
# numpy's NPY_MIN_ELIDE_BYTES: from this size of an operand, a CPython numpy
# build that can check its caller's stack (glibc's backtrace) reuses a
# temporary operand's buffer for the result, swapping a commutative
# product's operands; ``WeightedSpace.kernel`` mirrors that order
_NUMPY_ELIDE_BYTES = 256 * 1024


def multiindices(dim, max_degree):
    """All multiindices in ``dim`` variables of total degree <= max_degree,
    ordered by total degree then lexicographically."""
    out = []
    for deg in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(dim), deg):
            alpha = [0] * dim
            for j in combo:
                alpha[j] += 1
            out.append(alpha)
    return np.array(sorted(out, key=lambda a: (sum(a), a)), dtype=np.int64)


class WeightedSpace:
    """Truncated weighted Bergman space with an orthonormal polynomial basis.

    Attributes
    ----------
    measure : WeightedMeasure
    N : int
        Maximum total monomial degree.
    alphas : (B, n) int array of multiindices.
    coeffs : complex length-B vector of normalizers 1/sqrt(m_alpha), so
        e_b = coeffs[b] * z^alphas[b].
    gram_residual : float, max |Gram - I| entry over the basis.
    """

    def __init__(self, measure, N, alphas, coeffs, gram_residual,
                 log_moments=None):
        self.measure = measure
        self.N = int(N)
        self.alphas = alphas
        self.coeffs = coeffs
        self.gram_residual = float(gram_residual)
        self.log_moments = log_moments
        self.degrees = alphas.sum(axis=1)

    @property
    def size(self):
        return len(self.alphas)

    @property
    def dim(self):
        return self.measure.domain.dim

    def basis_values(self, points):
        """Matrix e_b(points): shape (B, m)."""
        points = np.asarray(points, dtype=np.complex128)
        if points.ndim == 1:
            points = points[:, None] if self.dim == 1 else points[None, :]
        mon = _accel.monomial_matrix(points, self.alphas)
        mon *= self.coeffs[:, None]
        return mon

    def eval_series(self, coefficients, points):
        """Evaluate sum_b coefficients[b] e_b at points (chunked): shape
        (m,) for coefficients (B,), or (k, m) for k series (k, B)."""
        points = np.asarray(points, dtype=np.complex128)
        if points.ndim == 1:
            points = points[:, None] if self.dim == 1 else points[None, :]
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        return _accel.series_values(points, self.alphas, coefficients * self.coeffs)

    def _rows(self, z):
        """(points, E, single) for one point (n,) or an (m, n) array, E the
        basis values as contiguous (m, B) rows.  Row sums of E then add in
        the same order as sums over a single point's values."""
        pts, single = _as_points(z, self.dim)
        return pts, np.ascontiguousarray(self.basis_values(pts).T), single

    def kernel(self, z, w):
        """K(z_i, w_i) = sum_b e_b(z_i) conj(e_b(w_i)) for paired points:
        a complex for one point each, else an array of shape (m,).

        ``z`` and ``w`` must hold the same number of points; any other pairing
        raises :class:`ParameterError`.  The points go through in blocks whose
        basis tables hold at most ``_accel.BLOCK_ENTRIES`` entries each, or
        three points when the basis is larger, and each block's column sums
        go into one (m,) result.  Every value has the bits of the one-table
        sum ``np.sum(ez * np.conj(ew), axis=0)``, which two numpy traps
        decide:

        1. Operand order.  numpy elides the conjugate temporary of
           ``ez * np.conj(ew)`` when it holds at least
           ``_NUMPY_ELIDE_BYTES``, and then computes ``conj(ew) * ez``, whose
           rounding (FMA) differs.  So the order follows the size of the
           whole call's table, not the block's.
        2. Single-column sums.  numpy sums a (B, 1) column pairwise but a
           (B, k >= 2) table row by row.  So a block holds one point only
           when the call does.
        """
        zs, single = _as_points(z, self.dim)
        ws = _as_points(w, self.dim)[0]
        if zs.shape != ws.shape:
            raise ParameterError(f"kernel pairs z and w point by point, got points "
                                 f"of shape {zs.shape} and {ws.shape}")
        m = len(zs)
        swapped = 16 * self.size * m >= _NUMPY_ELIDE_BYTES
        width = max(3, _accel.BLOCK_ENTRIES // self.size)
        k = np.empty(m, dtype=np.complex128)
        start = 0
        while start < m:
            # never leave a lone point for the last block
            stop = min(m, start + width - (m - start - width == 1))
            ez = self.basis_values(zs[start:stop])
            cw = self.basis_values(ws[start:stop])
            np.conj(cw, out=cw)
            np.multiply(*((cw, ez) if swapped else (ez, cw)), out=cw)
            np.sum(cw, axis=0, out=k[start:stop])
            start = stop
        return complex(k[0]) if single else k

    def normalized_kernel(self, z):
        """Coefficients of k_z = K(., z)/sqrt(K(z, z)) in the basis (unit
        norm): shape (B,) for one point, (m, B) for an array of points."""
        pts, e, single = self._rows(z)
        kzz = np.sum(np.abs(e) ** 2, axis=1)
        low = kzz < UNDERFLOW_FLOOR
        if np.any(low):
            raise ParameterError(f"K(z,z) underflow at z={pts[np.argmax(low)]}")
        v = np.conj(e) / np.sqrt(kzz)[:, None]
        return v[0] if single else v

    def truncation_tail_fraction(self, z):
        """Share of K(z, z) carried by the top-degree basis block (error
        heuristic): a float for one point, else one value per point."""
        _, e, single = self._rows(z)
        dens = np.abs(e) ** 2
        total = dens.sum(axis=1)
        # compress keeps the rows contiguous, unlike boolean indexing
        top = dens.compress(self.degrees == self.N, axis=1).sum(axis=1)
        frac = np.divide(top, total, out=np.zeros_like(total), where=total > 0)
        return float(frac[0]) if single else frac

    def inside_contract(self, z):
        """-rho(z) >= DELTA_INTERIOR, the interior accuracy contract: a bool
        for one point, else one per point.  Raises :class:`BoundaryError`
        naming the first point outside the closed domain, rho(z) >
        BOUNDARY_TOL_COEFF (1 + |z|^2), where the kernel is not defined (the
        truncated series would still return a number there)."""
        pts, single = _as_points(z, self.dim)
        domain = self.measure.domain
        rho = np.atleast_1d(domain.rho(pts[0] if single else pts))
        outside = rho > BOUNDARY_TOL_COEFF * (1.0 + np.sum(np.abs(pts) ** 2, axis=1))
        if np.any(outside):
            i = int(np.argmax(outside))
            raise BoundaryError(f"point {pts[i]} lies outside {domain.name} "
                                f"(rho = {rho[i]:.6g})")
        inside = -rho >= DELTA_INTERIOR
        return bool(inside[0]) if single else inside

    def __repr__(self):
        return (f"<WeightedSpace {self.measure.domain.name} r={self.measure.r:g} "
                f"N={self.N} size={self.size}>")


def build_space(measure, N):
    """Construct the degree-<=N orthonormal basis for a weighted measure.

    The ellipsoid's closed-form moments normalize the monomials (the Gram is
    the identity analytically; the recorded residual is float rounding only).
    """
    alphas = multiindices(measure.domain.dim, N)
    logm = log_monomial_moments(measure, alphas)
    c = np.exp(-0.5 * logm)
    # orthogonality is analytic; residual records normalizer rounding
    resid = float(np.max(np.abs(c * c * np.exp(logm) - 1.0)))
    return WeightedSpace(measure, N, alphas, c.astype(np.complex128), resid,
                         log_moments=logm)


def kernel_mass_outside(space, z, center, radius, rule):
    """Weighted mass of |k_z|^2 outside the ball U = {|w - center| < radius}:
    a float for one point z of shape (n,), else one value per row of an
    (m, n) array.

    The quantity that must vanish as z approaches a peak boundary point for
    any fixed neighborhood U of that point.  ``rule`` must be a polar tensor
    rule: its nodes are radial points times torus points, w = s * zeta
    coordinatewise, so k_z(w) = sum_b (v_b s^alpha_b) e_b(zeta), v the
    coefficients of k_z.  The series is evaluated as one set of coefficients
    per radius at the torus points, never as a basis x nodes table.  It goes
    one point z at a time, and for each point a block of radii at a time,
    each block's series table holding at most ``_accel.BLOCK_ENTRIES``
    values, or one radius's when the torus is larger; the node distances go
    ``_accel.BLOCK_ENTRIES`` nodes at a time.  A
    call holds one node-length vector of |k_z|^2, and each point's mass
    rounds as a one-point call does.  Raises :class:`ParameterError` for any
    other rule and :class:`BoundaryError` when a point lies outside the
    closed domain (see ``inside_contract``).
    """
    require_full_rule(rule, "kernel_mass_outside")
    if rule.scheme is not Scheme.POLAR_TENSOR:
        raise ParameterError(
            f"kernel_mass_outside needs a {Scheme.POLAR_TENSOR.value} rule, "
            f"got a {rule.scheme.value} rule")
    space.inside_contract(z)
    v = space.normalized_kernel(z)
    single = v.ndim == 1
    radial, torus = rule.factors
    # rows by radius, contiguous for the series' vector products
    radial_powers = np.ascontiguousarray(_accel.monomial_matrix(radial, space.alphas).T)
    center = np.atleast_1d(np.asarray(center, dtype=np.complex128))
    w = measure_node_weights(space.measure, rule)
    nodes_at_once = _accel.BLOCK_ENTRIES
    outside = np.empty(len(rule.nodes), dtype=bool)
    for i in range(0, len(outside), nodes_at_once):
        nodes = rule.nodes[i:i + nodes_at_once]
        outside[i:i + nodes_at_once] = np.linalg.norm(nodes - center, axis=1) >= radius
    per = len(torus)
    step = max(1, _accel.BLOCK_ENTRIES // per)
    d = np.empty(len(outside))
    masses = []
    for vz in np.atleast_2d(v):
        for i in range(0, len(radial_powers), step):
            series = space.eval_series(vz * radial_powers[i:i + step], torus)
            d[i * per:(i + step) * per] = np.abs(series.ravel())
        np.square(d, out=d)
        masses.append(np.sum(w * d * outside))
    return float(masses[0]) if single else np.array(masses)


# ---------------------------------------------------------------------------
# module-level verification checks
# ---------------------------------------------------------------------------

def build_inflated_space(base_space, p):
    """Unweighted space over the inflation of the base domain, same degree."""
    infl_dom = inflate(base_space.measure.domain, p, base_space.measure.r)
    return build_space(WeightedMeasure(infl_dom, 0.0), base_space.N)


def inflation_kernel_residuals(base_space, p, zs, xis, infl_space=None):
    """Relative residuals |K^r(z,xi) - c_{p,r} K_infl((z,0),(xi,0))| / |K^r(z,xi)|
    over paired point arrays of shape (m, n)."""
    if infl_space is None:
        infl_space = build_inflated_space(base_space, p)
    p = int(p)
    zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
    xis = np.atleast_2d(np.asarray(xis, dtype=np.complex128))
    zeros = np.zeros((len(zs), p), dtype=np.complex128)
    kb = base_space.kernel(zs, xis)
    ki = infl_space.kernel(np.hstack([zs, zeros]), np.hstack([xis, zeros]))
    c = inflation_constant(p, base_space.measure.r)
    return np.abs(kb - c * ki) / np.abs(kb), kb, ki


@dataclass(frozen=True)
class SliceInequalityCheck:
    lhs: float
    rhs: float
    margin: float


def slice_inequality_check(base_space, p, G, z, fiber_order=96):
    """Sub-mean-value estimate on the inflation fiber.

    For G holomorphic in w on the fiber over z, |G(z, 0)|^2 is bounded by the
    fiber average of |G(z, .)|^2 against c_{p,r} (-rho(z))^r.  Returns
    rhs - lhs, expected >= 0 (constants achieve equality).
    """
    p, r = inflation_parameters(p, base_space.measure.r)
    if p > 2:
        raise CapabilityError("fiber quadrature implemented for p <= 2")
    dom = base_space.measure.domain
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    s = -float(dom.rho(z))
    if s <= 0:
        raise BoundaryError(f"point {z} is not strictly inside {dom.name}")
    from .domains import EllipsoidDomain
    fiber = EllipsoidDomain((2.0 * p / r,) * p, name="fiber")
    frule = polar_tensor_rule(WeightedMeasure(fiber, 0.0), radial_order=fiber_order,
                              angular_order=2 * fiber_order if p == 1 else 64)
    scale = s ** (r / (2.0 * p))
    nodes = frule.nodes * scale
    weights = frule.weights * scale ** (2 * p)
    gv = np.asarray(G(z, nodes), dtype=np.complex128)
    rhs = float(np.sum(weights * np.abs(gv) ** 2)) / (inflation_constant(p, r) * s ** r)
    g0 = complex(np.asarray(G(z, np.zeros((1, p), dtype=np.complex128))).ravel()[0])
    lhs = abs(g0) ** 2
    return SliceInequalityCheck(lhs, rhs, rhs - lhs)


@dataclass(frozen=True)
class ComparabilityCheck:
    ratio_min: float
    ratio_max: float
    constant: float
    within_weight_bounds: bool       # ratios within [1/c, c]
    within_kernel_bounds: bool       # ratios within [1/c^2, c^2]


def diagonal_comparability_check(space1, space2, samples, c):
    """Diagonal kernel ratios K_2(z,z)/K_1(z,z) for comparable weights.

    Weights comparable with constant c force the ratio into [1/c, c] (and a
    fortiori into [1/c^2, c^2]).  Out-of-bound ratios are reported through
    the flags, not raised.
    """
    if space1.dim != space2.dim:
        raise ParameterError("spaces must live on domains of equal dimension")
    samples = np.asarray(samples, dtype=np.complex128)
    ratios = space2.kernel(samples, samples).real / space1.kernel(samples, samples).real
    lo, hi = float(ratios.min()), float(ratios.max())
    c = float(c)
    return ComparabilityCheck(
        lo, hi, c,
        within_weight_bounds=(lo >= 1.0 / c - 1e-12 and hi <= c + 1e-12),
        within_kernel_bounds=(lo >= 1.0 / c ** 2 - 1e-12 and hi <= c ** 2 + 1e-12))
