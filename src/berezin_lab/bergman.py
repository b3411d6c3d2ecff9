"""Orthonormal bases, weighted Bergman kernels, projections, and checks.

A :class:`WeightedSpace` is the degree-<=N polynomial model of the weighted
Bergman space: on Reinhardt domains the monomials are exactly orthogonal and
the basis is e_alpha = z^alpha / sqrt(m_alpha) with closed-form moments; on
plug-in domains the monomials are orthogonalized against a quadrature Gram
matrix.  The truncated kernel is K(z, w) = sum_b e_b(z) conj(e_b(w)).

Kernel evaluations are advertised for -rho(z) >= DELTA_INTERIOR; nearer the
boundary values are still returned, with the last-degree share of K(z, z)
available as a truncation-error heuristic.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import _accel
from .domains import inflate
from .errors import (BoundaryError, CapabilityError, ConditioningError,
                     ParameterError)
from .quadrature import (WeightedMeasure, inflation_constant,
                         log_monomial_moments, measure_node_weights,
                         polar_tensor_rule)

DELTA_INTERIOR = 0.02        # accuracy contract: kernel advertised for -rho >= this
GRAM_EIGENVALUE_FLOOR = 1e-12
UNDERFLOW_FLOOR = 1e-300


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
    coeffs : complex array of basis coefficients over the monomials.  On
        closed-moment (Reinhardt) domains a length-B vector of normalizers
        1/sqrt(m_alpha), so e_b = coeffs[b] * z^alphas[b]; on plug-in domains
        the (B, B) Gram-orthogonalizing matrix, basis = coeffs @ monomials.
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

    @property
    def normalized_monomials(self):
        """True when the basis is z^alpha / sqrt(m_alpha) with closed-form
        moments ``log_moments`` (normalizers held as a vector)."""
        return self.coeffs.ndim == 1

    def basis_values(self, points):
        """Matrix e_b(points): shape (B, m)."""
        points = np.asarray(points, dtype=np.complex128)
        if points.ndim == 1:
            points = points[:, None] if self.dim == 1 else points[None, :]
        mon = _accel.monomial_matrix(points, self.alphas)
        if self.normalized_monomials:
            mon *= self.coeffs[:, None]
            return mon
        return self.coeffs @ mon

    def eval_series(self, coefficients, points):
        """Evaluate sum_b coefficients[b] e_b at points (chunked)."""
        points = np.asarray(points, dtype=np.complex128)
        if points.ndim == 1:
            points = points[:, None] if self.dim == 1 else points[None, :]
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        if self.normalized_monomials:
            mono_coeffs = coefficients * self.coeffs
        else:
            mono_coeffs = coefficients @ self.coeffs
        return _accel.series_values(points, self.alphas, mono_coeffs)

    def __repr__(self):
        return (f"<WeightedSpace {self.measure.domain.name} r={self.measure.r:g} "
                f"N={self.N} size={self.size}>")


def build_space(measure, N, rule=None):
    """Construct the degree-<=N orthonormal basis for a weighted measure.

    Reinhardt ellipsoid domains use closed-form moments (the Gram is the
    identity analytically; the recorded residual is float rounding only).
    Other domains require a quadrature rule; the monomial Gram is then
    orthogonalized through a Hermitian eigendecomposition, and eigenvalues
    below 1e-12 raise :class:`ConditioningError`.
    """
    alphas = multiindices(measure.domain.dim, N)
    if measure.domain.exponents is not None:
        logm = log_monomial_moments(measure, alphas)
        c = np.exp(-0.5 * logm)
        # orthogonality is analytic; residual records normalizer rounding
        resid = float(np.max(np.abs(c * c * np.exp(logm) - 1.0)))
        return WeightedSpace(measure, N, alphas, c.astype(np.complex128), resid,
                             log_moments=logm)
    if rule is None:
        raise CapabilityError(
            f"domain {measure.domain.name} has no closed-form moments; "
            "supply a quadrature rule for Gram orthogonalization")
    mon = _accel.monomial_matrix(rule.nodes, alphas)
    w = measure_node_weights(measure, rule)
    gram = (mon * w) @ mon.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    evals, vecs = np.linalg.eigh(gram)
    if evals[0] < GRAM_EIGENVALUE_FLOOR:
        raise ConditioningError(
            f"monomial Gram matrix is numerically singular "
            f"(smallest eigenvalue {evals[0]:.3e}); refine the quadrature rule",
            smallest_eigenvalue=float(evals[0]))
    coeffs = (vecs / np.sqrt(evals)).conj().T
    resid = float(np.max(np.abs(coeffs @ gram @ coeffs.conj().T
                                - np.eye(len(alphas)))))
    return WeightedSpace(measure, N, alphas, coeffs, resid)


@dataclass(frozen=True)
class KernelEvaluator:
    """Truncated-series evaluator for the weighted Bergman kernel."""

    space: WeightedSpace

    def kernel(self, z, w):
        """K(z, w) = sum_b e_b(z) conj(e_b(w)) for single points."""
        ez = self.space.basis_values(np.atleast_1d(np.asarray(z, dtype=np.complex128)).reshape(1, -1))
        ew = self.space.basis_values(np.atleast_1d(np.asarray(w, dtype=np.complex128)).reshape(1, -1))
        return complex(np.sum(ez[:, 0] * np.conj(ew[:, 0])))

    def kernel_pairs(self, zs, ws):
        """K(z_i, w_i) for paired point arrays of shape (m, n)."""
        ez = self.space.basis_values(zs)
        ew = self.space.basis_values(ws)
        return np.sum(ez * np.conj(ew), axis=0)

    def kernel_diag(self, z):
        ez = self.space.basis_values(np.asarray(z, dtype=np.complex128).reshape(1, -1))
        return float(np.sum(np.abs(ez[:, 0]) ** 2))

    def normalized_kernel(self, z):
        """Coefficients of k_z = K(., z)/sqrt(K(z, z)) in the basis (unit norm)."""
        ez = self.space.basis_values(np.asarray(z, dtype=np.complex128).reshape(1, -1))[:, 0]
        kzz = float(np.sum(np.abs(ez) ** 2))
        if kzz < UNDERFLOW_FLOOR:
            raise ParameterError(f"K(z,z) underflow at z={z}")
        return np.conj(ez) / np.sqrt(kzz)

    def truncation_tail_fraction(self, z):
        """Share of K(z, z) carried by the top-degree basis block (error heuristic)."""
        ez = self.space.basis_values(np.asarray(z, dtype=np.complex128).reshape(1, -1))[:, 0]
        dens = np.abs(ez) ** 2
        top = self.space.degrees == self.space.N
        total = float(dens.sum())
        return float(dens[top].sum() / total) if total > 0 else 0.0

    def inside_contract(self, z):
        return -float(self.space.measure.domain.rho(np.asarray(z, dtype=np.complex128))) >= DELTA_INTERIOR


def project(space, f, rule):
    """Quadrature Bergman projection: coefficients <f, e_b> in the basis."""
    vals = np.asarray(f(rule.nodes), dtype=np.complex128)
    w = measure_node_weights(space.measure, rule)
    eb = space.basis_values(rule.nodes)
    return np.conj(eb) @ (w * vals)


def kernel_mass_outside(ev, z, center, radius, rule):
    """Weighted mass of |k_z|^2 outside the ball U = {|w - center| < radius}.

    The quantity that must vanish as z approaches a peak boundary point for
    any fixed neighborhood U of that point.
    """
    space = ev.space
    v = ev.normalized_kernel(z)
    center = np.atleast_1d(np.asarray(center, dtype=np.complex128))
    vals = space.eval_series(v, rule.nodes)
    dens = np.abs(vals) ** 2
    w = measure_node_weights(space.measure, rule)
    outside = np.linalg.norm(rule.nodes - center[None, :], axis=1) >= radius
    return float(np.sum(w * dens * outside))


# ---------------------------------------------------------------------------
# module-level verification checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InflationKernelCheck:
    base_value: complex
    inflated_value: complex
    constant: float
    residual: float


def build_inflated_space(base_space, p):
    """Unweighted space over the inflation of the base domain, same degree."""
    r = base_space.measure.r
    p = int(p)
    if not 0.0 < r <= p:
        raise ParameterError(f"inflation requires 0 < r <= p, got r={r}, p={p}")
    infl_dom = inflate(base_space.measure.domain, p, r)
    if infl_dom.exponents is None:
        raise CapabilityError("inflated moments unavailable for this base domain")
    return build_space(WeightedMeasure(infl_dom, 0.0), base_space.N)


def inflation_kernel_residuals(base_space, p, zs, xis, infl_space=None):
    """Relative residuals |K^r(z,xi) - c_{p,r} K_infl((z,0),(xi,0))| / |K^r(z,xi)|
    over paired point arrays of shape (m, n)."""
    if infl_space is None:
        infl_space = build_inflated_space(base_space, p)
    p = int(p)
    zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
    xis = np.atleast_2d(np.asarray(xis, dtype=np.complex128))
    ev_base = KernelEvaluator(base_space)
    ev_infl = KernelEvaluator(infl_space)
    zeros = np.zeros((len(zs), p), dtype=np.complex128)
    kb = ev_base.kernel_pairs(zs, xis)
    ki = ev_infl.kernel_pairs(np.hstack([zs, zeros]), np.hstack([xis, zeros]))
    c = inflation_constant(p, base_space.measure.r)
    return np.abs(kb - c * ki) / np.abs(kb), kb, ki


def inflation_kernel_check(base_space, p, z, xi, delta=DELTA_INTERIOR):
    """Compare K^r_base(z, xi) with c_{p,r} K_inflated((z,0), (xi,0)).

    The inflated space is unweighted, one (or p) dimensions up, truncated at
    the same total degree.  Requires 0 < r <= p; r = 0 needs no inflation and
    is rejected.
    """
    dom = base_space.measure.domain
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    xi = np.atleast_1d(np.asarray(xi, dtype=np.complex128))
    for pt in (z, xi):
        if -float(dom.rho(pt)) < delta:
            raise BoundaryError(
                f"point {pt} violates the interior accuracy contract (-rho >= {delta})")
    resid, kb, ki = inflation_kernel_residuals(base_space, p, z[None, :], xi[None, :])
    c = inflation_constant(int(p), base_space.measure.r)
    return InflationKernelCheck(complex(kb[0]), complex(ki[0]), c, float(resid[0]))


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
    r = base_space.measure.r
    p = int(p)
    if not 0.0 < r <= p:
        raise ParameterError(f"slice check requires 0 < r <= p, got r={r}, p={p}")
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
    ev1 = KernelEvaluator(space1)
    ev2 = KernelEvaluator(space2)
    ratios = np.array([ev2.kernel_diag(z) / ev1.kernel_diag(z) for z in samples])
    lo, hi = float(ratios.min()), float(ratios.max())
    c = float(c)
    return ComparabilityCheck(
        lo, hi, c,
        within_weight_bounds=(lo >= 1.0 / c - 1e-12 and hi <= c + 1e-12),
        within_kernel_bounds=(lo >= 1.0 / c ** 2 - 1e-12 and hi <= c ** 2 + 1e-12))
