"""Weighted integration over model domains.

For a generalized ellipsoid E(q) and weight (-rho)^r, every monomial moment

    m_alpha = int_{E(q)} |z^alpha|^2 (-rho(z))^r dV(z)

reduces by polar coordinates and the substitution t_j = |z_j|^{q_j} to a
Dirichlet integral over the simplex:

    m_alpha = (2 pi)^n  prod_j Gamma(a_j)/q_j  *  Gamma(r+1) / Gamma(sum a_j + r + 1),
    a_j = (2 alpha_j + 2) / q_j,

evaluated through log-gamma to avoid overflow.  The same substitution gives
the quadrature rules: a Gauss-Jacobi radial grid (tensored through a Duffy
map onto the simplex for n = 2) crossed with equispaced angular grids, with
the measure weight divided back out of the stored weights so that
``integrate`` can apply (-rho)^r explicitly.

dV is Lebesgue measure on C^n ~ R^{2n} throughout.
"""

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln, gammaln, roots_jacobi, roots_legendre

from . import _accel
from .domains import inflation_parameters
from .errors import BoundaryError, CapabilityError, NumericError, ParameterError

# rows per draw in monomial_moment_mc and monte_carlo_rule.  The uniform
# stream does not depend on it; it is fixed because monomial_moment_mc adds
# one partial sum per chunk, so its estimates' last bits do
MC_CHUNK = 1_000_000


@dataclass(frozen=True)
class WeightedMeasure:
    """The measure (-rho)^r dV on a domain; r >= 0."""

    domain: object
    r: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ParameterError(f"weight exponent r must be >= 0, got {self.r}")
        object.__setattr__(self, "r", float(self.r))

    def total_mass(self, rule=None):
        zero = (0,) * self.domain.dim
        return monomial_moment(self, zero, rule=rule)


class Scheme(enum.Enum):
    POLAR_TENSOR = "PolarTensor"
    RADIAL2D = "Radial2D"
    MONTE_CARLO = "MonteCarlo"


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray            # (m, n) complex, strictly interior
    weights: np.ndarray          # (m,) positive
    scheme: Scheme
    orders: tuple
    r: float                     # weight exponent the rule was built for
    seed: int = None             # MonteCarlo only
    radial_only: bool = False    # nodes on the real-positive section; valid
                                 # only for torus-invariant integrands
    negrho: np.ndarray = None    # exact -rho at the nodes when known by
                                 # construction (avoids |sqrt(t)|^2 round-off)
    factors: tuple = None        # Radial2D only: the 1-D Duffy factors, (t,)
                                 # for n = 1 or (u1, u2) for n = 2, where node
                                 # a*len(u2)+b has t1 = u1[a], t2 = (1-u1[a]) u2[b]

    def __len__(self):
        return len(self.weights)


def measure_node_weights(measure, rule):
    """weights * (-rho)^r at the rule nodes, using the rule's exact -rho."""
    if measure.r == 0:
        return rule.weights
    negrho = rule.negrho
    if negrho is None:
        negrho = -np.atleast_1d(measure.domain.rho(rule.nodes))
    return rule.weights * negrho ** measure.r


def _jacobi_recurrence(n, a, b):
    """Orthonormal three-term recurrence coefficients for (1-x)^a (1+x)^b."""
    s = a + b
    k = np.arange(n, dtype=np.longdouble)
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = (b * b - a * a) / ((2 * k + s) * (2 * k + s + 2))
    alpha[0] = (b - a) / (s + 2)
    beta = np.empty(n, dtype=np.longdouble)
    beta[0] = np.exp(betaln(a + 1.0, b + 1.0) + (s + 1.0) * np.log(2.0))
    k1 = k[1:]
    beta[1:] = (4 * k1 * (k1 + a) * (k1 + b) * (k1 + s)
                / ((2 * k1 + s) ** 2 * (2 * k1 + s + 1) * (2 * k1 + s - 1)))
    return alpha, beta


@functools.lru_cache(maxsize=32)
def _jac01(n, a, b):
    """Nodes/weights for the weight (1-u)^a u^b on [0, 1], read-only.

    Memoized per (n, a, b): spaces over one measure share the polished rule.
    Library nodes at order ~100+ carry enough rounding that degree-2n-1
    moments miss the 1e-12 exactness contract, so nodes are polished by
    Newton iteration on the orthonormal Jacobi recurrence in extended
    precision and weights recomputed as Christoffel numbers 1/sum_k p_k^2.
    """
    if a == 0.0 and b == 0.0:
        x0, _ = roots_legendre(n)
    else:
        x0, _ = roots_jacobi(n, a, b)
    x = x0.astype(np.longdouble)
    alpha, beta = _jacobi_recurrence(n + 1, a, b)
    sqb = np.sqrt(beta)

    def _recurrence_pass(x):
        pkm1 = np.zeros_like(x)
        pk = np.full_like(x, 1.0 / sqb[0])
        dkm1 = np.zeros_like(x)
        dk = np.zeros_like(x)
        sumsq = pk * pk
        for k in range(n):
            pkp1 = ((x - alpha[k]) * pk - sqb[k] * pkm1) / sqb[k + 1]
            dkp1 = (pk + (x - alpha[k]) * dk - sqb[k] * dkm1) / sqb[k + 1]
            pkm1, pk = pk, pkp1
            dkm1, dk = dk, dkp1
            if k < n - 1:
                sumsq = sumsq + pk * pk
        return pk, dk, sumsq

    for _ in range(2):
        pn, dpn, _ = _recurrence_pass(x)
        x = x - pn / dpn
    _, _, sumsq = _recurrence_pass(x)
    w = (1.0 / sumsq).astype(np.float64)
    x = x.astype(np.float64)
    u, wu = 0.5 * (x + 1.0), w * 0.5 ** (a + b + 1.0)
    u.setflags(write=False)
    wu.setflags(write=False)
    return u, wu


def _require_ellipsoid(measure):
    if measure.domain.exponents is None:
        raise CapabilityError(
            f"domain {measure.domain.name} has no ellipsoid structure")
    return np.asarray(measure.domain.exponents, dtype=float)


def polar_tensor_rule(measure, radial_order=128, angular_order=None):
    """Full polar tensor rule for an ellipsoid domain with n <= 2.

    On the disk the rule integrates polynomials in z, zbar of total degree
    <= 2*radial_order - 1 against (-rho)^r exactly (angular grid permitting).
    """
    q = _require_ellipsoid(measure)
    n = len(q)
    r = measure.r
    if angular_order is None:
        angular_order = 2 * radial_order
    if n == 1:
        t, wt = _jac01(radial_order, r, 2.0 / q[0] - 1.0)
        theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
        radii = t ** (1.0 / q[0])
        nodes = (radii[:, None] * np.exp(1j * theta)[None, :]).reshape(-1, 1)
        base = wt / q[0] * (2.0 * np.pi / angular_order)
        w = np.repeat(base / (1.0 - t) ** r, angular_order)
        negrho = np.repeat(1.0 - t, angular_order)
        return QuadratureRule(nodes, w, Scheme.POLAR_TENSOR,
                              (radial_order, angular_order), r, negrho=negrho)
    if n == 2:
        if radial_order ** 2 * angular_order ** 2 > 2 * 10 ** 7:
            raise ParameterError(
                "full tensor rule for n=2 would exceed 2e7 nodes; "
                "lower the orders or use radial_rule/monte_carlo_rule")
        t1, t2, wr, negrho, _ = _simplex_radial(q, r, radial_order)
        theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
        phase = np.exp(1j * theta)
        r1 = t1 ** (1.0 / q[0])
        r2 = t2 ** (1.0 / q[1])
        # nodes: (radial pair) x (theta1) x (theta2)
        z1 = np.broadcast_to(r1[:, None, None] * phase[None, :, None],
                             (len(t1), angular_order, angular_order))
        z2 = np.broadcast_to(r2[:, None, None] * phase[None, None, :],
                             (len(t1), angular_order, angular_order))
        nodes = np.stack([z1.ravel(), z2.ravel()], axis=1)
        ang_w = (2.0 * np.pi / angular_order) ** 2
        w = np.repeat(wr * ang_w, angular_order * angular_order)
        return QuadratureRule(nodes, w, Scheme.POLAR_TENSOR,
                              (radial_order, angular_order), r,
                              negrho=np.repeat(negrho, angular_order * angular_order))
    raise CapabilityError(f"polar tensor rule supports n <= 2, got n = {n}")


def _simplex_radial(q, r, order):
    """Duffy-mapped Gauss-Jacobi grid on the t-simplex for n = 2.

    Returns flattened t1, t2, weights (with the measure weight (1-t1-t2)^r
    divided out), -rho = 1 - t1 - t2 at the nodes, and the 1-D factors
    (u1, u2) of the grid.
    """
    a1 = 2.0 / q[0]
    a2 = 2.0 / q[1]
    # t1 = u1, t2 = (1-u1) u2; Jacobian (1-u1); weight t1^{a1-1} t2^{a2-1} (1-t)^r
    u1, w1 = _jac01(order, a2 + r, a1 - 1.0)
    u2, w2 = _jac01(order, r, a2 - 1.0)
    t1 = np.repeat(u1, order)
    t2 = (1.0 - np.repeat(u1, order)) * np.tile(u2, order)
    w = np.outer(w1, w2).ravel() / (q[0] * q[1])
    negrho = (1.0 - np.repeat(u1, order)) * (1.0 - np.tile(u2, order))
    if r > 0:
        w = w / negrho ** r
    return t1, t2, w, negrho, (u1, u2)


def radial_rule(measure, order=128):
    """Radial-section rule: exact angular integration folded into the weights.

    Nodes lie on the real-positive modulus section, so the rule integrates
    only torus-invariant functions correctly (scheme Radial2D).  The rule
    keeps its 1-D Duffy factors, so |z^alpha|^2 at the nodes factors into
    per-coordinate power tables (see ``QuadratureRule.factors``).
    """
    q = _require_ellipsoid(measure)
    n = len(q)
    r = measure.r
    if n == 1:
        t, wt = _jac01(order, r, 2.0 / q[0] - 1.0)
        nodes = (t ** (1.0 / q[0])).astype(np.complex128).reshape(-1, 1)
        w = (2.0 * np.pi / q[0]) * wt / (1.0 - t) ** r
        return QuadratureRule(nodes, w, Scheme.RADIAL2D, (order,), r,
                              radial_only=True, negrho=1.0 - t, factors=(t,))
    if n == 2:
        t1, t2, w, negrho, factors = _simplex_radial(q, r, order)
        nodes = np.column_stack([t1 ** (1.0 / q[0]), t2 ** (1.0 / q[1])])
        w = (2.0 * np.pi) ** 2 * w
        return QuadratureRule(nodes.astype(np.complex128), w, Scheme.RADIAL2D,
                              (order,), r, radial_only=True, negrho=negrho,
                              factors=factors)
    raise CapabilityError(f"radial rule supports n <= 2, got n = {n}")


def monte_carlo_rule(measure, samples=1_000_000, seed=42):
    """Rejection rule: uniform draws on the coordinate bounding box."""
    dom = measure.domain
    n = dom.dim
    half = 1.0 if dom.exponents is not None else float(dom.bounding_radius)
    rng = np.random.default_rng(seed)
    kept = []
    total = 0
    while total < samples:
        m = min(MC_CHUNK, samples - total)
        u = rng.uniform(-half, half, size=(m, 2 * n))
        z = u[:, 0::2] + 1j * u[:, 1::2]
        inside = np.atleast_1d(dom.rho(z)) < 0
        kept.append(z[inside])
        total += m
    nodes = np.concatenate(kept, axis=0)
    box_vol = (2.0 * half) ** (2 * n)
    w = np.full(len(nodes), box_vol / samples)
    return QuadratureRule(nodes, w, Scheme.MONTE_CARLO, (samples,),
                          measure.r, seed=seed)


def finite_node_values(f, nodes, what):
    """``f(nodes)`` as complex128; raises :class:`NumericError` naming the
    first node where a value is NaN/Inf.  The evaluation runs with numpy's
    floating-point warnings off, since that error reports the bad node."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.asarray(f(nodes), dtype=np.complex128)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NumericError(f"{what} not finite at node {nodes[idx]}",
                           node=nodes[idx])
    return vals


def require_full_rule(rule, what):
    """Raise :class:`ParameterError` when ``rule`` is a radial-section rule:
    it integrates only torus-invariant functions, and ``what`` integrates
    functions that are not."""
    if rule.radial_only:
        raise ParameterError(
            f"{what} needs a full quadrature rule: the {rule.scheme.value} rule "
            "integrates only torus-invariant functions")


def integrate(f, measure, rule):
    """sum_i w_i f(node_i) (-rho(node_i))^r; deterministic given the rule."""
    vals = finite_node_values(f, rule.nodes, "integrand")
    return complex(np.sum(measure_node_weights(measure, rule) * vals))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def log_monomial_moments(measure, alphas):
    """log of int |z^alpha|^2 (-rho)^r dV for an array of multiindices."""
    q = _require_ellipsoid(measure)
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    a = (2.0 * alphas + 2.0) / q
    return (len(q) * math.log(2.0 * math.pi)
            + np.sum(gammaln(a) - np.log(q), axis=1)
            + gammaln(measure.r + 1.0)
            - gammaln(np.sum(a, axis=1) + measure.r + 1.0))


def monomial_moment(measure, alpha, rule=None):
    """Squared weighted L2 norm of the monomial z^alpha.

    Closed form on ellipsoid (Reinhardt) domains; otherwise computed with the
    supplied quadrature rule.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.int64))
    if alpha.shape != (measure.domain.dim,):
        raise ParameterError(
            f"multiindex length {alpha.shape} does not match dim {measure.domain.dim}")
    if np.any(alpha < 0):
        raise ParameterError("multiindex entries must be nonnegative")
    if measure.domain.exponents is not None:
        return float(np.exp(log_monomial_moments(measure, alpha[None, :])[0]))
    if rule is None:
        raise CapabilityError(
            f"domain {measure.domain.name} is not Reinhardt-with-closed-moments "
            "and no quadrature rule was supplied")
    val = integrate(lambda z: np.prod(np.abs(z) ** (2 * alpha), axis=-1),
                    measure, rule)
    return float(val.real)


# ---------------------------------------------------------------------------
# inflation constant and dilation identity
# ---------------------------------------------------------------------------

def inflation_constant(p, r):
    """Volume of { sum_j |w_j|^{2p/r} < 1 } in C^p: pi^p Gamma(1+r/p)^p / Gamma(1+r)."""
    p, r = inflation_parameters(p, r)
    return float(np.exp(p * math.log(math.pi)
                        + p * gammaln(1.0 + r / p) - gammaln(1.0 + r)))


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int
    seed: int


def monomial_moment_mc(measure, alpha, samples=1_000_000, seed=42):
    """Monte Carlo estimate of a monomial moment (cross-check oracle).

    Uniform draws on the coordinate bounding box; the weighted integrand is
    averaged with its sample standard error.  Reproducible for a fixed seed.
    """
    dom = measure.domain
    n = dom.dim
    half = 1.0 if dom.exponents is not None else float(dom.bounding_radius)
    rng = np.random.default_rng(seed)
    alpha = np.asarray(alpha, dtype=float)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(MC_CHUNK, samples - done)
        u = rng.uniform(-half, half, size=(m, 2 * n))
        z = u[:, 0::2] + 1j * u[:, 1::2]
        rho = np.atleast_1d(dom.rho(z))
        inside = rho < 0
        f = np.zeros(m)
        if np.any(inside):
            vals = np.prod(np.abs(z[inside]) ** (2 * alpha), axis=1)
            if measure.r > 0:
                vals = vals * (-rho[inside]) ** measure.r
            f[inside] = vals
        total += float(f.sum())
        total_sq += float((f * f).sum())
        done += m
    box = (2.0 * half) ** (2 * n)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return MCEstimate(box * mean, box * np.sqrt(var / samples), samples, seed)


def inflation_constant_mc(p, r, samples=10_000_000, seed=42):
    """Monte Carlo estimate of the fiber volume; reproducible for fixed seed."""
    p, r = inflation_parameters(p, r)
    hits = _accel.count_inside(np.random.default_rng(seed), samples, p, p / r, 1.0)
    box_vol = 4.0 ** p
    phat = hits / samples
    value = box_vol * phat
    stderr = box_vol * math.sqrt(max(phat * (1.0 - phat), 0.0) / samples)
    return MCEstimate(value, stderr, samples, seed)


@dataclass(frozen=True)
class DilationCheck:
    lhs: float
    rhs: float
    rhs_closed_form: float
    residual: float


def dilation_identity_check(domain, p, r, z, samples=1_000_000, seed=42):
    """Fiber-volume dilation: vol{sum |w_j|^{2p/r} < -rho(z)} vs (-rho(z))^r c_{p,r}.

    Both sides are estimated with independent Monte Carlo streams (seed and
    seed+1), so the returned residual reflects genuine sampling error rather
    than the change of variables cancelling exactly.
    """
    z = np.asarray(z, dtype=np.complex128)
    s = -float(domain.rho(z))
    if s <= 0:
        raise BoundaryError(f"point {z} is not strictly inside {domain.name}")
    p, r = inflation_parameters(p, r)
    half = s ** (r / (2.0 * p))
    # sum |w|^{2p/r} < s  <=>  sum |w/half|^{2p/r} < 1
    hits = _accel.count_inside(np.random.default_rng(seed), samples, p, p / r, half)
    lhs = (2.0 * half) ** (2 * p) * hits / samples
    mc = inflation_constant_mc(p, r, samples=samples, seed=seed + 1)
    rhs = s ** r * mc.value
    rhs_cf = s ** r * inflation_constant(p, r)
    return DilationCheck(lhs, rhs, rhs_cf, abs(lhs - rhs) / abs(rhs))
