"""Weighted integration over model domains.

For a generalized ellipsoid E(q) and weight (-rho)^r, every monomial moment

    m_alpha = int_{E(q)} |z^alpha|^2 (-rho(z))^r dV(z)

reduces by polar coordinates and the substitution t_j = |z_j|^{q_j} to a
Dirichlet integral over the simplex:

    m_alpha = (2 pi)^n  prod_j Gamma(a_j)/q_j  *  Gamma(r+1) / Gamma(sum a_j + r + 1),
    a_j = (2 alpha_j + 2) / q_j,

evaluated through log-gamma to avoid overflow.  The same substitution gives
the quadrature rules: a stick-breaking map of the unit cube onto the simplex
factors the Dirichlet weight into one Gauss-Jacobi rule per coordinate, in
any dimension, and the full rule crosses that radial grid with equispaced
angular grids.  The measure weight is divided back out of the stored
weights, so that ``measure_node_weights`` applies (-rho)^r explicitly.

dV is Lebesgue measure on C^n ~ R^{2n} throughout.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .domains import inflation_parameters
from .errors import BoundaryError, CapabilityError, NumericError, ParameterError

# rows per draw in monomial_moment_mc and monte_carlo_rule.  The uniform
# stream does not depend on it; it is fixed because monomial_moment_mc adds
# one partial sum per chunk, so its estimates' last bits do
MC_CHUNK = 1_000_000


@dataclass(frozen=True)
class WeightedMeasure:
    """The measure (-rho)^r dV on an ellipsoid E(q); r >= 0.  The lab's
    moments, rules and bases all read q (``domain.exponents``)."""

    domain: object
    r: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ParameterError(f"weight exponent r must be >= 0, got {self.r}")
        object.__setattr__(self, "r", float(self.r))

    def total_mass(self):
        return monomial_moment(self, (0,) * self.domain.dim)


class Scheme(enum.Enum):
    POLAR_TENSOR = "PolarTensor"
    RADIAL = "Radial"            # nodes on the real-positive section; valid
                                 # only for torus-invariant integrands
    MONTE_CARLO = "MonteCarlo"


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray            # (m, n) complex, strictly interior
    weights: np.ndarray          # (m,) positive
    scheme: Scheme
    negrho: np.ndarray = None    # exact -rho at the nodes when known by
                                 # construction (avoids |sqrt(t)|^2 round-off)
    factors: tuple = None        # Radial: the n stick-breaking factors u_j, each
                                 # of length O = order; node i_1 O^(n-1) + ... + i_n
                                 # has u_j = factors[j][i_j] (see _stick_breaking).
                                 # PolarTensor: (radial, torus), real (R, n) radii
                                 # and complex (A^n, n) phases, where node
                                 # k*A^n+j is radial[k] * torus[j]

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


# log Gamma(k) = log((k-1)!) for whole k up to 171, where Gamma(k) is still a
# finite float.  math.lgamma is a few ulp off at small whole numbers, which is
# where the disk and ball moment arguments a_j = alpha_j + 1 lie
_LGAMMA_WHOLE = {k: math.log(math.factorial(k - 1)) for k in range(1, 172)}
# the same values indexed by k, for arrays; entry 0 is never read
_LGAMMA_TABLE = np.array([math.nan, *_LGAMMA_WHOLE.values()])


def _lgamma1(v):
    g = _LGAMMA_WHOLE.get(v)
    if g is None:
        try:
            g = math.lgamma(v)
        except (OverflowError, ValueError):
            g = math.nan
        if not math.isfinite(g):
            raise ParameterError(f"log Gamma({v:g}) is not a finite float; "
                                 "a weight or domain exponent is out of range")
    return g


def _lgamma(x):
    """log Gamma(x) for x > 0: a float for a scalar, else an array of x's shape.

    An array reads its whole numbers up to 171 from the table in one
    ``take``, and evaluates the other entries once per distinct value
    (moment arguments repeat: the a_j of multi-indices sharing an entry, and
    row sums equal to other a_j).  Raises ParameterError where log Gamma is
    not finite (x huge, infinite or nan).
    """
    if np.ndim(x) == 0:
        return _lgamma1(float(x))
    x = np.asarray(x, dtype=np.float64)
    whole = (x >= 1.0) & (x <= 171.0) & (np.trunc(x) == x)
    out = _LGAMMA_TABLE.take(np.where(whole, x, 0.0).astype(np.intp))
    if not whole.all():
        rest = ~whole
        others = x[rest]
        values = np.unique(others)     # sorted, so searchsorted finds each entry
        out[rest] = np.array([_lgamma1(v) for v in values.tolist()])[
            np.searchsorted(values, others)]
    return out


def _jacobi_recurrence(n, a, b):
    """Orthonormal three-term recurrence coefficients for (1-x)^a (1+x)^b."""
    s = a + b
    k = np.arange(n, dtype=np.longdouble)
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = (b * b - a * a) / ((2 * k + s) * (2 * k + s + 2))
    alpha[0] = (b - a) / (s + 2)
    beta = np.empty(n, dtype=np.longdouble)
    log_beta = _lgamma(a + 1.0) + _lgamma(b + 1.0) - _lgamma(s + 2.0)
    beta[0] = np.exp(log_beta + (s + 1.0) * np.log(2.0))
    k1 = k[1:]
    beta[1:] = (4 * k1 * (k1 + a) * (k1 + b) * (k1 + s)
                / ((2 * k1 + s) ** 2 * (2 * k1 + s + 1) * (2 * k1 + s - 1)))
    return alpha, beta


@functools.lru_cache(maxsize=32)
def _jac01(n, a, b):
    """Nodes/weights for the weight (1-u)^a u^b on [0, 1], read-only.

    Memoized per (n, a, b): spaces over one measure share the polished rule.
    The nodes are seeded by Golub-Welsch (Math. Comp. 23, 1969): the
    eigenvalues of the n x n symmetric tridiagonal Jacobi matrix, with
    alpha[:n] on the diagonal and sqrt(beta[1:n]) beside it.  Float64
    eigenvalues at order ~100+ carry enough rounding that degree-2n-1
    moments would miss the 1e-12 exactness contract, so
    :func:`_polished_rule` polishes them in extended precision.
    """
    alpha, beta = _jacobi_recurrence(n + 1, a, b)
    sqb = np.sqrt(beta)
    off = sqb[1:n].astype(np.float64)
    jacobi = np.diag(alpha[:n].astype(np.float64)) + np.diag(off, 1) + np.diag(off, -1)
    return _polished_rule(np.linalg.eigvalsh(jacobi), alpha, sqb, a, b)


def _polished_rule(x0, alpha, sqb, a, b):
    """The read-only rule (u, wu) of :func:`_jac01` from seed nodes ``x0``
    on [-1, 1], given the recurrence of order len(x0) + 1 (``sqb`` is
    sqrt(beta)): the nodes are polished by Newton iteration on the
    orthonormal Jacobi recurrence in extended precision, and the weights
    are the Christoffel numbers 1/sum_k p_k^2."""
    n = len(x0)
    x = np.asarray(x0).astype(np.longdouble)

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


def polar_tensor_rule(measure, radial_order=128, angular_order=None):
    """Full polar tensor rule for an ellipsoid domain with n <= 2.

    On the disk the rule integrates polynomials in z, zbar of total degree
    <= 2*radial_order - 1 against (-rho)^r exactly (angular grid permitting).
    Every node is a radial point times a torus point, z = radial[k] * torus[j]
    coordinatewise, and the rule keeps the two factors (see
    ``QuadratureRule.factors``).
    """
    q = np.asarray(measure.domain.exponents)
    n = len(q)
    if angular_order is None:
        angular_order = 2 * radial_order
    if n > 2:
        raise CapabilityError(f"polar tensor rule supports n <= 2, got n = {n}")
    radial, w, negrho, _ = _stick_breaking(q, measure.r, radial_order, angular_order)
    phase = np.exp(1j * (2.0 * np.pi * np.arange(angular_order) / angular_order))
    # torus point j_1 A^(n-1) + ... + j_n is (phase[j_1], ..., phase[j_n])
    torus = np.stack(np.meshgrid(*[phase] * n, indexing="ij"), axis=-1).reshape(-1, n)
    nodes = (radial[:, None, :] * torus[None, :, :]).reshape(-1, n)
    per_radius = len(torus)
    w = w * (2.0 * np.pi / angular_order) ** n
    return QuadratureRule(nodes, np.repeat(w, per_radius), Scheme.POLAR_TENSOR,
                          negrho=np.repeat(negrho, per_radius),
                          factors=(radial, torus))


def _stick_breaking(q, r, order, angular=1):
    """Gauss-Jacobi grid on the t-simplex, t_j = |z_j|^{q_j}, in any dimension.

    Stick-breaking, t_1 = u_1 and t_j = u_j prod_{i<j} (1 - u_i), maps the
    unit cube onto the simplex with -rho = prod_j (1 - u_j), and splits the
    weight prod_j t_j^{a_j-1} (1 - sum t)^r dt, a_j = 2/q_j, into one Jacobi
    weight per level, u_j ~ (1-u)^{r + sum_{i>j} a_i} u^{a_j-1}.  Returns
    |z_j| = t_j^{1/q_j} as an (order^n, n) array, the weights
    prod w_j / prod q_j over (-rho)^r, -rho, and the factors (u_1, ..., u_n).
    Raises ParameterError, before allocating, when the rule with ``angular``
    points per coordinate on each radial node would pass 2e7 nodes.
    """
    n = len(q)
    count = (order * angular) ** n
    if count > 2 * 10 ** 7:
        raise ParameterError(f"a tensor rule in dimension {n} would have {count:.3g} "
                             "nodes, more than 2e7; lower the orders or use "
                             "monte_carlo_rule")
    a = 2.0 / q
    radii = np.empty((order,) * n + (n,))
    factors = []
    stick = w = 1.0
    for j in range(n):
        u, wu = _jac01(order, r + float(np.sum(a[j + 1:])), a[j] - 1.0)
        factors.append(u)
        axis = (-1,) + (1,) * (n - 1 - j)      # level j runs along grid axis j
        u, wu = u.reshape(axis), wu.reshape(axis)
        radii[..., j] = (stick * u) ** (1.0 / q[j])
        stick = stick * (1.0 - u)
        w = w * wu
    negrho = stick.ravel()
    w = w.ravel() / math.prod(q)
    if r > 0:
        w = w / negrho ** r
    return radii.reshape(-1, n), w, negrho, tuple(factors)


def radial_rule(measure, order=128):
    """Radial-section rule: exact angular integration folded into the weights.

    Nodes lie on the real-positive modulus section, so the rule integrates
    only torus-invariant functions correctly (scheme Radial).  The rule
    keeps its 1-D stick-breaking factors, so |z^alpha|^2 at the nodes
    factors into per-level power tables (see ``QuadratureRule.factors``).
    """
    q = np.asarray(measure.domain.exponents)
    radii, w, negrho, factors = _stick_breaking(q, measure.r, order)
    return QuadratureRule(radii.astype(np.complex128), (2.0 * np.pi) ** len(q) * w,
                          Scheme.RADIAL, negrho=negrho, factors=factors)


def monte_carlo_rule(measure, samples=1_000_000, seed=42):
    """Rejection rule: uniform draws on the unit box |Re z_j|, |Im z_j| < 1,
    which holds every ellipsoid."""
    dom = measure.domain
    n = dom.dim
    rng = np.random.default_rng(seed)
    kept = []
    total = 0
    while total < samples:
        m = min(MC_CHUNK, samples - total)
        u = rng.uniform(-1.0, 1.0, size=(m, 2 * n))
        z = u[:, 0::2] + 1j * u[:, 1::2]
        inside = np.atleast_1d(dom.rho(z)) < 0
        kept.append(z[inside])
        total += m
    nodes = np.concatenate(kept, axis=0)
    w = np.full(len(nodes), 4.0 ** n / samples)
    return QuadratureRule(nodes, w, Scheme.MONTE_CARLO)


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


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def log_monomial_moments(measure, alphas):
    """log of int |z^alpha|^2 (-rho)^r dV for an array of multiindices."""
    q = np.asarray(measure.domain.exponents)
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    a = (2.0 * alphas + 2.0) / q
    lg = _lgamma(np.concatenate([a.ravel(), np.sum(a, axis=1) + measure.r + 1.0]))
    return (len(q) * math.log(2.0 * math.pi)
            + np.sum(lg[:a.size].reshape(a.shape) - np.log(q), axis=1)
            + _lgamma(measure.r + 1.0)
            - lg[a.size:])


def monomial_moment(measure, alpha):
    """Squared weighted L2 norm of the monomial z^alpha, in closed form."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.int64))
    if alpha.shape != (measure.domain.dim,):
        raise ParameterError(
            f"multiindex length {alpha.shape} does not match dim {measure.domain.dim}")
    if np.any(alpha < 0):
        raise ParameterError("multiindex entries must be nonnegative")
    return float(np.exp(log_monomial_moments(measure, alpha[None, :])[0]))


# ---------------------------------------------------------------------------
# inflation constant and dilation identity
# ---------------------------------------------------------------------------

def inflation_constant(p, r):
    """Volume of { sum_j |w_j|^{2p/r} < 1 } in C^p: pi^p Gamma(1+r/p)^p / Gamma(1+r)."""
    p, r = inflation_parameters(p, r)
    return float(np.exp(p * math.log(math.pi)
                        + p * _lgamma(1.0 + r / p) - _lgamma(1.0 + r)))


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int
    seed: int


def monomial_moment_mc(measure, alpha, samples=1_000_000, seed=42):
    """Monte Carlo estimate of a monomial moment (cross-check oracle).

    Uniform draws on the unit box, as in ``monte_carlo_rule``; the weighted
    integrand is averaged with its sample standard error.  Reproducible for
    a fixed seed.
    """
    dom = measure.domain
    n = dom.dim
    rng = np.random.default_rng(seed)
    alpha = np.asarray(alpha, dtype=float)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(MC_CHUNK, samples - done)
        u = rng.uniform(-1.0, 1.0, size=(m, 2 * n))
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
    box = 4.0 ** n
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return MCEstimate(box * mean, box * np.sqrt(var / samples), samples, seed)


def inflation_hits(pairs, samples, seed):
    """The hit count behind ``inflation_constant_mc(p, r, samples, seed)``
    for each (p, r) of ``pairs``, all counted in one pass over the seed's
    stream."""
    shapes = []
    for p, r in pairs:
        p, r = inflation_parameters(p, r)
        shapes.append((p, p / r))
    return _accel.count_inside(np.random.default_rng(seed), samples, shapes, 1.0)


def inflation_constant_mc(p, r, samples=10_000_000, seed=42, *, hits=None):
    """Monte Carlo estimate of the fiber volume; reproducible for fixed seed.

    ``hits`` is the pair's count from ``inflation_hits`` when the caller has
    counted several pairs in one pass; by default the pair counts its own.
    """
    p, r = inflation_parameters(p, r)
    if hits is None:
        hits, = inflation_hits([(p, r)], samples, seed)
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
    than the change of variables cancelling exactly.  The left side draws w
    on the unit box, whatever z is, so its hit rate scales as (-rho(z))^r;
    that box holds the fiber only when -rho(z) <= 1.
    """
    z = np.asarray(z, dtype=np.complex128)
    s = -float(domain.rho(z))
    if s <= 0:
        raise BoundaryError(f"point {z} is not strictly inside {domain.name}")
    p, r = inflation_parameters(p, r)
    if s > 1:
        raise ParameterError(f"-rho = {s!r} > 1 at {z}: the unit box does not "
                             f"hold the fiber")
    half = s ** (r / (2.0 * p))
    # sum |w|^{2p/r} < s  <=>  sum |w/half|^{2p/r} < 1
    hits, = _accel.count_inside(np.random.default_rng(seed), samples, [(p, p / r)], half)
    lhs = 4.0 ** p * hits / samples
    mc = inflation_constant_mc(p, r, samples=samples, seed=seed + 1)
    rhs = s ** r * mc.value
    rhs_cf = s ** r * inflation_constant(p, r)
    return DilationCheck(lhs, rhs, rhs_cf, abs(lhs - rhs) / abs(rhs))
