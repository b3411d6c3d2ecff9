"""Model pseudoconvex domains, Levi-form boundary classification, inflation.

Every domain is a generalized complex ellipsoid (:class:`EllipsoidDomain`)

    E(q) = { z in C^n : |z_1|^{q_1} + ... + |z_n|^{q_n} < 1 },

with defining function rho(z) = sum_j |z_j|^{q_j} - 1.  The family is closed
under inflation: attaching p fiber coordinates with exponent 2p/r to E(q)
gives E(q_1,...,q_n, 2p/r,...,2p/r), which is what ``inflate`` returns.
Ellipsoids are Reinhardt, so monomial moments have closed forms (see
``quadrature``).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, DegenerateGradientError, ParameterError

BOUNDARY_TOL_COEFF = 1e-10   # |rho(p)| < coeff * (1 + |p|^2) counts as "on boundary"
STRONG_TOL_COEFF = 1e-8      # relative Levi-eigenvalue threshold for "strong"


class PointKind(enum.Enum):
    STRONGLY_PSEUDOCONVEX = "StronglyPseudoconvex"
    WEAKLY_PSEUDOCONVEX = "WeaklyPseudoconvex"


@dataclass(frozen=True)
class BoundaryClassification:
    point: np.ndarray
    kind: PointKind
    min_tangential_eigenvalue: float
    tolerance_used: float


def _as_points(z, dim):
    z = np.asarray(z, dtype=np.complex128)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    if z.shape[-1] != dim:
        raise ParameterError(f"expected points in C^{dim}, got shape {z.shape}")
    return z, single


class EllipsoidDomain:
    """Generalized complex ellipsoid E(q) with rho = sum |z_j|^{q_j} - 1,
    its Wirtinger gradient d rho/d z_j and its complex Hessian (diagonal)."""

    def __init__(self, exponents, name=None):
        exponents = tuple(float(q) for q in exponents)
        if not exponents or not all(0 < q < math.inf for q in exponents):
            raise ParameterError(f"exponents must be positive and finite, got {exponents}")
        self.exponents = exponents
        self.dim = len(exponents)
        self.name = name or "ellipsoid" + str(exponents)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} dim={self.dim}>"

    def rho(self, z):
        """rho at one point (a float) or at each row; inf far outside, where
        a term overflows."""
        z, single = _as_points(z, self.dim)
        q = np.asarray(self.exponents)
        with np.errstate(over="ignore"):
            val = np.sum(np.abs(z) ** q, axis=-1) - 1.0
        return float(val[0]) if single else val

    def grad_rho(self, z):
        # d/dz_j |z_j|^q = (q/2) |z_j|^{q-2} conj(z_j)
        z, single = _as_points(z, self.dim)
        q = np.asarray(self.exponents)
        absz = np.abs(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = np.where(absz > 0, absz ** (q - 2.0), np.where(q == 2.0, 1.0, 0.0))
        g = (q / 2.0) * fac * np.conj(z)
        return g[0] if single else g

    def hessian_matrix(self, point):
        point = np.asarray(point, dtype=np.complex128)
        q = np.asarray(self.exponents)
        absz = np.abs(point)
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = np.where(absz > 0, absz ** (q - 2.0), np.where(q == 2.0, 1.0, 0.0))
        return np.diag((q * q / 4.0) * fac).astype(np.complex128)


def inflation_parameters(p, r):
    """(int p, float r), checking that p >= 1 is an integer and 0 < r <= p."""
    if int(p) != p or p < 1 or not 0.0 < float(r) <= p:
        raise ParameterError(f"inflation needs an integer p >= 1 and 0 < r <= p, got p={p}, r={r}")
    return int(p), float(r)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# parameters each catalog domain accepts
_DOMAIN_PARAMS = {"disk": (), "ball": ("n",), "egg": ("m",),
                  "smoothed_polydisk": ("m",), "ellipsoid": ("exponents",)}


def _catalog_choice(name, params, key, default, allowed):
    """The integer parameter ``key`` of a catalog domain; 2.7 or NaN is refused."""
    value = params.get(key, default)
    if value not in allowed:
        raise ParameterError(f"{name} is cataloged for {key} in {set(allowed)}, got {value!r}")
    return int(value)


def make_domain(name, **params):
    """Build a catalog domain by name.

    Names: ``disk``; ``ball`` (n in {1, 2, 3}); ``egg`` (m in {2, 3});
    ``smoothed_polydisk`` (m = 4); ``ellipsoid`` (free exponent list).
    A parameter the named domain does not take raises ParameterError.
    """
    name = str(name).lower().replace("-", "_")
    if name not in _DOMAIN_PARAMS:
        raise ParameterError(f"unknown domain {name!r}")
    unknown = sorted(set(params) - set(_DOMAIN_PARAMS[name]))
    if unknown:
        valid = ", ".join(_DOMAIN_PARAMS[name]) or "none"
        raise ParameterError(
            f"domain {name!r} has no parameter {', '.join(map(repr, unknown))} "
            f"(valid: {valid})")
    if name == "disk":
        return EllipsoidDomain((2.0,), name="disk")
    if name == "ball":
        n = _catalog_choice(name, params, "n", 2, (1, 2, 3))
        return EllipsoidDomain((2.0,) * n, name=f"ball{n}")
    if name == "egg":
        m = _catalog_choice(name, params, "m", 2, (2, 3))
        return EllipsoidDomain((2.0, 2.0 * m), name=f"egg{m}")
    if name == "smoothed_polydisk":
        m = _catalog_choice(name, params, "m", 4, (4,))
        return EllipsoidDomain((2.0 * m, 2.0 * m), name="smoothed_polydisk")
    if name == "ellipsoid":
        exps = params.get("exponents")
        if not exps:
            raise ParameterError("ellipsoid requires an 'exponents' list")
        return EllipsoidDomain(tuple(exps))


def domain_from_config(spec):
    """Domain from a config mapping like {"name": "egg", "m": 2}."""
    spec = dict(spec)
    name = spec.pop("name", None)
    if name is None:
        raise ParameterError("domain spec needs a 'name' field")
    infl = spec.pop("inflate", None)
    dom = make_domain(name, **spec)
    if infl is not None:
        for key in ("p", "r"):
            if key not in infl:
                raise ParameterError(f"domain 'inflate' needs field {key!r}")
        dom = inflate(dom, infl["p"], infl["r"])
    return dom


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def on_boundary(domain, point):
    point = np.asarray(point, dtype=np.complex128)
    tol = BOUNDARY_TOL_COEFF * (1.0 + float(np.sum(np.abs(point) ** 2)))
    return abs(domain.rho(point)) < tol


def _tangential_hessian(domain, point):
    """Levi form restricted to the complex tangent space at a boundary point."""
    n = domain.dim
    h = domain.hessian_matrix(point)
    g = np.asarray(domain.grad_rho(point), dtype=np.complex128)
    gnorm = float(np.linalg.norm(g))
    if gnorm <= 1e-12 * (1.0 + float(np.linalg.norm(point))):
        raise DegenerateGradientError(
            f"defining-function gradient vanishes at {point}")
    # X is complex tangent iff sum_j X_j (d rho/d z_j) = 0, i.e. X _|_ conj(g)
    nu = np.conj(g) / gnorm
    q, _ = np.linalg.qr(np.column_stack([nu, np.eye(n, dtype=np.complex128)]))
    tan = q[:, 1:n]
    m = tan.conj().T @ h @ tan
    m = 0.5 * (m + m.conj().T)
    return h, m


def classify_boundary(domain, point, tol=None):
    """Classify a boundary point as strongly or weakly pseudoconvex.

    The criterion is the minimum eigenvalue of the complex Hessian restricted
    to the complex tangent space; by default a point is strong when that
    eigenvalue exceeds ``1e-8 * (1 + max |Hessian entry|)``.
    """
    point = np.asarray(point, dtype=np.complex128)
    if not on_boundary(domain, point):
        raise BoundaryError(
            f"point {point} is not on the boundary (rho = {domain.rho(point):g})")
    if domain.dim == 1:
        g = np.asarray(domain.grad_rho(point), dtype=np.complex128)
        if np.linalg.norm(g) <= 1e-12 * (1.0 + abs(complex(point[0]))):
            raise DegenerateGradientError(
                f"defining-function gradient vanishes at {point}")
        used = 0.0 if tol is None else float(tol)
        # trivial complex tangent space: vacuously strongly pseudoconvex
        return BoundaryClassification(point, PointKind.STRONGLY_PSEUDOCONVEX,
                                      float("inf"), used)
    h, m = _tangential_hessian(domain, point)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    used = float(tol) if tol is not None else \
        STRONG_TOL_COEFF * (1.0 + float(np.max(np.abs(h))))
    kind = (PointKind.STRONGLY_PSEUDOCONVEX if lam_min > used
            else PointKind.WEAKLY_PSEUDOCONVEX)
    return BoundaryClassification(point, kind, lam_min, used)


def inflate(base, p, r):
    """The ellipsoid E(q) with p fiber coordinates of exponent 2p/r attached,
    E(q, 2p/r, ..., 2p/r).  Requires an integer p >= 1 and 0 < r <= p, so the
    fiber exponent is at least 2 and the boundary stays C^2 wherever the
    base's is."""
    p, r = inflation_parameters(p, r)
    return EllipsoidDomain(base.exponents + (2.0 * p / r,) * p,
                           name=f"{base.name}^({p},{r:g})")


def _ray_root(exponents, moduli):
    """The root s > 0 of sum_j (s a_j)^{q_j} = 1 over the moduli a_j > 0.

    Newton's method on the convex, increasing f(v) = log sum_j (r_j e^v)^{q_j}
    with r_j = a_j / max a and v = log(s max a), started at v = 0 where
    f >= 0, so the iterates fall monotonically onto the root; with equal
    q_j, f is linear and one step lands on it.
    """
    top = max(moduli)
    terms = [(a / top, q) for a, q in zip(moduli, exponents) if a > 0]
    v = 0.0
    for _ in range(100):
        ev = math.exp(v)
        w = [(r * ev) ** q for r, q in terms]
        total = sum(w)
        step = math.log(total) * total / sum(q * x for (_, q), x in zip(terms, w))
        v -= step
        if abs(step) <= 2.0 ** -45:
            break
    return math.exp(v) / top


def boundary_point(domain, direction):
    """The point s* d where the ray through ``direction`` d leaves the domain.

    s* = ``_ray_root`` is the root of the ray equation
    sum_j (s |d_j|)^{q_j} = 1, so rho(s* d) = 0: Newton's method puts s*
    within a few ulps of the exact root (at most 4.2 * 2^-53 relative over
    the catalog domains, their inflations and directions of any scale), and
    |rho(s* d)| stays near 1e-15, far inside ``on_boundary``'s 1e-10.
    """
    d = np.asarray(direction, dtype=np.complex128)
    if d.shape != (domain.dim,):
        raise ParameterError(
            f"expected a direction in C^{domain.dim}, got shape {d.shape}")
    moduli = np.abs(d).tolist()
    if not all(map(math.isfinite, moduli)):
        raise ParameterError("direction must be finite")
    if max(moduli) <= 1e-8:
        raise ParameterError("direction must be nonzero")
    return _ray_root(domain.exponents, moduli) * d


@dataclass(frozen=True)
class InflationBoundaryReport:
    fraction_strong: float
    min_tangential_eigenvalue: float
    samples: int


def inflated_boundary_classification_check(base, p, r, z0, samples, seed=0,
                                           shrink=0.05):
    """Sample boundary points of ``inflate(base, p, r)`` near a strong base
    point and classify them.

    Points (z, w) on the inflated boundary are drawn with z = (1-u) z0 for
    u in (0, shrink] and w on the fiber sphere with every w_k != 0; all are
    expected strongly pseudoconvex.
    """
    p, r = inflation_parameters(p, r)
    infl = inflate(base, p, r)
    z0 = np.asarray(z0, dtype=np.complex128)
    base_cls = classify_boundary(base, z0)
    if base_cls.kind is not PointKind.STRONGLY_PSEUDOCONVEX:
        raise ParameterError(f"base point {z0} is not strongly pseudoconvex")
    rng = np.random.default_rng(seed)
    n_strong = 0
    lam_min = np.inf
    for _ in range(samples):
        u = rng.uniform(0.0, shrink)
        z = (1.0 - u) * z0
        s = -float(base.rho(z))
        # simplex split of the fiber radius; resample to keep every w_k != 0
        t = rng.dirichlet(np.ones(p))
        while np.any(t < 1e-12):
            t = rng.dirichlet(np.ones(p))
        radii = (t * s) ** (r / (2.0 * p))
        phases = np.exp(2j * np.pi * rng.uniform(size=p))
        w = radii * phases
        cls = classify_boundary(infl, np.concatenate([z, w]))
        if cls.kind is PointKind.STRONGLY_PSEUDOCONVEX:
            n_strong += 1
        lam_min = min(lam_min, cls.min_tangential_eigenvalue)
    return InflationBoundaryReport(n_strong / samples, float(lam_min), samples)


def sample_boundary(domain, count, seed=0):
    """Deterministic-ish boundary sample for an ellipsoid domain.

    Splits the modulus profile over the simplex and randomizes phases;
    includes the coordinate-axis points, where weak points live on eggs
    and smoothed polydisks.
    """
    rng = np.random.default_rng(seed)
    n = domain.dim
    q = np.asarray(domain.exponents)
    pts = []
    for j in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[j] = 1.0
        pts.append(e)
    while len(pts) < count:
        t = rng.dirichlet(np.ones(n))
        radii = t ** (1.0 / q)
        phases = np.exp(2j * np.pi * rng.uniform(size=n))
        pts.append(radii * phases)
    return np.array(pts[:count])
