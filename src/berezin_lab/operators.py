"""Truncated Toeplitz/Hankel operators, product decomposition, Berezin
transforms, boundary profiles, and compactness diagnostics.

Matrix conventions: an operator T acting on the truncated space has matrix
M[beta, alpha] = <T e_alpha, e_beta>, so composition is plain matmul in the
written order.  Identities involving symbols of degree d hold exactly on the
truncation-safe block of indices with total degree <= N - margin, margin >=
d; outside that block truncation error is structural, which is why residual
checks take an explicit ``margin``.

Toeplitz assembly picks the cheapest exact route available:

* polynomial symbols on Reinhardt closed-moment spaces: exact entries from
  moment ratios.  A monomial symbol z^gamma zbar^delta is a weighted shift
  e_alpha -> w(alpha) e_{alpha+gamma-delta}, so such operators are held as
  {shift: weight vector} maps; Toeplitz matrices, Hankel Grams, products and
  the identity residuals are computed in that form and densified only when a
  matrix is returned;
* torus-invariant ("radial") symbols: exactly diagonal, entries by radial
  quadrature normalized against the same rule's diagonal Gram (so T_1 = I
  exactly);
* general symbols: full quadrature Gram, orthonormalized against the rule.
"""

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _accel
from .bergman import GRAM_EIGENVALUE_FLOOR, KernelEvaluator
from .errors import CapabilityError, ConditioningError, ParameterError
from .quadrature import (finite_node_values, log_monomial_moments,
                         measure_node_weights, polar_tensor_rule, radial_rule)
from .symbols import Symbol

_RADIAL_ORDER = 160


@dataclass(frozen=True)
class TruncatedOperator:
    """N_b x N_b matrix of an operator expression in the orthonormal basis."""

    matrix: np.ndarray
    space: object
    provenance: object = None

    @property
    def size(self):
        return self.matrix.shape[0]

    @cached_property
    def _abs_diagonal(self):
        """|M[j, j]| when M is finite with no nonzero off-diagonal entry, else None.

        Counting nonzeros avoids a B x B temporary.  A non-finite matrix is
        left to the SVD path, which keeps its error behaviour.
        """
        diag = np.diagonal(self.matrix)
        if (np.count_nonzero(self.matrix) != np.count_nonzero(diag)
                or not np.all(np.isfinite(diag))):
            return None
        return np.abs(diag)


# ---------------------------------------------------------------------------
# operator expressions
# ---------------------------------------------------------------------------

def T(sym):
    return ("toeplitz", sym)


def HP(psi, phi):
    """Hankel pair factor: H*_{conj(psi)} H_phi."""
    return ("hankel_pair", psi, phi)


IDENTITY = ("identity",)


def SC(value):
    return ("scalar", complex(value))


@dataclass(frozen=True)
class OperatorExpr:
    """Finite sum of finite products of factors (nonempty)."""

    terms: tuple

    def __post_init__(self):
        if not self.terms or any(not t for t in self.terms):
            raise ParameterError("operator expression must be a nonempty sum of nonempty products")

    @classmethod
    def toeplitz(cls, sym):
        return cls(((T(sym),),))

    @classmethod
    def identity(cls):
        return cls(((IDENTITY,),))


def decompose_product(symbols):
    """Rewrite T_{s_1} ... T_{s_m} as one Toeplitz term plus Hankel corrections.

    Factors are listed in written order (s_1 applied last).  The result is
    T_{s_1 ... s_m} minus, for each split i, the product
    T_{s_1} ... T_{s_{i-1}} H*_{conj(s_i)} H_{s_{i+1} ... s_m}; every
    correction product starts (after leading Toeplitz factors) with a Hankel
    pair.  Symbols are carried by reference, so the decomposition shares
    structure with its inputs.
    """
    symbols = list(symbols)
    if not symbols:
        raise ParameterError("decompose_product needs at least one symbol")
    m = len(symbols)
    prod_all = symbols[0]
    for s in symbols[1:]:
        prod_all = prod_all * s
    terms = [(T(prod_all),)]
    for i in range(m - 2, -1, -1):
        tail = symbols[i + 1]
        for s in symbols[i + 2:]:
            tail = tail * s
        product = (SC(-1.0),) + tuple(T(s) for s in symbols[:i]) + (HP(symbols[i], tail),)
        terms.append(product)
    return OperatorExpr(tuple(terms))


# ---------------------------------------------------------------------------
# weighted-shift algebra (polynomial symbols on Reinhardt spaces)
#
# An operator is a dict {shift s: w} of complex weight vectors of length B,
# w[alpha] = <T e_alpha, e_{alpha+s}>, zero where alpha+s leaves the
# truncation; the matrix entry [alpha+s, alpha] is w[alpha].  Weight vectors
# may be shared with the per-space Toeplitz cache, so operations build new
# arrays and never write into their inputs.
# ---------------------------------------------------------------------------

def _alpha_codes(space):
    """Linear codes for multiindex lookup plus the inverse table (cached)."""
    cached = getattr(space, "_alpha_code_cache", None)
    if cached is not None:
        return cached
    stride = space.N + 1
    n = space.alphas.shape[1]
    strides = stride ** np.arange(n, dtype=np.int64)
    codes = space.alphas @ strides
    inverse = np.full(stride ** n, -1, dtype=np.int64)
    inverse[codes] = np.arange(space.size)
    space._alpha_code_cache = (strides, inverse)
    return strides, inverse


def _poly_key(sym):
    return frozenset((a, b, complex(c)) for (a, b), c in sym.poly.items())


def _shift_targets(space, shift):
    """(tgt, valid) for a shift: ``valid[alpha]`` when alpha+shift stays in the
    truncation, ``tgt[alpha]`` its basis index (0 where not valid).  Cached."""
    cache = getattr(space, "_shift_target_cache", None)
    if cache is None:
        cache = space._shift_target_cache = {}
    hit = cache.get(shift)
    if hit is not None:
        return hit
    strides, inverse = _alpha_codes(space)
    shifted = space.alphas + np.asarray(shift, dtype=np.int64)
    valid = np.all(shifted >= 0, axis=1) & (shifted.sum(axis=1) <= space.N)
    tgt = np.zeros(space.size, dtype=np.int64)
    tgt[valid] = inverse[shifted[valid] @ strides]
    cache[shift] = (tgt, valid)
    return tgt, valid


def _shift_order(shift):
    """Sort key placing alpha+shift in basis order (degree, then lex) for any alpha."""
    return sum(shift), shift


def _toeplitz_shifts(space, sym):
    """Closed-form weights of T_sym for a polynomial symbol (Reinhardt spaces).

    Monomial z^gamma zbar^delta contributes c_alpha c_beta m_{alpha+gamma} at
    shift gamma - delta; monomials sharing a shift are summed in the symbol's
    order.  Results are cached on the space keyed by the monomial dict.
    """
    cache = getattr(space, "_toeplitz_shift_cache", None)
    if cache is None:
        cache = space._toeplitz_shift_cache = {}
    key = _poly_key(sym)
    hit = cache.get(key)
    if hit is not None:
        return hit
    logm = space.log_moments
    out = {}
    for (gamma, delta), c in sym.poly.items():
        shift = tuple(g - d for g, d in zip(gamma, delta))
        tgt, valid = _shift_targets(space, shift)
        if not np.any(valid):
            continue
        cols = np.flatnonzero(valid)
        rows = tgt[cols]
        ext = space.alphas[cols] + np.asarray(gamma, dtype=np.int64)
        logext = log_monomial_moments(space.measure, ext)
        w = out.setdefault(shift, np.zeros(space.size, dtype=np.complex128))
        w[cols] += c * np.exp(logext - 0.5 * logm[cols] - 0.5 * logm[rows])
    cache[key] = out
    return out


def _identity_shifts(space):
    return {(0,) * space.dim: np.ones(space.size, dtype=np.complex128)}


def _compose(space, a, b):
    """Weights of A @ B (B applied first); entry products are A-value * B-value.

    An entry reached through several intermediate indices sums those paths
    in ascending order of the intermediate index (the order a row-sorted
    sparse product uses), whatever the dict order of the shifts.
    """
    out = {}
    for sb in sorted(b, key=_shift_order):
        wb = b[sb]
        tgt = _shift_targets(space, sb)[0]
        for sa, wa in a.items():
            s = tuple(map(operator.add, sa, sb))
            term = wa[tgt] * wb
            if s in out:
                out[s] += term
            else:
                out[s] = term
    return out


def _adjoint(space, a):
    out = {}
    for s, w in a.items():
        tgt, valid = _shift_targets(space, s)
        v = np.zeros(space.size, dtype=np.complex128)
        v[tgt[valid]] = np.conj(w[valid])
        out[tuple(-x for x in s)] = v
    return out


def _combine(op, a, b):
    """Entrywise op(A, B); a shift missing on one side counts as zero."""
    out = dict(a)
    for s, w in b.items():
        out[s] = op(out.get(s, 0), w)
    return out


def _block_max(space, a, keep):
    """max |entry| over rows and columns in ``keep`` (0.0 when none)."""
    parts = []
    for s, w in a.items():
        tgt, valid = _shift_targets(space, s)
        mask = valid & keep & keep[tgt]
        if np.any(mask):
            parts.append(np.abs(w[mask]))
    return float(np.max(np.concatenate(parts))) if parts else 0.0


def _densify(space, a):
    nb = space.size
    mat = np.zeros((nb, nb), dtype=np.complex128)
    for s, w in a.items():
        tgt, valid = _shift_targets(space, s)
        cols = np.flatnonzero(valid)
        mat[tgt[cols], cols] += w[cols]
    return mat


def _hankel_gram_shifts(space, phi, psi):
    """Weights of H*_psi H_phi = T_{phi conj(psi)} - T_psi^H T_phi."""
    s = phi * psi.conj()
    m_s = _toeplitz_shifts(space, s)
    m_phi = _toeplitz_shifts(space, phi)
    m_psi = _toeplitz_shifts(space, psi)
    return _combine(operator.sub, m_s, _compose(space, _adjoint(space, m_psi), m_phi))


def _factor_shifts(factor, space):
    kind = factor[0]
    if kind == "toeplitz":
        return _toeplitz_shifts(space, factor[1])
    if kind == "hankel_pair":
        return _hankel_gram_shifts(space, factor[2], factor[1].conj())
    if kind == "identity":
        return _identity_shifts(space)
    raise ParameterError(f"unknown factor kind {kind!r}")


def _materialize_shifts(expr, space):
    """Running sum over the terms of scal * (left-to-right factor product)."""
    total = {}
    for product in expr.terms:
        scal = 1.0 + 0.0j
        acc = None
        for factor in product:
            if factor[0] == "scalar":
                scal *= factor[1]
                continue
            m = _factor_shifts(factor, space)
            acc = m if acc is None else _compose(space, acc, m)
        if acc is None:
            acc = _identity_shifts(space)
        total = _combine(operator.add, total, {s: w * scal for s, w in acc.items()})
    return total


# ---------------------------------------------------------------------------
# Toeplitz / Hankel assembly
# ---------------------------------------------------------------------------

def _radial_rule_for(space):
    cache = getattr(space, "_radial_rule_cache", None)
    if cache is None:
        cache = radial_rule(space.measure, order=_RADIAL_ORDER)
        space._radial_rule_cache = cache
    return cache


def _toeplitz_radial(space, sym):
    """Diagonal assembly for torus-invariant symbols, Gram-ratio normalized."""
    rule = _radial_rule_for(space)
    w = measure_node_weights(space.measure, rule)
    mon2 = np.abs(_accel.monomial_matrix(rule.nodes, space.alphas)) ** 2
    phi = finite_node_values(sym(rule.nodes), rule.nodes, "symbol")
    num = mon2 @ (w * phi)
    den = mon2 @ w
    return np.diag(num / den).astype(np.complex128)


def _default_rule(space):
    if space.dim == 1:
        radial = max(128, space.N + 32)
        return polar_tensor_rule(space.measure, radial_order=radial,
                                 angular_order=2 * radial)
    raise CapabilityError(
        "general (non-polynomial, non-radial) symbols on higher-dimensional "
        "domains need an explicit quadrature rule")


def _toeplitz_quad(space, sym, rule):
    if rule is None:
        rule = _default_rule(space)
    x = space.basis_values(rule.nodes)
    w = measure_node_weights(space.measure, rule)
    phi = finite_node_values(sym(rule.nodes), rule.nodes, "symbol")
    gram = (x * w) @ x.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    wmat = (x * (w * phi)) @ x.conj().T
    evals, vecs = np.linalg.eigh(gram)
    if evals[0] < GRAM_EIGENVALUE_FLOOR:
        raise ConditioningError(
            f"quadrature Gram matrix of the basis is numerically singular "
            f"(smallest eigenvalue {evals[0]:.3e}); refine the quadrature rule",
            smallest_eigenvalue=float(evals[0]))
    ghalf = (vecs / np.sqrt(evals)) @ vecs.conj().T
    return (ghalf @ wmat @ ghalf).T.copy()


def toeplitz(space, sym, rule=None):
    """Truncated Toeplitz operator: matrix of P_N M_phi on the basis."""
    if sym.poly is not None and space.normalized_monomials:
        mat = _densify(space, _toeplitz_shifts(space, sym))
    elif sym.radial and space.normalized_monomials and space.dim <= 2:
        mat = _toeplitz_radial(space, sym)
    else:
        mat = _toeplitz_quad(space, sym, rule)
    return TruncatedOperator(mat, space, provenance=OperatorExpr.toeplitz(sym))


def _all_exact(space, *symbols):
    return (space.normalized_monomials
            and all(s.poly is not None for s in symbols))


def hankel_gram(space, phi, psi, rule=None):
    """Matrix of H*_psi H_phi: [beta, alpha] = <H_phi e_alpha, H_psi e_beta>.

    Computed as the Gram of the product symbol minus the projected part,
    T-matrix of phi*conj(psi) minus T_psi^H T_phi; positive semidefinite when
    psi = phi.  For holomorphic polynomial phi the block of degrees
    <= N - deg(phi) vanishes.
    """
    if _all_exact(space, phi, psi):
        return _densify(space, _hankel_gram_shifts(space, phi, psi))
    s = phi * psi.conj()
    m_s = toeplitz(space, s, rule=rule).matrix
    m_phi = toeplitz(space, phi, rule=rule).matrix
    m_psi = toeplitz(space, psi, rule=rule).matrix
    return m_s - _chain_matmul([m_psi.conj().T, m_phi])


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def _factor_matrix(factor, space, rule):
    kind = factor[0]
    if kind == "toeplitz":
        return toeplitz(space, factor[1], rule=rule).matrix
    if kind == "hankel_pair":
        psi, phi = factor[1], factor[2]
        return hankel_gram(space, phi, psi.conj(), rule=rule)
    if kind == "identity":
        return np.eye(space.size, dtype=np.complex128)
    raise ParameterError(f"unknown factor kind {kind!r}")


def _chain_matmul(mats):
    """Left-to-right dense product."""
    acc = mats[0]
    for m in mats[1:]:
        acc = acc @ m
    return acc


def _expr_symbols(expr):
    out = []
    for product in expr.terms:
        for f in product:
            if f[0] == "toeplitz":
                out.append(f[1])
            elif f[0] == "hankel_pair":
                out.extend(f[1:])
    return out


def materialize(expr, space, rule=None):
    """Evaluate an operator expression to its truncated matrix.

    Products multiply factor matrices in the written order; scalar factors
    accumulate multiplicatively without an extra matmul.  All-polynomial
    expressions on Reinhardt closed-moment spaces are evaluated as weighted
    shifts (one weight vector per multiindex shift, see the module docstring)
    and densified once at the end.
    """
    nb = space.size
    if _all_exact(space, *_expr_symbols(expr)):
        return TruncatedOperator(_densify(space, _materialize_shifts(expr, space)),
                                 space, provenance=expr)
    total = np.zeros((nb, nb), dtype=np.complex128)
    for product in expr.terms:
        scal = 1.0 + 0.0j
        mats = []
        for factor in product:
            if factor[0] == "scalar":
                scal *= factor[1]
            else:
                mats.append(_factor_matrix(factor, space, rule))
        if mats:
            total += scal * _chain_matmul(mats)
        else:
            total += scal * np.eye(nb, dtype=np.complex128)
    return TruncatedOperator(total, space, provenance=expr)


# ---------------------------------------------------------------------------
# identity checks on truncation-safe blocks
# ---------------------------------------------------------------------------

def _safe_block(space, margin):
    keep = space.degrees <= space.N - margin
    if not np.any(keep):
        raise ParameterError(f"margin {margin} leaves no truncation-safe indices")
    return keep


def semi_commutator_residual(space, phi2, phi1, margin):
    """Max-entry residual of T_{phi2} T_{phi1} = T_{phi2 phi1} - H*_{conj(phi2)} H_{phi1}
    over the truncation-safe block."""
    for s in (phi2, phi1):
        if s.poly is None:
            raise ParameterError("semi-commutator residual requires polynomial symbols")
    d = max(phi2.degree, phi1.degree)
    if margin < d:
        raise ParameterError(f"margin {margin} is below the symbol degree {d}")
    keep = _safe_block(space, margin)
    if _all_exact(space, phi2, phi1):
        t2 = _toeplitz_shifts(space, phi2)
        t1 = _toeplitz_shifts(space, phi1)
        t21 = _toeplitz_shifts(space, phi2 * phi1)
        hg = _hankel_gram_shifts(space, phi1, phi2.conj())
        resid = _combine(operator.sub, _compose(space, t2, t1), t21)
        return _block_max(space, _combine(operator.add, resid, hg), keep)
    t2 = toeplitz(space, phi2).matrix
    t1 = toeplitz(space, phi1).matrix
    t21 = toeplitz(space, phi2 * phi1).matrix
    hg = hankel_gram(space, phi1, phi2.conj())
    resid = t2 @ t1 - (t21 - hg)
    return float(np.max(np.abs(resid[np.ix_(keep, keep)])))


def product_decomposition_residual(space, symbols, margin):
    """Max-entry residual between the direct Toeplitz product and its
    decomposition (one Toeplitz with the product symbol plus Hankel
    corrections) over the truncation-safe block."""
    symbols = list(symbols)
    for s in symbols:
        if s.poly is None:
            raise ParameterError("product decomposition residual requires polynomial symbols")
    total_deg = sum(s.degree for s in symbols)
    if margin < total_deg:
        raise ParameterError(
            f"margin {margin} is below the accumulated symbol degree {total_deg}")
    keep = _safe_block(space, margin)
    expr = decompose_product(symbols)
    if _all_exact(space, *symbols):
        direct = _toeplitz_shifts(space, symbols[0])
        for s in symbols[1:]:
            direct = _compose(space, direct, _toeplitz_shifts(space, s))
        decomposed = _materialize_shifts(expr, space)
        return _block_max(space, _combine(operator.sub, direct, decomposed), keep)
    direct = _chain_matmul([toeplitz(space, s).matrix for s in symbols])
    decomposed = materialize(expr, space).matrix
    return float(np.max(np.abs((direct - decomposed)[np.ix_(keep, keep)])))


# ---------------------------------------------------------------------------
# Berezin transform, profiles, tail norms
# ---------------------------------------------------------------------------

def berezin(op, z):
    """B T(z) = <T k_z, k_z>: quadratic form on the normalized kernel."""
    v = KernelEvaluator(op.space).normalized_kernel(z)
    return complex(v.conj() @ op.matrix @ v)


@dataclass(frozen=True)
class ProfileSample:
    t: float
    value: complex
    trunc_flag: bool
    tail_fraction: float


def boundary_profile(op, p0, t_grid):
    """Berezin values along the inward radial path z(t) = t p0.

    Samples too close to the boundary for the interior accuracy contract are
    flagged (and annotated with the top-degree kernel share), never dropped.
    """
    p0 = np.atleast_1d(np.asarray(p0, dtype=np.complex128))
    ev = KernelEvaluator(op.space)
    out = []
    for t in t_grid:
        z = float(t) * p0
        val = berezin(op, z)
        flag = not ev.inside_contract(z)
        out.append(ProfileSample(float(t), val, flag, ev.truncation_tail_fraction(z)))
    return out


def tail_norm(op, k):
    """Spectral norm of the column block of basis degrees >= k (proxy ||T Q_k||).

    A diagonal matrix (radial symbols on Reinhardt spaces) is read off
    exactly as max |M[j, j]| over the block's columns; any other matrix
    takes the SVD spectral norm.
    """
    space = op.space
    if not 0 <= k <= space.N:
        raise ParameterError(f"tail index k={k} outside [0, {space.N}]")
    cols = space.degrees >= k
    if not np.any(cols):
        return 0.0
    diag = op._abs_diagonal
    if diag is not None:
        return float(np.max(diag[cols]))
    return float(np.linalg.norm(op.matrix[:, cols], 2))


# ---------------------------------------------------------------------------
# compactness report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxlerZhengReport:
    strong_profiles: tuple          # ((point, (ProfileSample, ...)), ...)
    weak_profiles: tuple
    tail_curve: tuple               # ((k, norm), ...)
    strong_terminal_sup: float
    berezin_vanishing: bool
    tail_k: int
    tail_value: float
    tail_vanishing: bool
    classification: str
    verdict: str
    thresholds: dict = field(default_factory=dict)


DEFAULT_AZ_CONFIG = {
    "berezin_threshold": 0.1,      # terminal |B| below this counts as vanishing
    "tail_threshold": 0.5,         # tail_norm(tail_k) above this is non-vanishing
    "decreasing_window": 5,        # vanishing also needs decrease over this window
    "tail_k": None,                # default N // 2
    "t_grid": None,                # default 16 points in [0.5, 0.995]
}


def axler_zheng_report(expr, space, strong_points, weak_points, config=None,
                       rule=None):
    """Two-sided compactness diagnostic for an operator expression.

    Reports (a) terminal Berezin values along radial paths at strongly
    pseudoconvex boundary points, (b) the tail-norm curve k -> ||T Q_k||,
    (c) Berezin values approaching weakly pseudoconvex points, and (d) a
    verdict: ``inconsistent`` exactly when the tail norms indicate (global)
    compactness while the Berezin transform fails to vanish at some strong
    point; every other pattern is ``consistent`` (vanishing Berezin with a
    fat tail is localization, not a contradiction).

    ``weak_points`` may be empty on domains without weakly pseudoconvex
    points (disk, balls); ``strong_points`` must be nonempty.
    """
    cfg = dict(DEFAULT_AZ_CONFIG)
    cfg.update(config or {})
    if not strong_points:
        raise ParameterError("strong_points must be nonempty")
    t_grid = cfg["t_grid"]
    if t_grid is None:
        t_grid = np.concatenate([np.linspace(0.5, 0.95, 10),
                                 np.linspace(0.96, 0.995, 6)])
    tail_k = cfg["tail_k"] if cfg["tail_k"] is not None else space.N // 2
    op = materialize(expr, space, rule=rule)

    strong_profiles = tuple(
        (np.asarray(p, dtype=np.complex128), tuple(boundary_profile(op, p, t_grid)))
        for p in strong_points)
    weak_profiles = tuple(
        (np.asarray(p, dtype=np.complex128), tuple(boundary_profile(op, p, t_grid)))
        for p in (weak_points or ()))

    window = int(cfg["decreasing_window"])
    vanishing = True
    terminal_sup = 0.0
    for _, prof in strong_profiles:
        mags = [abs(s.value) for s in prof]
        terminal_sup = max(terminal_sup, mags[-1])
        start = max(0, len(mags) - window)
        decreasing = all(mags[i + 1] <= mags[i] + 1e-12
                         for i in range(start, len(mags) - 1))
        if not (mags[-1] < cfg["berezin_threshold"] and decreasing):
            vanishing = False
    tail_curve = tuple((k, tail_norm(op, k)) for k in range(space.N + 1))
    tail_value = tail_curve[tail_k][1]
    tail_vanishing = tail_value <= cfg["tail_threshold"]

    if vanishing and tail_vanishing:
        classification = "compact"
    elif vanishing:
        classification = "localized"
    elif not tail_vanishing:
        classification = "noncompact"
    else:
        classification = "contradictory"
    verdict = "inconsistent" if classification == "contradictory" else "consistent"
    return AxlerZhengReport(strong_profiles, weak_profiles, tail_curve,
                            terminal_sup, vanishing, tail_k, tail_value,
                            tail_vanishing, classification, verdict,
                            thresholds={k: cfg[k] for k in
                                        ("berezin_threshold", "tail_threshold",
                                         "decreasing_window")})


# ---------------------------------------------------------------------------
# JSON wire format for operator expressions
# ---------------------------------------------------------------------------

def expr_to_json(expr):
    terms = []
    for product in expr.terms:
        factors = []
        for f in product:
            if f[0] == "toeplitz":
                factors.append({"toeplitz": {"symbol": f[1].text}})
            elif f[0] == "hankel_pair":
                factors.append({"hankelpair": {"psi": f[1].text, "phi": f[2].text}})
            elif f[0] == "identity":
                factors.append({"identity": {}})
            elif f[0] == "scalar":
                c = f[1]
                factors.append({"scalar": c.real if c.imag == 0 else [c.real, c.imag]})
        terms.append({"prod": factors})
    return {"sum": terms}


def expr_from_json(obj, dim):
    if not isinstance(obj, dict) or "sum" not in obj:
        raise ParameterError('operator expression must be {"sum": [...]}')
    terms = []
    for prod in obj["sum"]:
        if not isinstance(prod, dict) or "prod" not in prod:
            raise ParameterError('each term must be {"prod": [...]}')
        factors = []
        for f in prod["prod"]:
            if "toeplitz" in f:
                factors.append(T(Symbol.parse(f["toeplitz"]["symbol"], dim)))
            elif "hankelpair" in f:
                factors.append(HP(Symbol.parse(f["hankelpair"]["psi"], dim),
                                  Symbol.parse(f["hankelpair"]["phi"], dim)))
            elif "identity" in f:
                factors.append(IDENTITY)
            elif "scalar" in f:
                v = f["scalar"]
                factors.append(SC(complex(v[0], v[1]) if isinstance(v, list) else complex(v)))
            else:
                raise ParameterError(f"unknown operator factor {f!r}")
        terms.append(tuple(factors))
    return OperatorExpr(tuple(terms))
