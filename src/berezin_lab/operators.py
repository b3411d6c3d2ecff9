"""Truncated Toeplitz/Hankel operators, product decomposition, Berezin
transforms, boundary profiles, and compactness diagnostics.

Matrix conventions: an operator T acting on the truncated space has matrix
M[beta, alpha] = <T e_alpha, e_beta>, so composition is plain matmul in the
written order.  Identities involving symbols of degree d hold exactly on the
truncation-safe block of indices with total degree <= N - margin, margin >=
d; outside that block truncation error is structural, which is why residual
checks take an explicit ``margin``.

Every space has normalized monomials over an ellipsoid, so every Toeplitz
factor is a weighted shift operator (``_Shifts``, see below).  A monomial
symbol z^gamma zbar^delta is the one shift gamma - delta, with exact weights
from moment ratios; a torus-invariant ("radial") symbol is the zero shift
alone, contracted level by level on the radial rule's stick-breaking factors
with T_1 = I exactly (``_RadialDiagonal``); on the disk any other symbol's
angular Fourier mode k is shift k, through the same contraction.  ``_form``
picks dense matrices only for Hankel pairs of non-polynomial symbols; each
formula is written once for both forms.  A ``TruncatedOperator`` keeps the
form it was built in: its ``diagonal`` is the zero shift's weights, never
searched for in a matrix, and its ``matrix`` is densified on first read.  The identity
residuals take the difference of the two sides and its block max in one
pass over the shifts, over an index array of the truncation-safe block kept
per (margin, shift), and reuse the operators that recur from one identity
to the next (``_ShiftForm``): among them the Hankel pairs H*_psi H_phi of
the current leading factor psi, whose H-symbol phi is a product such as the
tail s_2 ... s_m of a decomposition; that memo is dropped when psi changes,
so it never holds more than the distinct tails of one leading factor.
"""

import cmath
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel
from .errors import CapabilityError, NumericError, ParameterError
from .quadrature import (finite_node_values, log_monomial_moments,
                         measure_node_weights, radial_rule)
from .symbols import Symbol

_RADIAL_ORDER = 160
_MAX = np.maximum.reduce     # ndarray.max without its Python wrapper


@dataclass(frozen=True)
class TruncatedOperator:
    """An operator expression on the truncated space, held in the form its
    assembly built: weighted shifts (``_Shifts``) or an N_b x N_b matrix."""

    assembled: object
    space: object

    @cached_property
    def matrix(self):
        """M[beta, alpha] = <T e_alpha, e_beta>, densified on first read."""
        if isinstance(self.assembled, _Shifts):
            return self.assembled.dense()
        return self.assembled

    @cached_property
    def diagonal(self):
        """The weights of the zero shift (read-only) when that is the only
        shift, else None; None for an operator handed a dense matrix."""
        zero = (0,) * self.space.dim
        if not isinstance(self.assembled, _Shifts) or list(self.assembled.w) != [zero]:
            return None
        d = self.assembled.w[zero].view()
        d.flags.writeable = False
        return d


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


_MINUS_ONE = SC(-1.0)


@dataclass(frozen=True)
class OperatorExpr:
    """Finite sum of finite products of factors (nonempty)."""

    terms: tuple

    def __post_init__(self):
        if not self.terms or not all(self.terms):
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
        terms.append((_MINUS_ONE, *map(T, symbols[:i]), HP(symbols[i], tail)))
    return OperatorExpr(tuple(terms))


# ---------------------------------------------------------------------------
# weighted-shift algebra (Reinhardt spaces)
#
# An operator is a _Shifts: a dict {shift s: w} of weight vectors (float64 or
# complex128) of length B, w[alpha] = <T e_alpha, e_{alpha+s}>, zero where alpha+s leaves the
# truncation; the matrix entry [alpha+s, alpha] is w[alpha].  Weight vectors
# may be shared with the per-space caches, so operations build new arrays and
# never write into their inputs.
# ---------------------------------------------------------------------------

class _ShiftIndex:
    """Where each multiindex shift sends each basis index of one truncated
    space, cached per shift.  It keeps the space's arrays but not the space,
    so the operators cached on the space, which point here, form no
    reference cycle with it and are freed with it."""

    def __init__(self, space):
        self.columns = space.alphas.T
        self.degrees = space.degrees
        self.N = space.N
        self.size = space.size
        stride = space.N + 1
        n = space.alphas.shape[1]
        self.strides = stride ** np.arange(n, dtype=np.int64)
        self.flat = space.alphas @ self.strides
        self.inverse = np.full(stride ** n, -1, dtype=np.int64)
        self.inverse[self.flat] = np.arange(space.size)
        self.zero = np.zeros(space.size)
        self.zero.flags.writeable = False
        self.cache = {}

    def targets(self, shift):
        """(tgt, valid): ``valid[alpha]`` when alpha+shift stays in the
        truncation, ``tgt[alpha]`` its basis index (0 where not valid)."""
        hit = self.cache.get(shift)
        if hit is None:
            valid = self.degrees <= self.N - sum(shift)
            for column, s in zip(self.columns, shift):
                if s < 0:
                    valid &= column >= -s
            tgt = np.zeros(self.size, dtype=np.int64)
            tgt[valid] = self.inverse[self.flat[valid] + int(np.dot(shift, self.strides))]
            hit = self.cache[shift] = (tgt, valid)
        return hit


def _shift_order(shift):
    """Sort key placing alpha+shift in basis order (degree, then lex) for any alpha."""
    return sum(shift), shift


class _Shifts:
    """Weighted-shift operator (see above) with the ndarray operations the
    formulas use (``@ + -``, scalar ``*``), plus ``adjoint`` and ``dense``."""

    __slots__ = ("index", "w", "_adjoint")

    def __init__(self, index, w):
        self.index = index
        self.w = w
        self._adjoint = None

    def __matmul__(self, other):
        """A @ B (B applied first); entry products are A-value * B-value.

        An entry reached through several intermediate indices sums those paths
        in ascending order of the intermediate index (the order a row-sorted
        sparse product uses), whatever the dict order of the shifts.
        """
        index, a, b = self.index, self.w.items(), other.w
        out = {}
        for sb in sorted(b, key=_shift_order) if len(b) > 1 else b:
            wb = b[sb]
            tgt = index.targets(sb)[0]
            for sa, wa in a:
                s = tuple(map(operator.add, sa, sb))
                term = wa[tgt] * wb
                if s in out:
                    out[s] += term
                else:
                    out[s] = term
        return _Shifts(index, out)

    def __add__(self, other):
        out = dict(self.w)
        for s, w in other.w.items():
            out[s] = out.get(s, 0) + w
        return _Shifts(self.index, out)

    def __sub__(self, other):
        out = dict(self.w)
        for s, w in other.w.items():
            out[s] = out.get(s, 0) - w
        return _Shifts(self.index, out)

    def __rmul__(self, scal):
        return _Shifts(self.index, {s: w * scal for s, w in self.w.items()})

    def adjoint(self):
        """The adjoint, built once per operator."""
        if self._adjoint is None:
            out = {}
            for s, w in self.w.items():
                tgt, valid = self.index.targets(s)
                v = np.zeros(self.index.size, dtype=w.dtype)
                v[tgt[valid]] = np.conj(w[valid])
                out[tuple(-x for x in s)] = v
            self._adjoint = _Shifts(self.index, out)
        return self._adjoint

    def dense(self):
        nb = self.index.size
        mat = np.zeros((nb, nb), dtype=np.complex128)
        for s, w in self.w.items():
            tgt, valid = self.index.targets(s)
            cols = np.flatnonzero(valid)
            mat[tgt[cols], cols] += w[cols]
        return mat


class _ShiftForm:
    """Factors as weighted shifts (Reinhardt spaces), with what the space's
    weighted-shift algebra reuses across calls: one per space, held by it
    (``_shift_form``).  It keeps the space's arrays and measure but not the
    space, and its operators point only to its ``_ShiftIndex``, so nothing
    here refers back to the space and all of it is freed with the space.
    Operators are keyed by polynomial keys (``Symbol.key``), and only those
    whose number stays small are kept: one per distinct polynomial, Hankel
    pairs of two operand symbols, the Hankel pairs of the current leading
    factor, and the last leading pair product; never one per identity.

    ``operands`` are the symbols of the identity being checked, set by each
    call: Hankel pairs whose H-symbol is one of them are kept with the space.
    """

    __slots__ = ("measure", "N", "alphas", "degrees", "log_moments", "size", "dim",
                 "index", "operands", "_radial", "_toeplitz", "_hankel", "_lead",
                 "_last_pair", "_blocks", "_moments")

    def __init__(self, space):
        self.measure, self.N, self.alphas = space.measure, space.N, space.alphas
        self.degrees, self.log_moments = space.degrees, space.log_moments
        self.size, self.dim = space.size, space.dim
        self.index = _ShiftIndex(space)
        self.operands = ()
        self._radial = None    # _RadialDiagonal, built for the first radial symbol
        self._toeplitz = {}    # key -> T_s
        self._hankel = {}      # (key phi, key psi) -> H*_psi H_phi, phi an operand
        self._lead = None      # (key psi, {key phi: H*_psi H_phi}), phi not an
                               #   operand, for the last psi only
        self._last_pair = None  # ((key a, key b), T_a T_b) of the last chain
        self._blocks = {}      # margin -> {shift: indices of the alpha with alpha
                               #   and alpha+shift truncation-safe, None if none}
        self._moments = {}     # gamma -> log m_{alpha+gamma} for every alpha

    def toeplitz(self, sym):
        """T_sym: for a non-polynomial symbol the radial diagonal or, on the
        disk, its angular Fourier modes (not cached: its key is None); else
        monomial z^gamma zbar^delta adds c_alpha c_beta m_{alpha+gamma} at
        shift gamma - delta, in the symbol's order, cached by its key.  The
        weights are real (float64) when every coefficient is, which gives the
        values of complex arithmetic on x + 0j at half the memory and time."""
        if sym.poly is None:
            if not sym.radial and self.dim > 1:
                raise CapabilityError(
                    "general (non-polynomial, non-radial) symbols are assembled only on "
                    f"the disk; {self.measure.domain.name} has dimension {self.dim}")
            if self._radial is None:
                self._radial = _RadialDiagonal(self)  # reads measure, N, alphas
            return _Shifts(self.index, {(0,) * self.dim: self._radial(sym)} if sym.radial
                           else self._radial.modes(sym))
        cache = self._toeplitz
        hit = cache.get(sym.key)
        if hit is not None:
            return hit
        if not all(map(cmath.isfinite, sym.poly.values())):
            raise NumericError(f"symbol {sym.text!r} has a non-finite coefficient")
        index, logm = self.index, self.log_moments
        real = all(c.imag == 0 for c in sym.poly.values())
        out = {}
        for (gamma, delta), c in sym.poly.items():
            shift = tuple(g - d for g, d in zip(gamma, delta))
            tgt, valid = index.targets(shift)
            cols = valid.nonzero()[0]
            if not len(cols):
                continue
            rows = tgt[cols]
            logext = self._moments.get(gamma)
            if logext is None:
                # computed row by row: these rows equal a call over cols alone
                logext = self._moments[gamma] = log_monomial_moments(
                    self.measure, self.alphas + np.asarray(gamma, dtype=np.int64))
            w = out.setdefault(shift, np.zeros(self.size,
                                               dtype=np.float64 if real else np.complex128))
            w[cols] += (c.real if real else c) * np.exp(logext[cols] - 0.5 * logm[cols]
                                                        - 0.5 * logm[rows])
        hit = cache[sym.key] = _Shifts(index, out)
        return hit

    def chain(self, symbols):
        """T_{s_1} ... T_{s_m}, multiplied left to right.  The product of the
        first two factors is kept for the next call: a sweep varies the last
        factor fastest, so consecutive identities share it, and one kept
        product costs no memory that grows with the sweep."""
        if len(symbols) == 1:
            return self.toeplitz(symbols[0])
        first, second = symbols[0], symbols[1]
        pair = (first.key, second.key)
        last = self._last_pair
        if last is not None and last[0] == pair:
            acc = last[1]
        else:
            acc = self.toeplitz(first) @ self.toeplitz(second)
            self._last_pair = (pair, acc)
        for s in symbols[2:]:
            acc = acc @ self.toeplitz(s)
        return acc

    def hankel(self, phi, psi):
        """H*_psi H_phi, kept with the space when phi is an operand.
        Any other phi, such as the tail product s_2 ... s_m of a
        decomposition, goes to a memo that holds the pairs of one psi and is
        dropped when psi changes: a sweep varies the leading factor slowest,
        so its tails repeat under one psi, and the memo never holds more than
        the distinct tails of one leading factor."""
        if phi in self.operands:              # Symbol equality is identity
            memo, key = self._hankel, (phi.key, psi.key)
        else:
            lead = self._lead
            if lead is None or lead[0] != psi.key:
                lead = self._lead = (psi.key, {})
            memo, key = lead[1], phi.key
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _hankel_pair(self, phi, psi)
        return hit

    def identity(self):
        return _Shifts(self.index, {(0,) * self.dim: np.ones(self.size, dtype=np.complex128)})

    def zero(self):
        return _Shifts(self.index, {})

    def blocks(self, margin):
        """The truncation-safe block of one margin, filled in shift by shift:
        {shift: indices of the alpha with alpha and alpha+shift of total
        degree <= N - margin, None if there are none}."""
        blocks = self._blocks.get(margin)
        if blocks is None:
            if not np.any(self.degrees <= self.N - margin):
                raise ParameterError(f"margin {margin} leaves no truncation-safe indices")
            blocks = self._blocks[margin] = {}
        return blocks

    def block_max(self, margin, combine, *ops):
        """max |combine(w_1, ..., w_k)| over the truncation-safe block (0.0
        when it is empty), where w_i is the weight vector of ``ops[i]`` at one
        shift, zeros if it has none.  The combination runs one shift at a
        time and builds no operator, and each entry goes through the same
        arithmetic as ``combine`` applied to whole operators."""
        blocks, zero = self.blocks(margin), self.index.zero
        ws = [op.w for op in ops]
        best = 0.0
        for s in set().union(*ws):
            block = blocks.get(s, False)
            if block is False:
                keep = self.degrees <= self.N - margin
                tgt, valid = self.index.targets(s)
                block = np.flatnonzero(valid & keep & keep[tgt])
                block = blocks[s] = block if len(block) else None
            if block is None:
                continue
            top = float(_MAX(abs(combine(*[w.get(s, zero) for w in ws])[block])))
            if top > best or top != top:      # a NaN entry wins, as in np.max
                best = top
        return best

    adjoint = staticmethod(_Shifts.adjoint)


def _shift_form(space, operands=()):
    """The space's ``_ShiftForm``, built on first use, set for ``operands``."""
    form = getattr(space, "_shift_form", None)
    if form is None:
        form = space._shift_form = _ShiftForm(space)
    form.operands = operands
    return form


# ---------------------------------------------------------------------------
# Toeplitz / Hankel assembly
# ---------------------------------------------------------------------------

class _RadialDiagonal:
    """Diagonal Toeplitz weights of torus-invariant symbols on one space:
    entry alpha is sum |z^alpha|^2 w phi over sum |z^alpha|^2 w on the
    radial rule, both by its stick-breaking tensor structure; on the disk,
    also the shifts of any continuous symbol (``modes``).

    With t_j = |z_j|^{q_j}, t_1 = u_1 and t_j = u_j prod_{i<j} (1 - u_i),
    |z^alpha|^2 = prod_j U_j[alpha_j] prod_{i<j} S_ij[alpha_j] over real
    power tables U_j[k] = u_j^{2k/q_j} and S_ij[k] = (1-u_i)^{2k/q_j}.  A sum
    over the nodes of |z^alpha|^2 m is then one contraction per level,
    innermost first: X U_n^T, then U_i (S_i o X^T)^T batched over the outer
    node indices, S_i the product of the S_ij over the inner degrees; in
    dimension 2, R (S o (m V^T)^T)^T.  No basis x nodes array.  The real
    and imaginary parts of w phi go through the same real kernel as the
    denominator, so T_1 = I exactly.  Holds arrays only, not the space.
    """

    def __init__(self, space):
        self.rule = rule = radial_rule(space.measure, order=_RADIAL_ORDER)
        q = space.measure.domain.exponents
        N, n = space.N, len(q)
        self.levels = []      # (U_i, S_i) per level i; the innermost has no S
        for i, u in enumerate(rule.factors):
            bases = [(u ** (1.0 / q[i])) ** 2]
            bases += [((1.0 - u) ** (1.0 / q[j])) ** 2 for j in range(i + 1, n)]
            power, *sticks = _accel._power_tables(np.column_stack(bases), [N] * len(bases))
            stick = sticks[0] if sticks else None
            for more in sticks[1:]:
                stick = (stick[:, None, :] * more[None, :, :]).reshape(-1, len(u))
            self.levels.append((power, stick))
        self.at = np.ravel_multi_index(space.alphas.T, (N + 1,) * n)
        self.w = measure_node_weights(space.measure, rule).reshape((_RADIAL_ORDER,) * n)
        self.den = self.contract(self.w)

    def contract(self, m):
        """sum over the nodes of |z^alpha|^2 m for each basis alpha; ``m``
        real, one axis per level."""
        x = (m.reshape(-1, m.shape[-1]) @ self.levels[-1][0].T).reshape(*m.shape[:-1], -1)
        # power @ (stick o x^T)^T with the product held degree-major: another
        # BLAS layout of the same sum moves last bits of the dimension-2 diagonals
        for power, stick in reversed(self.levels[:-1]):
            x = power @ np.swapaxes(stick * np.swapaxes(x, -1, -2), -1, -2)
            x = x.reshape(*x.shape[:-2], -1)
        return x[self.at]

    def __call__(self, sym):
        """The diagonal of T_sym, complex, one entry per basis index."""
        phi = finite_node_values(sym, self.rule.nodes, "symbol").reshape(self.w.shape)
        diag = np.empty(len(self.den), dtype=np.complex128)
        diag.real = self.contract(self.w * phi.real) / self.den
        diag.imag = self.contract(self.w * phi.imag) / self.den
        return diag

    def modes(self, sym):
        """{(k,): weights of shift k} of T_sym on the disk, k in [-N, N]:
        <T e_a, e_{a+k}> is the contraction of w s^|k| phi_k at min(a, a+k)
        over sqrt(den_a den_{a+k}), phi_k(s) the k-th Fourier coefficient of
        sym on the circle of radius s, by FFT over 2 max(128, N + 32) phases."""
        N, s = len(self.den) - 1, self.rule.nodes[:, 0].real
        phases = 2 * max(128, N + 32)
        ring = np.exp(2j * np.pi / phases * np.arange(phases))
        phi = finite_node_values(sym, (s[:, None] * ring).reshape(-1, 1), "symbol")
        hat = np.fft.fft(phi.reshape(len(s), phases), axis=1) / phases
        out = {}
        for k in range(-N, N + 1):     # a negative k is column A + k of hat
            n, ws = N + 1 - abs(k), self.w * s ** abs(k)
            x = self.contract(ws * hat[:, k].real) + 1j * self.contract(ws * hat[:, k].imag)
            w = out[(k,)] = np.zeros(N + 1, dtype=np.complex128)
            w[max(0, -k):][:n] = x[:n] / np.sqrt(self.den[:n] * self.den[-n:])
        return out


def toeplitz(space, sym):
    """Truncated Toeplitz operator P_N M_phi on the basis."""
    return TruncatedOperator(_shift_form(space).toeplitz(sym), space)


@dataclass
class _DenseForm:
    """Factors as dense matrices, for Hankel pairs of non-polynomial symbols:
    Hankel pairs from the public ``hankel_gram``, Toeplitz factors densified."""

    space: object

    def toeplitz(self, sym):
        return _shift_form(self.space).toeplitz(sym).dense()

    def hankel(self, phi, psi):
        return hankel_gram(self.space, phi, psi)

    def identity(self):
        return np.eye(self.space.size, dtype=np.complex128)

    def zero(self):
        return np.zeros((self.space.size, self.space.size), dtype=np.complex128)

    @staticmethod
    def adjoint(m):
        return m.conj().T


def _form(space, hankel_symbols):
    """How a call holds its operators: weighted shifts unless a Hankel-pair
    symbol is not a polynomial, then dense matrices."""
    if all(s.poly is not None for s in hankel_symbols):
        return _shift_form(space)
    return _DenseForm(space)


def _hankel_pair(form, phi, psi):
    """H*_psi H_phi = T_{phi conj(psi)} - T_psi^H T_phi, in ``form``."""
    return (form.toeplitz(phi * psi.conj())
            - form.adjoint(form.toeplitz(psi)) @ form.toeplitz(phi))


def hankel_gram(space, phi, psi):
    """Matrix of H*_psi H_phi: [beta, alpha] = <H_phi e_alpha, H_psi e_beta>.

    Computed as the Gram of the product symbol minus the projected part,
    T-matrix of phi*conj(psi) minus T_psi^H T_phi; positive semidefinite when
    psi = phi.  For holomorphic polynomial phi the block of degrees
    <= N - deg(phi) vanishes.
    """
    return TruncatedOperator(_hankel_pair(_form(space, (phi, psi)), phi, psi), space).matrix


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def _product(form, product):
    """(scal, left-to-right product of the other factors) for one term."""
    scal = 1.0 + 0.0j
    acc = None
    for factor in product:
        kind = factor[0]
        if kind == "scalar":
            scal *= factor[1]
            continue
        if kind == "toeplitz":
            m = form.toeplitz(factor[1])
        elif kind == "hankel_pair":
            m = form.hankel(factor[2], factor[1].conj())
        elif kind == "identity":
            m = form.identity()
        else:
            raise ParameterError(f"unknown factor kind {kind!r}")
        acc = m if acc is None else acc @ m
    return scal, form.identity() if acc is None else acc


def _sum_of_products(form, expr):
    """Running sum over the terms of scal * (left-to-right factor product)."""
    total = form.zero()
    for product in expr.terms:
        scal, acc = _product(form, product)
        total += scal * acc
    return total


def materialize(expr, space):
    """Evaluate an operator expression on the truncated space.

    Products multiply factors in the written order; scalar factors
    accumulate multiplicatively without an extra matmul.  The result keeps
    the form ``_form`` picked: weighted shifts (one weight vector per
    multiindex shift, see the module docstring) or a dense matrix.
    """
    form = _form(space, [s for product in expr.terms for f in product
                         if f[0] == "hankel_pair" for s in f[1:]])
    return TruncatedOperator(_sum_of_products(form, expr), space)


# ---------------------------------------------------------------------------
# identity checks on truncation-safe blocks
# ---------------------------------------------------------------------------

def _residual_form(space, what, symbols, degree_of, margin):
    """Weighted-shift form for a ``what`` residual over ``symbols``, whose
    degree ``degree_of`` combines from theirs, after checking the symbols
    and the margin."""
    degrees = [s.degree for s in symbols]
    if None in degrees:
        raise ParameterError(f"{what} residual requires polynomial symbols")
    degree = degree_of(degrees)
    if margin < degree:
        raise ParameterError(f"margin {margin} is below the symbol degree {degree}")
    form = _shift_form(space, symbols)
    form.blocks(margin)
    return form


def semi_commutator_residual(space, phi2, phi1, margin):
    """Max-entry residual of T_{phi2} T_{phi1} = T_{phi2 phi1} - H*_{conj(phi2)} H_{phi1}
    over the truncation-safe block."""
    form = _residual_form(space, "semi-commutator", (phi2, phi1), max, margin)
    return form.block_max(margin, lambda p, t, h: p - t + h,
                          form.chain((phi2, phi1)), form.toeplitz(phi2 * phi1),
                          form.hankel(phi1, phi2.conj()))


def product_decomposition_residual(space, symbols, margin):
    """Max-entry residual between the direct Toeplitz product and its
    decomposition (one Toeplitz with the product symbol plus Hankel
    corrections) over the truncation-safe block."""
    symbols = list(symbols)
    form = _residual_form(space, "product decomposition", symbols, sum, margin)
    scals, ops = zip(*[_product(form, p) for p in decompose_product(symbols).terms])

    def direct_minus_sum(direct, *ws):
        # left-to-right sum of scal * w; a scalar of +-1 adds or subtracts w,
        # which gives the same values as multiplying by it
        total = None
        for w, scal in zip(ws, scals):
            if scal == -1:
                total = -w if total is None else total - w
            else:
                w = w if scal == 1 else w * scal
                total = w if total is None else total + w
        return direct - total

    return form.block_max(margin, direct_minus_sum, form.chain(symbols), *ops)


# ---------------------------------------------------------------------------
# Berezin transform, profiles, tail norms
# ---------------------------------------------------------------------------

def berezin(op, z):
    """B T(z) = <T k_z, k_z>, a complex for one point (n,), else one value
    per row of an (m, n) array.  The quadratic form is taken row by row, which
    rounds as a one-point call does; one (m, B) x (B, B) product would not.
    A diagonal operator takes sum_j conj(v_j) d_j v_j, rounding as M does."""
    v = op.space.normalized_kernel(z)
    d = op.diagonal
    vals = np.array([row.conj() @ op.matrix @ row if d is None else (row.conj() * d) @ row
                     for row in np.atleast_2d(v)])
    return complex(vals[0]) if v.ndim == 1 else vals


@dataclass(frozen=True)
class ProfileSample:
    t: float
    value: complex
    trunc_flag: bool
    tail_fraction: float


def boundary_profile(op, p0, t_grid):
    """Berezin values along the inward radial path z(t) = t p0.

    Samples too close to the boundary for the interior accuracy contract are
    flagged (and annotated with the top-degree kernel share), never dropped;
    a sample outside the closed domain raises :class:`BoundaryError`.
    """
    p0 = np.atleast_1d(np.asarray(p0, dtype=np.complex128))
    ts = np.asarray(t_grid, dtype=np.float64)
    zs = ts[:, None] * p0
    inside = op.space.inside_contract(zs)
    vals = berezin(op, zs)
    tails = op.space.truncation_tail_fraction(zs)
    return [ProfileSample(float(t), complex(v), not ok, float(tail))
            for t, v, ok, tail in zip(ts, vals, inside, tails)]


def tail_norm(op, k):
    """Spectral norm of the column block of basis degrees >= k (proxy ||T Q_k||).

    A diagonal operator (``op.diagonal``: a radial or diagonal polynomial
    symbol on a Reinhardt space) is read off exactly as max |d_j| over the
    block's columns; any other operator takes the SVD spectral norm.
    """
    space = op.space
    if not 0 <= k <= space.N:
        raise ParameterError(f"tail index k={k} outside [0, {space.N}]")
    cols = space.degrees >= k
    if not np.any(cols):
        return 0.0
    diag = op.diagonal
    if diag is not None:
        return float(np.max(np.abs(diag[cols])))
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


DEFAULT_T_GRID = np.concatenate([np.linspace(0.5, 0.95, 10),
                                 np.linspace(0.96, 0.995, 6)])
DEFAULT_T_GRID.flags.writeable = False

_DECREASING_WINDOW = 5


def axler_zheng_report(expr, space, strong_points, weak_points, *,
                       t_grid=DEFAULT_T_GRID, tail_k=None, berezin_threshold=0.1,
                       tail_threshold=0.5):
    """Two-sided compactness diagnostic for an operator expression.

    Reports (a) terminal Berezin values along radial paths at strongly
    pseudoconvex boundary points, (b) the tail-norm curve k -> ||T Q_k||,
    (c) Berezin values approaching weakly pseudoconvex points, and (d) a
    verdict: ``inconsistent`` exactly when the tail norms indicate (global)
    compactness while the Berezin transform fails to vanish at some strong
    point; every other pattern is ``consistent`` (vanishing Berezin with a
    fat tail is localization, not a contradiction).

    ``weak_points`` may be empty on domains without weakly pseudoconvex
    points (disk, balls); ``strong_points`` must be nonempty.  Vanishing
    means a terminal |B| below ``berezin_threshold`` (and a profile that
    decreases over its last ``_DECREASING_WINDOW`` samples) and a
    ``tail_norm(op, tail_k)`` at most ``tail_threshold`` (tail_k = N // 2).
    """
    if not strong_points:
        raise ParameterError("strong_points must be nonempty")
    if tail_k is None:
        tail_k = space.N // 2
    if not 0 <= tail_k <= space.N:
        raise ParameterError(f"tail_k={tail_k} outside [0, {space.N}]")
    op = materialize(expr, space)

    strong_profiles = tuple(
        (np.asarray(p, dtype=np.complex128), tuple(boundary_profile(op, p, t_grid)))
        for p in strong_points)
    weak_profiles = tuple(
        (np.asarray(p, dtype=np.complex128), tuple(boundary_profile(op, p, t_grid)))
        for p in (weak_points or ()))

    vanishing = True
    terminal_sup = 0.0
    for _, prof in strong_profiles:
        mags = [abs(s.value) for s in prof]
        terminal_sup = max(terminal_sup, mags[-1])
        start = max(0, len(mags) - _DECREASING_WINDOW)
        decreasing = all(mags[i + 1] <= mags[i] + 1e-12
                         for i in range(start, len(mags) - 1))
        if not (mags[-1] < berezin_threshold and decreasing):
            vanishing = False
    tail_curve = tuple((k, tail_norm(op, k)) for k in range(space.N + 1))
    tail_value = tail_curve[tail_k][1]
    tail_vanishing = tail_value <= tail_threshold

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
                            tail_vanishing, classification, verdict)


# ---------------------------------------------------------------------------
# JSON wire format for operator expressions
# ---------------------------------------------------------------------------

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
