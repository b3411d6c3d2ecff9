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
searched for in a matrix, and its ``matrix`` is densified on first read.  The
identity residuals take a list of identities and evaluate them as one array
program: in an identity of monomial symbols every operator is one weighted
shift, so its residual is products of rows gathered from a table of
monomial weights, built once a call with array ops from the closed form, as
read off ``decompose_product``'s term list.  Each factor is read at the
targets of the whole shift of the factors to its right, one gather from a
table of shift targets, and each such read is gathered once per chunk of
identities.  A polynomial identity is the coefficient-weighted sum of its
monomial ones (the residual is multilinear), expanded with array ops chunk
by chunk.
"""

import functools
import itertools
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel
from .errors import BoundaryError, CapabilityError, NumericError, ParameterError
from .quadrature import (finite_node_values, log_monomial_moments,
                         measure_node_weights, radial_rule)
from .symbols import Symbol

_RADIAL_ORDER = 160


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

    @property
    def text(self):
        """The expression written with T(sym), HP(psi, phi), I and scalars."""
        return " + ".join(" * ".join(map(_factor_text, p)) for p in self.terms)


def _factor_text(factor):
    kind, *args = factor
    if kind == "scalar":
        return f"{args[0].real if args[0].imag == 0 else args[0]:g}"
    name = {"toeplitz": "T", "hankel_pair": "HP", "identity": "I"}[kind]
    return f"{name}({', '.join(s.text for s in args)})" if args else name


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
# truncation; the matrix entry [alpha+s, alpha] is w[alpha].  It also holds
# its space's _ShiftForm, which knows where each shift sends each basis index
# and holds nothing that points back to the space.  Weight vectors may be
# shared between operators (a sum keeps its operands' vectors), so
# operations build new arrays and never write into their inputs.
# ---------------------------------------------------------------------------

def _shift_order(shift):
    """Sort key placing alpha+shift in basis order (degree, then lex) for any alpha."""
    return sum(shift), shift


class _Shifts:
    """Weighted-shift operator (see above) with the ndarray operations the
    formulas use (``@ + -``, scalar ``*``), plus ``adjoint`` and ``dense``."""

    __slots__ = ("form", "w")

    def __init__(self, form, w):
        self.form = form
        self.w = w

    def __matmul__(self, other):
        """A @ B (B applied first); entry products are A-value * B-value.

        An entry reached through several intermediate indices sums those paths
        in ascending order of the intermediate index (the order a row-sorted
        sparse product uses), whatever the dict order of the shifts.
        """
        form, a, b = self.form, self.w.items(), other.w
        out = {}
        for sb in sorted(b, key=_shift_order) if len(b) > 1 else b:
            wb = b[sb]
            tgt = form.targets(sb)[0]
            for sa, wa in a:
                s = tuple(map(operator.add, sa, sb))
                term = wa[tgt] * wb
                if s in out:
                    out[s] += term
                else:
                    out[s] = term
        return _Shifts(form, out)

    def __add__(self, other):
        out = dict(self.w)
        for s, w in other.w.items():
            out[s] = out.get(s, 0) + w
        return _Shifts(self.form, out)

    def __sub__(self, other):
        out = dict(self.w)
        for s, w in other.w.items():
            out[s] = out.get(s, 0) - w
        return _Shifts(self.form, out)

    def __rmul__(self, scal):
        return _Shifts(self.form, {s: w * scal for s, w in self.w.items()})

    def adjoint(self):
        out = {}
        for s, w in self.w.items():
            tgt, valid = self.form.targets(s)
            v = np.zeros(self.form.size, dtype=w.dtype)
            v[tgt[valid]] = np.conj(w[valid])
            out[tuple(-x for x in s)] = v
        return _Shifts(self.form, out)

    def dense(self):
        nb = self.form.size
        mat = np.zeros((nb, nb), dtype=np.complex128)
        for s, w in self.w.items():
            tgt, valid = self.form.targets(s)
            cols = np.flatnonzero(valid)
            mat[tgt[cols], cols] += w[cols]
        return mat


class _ShiftForm:
    """Factors as weighted shifts (Reinhardt spaces), with what the space's
    weighted-shift algebra reuses across calls: one per space, held by it
    (``_shift_form``).  It keeps the space's arrays and measure but not the
    space, and its operators point only to it, so nothing here refers back
    to the space and all of it is freed with the space.  It keeps no
    operator and nothing per identity: the shift targets and the radial
    rule are what recurs.  Monomial Toeplitz weights have one closed form,
    ``monomial_weights``, for ``toeplitz`` and the identity residuals alike.
    """

    __slots__ = ("measure", "N", "alphas", "degrees", "log_moments", "size", "dim",
                 "strides", "flat", "inverse", "_targets", "_radial")

    def __init__(self, space):
        self.measure, self.N, self.alphas = space.measure, space.N, space.alphas
        self.degrees, self.log_moments = space.degrees, space.log_moments
        self.size, self.dim = space.size, space.dim
        stride = space.N + 1
        self.strides = stride ** np.arange(self.dim, dtype=np.int64)
        self.flat = self.alphas @ self.strides
        self.inverse = np.full(stride ** self.dim, -1, dtype=np.int64)
        self.inverse[self.flat] = np.arange(self.size)
        self._targets = {}     # shift -> targets(shift)
        self._radial = None    # _RadialDiagonal, built for the first radial symbol

    def targets(self, shift):
        """(tgt, valid): ``valid[alpha]`` when alpha+shift stays in the
        truncation, ``tgt[alpha]`` its basis index (0 where not valid)."""
        hit = self._targets.get(shift)
        if hit is None:
            valid = self.degrees <= self.N - sum(shift)
            for column, s in zip(self.alphas.T, shift):
                if s < 0:
                    valid &= column >= -s
            tgt = np.zeros(self.size, dtype=np.int64)
            tgt[valid] = self.inverse[self.flat[valid] + int(np.dot(shift, self.strides))]
            hit = self._targets[shift] = (tgt, valid)
        return hit

    def toeplitz(self, sym):
        """T_sym: for a non-polynomial symbol the radial diagonal or, on the
        disk, its angular Fourier modes; else monomial z^gamma zbar^delta
        adds c_alpha c_beta m_{alpha+gamma} at shift gamma - delta, in the
        symbol's order.  The weights are real (float64) when every
        coefficient is, which gives the values of complex arithmetic on
        x + 0j at half the memory and time."""
        if sym.poly is None:
            if not sym.radial and self.dim > 1:
                raise CapabilityError(
                    "general (non-polynomial, non-radial) symbols are assembled only on "
                    f"the disk; {self.measure.domain.name} has dimension {self.dim}")
            if self._radial is None:
                self._radial = _RadialDiagonal(self)  # reads measure, N, alphas
            return _Shifts(self, {(0,) * self.dim: self._radial(sym)} if sym.radial
                           else self._radial.modes(sym))
        real = all(c.imag == 0 for c in sym.poly.values())
        out = {}
        for (gamma, delta), c in sym.poly.items():
            shift = tuple(g - d for g, d in zip(gamma, delta))
            tgt, valid = self.targets(shift)
            cols = valid.nonzero()[0]
            if not len(cols):
                continue
            w = out.setdefault(shift, np.zeros(self.size,
                                               dtype=np.float64 if real else np.complex128))
            ext = self.log_moments_at(np.array([gamma]))[0]
            w[cols] += (c.real if real else c) * self.monomial_weights(ext[cols], cols, tgt[cols])
        return _Shifts(self, out)

    def log_moments_at(self, gammas):
        """log m_{alpha+gamma} for every alpha, one row per gamma, in blocks of
        at most ``_accel.BLOCK_ENTRIES // 8`` entries (a row does not depend
        on the others)."""
        out = np.empty((len(gammas), self.size))
        step = max(1, _accel.BLOCK_ENTRIES // 8 // self.size)
        for a in range(0, len(gammas), step):
            shifted = (gammas[a:a + step, None] + self.alphas).reshape(-1, self.dim)
            out[a:a + step] = log_monomial_moments(self.measure, shifted).reshape(-1, self.size)
        return out

    def monomial_weights(self, ext, src, dst):
        """<T e_src, e_dst> of T_{z^gamma zbar^delta} for dst = src + gamma - delta
        in the truncation, entrywise over index arrays, from ``ext`` = log
        m_{src+gamma}: exp(log m_{src+gamma} - log m_src / 2 - log m_dst / 2)."""
        logm = self.log_moments
        return np.exp(ext - 0.5 * logm[src] - 0.5 * logm[dst])

    def target_row(self, shift):
        """Where ``shift`` sends each basis index, -1 where it leaves the truncation."""
        tgt, valid = self.targets(shift)
        return np.where(valid, tgt, -1)

    def hankel(self, phi, psi):
        return _hankel_pair(self, phi, psi)

    def identity(self):
        return _Shifts(self, {(0,) * self.dim: np.ones(self.size, dtype=np.complex128)})

    def zero(self):
        return _Shifts(self, {})

    adjoint = staticmethod(_Shifts.adjoint)


def _shift_form(space):
    """The space's ``_ShiftForm``, built on first use."""
    form = getattr(space, "_shift_form", None)
    if form is None:
        form = space._shift_form = _ShiftForm(space)
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


def _finite(assemble, what):
    """``assemble()``, run with numpy's overflow and invalid warnings off,
    since a non-finite weight or entry of the operator it returns (weighted
    shifts or a matrix) raises :class:`NumericError` naming ``what``."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = assemble()
    parts = out.w.values() if isinstance(out, _Shifts) else (out,)
    if not all(np.isfinite(w).all() for w in parts):
        raise NumericError(f"operator {what} is not finite: a product of its "
                           "scalars and weights overflows")
    return out


def toeplitz(space, sym):
    """Truncated Toeplitz operator P_N M_phi on the basis."""
    return TruncatedOperator(_finite(lambda: _shift_form(space).toeplitz(sym),
                                     f"T({sym.text})"), space)


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
    pair = _finite(lambda: _hankel_pair(_form(space, (phi, psi)), phi, psi),
                   f"H*_({psi.text}) H_({phi.text})")
    return TruncatedOperator(pair, space).matrix


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
    return TruncatedOperator(_finite(lambda: _sum_of_products(form, expr), expr.text), space)


# ---------------------------------------------------------------------------
# identity checks on truncation-safe blocks
# ---------------------------------------------------------------------------

def _residuals(space, what, identities, degree_of, margin, combine):
    """One float per identity (a sequence of polynomial symbols): the max over
    the truncation-safe block of |combine(chain, terms)|, for the Toeplitz
    chain and the products of ``decompose_product``'s terms without scalars.
    ``degree_of`` (``np.maximum`` or ``np.add``) reduces an identity's symbol
    degrees to the margin it needs.  A polynomial identity is the
    coefficient-weighted sum of its monomial ones (the residual is
    multilinear), summed per total shift before the max.  Monomials are coded
    by their exponents' digits in base 2N + 1, so that a product's code is the
    sum of its factors' (no exponent exceeds 2N)."""
    identities = list(map(tuple, identities))
    ids = {s: i for i, s in enumerate(dict.fromkeys(itertools.chain(*identities)))}
    flat = np.fromiter(map(ids.__getitem__, itertools.chain(*identities)), np.intp)
    lengths = np.fromiter(map(len, identities), np.intp, len(identities))
    if identities:
        if not lengths.all():
            raise ParameterError(f"{what} residual needs at least one symbol per identity")
        degrees = np.array([-1 if s.degree is None else s.degree for s in ids], np.intp)[flat]
        starts = np.cumsum(lengths) - lengths
        polynomial = np.minimum.reduceat(degrees, starts) >= 0
        need = degree_of.reduceat(degrees, starts)
        bad = np.flatnonzero(~polynomial | (need > margin))     # the first one raises
        if len(bad):
            i = bad[0]
            raise ParameterError(f"{what} residual requires polynomial symbols" if not polynomial[i]
                                 else f"margin {margin} is below the symbol degree {need[i]}")
    form = _shift_form(space)
    keep = form.degrees <= form.N - margin
    if not keep.any():
        raise ParameterError(f"margin {margin} leaves no truncation-safe indices")
    radix = (2 * form.N + 1) ** np.arange(2 * form.dim)
    polys = [s.poly for s in ids]
    count = np.fromiter(map(len, polys), np.intp, len(polys))
    exps = np.array([e for p in polys for a, b in p for e in (*a, *b)], np.int64)
    monomials = (count, np.cumsum(count) - count, exps.reshape(-1, 2 * form.dim) @ radix,
                 np.array([c for p in polys for c in p.values()], np.complex128))
    out = np.zeros(len(identities))
    for m in sorted(set(lengths.tolist())):
        of_m = lengths == m
        _batch_residuals(form, np.flatnonzero(of_m), flat[np.repeat(of_m, lengths)].reshape(-1, m),
                         monomials, radix, keep, combine, out)
    return out.tolist()


def _monomial_identities(ids, monomials):
    """The monomial identities of the identities ``ids`` (symbol ids, one row
    each), in order, the last symbol's monomials fastest: each one's row in
    ``ids``, its monomial codes, and its coefficient, the product of its
    monomials' taken left to right.  ``monomials`` is (count, start, code,
    coef): each symbol's number of monomials and first index into the codes
    and coefficients of all symbols' monomials."""
    count, start, code, coef = monomials
    counts = count[ids]
    per = counts.prod(axis=1)
    owner = np.repeat(np.arange(len(ids)), per)
    digits = np.arange(len(owner)) - np.repeat(np.cumsum(per) - per, per)   # mixed radix
    at = np.empty((len(owner), ids.shape[1]), np.intp)
    for j in range(ids.shape[1] - 1, -1, -1):
        c = counts[owner, j]
        at[:, j] = start[ids[owner, j]] + digits % c
        digits //= c
    return owner, code[at], functools.reduce(operator.mul, coef[at].T)


def _decomposition(m):
    """The chain T_{s_1} ... T_{s_m} and ``decompose_product``'s terms without
    scalars, each as the reads of its factors, left to right.  A read is
    (key, moved): row key = (adjoint?, inputs) of T_s, or of the adjoint of
    T_{conj s}, for s the product of the inputs, taken at the block moved by
    the whole shift of the inputs ``moved`` right of the factor (sets of
    inputs as bit masks, read off the indicator monomials z_1, ..., z_m).
    T_s is one read; H*_{conj psi} H_phi = T_{phi psi} - adj(T_{conj psi})
    T_phi is three, the adjoint moved by phi as well."""
    zs = [Symbol.from_monomials({(tuple(int(i == j) for j in range(m)), (0,) * m): 1.0}, m)
          for i in range(m)]

    def inputs(s):
        return sum(e << i for i, e in enumerate(next(iter(s.poly))[0]))

    def reads(term):
        out, moved = [], 0
        for f in reversed([f for f in term if f[0] != "scalar"]):
            whole = inputs(f[1] if f[0] == "toeplitz" else f[2] * f[1])
            out.append((((False, whole), moved),) if f[0] == "toeplitz" else
                       (((False, whole), moved), ((True, inputs(f[1])), moved | inputs(f[2])),
                        ((False, inputs(f[2])), moved)))
            moved |= whole
        return out[::-1]
    return [reads(term) for term in [tuple(map(T, zs)), *decompose_product(zs).terms]]


def _cuts(first, size):
    """Cuts before each identity whose first monomial row ``first`` starts a
    new run of ``size`` rows, and at the end: runs of whole identities."""
    return [*np.flatnonzero(np.diff(first // size, prepend=-1)).tolist(), len(first)]


def _batch_residuals(form, index, ids, monomials, radix, keep, combine, out):
    """Raise ``out[index[i]]`` to the residual of the identity of symbol ids
    ``ids[i]``, all of one length m, over its monomial identities.

    One table holds, at shift gamma - delta, the weights of T_{z^gamma
    zbar^delta} or of the adjoint of its conjugate's, one row per key a
    monomial identity reads (collected in a first pass); another per shift
    its targets, -1 where alpha + shift leaves the truncation.  A read takes
    its row at the targets of the whole shift of the inputs right of its
    factor, one gather from the target row of their product's key, and each
    (key, moved) pair is gathered once a chunk.  ``_Shifts.__matmul__``
    composes one target gather per factor instead: the positions agree while
    every partial shift stays in the truncation, and where one leaves it the
    first factor to leave weighs 0 at a position both agree on, so the
    product is +-0 either way and its |.| the same.  The monomial identities
    of an identity are ordered by total shift (a stable sort), and those of
    one total shift are summed left to right before the max.  Whole
    identities go in chunks of about ``_accel.BLOCK_ENTRIES // 8`` entries
    per temporary, and every entry takes the arithmetic of ``_Shifts`` in the
    same order."""
    m, size, dim = ids.shape[1], form.size, form.dim
    chain, *terms = structure = _decomposition(m)
    reads = [r for product in structure for factor in product for r in factor]
    needed = list(dict.fromkeys([key for key, _ in reads]
                                + [(False, moved) for _, moved in reads if moved]))
    column = {key: j for j, key in enumerate(needed)}
    inputs = np.array([r for _, r in needed]) >> np.arange(m)[:, None] & 1    # (m, keys)
    adjoint = np.array([a for a, _ in needed])
    per = monomials[0][ids].prod(axis=1)        # monomial identities per identity
    blocks = _cuts(np.cumsum(per) - per, max(1, _accel.BLOCK_ENTRIES // 8 // len(needed)))
    keys = np.zeros(0, np.int64)                # the code of each row's monomial, * 2 + adjoint?
    for a, b in zip(blocks, blocks[1:]):
        # deduplicated by hand: np.unique without an inverse imports numpy.ma (MBs of RSS)
        keys = np.sort(np.concatenate(
            [keys, (_monomial_identities(ids[a:b], monomials)[1] @ inputs * 2 + adjoint).ravel()]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
    if not len(keys):
        return
    exps = keys[:, None] // 2 // radix % radix[1]           # (*gamma, *delta) of each row
    shifts, shift_of = np.unique(exps[:, :dim] - exps[:, dim:], axis=0, return_inverse=True)
    shift_of = shift_of.ravel()
    targets = np.array([form.target_row(tuple(shift)) for shift in shifts.tolist()])
    # the adjoint of T_{conj mono} at beta is T_{conj mono} at its target alpha
    adj = keys % 2 == 1
    gammas, gamma_of = np.unique(np.where(adj[:, None], exps[:, dim:], exps[:, :dim]), axis=0,
                                 return_inverse=True)
    ext, gamma_of = form.log_moments_at(gammas), gamma_of.ravel()
    weights, step = np.zeros((len(keys), size)), max(1, _accel.BLOCK_ENTRIES // 8 // size)
    for a in range(0, len(keys), step):
        row, col = np.nonzero(targets[shift_of[a:a + step]] >= 0)
        row += a
        tgt = targets[shift_of[row], col]
        src, dst = np.where(adj[row], tgt, col), np.where(adj[row], col, tgt)
        weights[row, col] = form.monomial_weights(ext[gamma_of[row], src], src, dst)
    nb = int(keep.sum())    # the basis is in degree order: the block is its first nb indices
    ok = (targets[:, :nb] >= 0) & keep[targets[:, :nb]]     # per total shift, where it counts
    total = column[False, 2 ** m - 1]
    per_chunk, unmoved = max(1, _accel.BLOCK_ENTRIES // 8 // nb), np.arange(nb)
    for a, b in zip(blocks, blocks[1:]):
        owner, codes, coefs = _monomial_identities(ids[a:b], monomials)
        rows = np.searchsorted(keys, codes @ inputs * 2 + adjoint)
        group = owner * len(shifts) + shift_of[rows[:, total]]
        # each total shift's monomial identities together, in their order
        order = np.argsort(group, kind="stable")
        owner, coefs, rows, group = owner[order], coefs[order], rows[order], group[order]
        heads = np.flatnonzero(np.diff(group, prepend=-1))     # each total shift's first row
        count = np.diff(heads, append=len(group))               # and its monomial identities
        starts, moves = rows * size, shift_of[rows]     # flat row starts, row shifts
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        cuts = [*first[_cuts(first, per_chunk)[:-1]].tolist(), len(owner)]
        ends = np.searchsorted(heads, cuts).tolist()            # cuts fall on heads
        for lo, hi, i, j in zip(cuts, cuts[1:], ends, ends[1:]):
            got, at = {}, {0: unmoved}

            def take(key, moved):   # row ``key`` at the block moved by the inputs ``moved``
                if (key, moved) not in got:
                    if moved not in at:
                        at[moved] = targets.take(moves[lo:hi, column[False, moved]],
                                                 axis=0)[:, :nb]
                    got[key, moved] = weights.take(starts[lo:hi, column[key], None] + at[moved])
                return got[key, moved]

            def product(factors):   # entry alpha of A @ B is A at tgt_B(alpha) times B at alpha
                values = [take(*read) if not pair else
                          take(*read) - take(*pair[0]) * take(*pair[1])
                          for read, *pair in factors]
                return functools.reduce(operator.mul, values)

            c = coefs[lo:hi, None]
            residual = combine(product(chain), map(product, terms)) * (c if c.imag.any()
                                                                       else c.real)
            # sum the monomial identities of each total shift, left to right
            head, n = heads[i:j] - lo, count[i:j]
            sums = residual[head]
            for k in range(1, n.max()):
                more = n > k
                sums[more] += residual[head[more] + k]
            g = group[heads[i:j]]
            np.maximum.at(out, index[a + g // len(shifts)],
                          np.where(ok[g % len(shifts)], np.abs(sums), 0.0).max(axis=1))


def semi_commutator_residual(space, pairs, margin):
    """Max-entry residual of T_{phi2} T_{phi1} = T_{phi2 phi1} - H*_{conj(phi2)} H_{phi1}
    over the truncation-safe block, one per (phi2, phi1) in ``pairs``."""
    return _residuals(space, "semi-commutator", pairs, np.maximum, margin,
                      lambda direct, terms: direct - next(terms) + next(terms))


def product_decomposition_residual(space, symbol_lists, margin):
    """Max-entry residual between the direct Toeplitz product and its
    decomposition (one Toeplitz with the product symbol minus Hankel
    corrections) over the truncation-safe block, one per list of symbols
    in ``symbol_lists``."""
    return _residuals(space, "product decomposition", symbol_lists, np.add, margin,
                      lambda direct, terms: direct - functools.reduce(operator.sub, terms))


# ---------------------------------------------------------------------------
# Berezin transform, profiles, tail norms
# ---------------------------------------------------------------------------

def berezin(op, z, v=None):
    """B T(z) = <T k_z, k_z>, a complex for one point (n,), else one value
    per row of an (m, n) array.  The quadratic form is taken row by row, which
    rounds as a one-point call does; one (m, B) x (B, B) product would not.
    A diagonal operator takes sum_j conj(v_j) d_j v_j, rounding as M does.
    ``v`` is ``op.space.normalized_kernel(z)`` when the caller has it."""
    if v is None:
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
    if not np.all(np.isfinite(ts)):
        raise BoundaryError(f"point [{ts[~np.isfinite(ts)][0]}] * p0 is not finite")
    zs = ts[:, None] * p0
    inside = op.space.inside_contract(zs)
    kernels, tails = op.space.kernel_and_tail_fraction(zs)
    vals = berezin(op, zs, kernels)
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
    if not isinstance(obj, dict) or not isinstance(obj.get("sum"), list):
        raise ParameterError('operator expression must be {"sum": [...]}')
    terms = []
    for prod in obj["sum"]:
        if not isinstance(prod, dict) or not isinstance(prod.get("prod"), list):
            raise ParameterError('each term must be {"prod": [...]}')
        factors = []
        for f in prod["prod"]:
            if not isinstance(f, dict):
                raise ParameterError(f"operator factor {f!r} is not an object")
            if len(f) != 1:
                raise ParameterError(f"operator factor {f!r} does not have exactly one key")
            if "toeplitz" in f:
                factors.append(T(*_json_symbols(f, "toeplitz", ("symbol",), dim)))
            elif "hankelpair" in f:
                factors.append(HP(*_json_symbols(f, "hankelpair", ("psi", "phi"), dim)))
            elif "identity" in f:
                _json_symbols(f, "identity", (), dim)
                factors.append(IDENTITY)
            elif "scalar" in f:
                v = f["scalar"]
                parts = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
                if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in parts):
                    raise ParameterError(f"scalar {v!r} is neither a number nor [re, im]")
                factors.append(SC(complex(*parts)))
            else:
                raise ParameterError(f"unknown operator factor {f!r}")
        terms.append(tuple(factors))
    return OperatorExpr(tuple(terms))


def _json_symbols(factor, kind, names, dim):
    """The symbols ``factor[kind][name]`` for ``names``, refusing a body that
    is not an object of exactly these keys."""
    body = factor[kind]
    for name in names:
        if not isinstance(body, dict) or name not in body:
            raise ParameterError(f"{kind} factor {factor!r} has no {name!r}")
    if not isinstance(body, dict):
        raise ParameterError(f"{kind} factor {factor!r} is not an object")
    for key in body:
        if key not in names:
            raise ParameterError(f"{kind} factor {factor!r} has an unknown key {key!r}")
    return [Symbol.parse(body[name], dim) for name in names]
