"""Continuous symbols on the closed domain, with a small expression grammar.

Symbols are parsed from strings over: float literals, variables z1..zn (z is
an alias for z1), ``+ - * /`` and parentheses, and the functions ``conj``,
``re``, ``im``, ``abs``, ``abs2``, ``sqrt``, ``max``, ``min``, and
``dist(c1, ..., cn)`` (Euclidean distance to a constant point).  Two pieces
of structure are detected on the parse tree and drive fast paths downstream:

* a polynomial-in-(z, zbar) expansion, when one exists (re/im/conj/abs2
  expand; abs/sqrt/max/min/dist do not);
* torus invariance ("radial"), when every variable occurrence sits inside
  abs/abs2 of a monomial.
"""

import cmath
import enum
import operator
from functools import cached_property

import numpy as np

from .errors import ParameterError


class SymbolTag(enum.Enum):
    POLYNOMIAL = "Polynomial"
    RADIAL = "Radial"
    GENERAL = "General"


# ---------------------------------------------------------------------------
# tiny recursive-descent parser; AST nodes are tuples
#   ("num", c) ("var", j) ("call", name, [args]) ("+", a, b) ("-", a, b)
#   ("*", a, b) ("/", a, b) ("neg", a)
# ---------------------------------------------------------------------------

_FUNCTIONS = {"conj": 1, "re": 1, "im": 1, "abs": 1, "abs2": 1, "sqrt": 1,
              "max": 2, "min": 2, "dist": None}


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/(),":
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                     or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            try:
                tokens.append(("num", float(text[i:j])))
            except ValueError:
                raise ParameterError(f"malformed number {text[i:j]!r} in symbol "
                                     f"{text!r}") from None
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        else:
            raise ParameterError(f"unexpected character {ch!r} in symbol {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens, dim):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParameterError("unexpected end of symbol expression")
        if expected is not None and tok != expected:
            raise ParameterError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ParameterError(f"trailing tokens after expression: {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = (op, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok == "+":
            self.take()
            return self.factor()
        if tok == "-":
            self.take()
            return ("neg", self.factor())
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            self.take(")")
            return node
        if isinstance(tok, tuple) and tok[0] == "num":
            return ("num", complex(tok[1]))
        if isinstance(tok, tuple) and tok[0] == "name":
            name = tok[1]
            if self.peek() == "(":
                self.take("(")
                args = [self.expr()]
                while self.peek() == ",":
                    self.take(",")
                    args.append(self.expr())
                self.take(")")
                if name not in _FUNCTIONS:
                    raise ParameterError(f"unknown function {name!r}")
                arity = _FUNCTIONS[name]
                if arity is not None and len(args) != arity:
                    raise ParameterError(f"{name} takes {arity} argument(s)")
                if name == "dist":
                    for a in args:
                        _const_value(a)   # coordinates must be constants
                return ("call", name, args)
            return ("var", self._var_index(name))
        raise ParameterError(f"unexpected token {tok!r}")

    def _var_index(self, name):
        if name == "z":
            return 0
        if name.startswith("z") and name[1:].isdigit():
            j = int(name[1:]) - 1
            if not 0 <= j < self.dim:
                raise ParameterError(f"variable {name} out of range for dim {self.dim}")
            return j
        raise ParameterError(f"unknown identifier {name!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _eval(node, pts):
    kind = node[0]
    if kind == "num":
        return np.full(pts.shape[0], node[1])
    if kind == "var":
        return pts[:, node[1]]
    if kind == "neg":
        return -_eval(node[1], pts)
    if kind in "+-*/":
        a = _eval(node[1], pts)
        b = _eval(node[2], pts)
        return {"+": np.add, "-": np.subtract,
                "*": np.multiply, "/": np.divide}[kind](a, b)
    name, args = node[1], node[2]
    if name == "conj":
        return np.conj(_eval(args[0], pts))
    if name == "re":
        return _eval(args[0], pts).real.astype(np.complex128)
    if name == "im":
        return _eval(args[0], pts).imag.astype(np.complex128)
    if name == "abs":
        return np.abs(_eval(args[0], pts)).astype(np.complex128)
    if name == "abs2":
        v = _eval(args[0], pts)
        return (v * np.conj(v)).real.astype(np.complex128)
    if name == "sqrt":
        return np.sqrt(np.abs(_eval(args[0], pts))).astype(np.complex128)
    if name == "max":
        return np.maximum(_eval(args[0], pts).real, _eval(args[1], pts).real).astype(np.complex128)
    if name == "min":
        return np.minimum(_eval(args[0], pts).real, _eval(args[1], pts).real).astype(np.complex128)
    if name == "dist":
        target = np.array([complex(_const_value(a)) for a in args])
        if len(target) != pts.shape[1]:
            raise ParameterError("dist() needs one coordinate per variable")
        return np.linalg.norm(pts - target[None, :], axis=1).astype(np.complex128)
    raise ParameterError(f"unknown function {name!r}")


def _const_value(node):
    if node[0] == "num":
        return node[1]
    if node[0] == "neg":
        return -_const_value(node[1])
    if node[0] in "+-*/":
        a, b = _const_value(node[1]), _const_value(node[2])
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[node[0]]
    raise ParameterError("dist() coordinates must be constants")


# ---------------------------------------------------------------------------
# polynomial expansion: dict {(alpha, beta): coeff} for sum c z^alpha zbar^beta
# ---------------------------------------------------------------------------

def _poly_const(c, dim):
    zero = (0,) * dim
    return {(zero, zero): complex(c)} if c != 0 else {}


def _poly_add(p, q, sign=1.0):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0.0) + sign * c
        if out[key] == 0:
            del out[key]
    return out


def _poly_mul(p, q):
    if not p or not q:      # a zero factor: 0 * c is NaN for a c not finite, as evaluated
        return {key: complex(c) * 0 for key, c in (p or q).items() if not cmath.isfinite(c)}
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (tuple(map(operator.add, a1, a2)), tuple(map(operator.add, b1, b2)))
            c = out.get(key, 0.0) + c1 * c2
            if c == 0:
                out.pop(key, None)
            else:
                out[key] = c
    return out


def _poly_conj(p):
    return {(b, a): np.conj(c) for (a, b), c in p.items()}


def _expand(node, dim):
    """Polynomial dict for the node, or None when it is not polynomial."""
    kind = node[0]
    if kind == "num":
        return _poly_const(node[1], dim)
    if kind == "var":
        alpha = tuple(1 if j == node[1] else 0 for j in range(dim))
        return {(alpha, (0,) * dim): 1.0 + 0.0j}
    if kind == "neg":
        p = _expand(node[1], dim)
        return None if p is None else {k: -c for k, c in p.items()}
    if kind in "+-":
        p, q = _expand(node[1], dim), _expand(node[2], dim)
        if p is None or q is None:
            return None
        return _poly_add(p, q, sign=1.0 if kind == "+" else -1.0)
    if kind == "*":
        p, q = _expand(node[1], dim), _expand(node[2], dim)
        if p is None or q is None:
            return None
        return _poly_mul(p, q)
    if kind == "/":
        p = _expand(node[1], dim)
        try:
            c = _const_value(node[2])
        except ParameterError:
            return None
        if p is None or c == 0:
            return None
        return {k: v / c for k, v in p.items()}
    name, args = node[1], node[2]
    if name == "conj":
        p = _expand(args[0], dim)
        return None if p is None else _poly_conj(p)
    if name == "re":
        p = _expand(args[0], dim)
        if p is None:
            return None
        return {k: 0.5 * c for k, c in _poly_add(p, _poly_conj(p)).items()}
    if name == "im":
        p = _expand(args[0], dim)
        if p is None:
            return None
        return {k: c / 2j for k, c in _poly_add(p, _poly_conj(p), sign=-1.0).items()}
    if name == "abs2":
        p = _expand(args[0], dim)
        return None if p is None else _poly_mul(p, _poly_conj(p))
    return None


def _is_monomial(node):
    kind = node[0]
    if kind in ("num", "var"):
        return True
    if kind == "neg":
        return _is_monomial(node[1])
    if kind == "*":
        return _is_monomial(node[1]) and _is_monomial(node[2])
    if kind == "call" and node[1] == "conj":
        return _is_monomial(node[2][0])
    return False


def _is_radial(node):
    """True when the value is invariant under z_j -> e^{i theta_j} z_j."""
    kind = node[0]
    if kind == "num":
        return True
    if kind == "var":
        return False
    if kind == "neg":
        return _is_radial(node[1])
    if kind in "+-*/":
        return _is_radial(node[1]) and _is_radial(node[2])
    name, args = node[1], node[2]
    if name in ("abs", "abs2"):
        return _is_radial(args[0]) or _is_monomial(args[0])
    if name in ("sqrt", "conj", "re", "im"):
        return _is_radial(args[0])
    if name in ("max", "min"):
        return all(_is_radial(a) for a in args)
    return False   # dist is generally phase-dependent


class Symbol:
    """A continuous symbol on the closed domain.

    Built from a grammar string (``Symbol.parse``), a polynomial dict
    (``Symbol.from_monomials``), or a constant.  Callable on point arrays of
    shape (m, dim); evaluation is vectorized numpy.
    """

    def __init__(self, dim, ast=None, poly=None, radial=None, text=None):
        self.dim = int(dim)
        self.ast = ast
        if poly is None and ast is not None:
            poly = _expand(ast, dim)
        self.poly = poly
        if radial is None:
            radial = _is_radial(ast) if ast is not None else \
                all(a == b for (a, b) in (poly or {}))
        self.radial = bool(radial)
        self.text = text if text is not None else self._synth_text()
        self._conj = None
        self._table = None        # _ProductTable this symbol multiplies through
        self._interned = False    # reachable from a table, so never holds one

    # -- constructors -------------------------------------------------------
    @classmethod
    def parse(cls, text, dim):
        ast = _Parser(_tokenize(text), dim).parse()
        return cls(dim, ast=ast, text=text)

    @classmethod
    def from_monomials(cls, poly, dim):
        poly = {(tuple(a), tuple(b)): complex(c) for (a, b), c in poly.items()}
        return cls(dim, ast=None, poly=poly)

    @classmethod
    def constant(cls, c, dim):
        return cls(dim, ast=("num", complex(c)), text=repr(c))

    def _synth_text(self):
        if self.poly is None:
            return "<symbol>"
        parts = []
        for (a, b), c in sorted(self.poly.items()):
            mono = "*".join([f"z{j+1}" for j, k in enumerate(a) for _ in range(k)]
                            + [f"conj(z{j+1})" for j, k in enumerate(b) for _ in range(k)])
            parts.append(f"({c})" + ("*" + mono if mono else ""))
        return "+".join(parts) if parts else "0"

    # -- structure ----------------------------------------------------------
    @property
    def tag(self):
        if self.poly is not None:
            return SymbolTag.POLYNOMIAL
        if self.radial:
            return SymbolTag.RADIAL
        return SymbolTag.GENERAL

    @cached_property
    def degree(self):
        """Total degree in (z, zbar) for polynomial symbols, else None."""
        if self.poly is None:
            return None
        if not self.poly:
            return 0
        return max(sum(a) + sum(b) for a, b in self.poly)

    @cached_property
    def key(self):
        """Hashable polynomial key: the (alpha, beta, coeff) monomials in the
        dict's order (which downstream sums follow), or None for a
        non-polynomial symbol.  Computed once; ``poly`` is never mutated."""
        if self.poly is None:
            return None
        return tuple((a, b, complex(c)) for (a, b), c in self.poly.items())

    # -- algebra -------------------------------------------------------------
    def conj(self):
        """The complex conjugate symbol, built once per symbol."""
        if self._conj is None:
            if self.ast is not None:
                c = Symbol(self.dim, ast=("call", "conj", [self.ast]),
                           text=f"conj({self.text})")
            else:
                c = Symbol(self.dim, poly=_poly_conj(self.poly), radial=self.radial,
                           text=f"conj({self.text})")
            c._table, c._interned = self._table, self._interned
            self._conj = c
        return self._conj

    def __mul__(self, other):
        """Product symbol.  Polynomial products go through a
        :class:`_ProductTable` shared with the operands, so a repeated product
        is the same Symbol and no polynomial is expanded twice."""
        if not isinstance(other, Symbol):
            return NotImplemented
        if self.poly is not None and other.poly is not None:
            table = self._table or other._table
            if table is None:
                if self._interned and other._interned:
                    return _poly_product(self, other)
                table = _ProductTable()
            for s in (self, other):
                if s._table is None and not s._interned:
                    s._table = table
            return table.product(self, other)
        if self.ast is not None and other.ast is not None:
            return Symbol(self.dim, ast=("*", self.ast, other.ast),
                          text=f"({self.text})*({other.text})")
        raise ParameterError("cannot multiply symbols without a common representation")

    # -- evaluation ----------------------------------------------------------
    def __call__(self, points):
        pts = np.asarray(points, dtype=np.complex128)
        single = pts.ndim == 1 and self.dim > 1 or pts.ndim == 0
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            pts = pts[None, :] if self.dim > 1 else pts[:, None]
        if pts.shape[1] != self.dim:
            raise ParameterError(f"points have dim {pts.shape[1]}, symbol has {self.dim}")
        if self.ast is not None:
            vals = _eval(self.ast, pts)
        else:
            vals = np.zeros(pts.shape[0], dtype=np.complex128)
            conj_pts = np.conj(pts)
            for (a, b), c in self.poly.items():
                term = np.full(pts.shape[0], c)
                for j, k in enumerate(a):
                    if k:
                        term = term * pts[:, j] ** k
                for j, k in enumerate(b):
                    if k:
                        term = term * conj_pts[:, j] ** k
                vals += term
        return vals[0] if single else vals

    def __repr__(self):
        return f"Symbol({self.text!r}, tag={self.tag.value})"


def _poly_product(a, b):
    """Product of two polynomial symbols; torus invariance is read off the
    product polynomial."""
    return Symbol(a.dim, poly=_poly_mul(a.poly, b.poly), text=f"({a.text})*({b.text})")


class _ProductTable:
    """Polynomial products of the symbols that have been multiplied together,
    interned by key: one Symbol per distinct polynomial (its text is that of
    the product that first built it), looked up by the operands' keys.

    The operands hold the table; the products it holds, and everything
    derived from them, are marked interned and never hold a table, so there
    is no reference cycle and the table is freed with its operands.
    """

    __slots__ = ("by_pair", "by_key")

    def __init__(self):
        self.by_pair = {}   # (left key, right key) -> product
        self.by_key = {}    # product key -> product

    def product(self, a, b):
        pair = (a.key, b.key)
        hit = self.by_pair.get(pair)
        if hit is None:
            made = _poly_product(a, b)
            hit = self.by_key.setdefault(made.key, made)
            hit._interned = True
            self.by_pair[pair] = hit
        return hit
