"""Continuous symbols on the closed domain, with a small expression grammar.

Symbols are parsed from strings over: float literals, variables z1..zn (z is
an alias for z1), ``+ - * /`` and parentheses, and the functions ``conj``,
``re``, ``im``, ``abs``, ``abs2``, ``sqrt``, ``max``, ``min``, and
``dist(c1, ..., cn)`` (Euclidean distance to a constant point).  Python's
expression parser (``ast.parse``) reads the string and a whitelist keeps only
these forms, so ``**``, comparisons, ``if``, keyword arguments, trailing
commas, comments, hex, octal, underscore and leading-zero integers, ``2j``,
non-ASCII characters other than whitespace and nesting deeper than
``MAX_DEPTH`` levels raise :class:`ParameterError`.  Two pieces of structure
are detected on the parse tree and drive fast paths downstream:

* a polynomial-in-(z, zbar) expansion, when one exists (re/im/conj/abs2
  expand; abs/sqrt/max/min/dist do not);
* torus invariance ("radial"), when every variable occurrence sits inside
  abs/abs2 of a monomial.
"""

import ast
import cmath
import enum
import operator
import re
import string
import warnings
from functools import cached_property

import numpy as np

from .errors import ParameterError


class SymbolTag(enum.Enum):
    POLYNOMIAL = "Polynomial"
    RADIAL = "Radial"
    GENERAL = "General"


# ---------------------------------------------------------------------------
# parsing: Python's parse tree, whitelisted into tuple AST nodes
#   ("num", c) ("var", j) ("call", name, [args]) ("+", a, b) ("-", a, b)
#   ("*", a, b) ("/", a, b) ("neg", a)
# ---------------------------------------------------------------------------

_FUNCTIONS = {"conj": 1, "re": 1, "im": 1, "abs": 1, "abs2": 1, "sqrt": 1,
              "max": 2, "min": 2, "dist": None}
MAX_DEPTH = 200     # nesting levels; Python's parser allows as many parentheses
_CHARS = frozenset(string.ascii_letters + string.digits + "_ .+-*/(),")
_DECIMAL = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _parse(text, dim):
    """The tuple AST of a symbol string.  Whitespace runs become one space,
    so the source is one line of ASCII and column offsets index it."""
    src = " ".join(text.split())
    for ch in src:
        if ch not in _CHARS:
            raise ParameterError(f"unexpected character {ch!r} in symbol {text!r}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = ast.parse(src, mode="eval")
    except RecursionError:
        raise ParameterError(f"symbol {text!r} nests deeper than {MAX_DEPTH} levels") from None
    except (SyntaxError, ValueError) as exc:
        raise ParameterError(f"malformed symbol {text!r}: {getattr(exc, 'msg', exc)}") from None
    return _convert(tree.body, src, dim, 1)


def _convert(node, src, dim, depth):
    if depth > MAX_DEPTH:
        raise ParameterError(f"symbol {src!r} nests deeper than {MAX_DEPTH} levels")
    depth += 1
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return (_BINOPS[type(node.op)], _convert(node.left, src, dim, depth),
                _convert(node.right, src, dim, depth))
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.USub, ast.UAdd):
        operand = _convert(node.operand, src, dim, depth)
        return ("neg", operand) if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Name):
        return ("var", _var_index(node.id, dim))
    literal = src[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and _DECIMAL.fullmatch(literal):
        return ("num", complex(float(literal)))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args
            and not node.keywords
            and "," not in src[node.args[-1].end_col_offset:node.end_col_offset]):
        name = node.func.id
        if name not in _FUNCTIONS:
            raise ParameterError(f"unknown function {name!r}")
        args = [_convert(a, src, dim, depth) for a in node.args]
        arity = _FUNCTIONS[name]
        if arity is not None and len(args) != arity:
            raise ParameterError(f"{name} takes {arity} argument(s)")
        if name == "dist":
            for a in args:
                _const_value(a)   # coordinates must be constants
        return ("call", name, args)
    raise ParameterError(f"{literal!r} is not in the symbol grammar (symbol {src!r})")


def _var_index(name, dim):
    if name == "z":
        return 0
    if name.startswith("z") and name[1:].isdigit():
        j = int(name[1:]) - 1
        if not 0 <= j < dim:
            raise ParameterError(f"variable {name} out of range for dim {dim}")
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
        if node[0] == "/" and b == 0:
            raise ParameterError("division by zero in a constant")
        return _ARITH[node[0]](a, b)
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
    return {(b, a): c.conjugate() for (a, b), c in p.items()}


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


def _balanced(op, nodes):
    """``nodes`` joined by the binary ``op``, as a tree of depth O(log len)."""
    if len(nodes) == 1:
        return nodes[0]
    mid = len(nodes) // 2
    return (op, _balanced(op, nodes[:mid]), _balanced(op, nodes[mid:]))


def _poly_ast(poly):
    """The AST of sum c z^alpha conj(z)^beta, in the dict's order."""
    terms = [_balanced("*", [("num", c)]
                       + [("var", j) for j, k in enumerate(a) for _ in range(k)]
                       + [("call", "conj", [("var", j)]) for j, k in enumerate(b)
                          for _ in range(k)])
             for (a, b), c in poly.items()]
    return _balanced("+", terms) if terms else ("num", 0j)


def _poly_text(poly):
    parts = []
    for (a, b), c in sorted(poly.items()):
        mono = "*".join([f"z{j+1}" for j, k in enumerate(a) for _ in range(k)]
                        + [f"conj(z{j+1})" for j, k in enumerate(b) for _ in range(k)])
        parts.append(f"({c})" + ("*" + mono if mono else ""))
    return "+".join(parts) if parts else "0"


def _torus_invariant(poly):
    return all(a == b for (a, b) in poly)


class Symbol:
    """A continuous symbol on the closed domain.

    Built from a grammar string (``Symbol.parse``) or a polynomial dict
    (``Symbol.from_monomials``).  Every symbol has a tuple AST; ``poly`` is
    its polynomial dict, or None when it is not a polynomial.  Callable on
    point arrays of shape (m, dim); evaluation is vectorized numpy.
    """

    def __init__(self, dim, ast, poly, radial, text):
        self.dim = int(dim)
        self.ast = ast
        self.poly = poly
        self.radial = bool(radial)
        self.text = text
        self._conj = None
        self._table = None        # _ProductTable this symbol multiplies through
        self._interned = False    # reachable from a table, so never holds one

    # -- constructors -------------------------------------------------------
    @classmethod
    def parse(cls, text, dim):
        tree = _parse(text, dim)
        return cls(dim, tree, _expand(tree, dim), _is_radial(tree), text)

    @classmethod
    def from_monomials(cls, poly, dim):
        poly = {(tuple(a), tuple(b)): complex(c) for (a, b), c in poly.items()}
        return cls(dim, _poly_ast(poly), poly, _torus_invariant(poly), _poly_text(poly))

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
            c = Symbol(self.dim, ("call", "conj", [self.ast]),
                       None if self.poly is None else _poly_conj(self.poly),
                       self.radial, f"conj({self.text})")
            c._table, c._interned = self._table, self._interned
            self._conj = c
        return self._conj

    def __mul__(self, other):
        """Product symbol.  Polynomial products go through a
        :class:`_ProductTable` shared with the operands, so a repeated product
        is the same Symbol and no polynomial is expanded twice."""
        if not isinstance(other, Symbol):
            return NotImplemented
        if self.poly is None or other.poly is None:
            return Symbol(self.dim, ("*", self.ast, other.ast), None,
                          self.radial and other.radial, f"({self.text})*({other.text})")
        table = self._table or other._table
        if table is None:
            if self._interned and other._interned:
                return _poly_product(self, other)
            table = _ProductTable()
        for s in (self, other):
            if s._table is None and not s._interned:
                s._table = table
        return table.product(self, other)

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
        vals = _eval(self.ast, pts)
        return vals[0] if single else vals

    def __repr__(self):
        return f"Symbol({self.text!r}, tag={self.tag.value})"


def _poly_product(a, b):
    """Product of two polynomial symbols; torus invariance is read off the
    product polynomial."""
    poly = _poly_mul(a.poly, b.poly)
    return Symbol(a.dim, ("*", a.ast, b.ast), poly, _torus_invariant(poly),
                  f"({a.text})*({b.text})")


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
