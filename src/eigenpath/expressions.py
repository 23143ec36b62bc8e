"""Entry expressions for config-defined problems: a recursive-descent parser
over +, -, *, /, ^ (constant integer exponents), the functions exp, sin, cos,
sqrt, log, the symbol mu, and real literals; plus truncated Taylor arithmetic
that turns an expression into derivative values d^k/dmu^k at mu0.

Grammar (whitespace-insensitive):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' intliteral)?
    base   := number | 'mu' | func '(' expr ')' | '(' expr ')'

so unary minus binds looser than '^' (-mu^2 is -(mu^2)) and tighter than
'*' and '/'. The tree has one node class per shape: Num(value), Mu(),
Unary(op, operand) for '-' and the function calls (op is "-" or the
function's name), BinOp(op, left, right) for '+', '-', '*' and '/', and
Pow(base, exponent).

Error offsets are 1-based.
"""

import math
import operator
import re

import numpy as np

from dataclasses import dataclass

from .errors import DomainError, ExpressionSyntaxError, UnknownIdentifierError
from .series import binomial_table

FUNCTIONS = ("exp", "sin", "cos", "sqrt", "log")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Mu:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or a name in FUNCTIONS
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*" or "/"
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT = re.compile(r"-?\d+")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _fail(self, message):
        raise ExpressionSyntaxError(message, self.pos + 1)

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _accept(self, chars):
        """Consume the next character if it is one of ``chars`` and return
        it; otherwise return ""."""
        ch = self._peek()
        if ch and ch in chars:
            self.pos += 1
            return ch
        return ""

    def _expect(self, char):
        if not self._accept(char):
            self._fail(f"expected {char!r}")

    def parse(self):
        node = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail(f"unexpected character {self.text[self.pos]!r}")
        return node

    def expr(self):
        node = self.term()
        while op := self._accept("+-"):
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while op := self._accept("*/"):
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self._accept("-"):
            return Unary("-", self.factor())
        node = self.base()
        if self._accept("^"):
            self._skip_ws()
            match = _INT.match(self.text, self.pos)
            if not match:
                self._fail("expected integer exponent after '^'")
            self.pos = match.end()
            return Pow(node, int(match.group()))
        return node

    def base(self):
        ch = self._peek()
        if ch == "":
            self._fail("unexpected end of expression")
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self._expect(")")
            return node
        if ch.isdigit() or ch == ".":
            match = _NUMBER.match(self.text, self.pos)
            if not match:
                self._fail("malformed number")
            self.pos = match.end()
            return Num(float(match.group()))
        if ch.isalpha() or ch == "_":
            match = _IDENT.match(self.text, self.pos)
            name = match.group()
            start = self.pos
            self.pos = match.end()
            if name == "mu":
                return Mu()
            if name in FUNCTIONS:
                self._expect("(")
                node = self.expr()
                self._expect(")")
                return Unary(name, node)
            raise UnknownIdentifierError(name, start + 1)
        self._fail(f"unexpected character {ch!r}")


def parse_expression(text):
    """Parse an expression string into an AST; offsets in errors are 1-based."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 1)
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", parser.pos + 1) from None


# ---------------------------------------------------------------------------
# Truncated Taylor arithmetic on derivative values.
#
# A jet stores (f(mu0), f'(mu0), ..., f^(p)(mu0)). Leibniz' rule makes the
# product a matrix-vector product, (f g)^(k) = sum_m C(k, m) f^(k-m) g^(m),
# over the lower-triangular Leibniz matrix of f. The quotient, exp (h' = f' h)
# and the coupled sin/cos pair solve that rule row by row, one dot per order;
# log is the quotient h' = f'/f, and sqrt solves h^2 = f. The representation
# plugs directly into the binomial sums of the expansion order loop, no
# factorial rescaling at the interface.
# ---------------------------------------------------------------------------


class Jet:
    """Derivative values of one scalar function at mu0, orders 0..p."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values

    @classmethod
    def constant(cls, value, p):
        values = np.zeros(p + 1)
        values[0] = value
        return cls(values)

    def leibniz(self):
        """L[k, m] = C(k, m) f^(k-m) for m <= k, zero above the diagonal, so
        that ``L @ g`` holds the derivative values of the product f g."""
        f = self.values
        orders = np.arange(len(f))
        return binomial_table(len(f) - 1) * np.tril(f[orders[:, None] - orders])

    def __neg__(self):
        return Jet(-self.values)

    def __add__(self, other):
        return Jet(self.values + other.values)

    def __sub__(self, other):
        return Jet(self.values - other.values)

    def __mul__(self, other):
        # L(f) @ g, with row k summed over orders <= k only: zero times a
        # higher order that overflowed would turn the lower orders NaN
        return Jet(np.tril(self.leibniz() * other.values).sum(axis=1))

    def __truediv__(self, other):
        g = other.values
        if g[0] == 0.0:
            raise ZeroDivisionError("division by a series with zero constant term")
        rows = other.leibniz()  # f = L(g) @ h, solved for h row by row
        out = self.values.copy()
        for k in range(len(out)):
            out[k] = (out[k] - rows[k, :k] @ out[:k]) / g[0]
        return Jet(out)

    def __pow__(self, exponent):
        one = Jet.constant(1.0, len(self.values) - 1)
        if exponent < 0:
            return one / self ** -exponent
        # repeated squaring: at most 2 log2(exponent) + 1 products. The
        # first is with ``one``, so that x^1 = x * one is a product too,
        # which turns a -0.0 into 0.0.
        result, square = one, self
        while True:
            if exponent & 1:
                result = square * result
            exponent >>= 1
            if not exponent:
                return result
            square = square * square

    def exp(self):
        f = self.values
        out = np.zeros_like(f)
        out[0] = math.exp(f[0])
        rows = Jet(f[1:]).leibniz()  # h' = f' h, so h^(k) is row k-1 of L(f') times h
        for k in range(1, len(f)):
            out[k] = rows[k - 1, :k] @ out[:k]
        return Jet(out)

    def sin_cos(self):
        f = self.values
        s, c = np.zeros_like(f), np.zeros_like(f)
        s[0], c[0] = math.sin(f[0]), math.cos(f[0])
        rows = Jet(f[1:]).leibniz()  # s' = f' c and c' = -f' s
        for k in range(1, len(f)):
            s[k] = rows[k - 1, :k] @ c[:k]
            c[k] = -(rows[k - 1, :k] @ s[:k])
        return Jet(s), Jet(c)

    def sqrt(self):
        f = self.values
        if f[0] == 0.0:
            # every derivative of sqrt divides by sqrt(f(mu0))
            raise ZeroDivisionError("sqrt of a series with zero constant term")
        c = binomial_table(len(f) - 1)
        out = np.zeros_like(f)
        out[0] = math.sqrt(f[0])
        for k in range(1, len(f)):
            # f = h^2, so f^(k) = 2 h0 h^(k) + sum_{0<l<k} C(k,l) h^(l) h^(k-l)
            out[k] = (f[k] - c[k, 1:k] * out[1:k] @ out[k - 1:0:-1]) / (2.0 * out[0])
        return Jet(out)

    def log(self):
        f = self.values
        out = np.zeros_like(f)
        out[0] = math.log(f[0])
        if len(f) > 1:
            # h' = f'/f; the derivative jet of f is a plain index shift.
            out[1:] = (Jet(f[1:]) / Jet(f[:-1])).values
        return Jet(out)


# ---------------------------------------------------------------------------
# One walk evaluates an expression over Python floats (eval_expr) or over
# jets (taylor_arith_eval). An operation outside its domain raises what
# Python raises for it (x / 0, 0 ** -k, math.sqrt or math.log outside their
# domain, math.exp or a float power that overflows), as Jet does; the node
# that raised it turns that into a DomainError naming the operation.
# ---------------------------------------------------------------------------

_DOMAIN_FAILURES = {ZeroDivisionError: "division by zero", ValueError: "domain error",
                    OverflowError: "overflow"}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_FLOAT_FUNCTIONS = {"-": operator.neg, **{name: getattr(math, name) for name in FUNCTIONS}}
_JET_FUNCTIONS = {"-": operator.neg, "exp": Jet.exp, "sin": lambda f: f.sin_cos()[0],
                  "cos": lambda f: f.sin_cos()[1], "sqrt": Jet.sqrt, "log": Jet.log}


def _walk(node, mu, const, funcs):
    """The value of ``node`` at ``mu``, in mu's number type: ``const`` makes
    a literal of that type, and ``funcs`` holds negation and the FUNCTIONS
    over it."""
    kind = type(node)  # exact types: half the cost of isinstance calls
    try:  # a child raises DomainError, so this catches only the node's own failure
        if kind is Num:
            return const(node.value)
        if kind is Mu:
            return mu
        if kind is Unary:
            return funcs[node.op](_walk(node.operand, mu, const, funcs))
        if kind is BinOp:
            left, right = _walk(node.left, mu, const, funcs), _walk(node.right, mu, const, funcs)
            return _BINARY[node.op](left, right)
        if kind is Pow:
            return _walk(node.base, mu, const, funcs) ** node.exponent
    except tuple(_DOMAIN_FAILURES) as exc:
        reason = next(text for cls, text in _DOMAIN_FAILURES.items() if isinstance(exc, cls))
        operation = (node.op if kind is Unary
                     else f"'^{node.exponent}'" if kind is Pow else f"'{node.op}'")
        raise DomainError(f"{reason} in {operation}") from exc
    raise TypeError(f"unknown AST node {node!r}")


def eval_expr(node, mu):
    """Evaluate an AST at a parameter value, in Python floats."""
    return _walk(node, float(mu), float, _FLOAT_FUNCTIONS)


def taylor_arith_eval(node, mu0, p):
    """Derivative values (d^k/dmu^k at mu0, k = 0..p) of an expression.

    Exact to roundoff on polynomial expressions of degree <= p.
    """
    if p < 0:
        raise ValueError("order must be nonnegative")
    mu = Jet(np.array([float(mu0), 1.0] + [0.0] * (p - 1))[: p + 1])
    return _walk(node, mu, lambda value: Jet.constant(value, p), _JET_FUNCTIONS).values
