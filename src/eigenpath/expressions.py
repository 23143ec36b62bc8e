"""Entry expressions for config-defined problems: a recursive-descent parser
over +, -, *, /, ^ (constant integer exponents), the functions exp, sin, cos,
sqrt, log, the symbol mu, and real literals; plus truncated Taylor arithmetic
that turns an expression into derivative values d^k/dmu^k at mu0.

Grammar (whitespace-insensitive):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' intliteral)?
    base   := number | 'mu' | func '(' expr ')' | '(' expr ')' | '-' base

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


class ExprNode:
    """Abstract syntax tree node."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(ExprNode):
    value: float


@dataclass(frozen=True)
class Mu(ExprNode):
    pass


@dataclass(frozen=True)
class Neg(ExprNode):
    operand: ExprNode


@dataclass(frozen=True)
class Add(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Sub(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Mul(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Div(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Pow(ExprNode):
    base: ExprNode
    exponent: int


@dataclass(frozen=True)
class Call(ExprNode):
    func: str
    arg: ExprNode


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

    def _accept(self, char):
        if self._peek() == char:
            self.pos += 1
            return True
        return False

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
        while True:
            if self._accept("+"):
                node = Add(node, self.term())
            elif self._accept("-"):
                node = Sub(node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            if self._accept("*"):
                node = Mul(node, self.factor())
            elif self._accept("/"):
                node = Div(node, self.factor())
            else:
                return node

    def factor(self):
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
        if ch == "-":
            self.pos += 1
            return Neg(self.base())
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
                return Call(name, node)
            raise UnknownIdentifierError(name, start + 1)
        self._fail(f"unexpected character {ch!r}")


def parse_expression(text):
    """Parse an expression string into an AST; offsets in errors are 1-based."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 1)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Truncated Taylor arithmetic on derivative values.
#
# A jet stores (f(mu0), f'(mu0), ..., f^(p)(mu0)). Products follow Leibniz'
# rule with binomial weights; quotients invert it; the elementary functions
# use h' = f' h (exp), the coupled sin/cos pair, h^2 = f (sqrt), and
# h' = f'/f (log). The representation plugs directly into the binomial sums
# of the expansion order loop, no factorial rescaling at the interface.
# ---------------------------------------------------------------------------


class Jet:
    """Derivative values of one scalar function at mu0, orders 0..p."""

    __slots__ = ("values", "binom")

    def __init__(self, values, binom):
        self.values = values
        self.binom = binom

    @property
    def order(self):
        return self.values.shape[0] - 1

    @classmethod
    def constant(cls, value, p, binom):
        values = np.zeros(p + 1)
        values[0] = value
        return cls(values, binom)

    @classmethod
    def variable(cls, mu0, p, binom):
        values = np.zeros(p + 1)
        values[0] = mu0
        if p >= 1:
            values[1] = 1.0
        return cls(values, binom)

    def _new(self, values):
        return Jet(values, self.binom)

    def __neg__(self):
        return self._new(-self.values)

    def __add__(self, other):
        return self._new(self.values + other.values)

    def __sub__(self, other):
        return self._new(self.values - other.values)

    def __mul__(self, other):
        p = self.order
        c = self.binom
        f, g = self.values, other.values
        out = np.zeros(p + 1)
        for k in range(p + 1):
            out[k] = np.dot(c[k, : k + 1] * f[: k + 1], g[k::-1])
        return self._new(out)

    def __truediv__(self, other):
        f, g = self.values, other.values
        if g[0] == 0.0:
            raise ZeroDivisionError("division by a series with zero constant term")
        p = self.order
        c = self.binom
        out = np.zeros(p + 1)
        for k in range(p + 1):
            acc = f[k]
            for l in range(k):
                acc -= c[k, l] * out[l] * g[k - l]
            out[k] = acc / g[0]
        return self._new(out)

    def __pow__(self, exponent):
        if exponent < 0:
            return Jet.constant(1.0, self.order, self.binom) / self ** -exponent
        result = Jet.constant(1.0, self.order, self.binom)
        for _ in range(exponent):
            result = result * self
        return result

    def exp(self):
        p = self.order
        c = self.binom
        f = self.values
        out = np.zeros(p + 1)
        out[0] = math.exp(f[0])
        for k in range(1, p + 1):
            # h' = f' h, so h^(k) = sum_l C(k-1, l) f^(l+1) h^(k-1-l)
            acc = 0.0
            for l in range(k):
                acc += c[k - 1, l] * f[l + 1] * out[k - 1 - l]
            out[k] = acc
        return self._new(out)

    def sin_cos(self):
        p = self.order
        c = self.binom
        f = self.values
        s = np.zeros(p + 1)
        co = np.zeros(p + 1)
        s[0] = math.sin(f[0])
        co[0] = math.cos(f[0])
        for k in range(1, p + 1):
            accs = 0.0
            accc = 0.0
            for l in range(k):
                accs += c[k - 1, l] * f[l + 1] * co[k - 1 - l]
                accc += c[k - 1, l] * f[l + 1] * s[k - 1 - l]
            s[k] = accs
            co[k] = -accc
        return self._new(s), self._new(co)

    def sqrt(self):
        f = self.values
        if f[0] == 0.0:
            # every derivative of sqrt divides by sqrt(f(mu0))
            raise ZeroDivisionError("sqrt of a series with zero constant term")
        p = self.order
        c = self.binom
        out = np.zeros(p + 1)
        out[0] = math.sqrt(f[0])
        for k in range(1, p + 1):
            # f = h^2, so f^(k) = 2 h0 h^(k) + sum_{0<l<k} C(k,l) h^(l) h^(k-l)
            acc = f[k]
            for l in range(1, k):
                acc -= c[k, l] * out[l] * out[k - l]
            out[k] = acc / (2.0 * out[0])
        return self._new(out)

    def log(self):
        f = self.values
        p = self.order
        out = np.zeros(p + 1)
        out[0] = math.log(f[0])
        if p >= 1:
            # h' = f'/f; the derivative jet of f is a plain index shift.
            shifted = Jet(f[1:].copy(), self.binom)
            quot = shifted / Jet(f[:p].copy(), self.binom)
            out[1:] = quot.values
        return self._new(out)


# ---------------------------------------------------------------------------
# One walk evaluates an expression over Python floats (eval_expr) or over
# jets (taylor_arith_eval). An operation outside its domain raises what
# Python raises for it (x / 0, 0 ** -k, math.sqrt or math.log outside their
# domain, math.exp or a float power that overflows), as Jet does; the node
# that raised it turns that into a DomainError naming the operation.
# ---------------------------------------------------------------------------

_DOMAIN_FAILURES = {ZeroDivisionError: "division by zero", ValueError: "domain error",
                    OverflowError: "overflow"}
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_FLOAT_FUNCTIONS = {name: getattr(math, name) for name in FUNCTIONS}
_JET_FUNCTIONS = {"exp": Jet.exp, "sin": lambda f: f.sin_cos()[0],
                  "cos": lambda f: f.sin_cos()[1], "sqrt": Jet.sqrt, "log": Jet.log}


def _walk(node, mu, const, funcs):
    """The value of ``node`` at ``mu``, in mu's number type: ``const`` makes
    a literal of that type, and ``funcs`` holds the FUNCTIONS over it."""
    kind = type(node)  # exact types: half the cost of isinstance calls
    try:  # a child raises DomainError, so this catches only the node's own failure
        if kind is Num:
            return const(node.value)
        if kind is Mu:
            return mu
        if kind is Neg:
            return -_walk(node.operand, mu, const, funcs)
        if kind is Pow:
            return _walk(node.base, mu, const, funcs) ** node.exponent
        if kind is Call:
            return funcs[node.func](_walk(node.arg, mu, const, funcs))
        if kind in _BINARY:
            left, right = _walk(node.left, mu, const, funcs), _walk(node.right, mu, const, funcs)
            return _BINARY[kind](left, right)
    except tuple(_DOMAIN_FAILURES) as exc:
        reason = next(text for cls, text in _DOMAIN_FAILURES.items() if isinstance(exc, cls))
        operation = node.func if kind is Call else f"'^{node.exponent}'" if kind is Pow else "'/'"
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
    binom = binomial_table(max(p, 1))
    mu = Jet.variable(float(mu0), p, binom)
    return _walk(node, mu, lambda value: Jet.constant(value, p, binom), _JET_FUNCTIONS).values
