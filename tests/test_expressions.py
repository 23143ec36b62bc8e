"""Expression parser and truncated Taylor arithmetic."""

import math
import re

import numpy as np
import pytest

from eigenpath.errors import DomainError, ExpressionSyntaxError, UnknownIdentifierError
from eigenpath.expressions import (
    BinOp,
    Jet,
    Mu,
    Num,
    Pow,
    Unary,
    eval_expr,
    parse_expression,
    taylor_arith_eval,
)


class TestParser:
    def test_exp_neg_product(self):
        node = parse_expression("exp(-mu*2.5)")
        # '-' binds tighter than '*', so the tree is exp((-mu) * 2.5); the
        # value is identical to exp(-(mu * 2.5)).
        assert node == Unary("exp", BinOp("*", Unary("-", Mu()), Num(2.5)))
        for mu in (-1.0, 0.3, 2.0):
            assert eval_expr(node, mu) == pytest.approx(math.exp(-mu * 2.5))

    def test_power_of_sum(self):
        node = parse_expression("2*(mu+1)^3")
        assert node == BinOp("*", Num(2.0), Pow(BinOp("+", Mu(), Num(1.0)), 3))
        assert eval_expr(node, 0.5) == pytest.approx(2 * 1.5**3)

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("exp(-mu")
        assert err.value.offset == 8

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("2*nu + 1")
        assert err.value.name == "nu"
        assert err.value.offset == 3

    def test_whitespace_insensitive(self):
        a = parse_expression("1+mu * 2")
        b = parse_expression(" 1 + mu*2 ")
        assert a == b

    def test_precedence(self):
        assert parse_expression("1+2*mu") == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Mu()))
        assert parse_expression("1-2-3") == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))
        assert parse_expression("6/2/3") == BinOp("/", BinOp("/", Num(6.0), Num(2.0)), Num(3.0))
        # unary minus binds looser than '^' and tighter than '*'
        assert parse_expression("-mu^2") == Unary("-", Pow(Mu(), 2))
        assert parse_expression("2*-mu^2") == BinOp("*", Num(2.0), Unary("-", Pow(Mu(), 2)))
        assert parse_expression("(-mu)^2") == Pow(Unary("-", Mu()), 2)
        assert parse_expression("mu^-2") == Pow(Mu(), -2)
        assert parse_expression("-mu*2") == BinOp("*", Unary("-", Mu()), Num(2.0))
        assert eval_expr(parse_expression("-2^2"), 0.0) == -4.0
        assert eval_expr(parse_expression("exp(-mu^2)"), 3.0) == math.exp(-9.0)

    def test_scientific_literals(self):
        assert eval_expr(parse_expression("2.5e-3*mu"), 2.0) == pytest.approx(5e-3)

    def test_empty_and_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("mu )")

    def test_exponent_requires_integer(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("mu^1.5")
        assert parse_expression("mu^-2") == Pow(Mu(), -2)

    @pytest.mark.parametrize("text, message, offset", [
        ("mu^x", "expected integer exponent after '^'", 4),
        ("mu+", "unexpected end of expression", 4),
        (". + mu", "malformed number", 1),
        ("mu $ 2", "unexpected character '$'", 4),
    ])
    def test_syntax_error_message_and_offset(self, text, message, offset):
        with pytest.raises(ExpressionSyntaxError,
                           match=rf"^{re.escape(message)} \(offset {offset}\)$") as err:
            parse_expression(text)
        assert err.value.offset == offset


# Each pair of binary operators in both orders, unary minus before and after
# '^', negative exponents and nested calls. Literals carry a decimal point,
# so that Python reads them as floats too.
PYTHON_CORPUS = [
    "1.5+mu+2.5", "1.5+mu-2.5", "1.5+mu*2.5", "1.5+mu/2.5",
    "1.5-mu+2.5", "1.5-mu-2.5", "1.5-mu*2.5", "1.5-mu/2.5",
    "1.5*mu+2.5", "1.5*mu-2.5", "1.5*mu*2.5", "1.5*mu/2.5",
    "1.5/mu+2.5", "1.5/mu-2.5", "1.5/mu*2.5", "1.5/mu/2.5",
    "0.1+0.2+mu", "mu-0.3-0.7-0.1", "mu/0.3/0.7", "0.3*mu*0.7*mu",
    "1.5+mu^2", "1.5-mu^2", "1.5*mu^3", "1.5/mu^2", "mu^2+1.5", "mu^2-1.5",
    "mu^3*1.5", "mu^3/1.5", "(1.5+mu)^2", "(1.5-mu)^3*0.5", "(mu*0.5)^4",
    "(mu/0.7)^5",
    "-mu", "--mu", "-mu^2", "-(mu)^2", "(-mu)^2", "(-mu)^3", "-mu^3",
    "2.0*-mu^2", "2.0/-mu^3", "1.0--mu", "1.0+-mu*2.0", "-mu*2.0", "-mu/2.0",
    "-1.5-mu", "-(1.5+mu)*0.5",
    "mu^-1", "mu^-2*3.0", "(1.0+mu)^-3", "-mu^-2", "2.0/mu^-2", "(0.5-mu)^-1",
    "mu^0", "mu^1",
    "exp(-mu^2)", "sin(cos(mu))", "exp(sin(mu)*cos(mu))", "sqrt(1.0+mu^2)",
    "log(2.5+mu^2)", "cos(sqrt(log(3.0+mu*mu)))", "exp(-exp(-mu))",
    "sin(mu)/cos(mu)-sin(mu)/cos(mu)^2", "-sqrt(0.5+mu^4)^3", "log(exp(mu)+exp(-mu))",
    "1.0/(1.0+exp(-2.0*mu))", "0.25*mu^2*(1.0-mu)^2/(0.5+cos(mu)^2)",
]


class TestParserShape:
    @pytest.mark.parametrize("text", PYTHON_CORPUS)
    @pytest.mark.parametrize("mu", [0.3, 1.7, -2.1])
    def test_value_is_pythons_bit_for_bit(self, text, mu):
        names = {name: getattr(math, name) for name in ("exp", "sin", "cos", "sqrt", "log")}
        expected = eval(text.replace("^", "**"), {"__builtins__": {}}, {**names, "mu": mu})
        assert eval_expr(parse_expression(text), mu).hex() == expected.hex()

    @pytest.mark.parametrize("opening", ["(", "exp("])
    def test_two_hundred_nested_levels_parse_and_evaluate(self, opening):
        node = parse_expression(opening * 200 + "mu" + ")" * 200)
        if opening == "(":
            assert node == Mu()
            assert eval_expr(node, 0.5) == 0.5
            assert taylor_arith_eval(node, 0.5, 2).tolist() == [0.5, 1.0, 0.0]
        else:
            # exp overflows after four levels from any finite mu; nan does not
            assert math.isnan(eval_expr(node, math.nan))


class TestJetArithmetic:
    def test_square_derivatives(self):
        np.testing.assert_allclose(
            taylor_arith_eval(parse_expression("mu^2"), 3.0, 3), [9.0, 6.0, 2.0, 0.0],
            atol=1e-14,
        )

    def test_exp_chain_rule(self):
        values = taylor_arith_eval(parse_expression("exp(-mu*2)"), 0.5, 2)
        e = math.exp(-1.0)
        np.testing.assert_allclose(values, [e, -2 * e, 4 * e], rtol=1e-14)

    def test_sinc_against_finite_differences(self):
        values = taylor_arith_eval(parse_expression("sin(mu)/mu"), 1.2, 4)
        f = lambda m: math.sin(m) / m
        x = 1.2
        steps = {1: 1e-5, 2: 1e-4, 3: 5e-4, 4: 5e-3}
        fd = [f(x)]
        h = steps[1]
        fd.append((f(x + h) - f(x - h)) / (2 * h))
        h = steps[2]
        fd.append((f(x + h) - 2 * f(x) + f(x - h)) / h**2)
        h = steps[3]
        fd.append((f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3))
        h = steps[4]
        fd.append(
            (f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h) + f(x - 2 * h)) / h**4
        )
        for k in range(5):
            assert abs(values[k] - fd[k]) <= 1e-5 * max(1e-6, abs(fd[k])), k

    def test_polynomial_exactness(self):
        # derivative values of sum c_i mu^i are sum_{i>=k} c_i i!/(i-k)! mu0^(i-k)
        rng = np.random.default_rng(21)
        coeffs = rng.normal(size=6)
        text = "+".join(f"({c})*mu^{i}" for i, c in enumerate(coeffs))
        mu0 = 0.7
        values = taylor_arith_eval(parse_expression(text), mu0, 8)
        for k in range(9):
            exact = sum(
                c * math.factorial(i) / math.factorial(i - k) * mu0 ** (i - k)
                for i, c in enumerate(coeffs)
                if i >= k
            )
            assert values[k] == pytest.approx(exact, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "text", ["sqrt(mu)", "log(mu+2)", "cos(mu)*sin(mu)", "exp(mu^2)/(1+mu)", "mu^-1"]
    )
    def test_matches_first_derivative_fd(self, text):
        node = parse_expression(text)
        mu0 = 0.8
        values = taylor_arith_eval(node, mu0, 1)
        h = 1e-6
        fd = (eval_expr(node, mu0 + h) - eval_expr(node, mu0 - h)) / (2 * h)
        assert values[0] == pytest.approx(eval_expr(node, mu0), rel=1e-13)
        assert values[1] == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("text, derivative", [
        ("exp(2.5*mu)", lambda k, x: 2.5**k * math.exp(2.5 * x)),
        ("sin(3*mu)", lambda k, x: 3**k * math.sin(3 * x + k * math.pi / 2)),
        ("cos(3*mu)", lambda k, x: 3**k * math.cos(3 * x + k * math.pi / 2)),
        ("log(1+mu)", lambda k, x: math.log(1 + x) if k == 0
         else (-1) ** (k - 1) * math.factorial(k - 1) / (1 + x) ** k),
        ("1/(1+mu)", lambda k, x: (-1) ** k * math.factorial(k) / (1 + x) ** (k + 1)),
        ("(1+mu)^-3", lambda k, x: (-1) ** k * math.factorial(k + 2) / 2 / (1 + x) ** (k + 3)),
        ("sqrt(1+mu)", lambda k, x: math.prod(0.5 - j for j in range(k)) * (1 + x) ** (0.5 - k)),
    ])
    def test_closed_form_derivatives_to_order_24(self, text, derivative):
        mu0, p = 0.4, 24
        values = taylor_arith_eval(parse_expression(text), mu0, p)
        exact = np.array([derivative(k, mu0) for k in range(p + 1)])
        assert np.max(np.abs(values - exact) / np.abs(exact)) <= 1e-12

    def test_exp_to_order_200(self):
        # derivative values, not f^(k)/k!, so orders past 170 stay finite
        values = taylor_arith_eval(parse_expression("exp(mu)"), 0.3, 200)
        assert values.shape == (201,) and np.all(values == math.exp(0.3))

    def test_an_overflowing_order_leaves_the_lower_orders_finite(self):
        with np.errstate(all="ignore"):
            values = taylor_arith_eval(parse_expression("(1+mu)^-3*log(1+mu)"), 0.3, 200)
        finite = np.isfinite(values)
        assert not finite[-1] and np.argmin(finite) > 170

    def test_integer_power_takes_logarithmically_many_products(self, monkeypatch):
        calls = []
        product = Jet.__mul__

        def counted(self, other):
            calls.append(1)
            return product(self, other)

        monkeypatch.setattr(Jet, "__mul__", counted)
        k = 10**6
        # at mu0 = 1 every derivative value of mu^k is an integer below 2^53
        values = taylor_arith_eval(parse_expression(f"mu^{k}"), 1.0, 2)
        assert values.tolist() == [1.0, k, k * (k - 1)]
        assert len(calls) <= 2 * math.log2(k) + 2

    def test_log_sqrt_consistency(self):
        # sqrt(f) == exp(log(f)/2) as jets
        a = taylor_arith_eval(parse_expression("sqrt(mu+1)"), 0.5, 5)
        b = taylor_arith_eval(parse_expression("exp(log(mu+1)/2)"), 0.5, 5)
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestDomainErrors:
    def test_division_by_zero_constant_term(self):
        with pytest.raises(DomainError):
            taylor_arith_eval(parse_expression("1/mu"), 0.0, 2)

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            taylor_arith_eval(parse_expression("sqrt(mu)"), -1.0, 2)

    def test_log_of_zero(self):
        with pytest.raises(DomainError):
            taylor_arith_eval(parse_expression("log(mu)"), 0.0, 1)

    @pytest.mark.parametrize("text, mu, operation", [
        ("1/(mu-1)", 1.0, "division by zero in '/'"),
        ("mu^-2", 0.0, "division by zero in '^-2'"),
        ("sqrt(mu)", -1.0, "domain error in sqrt"),
        ("log(mu)", 0.0, "domain error in log"),
        ("exp(mu)", 800.0, "overflow in exp"),
    ], ids=["division", "negative-power", "sqrt", "log", "exp"])
    def test_eval_expr_names_the_failing_operation(self, text, mu, operation):
        with pytest.raises(DomainError, match=f"^{re.escape(operation)}$"):
            eval_expr(parse_expression(text), mu)

    def test_exp_overflow_in_taylor_arithmetic(self):
        with pytest.raises(DomainError, match="^overflow in exp$"):
            taylor_arith_eval(parse_expression("exp(mu)"), 800.0, 2)

    def test_sqrt_at_zero_evaluates_but_its_derivatives_fail(self):
        node = parse_expression("sqrt(mu)")
        assert eval_expr(node, 0.0) == 0.0
        with pytest.raises(DomainError, match="^division by zero in sqrt$"):
            taylor_arith_eval(node, 0.0, 1)
