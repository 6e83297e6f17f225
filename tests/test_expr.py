"""The small expression language: parsing, evaluation, fuzz totality."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cckit import DomainError, Expression, ParseError
from cckit.expr import _eval_d


class TestParse:
    def test_worked_example(self):
        e = Expression("x^2 + max(0, x-1)")
        assert e.eval({"x": 2.0}) == pytest.approx(5.0)
        assert e.eval({"x": 0.5}) == pytest.approx(0.25)

    def test_precedence_and_right_assoc_power(self):
        assert Expression("2 + 3 * 4").eval({}) == 14.0
        assert Expression("2 ^ 3 ^ 2").eval({}) == 512.0   # right-assoc
        assert Expression("-2 ^ 2").eval({}) == -4.0        # unary binds looser
        assert Expression("(2 + 3) * 4").eval({}) == 20.0

    def test_functions(self):
        assert Expression("exp(0)").eval({}) == 1.0
        assert Expression("log(exp(2))").eval({}) == pytest.approx(2.0)
        assert Expression("sqrt(9)").eval({}) == 3.0
        assert Expression("abs(0 - 3)").eval({}) == 3.0
        assert Expression("min(3, 1, 2)").eval({}) == 1.0
        assert Expression("max(3, 1, 2)").eval({}) == 3.0

    def test_scientific_numbers(self):
        assert Expression("1e-3 + 2.5E2").eval({}) == pytest.approx(250.001)

    def test_parse_error_carries_offset(self):
        with pytest.raises(ParseError) as ei:
            Expression("1 + * 2")
        assert ei.value.offset == 4
        with pytest.raises(ParseError):
            Expression("max(1")
        with pytest.raises(ParseError):
            Expression("2 $ 3")

    def test_variables_discovered(self):
        e = Expression("x * y + exp(x)")
        assert set(e.variables) == {"x", "y"}


class TestEval:
    def test_unbound_variable(self):
        with pytest.raises(DomainError):
            Expression("x + 1").eval({})

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            Expression("log(0 - 1)").eval({})
        with pytest.raises(DomainError):
            Expression("1 / x").eval({"x": 0.0})
        with pytest.raises(DomainError):
            Expression("sqrt(0 - 4)").eval({})
        with pytest.raises(DomainError):
            Expression("(0-2) ^ 0.5").eval({})


class TestDerivative:
    """``derivative`` is exact: forward mode, carrying the one-sided
    derivatives so that kinks compose."""

    @pytest.mark.parametrize("src, x, want", [
        ("x + 3", 2.0, 1.0),
        ("5 - x", 2.0, -1.0),
        ("x * x", 3.0, 6.0),
        ("1 / x", 2.0, -0.25),
        ("x / (1 + x)", 1.0, 0.25),
        ("-x", 1.5, -1.0),
        ("x ^ 3", 2.0, 12.0),
        ("x^2", 3.0, 6.0),
        ("x ^ 0.5", 4.0, 0.25),
        ("x ^ 1", 0.0, 1.0),
        ("2 ^ x", 3.0, 8.0 * math.log(2.0)),
        ("x ^ x", 2.0, 4.0 * (math.log(2.0) + 1.0)),
        ("exp(x)", 1.0, math.e),
        ("log(x)", 4.0, 0.25),
        ("sqrt(x)", 4.0, 0.25),
        ("abs(x)", -2.0, -1.0),
        ("abs(x)", 2.0, 1.0),
        ("max(x, 1, 2 * x)", 3.0, 2.0),
        ("min(x, 1, 2 * x)", 3.0, 0.0),
        ("exp(2 * x) * log(x)", 1.0, math.exp(2.0)),
        # a central difference cancels against the offset and returns 0
        ("x^2 + 1e12", 1.0, 2.0),
        # constant subexpressions contribute 0, even where their own
        # derivative in x would be undefined
        ("x + sqrt(0) + 0 ^ 0.5", 1.0, 1.0),
    ])
    def test_rules_by_hand(self, src, x, want):
        assert Expression(src).derivative({"x": x}, "x") == pytest.approx(
            want, rel=1e-14)

    def test_other_variables_are_held_fixed(self):
        e = Expression("x * y + exp(x)")
        assert e.derivative({"x": 2.0, "y": 3.0}, "y") == 2.0
        assert e.derivative({"x": 0.0, "y": 3.0}, "x") == 4.0

    @pytest.mark.parametrize("src, x, want", [
        ("abs(x)", 0.0, 0.0),
        ("abs(x - 1)", 1.0, 0.0),
        ("max(x, 0)", 0.0, 0.5),
        ("min(x, 2 - x)", 1.0, 0.0),
        ("max(x, 0, 3 * x)", 0.0, 1.5),       # right slope 3, left slope 0
        ("max(abs(x), 2 * x)", 0.0, 0.5),     # right slope 2, left slope -1
        ("max(x, -abs(x))", 0.0, 1.0),        # the identity map
        ("min(x, max(1, x))", 1.0, 1.0),      # the identity map
    ])
    def test_a_kink_takes_the_mean_of_the_one_sided_derivatives(self, src, x, want):
        e = Expression(src)
        assert e.derivative({"x": x}, "x") == want
        # which is what a central difference returns there
        h = 1e-6
        central = (e.eval({"x": x + h}) - e.eval({"x": x - h})) / (2.0 * h)
        assert central == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("src, x", [
        ("sqrt(x)", 0.0),
        ("sqrt(max(x, 0))", 0.0),   # infinite from the right only
        ("x ^ 0.5", 0.0),
        ("x ^ 0", 0.0),
        ("(x - 2) ^ x", 2.0),       # base 0 under a variable exponent
        ("(0 - 2) ^ x", 2.0),       # base < 0: the value 4 is defined
        ("log(x)", 0.0),
        ("1e200 * x ^ 0.5", 1e-250),  # finite value, infinite derivative
        ("exp(x)", 710.0),
    ])
    def test_undefined_derivative_raises_domain_error(self, src, x):
        with pytest.raises(DomainError):
            Expression(src).derivative({"x": x}, "x")

    def test_no_step_parameter(self):
        with pytest.raises(TypeError):
            Expression("x").derivative({"x": 1.0}, "x", 1e-6)


def _random_source(rng, depth):
    """A source string of the grammar over TestFuzzTotality's digits,
    operators and x, with every function name."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return str(rng.choice(["x", "x", "x", "0", "1", "2", "7", "0.5", "3.25", "1e3"]))
    if r < 0.65:
        op = "+-*/^"[rng.integers(5)]
        return f"({_random_source(rng, depth - 1)} {op} {_random_source(rng, depth - 1)})"
    if r < 0.72:
        return "-" + _random_source(rng, depth - 1)
    name = str(rng.choice(["exp", "log", "sqrt", "abs", "max", "min"]))
    arity = 2 if name in ("max", "min") else 1
    return f"{name}({', '.join(_random_source(rng, depth - 1) for _ in range(arity))})"


class TestFuzzTotality:
    ALPHABET = "x0123456789.+-*/^()aemN, qlgbst"

    def test_parser_never_crashes_uncontrolled(self):
        # every input either parses or raises ParseError; nothing else escapes
        rng = np.random.default_rng(20240907)
        for _ in range(100_000):
            n = int(rng.integers(1, 18))
            s = "".join(rng.choice(list(self.ALPHABET), size=n))
            try:
                Expression(s)
            except ParseError:
                pass

    @given(st.text(alphabet=ALPHABET, min_size=0, max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_parse_or_parse_error(self, s):
        try:
            Expression(s)
        except ParseError:
            pass

    def test_derivative_differential(self):
        # on random expressions: the derivative walk computes eval's value
        # bit for bit, raises nothing but DomainError, and agrees to 1e-5
        # with a central difference wherever that difference is trustworthy:
        # |value| <= 1e6, steps h and 4h agree, and no kink lies at x (the
        # cases above cover kinks) or, by the one-sided differences, within h
        rng = np.random.default_rng(20261019)
        checked = 0
        for _ in range(1500):
            e = Expression(_random_source(rng, 4))
            for x in (-2.5, -1.0, 0.0, 0.3, 1.0, 2.0, 7.5):
                env = {"x": x}
                try:
                    v = e.eval(env)
                except DomainError:
                    with pytest.raises(DomainError):
                        e.derivative(env, "x")
                    continue
                try:
                    value, right, minus_left = _eval_d(e.ast, env, "x", e.src)
                    d = e.derivative(env, "x")
                except DomainError:
                    continue
                assert value.hex() == v.hex(), e.src
                h = 1e-6 * max(1.0, abs(x))
                try:
                    lo, hi = e.eval({"x": x - h}), e.eval({"x": x + h})
                    wide = (e.eval({"x": x + 4 * h}) - e.eval({"x": x - 4 * h})) / (8 * h)
                except DomainError:
                    continue
                central = (hi - lo) / (2 * h)
                scale = max(1.0, abs(central))
                if (abs(v) > 1e6 or right != -minus_left
                        or abs(central - wide) > 1e-6 * scale
                        or abs((hi - v) - (v - lo)) / h > 1e-3 * scale):
                    continue
                checked += 1
                assert abs(d - central) <= 1e-5 * max(1.0, abs(d)), (e.src, x)
        assert checked > 5000

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_through_source(self, a, b):
        src = f"{a!r} * x + {b!r}"
        e = Expression(src)
        e2 = Expression(e.src)
        assert e2.eval({"x": 2.0}) == e.eval({"x": 2.0})
