"""Expression language: parsing, evaluation, exact derivatives.

Derivative correctness is checked against central finite differences
(h = max(1e-6, 1e-6|x|) for first order, 1e-4 scale for second order),
which the implementation must never use internally.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from walker import derivative, evaluate, second_derivative

from blocksep import expr
from blocksep.expr import (
    Add, Call, DomainError, Mul, Neg, Num, ParseError, Pow, Sub,
    UnboundVariableError, Var, parse, pretty,
)


def fd1(e, p, v, h=None):
    x = p[v]
    if h is None:
        h = max(1e-6, 1e-6 * abs(x))
    hi = dict(p, **{v: x + h})
    lo = dict(p, **{v: x - h})
    return (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)


def fd2(e, p, v1, v2, h=1e-4):
    if v1 == v2:
        x = p[v1]
        hs = h * max(1.0, abs(x))
        up = dict(p, **{v1: x + hs})
        dn = dict(p, **{v1: x - hs})
        return (evaluate(e, up) - 2 * evaluate(e, p) + evaluate(e, dn)) / hs**2
    h1 = h * max(1.0, abs(p[v1]))
    h2 = h * max(1.0, abs(p[v2]))
    pp = dict(p, **{v1: p[v1] + h1, v2: p[v2] + h2})
    pm = dict(p, **{v1: p[v1] + h1, v2: p[v2] - h2})
    mp = dict(p, **{v1: p[v1] - h1, v2: p[v2] + h2})
    mm = dict(p, **{v1: p[v1] - h1, v2: p[v2] - h2})
    return (evaluate(e, pp) - evaluate(e, pm) - evaluate(e, mp)
            + evaluate(e, mm)) / (4 * h1 * h2)


# ---------------------------------------------------------------------------
# parsing and evaluation basics

def test_pendula_matrix_entry():
    e = parse("2*q1^2+2")
    assert evaluate(e, {"q1": 0.0}) == 2.0
    assert evaluate(e, {"q1": 1.0}) == 4.0


def test_single_variable_node():
    e = parse("q2")
    assert isinstance(e, Var)
    assert e.free_variables() == {"q2"}


def test_syntax_error_offset():
    with pytest.raises(ParseError) as exc:
        parse("sin(*3")
    assert exc.value.offset == 4
    assert len(exc.value.expected) > 0


def test_cubic_entry():
    assert evaluate(parse("(q2)^3+2"), {"q2": 0.0}) == 2.0


def test_cos_at_zero():
    assert evaluate(parse("cos(q1)"), {"q1": 0.0}) == 1.0


def test_quadratic_entry():
    assert evaluate(parse("(q3)^2+1"), {"q3": 0.5}) == 1.25


def test_precedence():
    assert evaluate(parse("2+3*4"), {}) == 14.0
    assert evaluate(parse("2*3^2"), {}) == 18.0
    assert evaluate(parse("-3^2"), {}) == -9.0      # unary binds looser than ^
    assert evaluate(parse("(-3)^2"), {}) == 9.0
    assert evaluate(parse("2^-3"), {}) == 0.125     # exponent at unary level
    assert evaluate(parse("2^3^2"), {}) == pytest.approx(512.0)  # right-assoc
    assert evaluate(parse("8/4/2"), {}) == 1.0      # left-associative
    assert evaluate(parse("1-2-3"), {}) == -4.0


def test_whitespace_and_names():
    assert evaluate(parse(" 1 +  long_name2 "), {"long_name2": 2.0}) == 3.0


def test_number_forms():
    assert evaluate(parse("1.5e2"), {}) == 150.0
    assert evaluate(parse("2E-2"), {}) == 0.02
    assert evaluate(parse("0.25"), {}) == 0.25


def test_unknown_function():
    with pytest.raises(ParseError) as exc:
        parse("foo(3)")
    assert "foo" in str(exc.value)
    assert exc.value.offset == 0


def test_function_name_requires_call_syntax():
    # A known function name not followed by '(' is an ordinary variable.
    assert evaluate(parse("sin+1"), {"sin": 2.0}) == 3.0


def test_trailing_garbage():
    with pytest.raises(ParseError) as exc:
        parse("1+2 3")
    assert exc.value.offset == 4


def test_unclosed_paren():
    with pytest.raises(ParseError) as exc:
        parse("(1+2")
    assert exc.value.offset == 4


def test_unexpected_character():
    with pytest.raises(ParseError) as exc:
        parse("2*λ")
    assert exc.value.offset == 2


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("q1+q2"), {"q1": 0.0})


def test_free_variables_exact():
    e = parse("sin(a)*b + c^2 - a")
    assert e.free_variables() == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# domain errors

def test_ln_domain():
    with pytest.raises(DomainError):
        evaluate(parse("ln(x)"), {"x": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("ln(x)"), {"x": -1.0})
    assert evaluate(parse("ln(x)"), {"x": math.e}) == pytest.approx(1.0)


def test_sqrt_domain():
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), {"x": -1.0})
    assert evaluate(parse("sqrt(x)"), {"x": 0.0}) == 0.0
    with pytest.raises(DomainError):
        derivative(parse("sqrt(x)"), {"x": 0.0}, "x")


def test_division_by_zero_reports_location():
    with pytest.raises(DomainError) as exc:
        evaluate(parse("1+ 1/(x-1)"), {"x": 1.0})
    assert exc.value.offset is not None


def test_power_domain():
    assert evaluate(parse("x^3"), {"x": -2.0}) == -8.0
    assert evaluate(parse("x^2"), {"x": -2.0}) == 4.0
    with pytest.raises(DomainError):
        evaluate(parse("x^0.5"), {"x": -2.0})
    with pytest.raises(DomainError):
        evaluate(parse("x^-1"), {"x": 0.0})
    # non-constant exponent requires a positive base
    assert evaluate(parse("x^x"), {"x": 2.0}) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        evaluate(parse("x^y"), {"x": -2.0, "y": 3.0})


def test_power_negative_literal_exponent():
    assert evaluate(parse("x^-2"), {"x": 2.0}) == 0.25
    assert derivative(parse("x^-2"), {"x": 2.0}, "x") == pytest.approx(-2 / 8)


# ---------------------------------------------------------------------------
# derivatives

def test_linear_derivative():
    assert derivative(parse("1+q1"), {"q1": 3.7}, "q1") == 1.0


def test_quadratic_derivative_vs_fd():
    e = parse("(q3)^2+1")
    p = {"q3": 2.0}
    d = derivative(e, p, "q3")
    assert d == 4.0
    assert abs(d - fd1(e, p, "q3")) <= 1e-8


def test_absent_variable_derivative_is_zero():
    assert derivative(parse("cos(q1)"), {"q1": 1.0}, "q5") == 0.0


def test_mixed_second_derivative():
    assert second_derivative(parse("q1*q2"), {"q1": 5.0, "q2": -3.0},
                             "q1", "q2") == 1.0


def test_cos_second_derivative():
    assert second_derivative(parse("cos(q1)"), {"q1": 0.0}, "q1", "q1") == -1.0


def test_degree4_polynomial_second_derivatives_vs_fd():
    rng = random.Random(20240817)
    names = ("x", "y", "z")
    for _ in range(10):
        terms = []
        for _ in range(6):
            c = rng.uniform(-2, 2)
            e1, e2, e3 = (rng.randint(0, 2) for _ in range(3))
            if e1 + e2 + e3 > 4:
                continue
            terms.append(f"{c:.6g}*x^{e1}*y^{e2}*z^{e3}")
        src = "+".join(terms) if terms else "1"
        e = parse(src)
        p = {n: rng.uniform(-2, 2) for n in names}
        for v1 in names:
            for v2 in names:
                ad = second_derivative(e, p, v1, v2)
                fd = fd2(e, p, v1, v2)
                assert abs(ad - fd) <= 1e-6 * max(1.0, abs(ad))


def test_x_to_the_x_derivative():
    p = {"x": 2.0}
    d = derivative(parse("x^x"), p, "x")
    assert d == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-14)


def test_abs_derivative():
    assert derivative(parse("abs(x)"), {"x": -3.0}, "x") == -1.0
    assert derivative(parse("abs(x)"), {"x": 3.0}, "x") == 1.0


def test_tan_derivative():
    p = {"x": 0.7}
    d = derivative(parse("tan(x)"), p, "x")
    assert d == pytest.approx(1.0 / math.cos(0.7) ** 2, rel=1e-14)


# ---------------------------------------------------------------------------
# seeded random corpus: AD vs central finite differences

def _random_source(rng, depth):
    if depth == 0:
        return rng.choice(["x", "y", "z", f"{rng.uniform(0.5, 2.0):.4g}"])
    a = _random_source(rng, depth - 1)
    b = _random_source(rng, depth - 1)
    return rng.choice([
        f"({a}+{b})",
        f"({a}-{b})",
        f"({a}*{b})",
        f"sin({a})",
        f"cos({a})",
        f"exp(0.2*{a})",
        f"sqrt(({a})^2+1)",
        f"({a})/(({b})^2+1)",
        f"({a})^3",
    ])


def test_corpus_derivative_matches_fd():
    rng = random.Random(42)
    names = ("x", "y", "z")
    for _ in range(50):
        src = _random_source(rng, 3)
        e = parse(src)
        p = {n: rng.uniform(-1.5, 1.5) for n in names}
        for v in names:
            ad = derivative(e, p, v)
            fd = fd1(e, p, v)
            assert abs(ad - fd) <= 1e-6 * max(1.0, abs(ad)), src


def test_corpus_roundtrip_same_values():
    rng = random.Random(43)
    names = ("x", "y", "z")
    for _ in range(50):
        src = _random_source(rng, 3)
        e = parse(src)
        e2 = parse(pretty(e))
        assert e2 == e
        for _ in range(2):
            p = {n: rng.uniform(-1.5, 1.5) for n in names}
            assert evaluate(e, p) == evaluate(e2, p)


def test_roundtrip_hundred_seeded_points():
    e = parse("2*q1^2+2 - sin(q2)*q3 + q3/(q2^2+1)")
    e2 = parse(pretty(e))
    assert e2 == e
    rng = random.Random(7)
    for _ in range(100):
        p = {n: rng.uniform(-3, 3) for n in ("q1", "q2", "q3")}
        assert evaluate(e, p) == evaluate(e2, p)


def test_derivative_linearity():
    rng = random.Random(44)
    for _ in range(20):
        e1 = parse(_random_source(rng, 2))
        e2 = parse(_random_source(rng, 2))
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        comb = Num(a) * e1 + Num(b) * e2
        p = {n: rng.uniform(-1.5, 1.5) for n in ("x", "y", "z")}
        for v in ("x", "y", "z"):
            lhs = derivative(comb, p, v)
            rhs = a * derivative(e1, p, v) + b * derivative(e2, p, v)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_determinism_bitwise():
    e = parse("sin(x)*exp(0.2*y) - x/(y^2+1)")
    p = {"x": 0.3141592653589793, "y": -1.718281828459045}
    assert evaluate(e, p) == evaluate(e, p)
    assert derivative(e, p, "x") == derivative(e, p, "x")


# ---------------------------------------------------------------------------
# programmatic construction

def test_operator_overloading_builds_same_tree():
    x = Var("x")
    built = 2.0 * x ** 2 + 2.0
    parsed = parse("2.0*x^2+2.0")
    assert built == parsed


def test_structural_equality_ignores_offsets():
    assert parse("1+x") == parse("  1 + x")
    assert parse("1+x") != parse("x+1")


# ---------------------------------------------------------------------------
# hypothesis properties

_names = st.sampled_from(["x", "y", "z"])
_leaf = st.one_of(
    _names.map(Var),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(abs).map(Num),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(t[0], t[1])),
        st.tuples(children, children).map(lambda t: Sub(t[0], t[1])),
        st.tuples(children, children).map(lambda t: Mul(t[0], t[1])),
        children.map(Neg),
        children.map(lambda e: Call("sin", e)),
        children.map(lambda e: Call("cos", e)),
        st.tuples(children, st.sampled_from([2.0, 3.0])).map(
            lambda t: Pow(t[0], Num(t[1]))),
    )


_trees = st.recursive(_leaf, _combine, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_pretty_parse_roundtrip_structural(e):
    assert parse(pretty(e)) == e


@settings(max_examples=150, deadline=None)
@given(_trees,
       st.floats(-3, 3, allow_nan=False),
       st.floats(-3, 3, allow_nan=False),
       st.floats(-3, 3, allow_nan=False))
def test_roundtrip_evaluation_bitwise(e, x, y, z):
    p = {"x": x, "y": y, "z": z}
    assert evaluate(parse(pretty(e)), p) == evaluate(e, p)


@settings(max_examples=150, deadline=None)
@given(_trees,
       st.floats(-3, 3, allow_nan=False),
       st.floats(-3, 3, allow_nan=False),
       st.floats(-3, 3, allow_nan=False),
       st.sampled_from(["x", "y", "z"]),
       st.sampled_from(["x", "y", "z"]))
def test_second_derivative_exactly_symmetric(e, x, y, z, v1, v2):
    p = {"x": x, "y": y, "z": z}
    d12 = second_derivative(e, p, v1, v2)
    d21 = second_derivative(e, p, v2, v1)
    assert d12 == d21  # bitwise, not approximate
