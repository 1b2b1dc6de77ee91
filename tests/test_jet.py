"""Compiled jets (expr.compile) against the tree walker.

The tree walker (evaluate / derivative / second_derivative over dual
numbers) is the oracle.
A jet must give the same scalars bit for bit, the same failures with the
same messages and offsets, and an exact 0.0 for every partial along a
variable the expression does not mention.  The one permitted difference
is the sign of a zero: the dual abs of -0.0 keeps the sign, math's does
not.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from blocksep import catalog, expr
from blocksep.expr import (
    Add, Call, Div, DomainError, FUNCTIONS, Mul, Neg, Num, Pow, Sub,
    UnboundVariableError, Var, derivative, evaluate, parse, pretty,
    second_derivative,
)

NAMES = ("x", "y", "z", "w")   # w never occurs in the generated trees
FAILURES = (expr.ExprError, ArithmeticError, ValueError)

_leaf = st.one_of(
    st.sampled_from(["x", "y", "z"]).map(Var),
    st.sampled_from([0.0, 1.0, 2.0, 0.5]).map(Num),
    st.floats(1e-3, 4.0).map(Num),
)
_exponents = st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, 1.5, -1.0, -2.0,
                              -0.5])


_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div, "^": Pow}
_OPS = tuple(_BINARY) + ("neg", "^k") + FUNCTIONS


@st.composite
def _tree(draw, depth=4):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_leaf)
    op = draw(st.sampled_from(_OPS))
    kid = _tree(depth - 1)
    if op in _BINARY:
        return _BINARY[op](draw(kid), draw(kid))
    if op == "neg":
        return Neg(draw(kid))
    if op == "^k":
        return Pow(draw(kid), Num(draw(_exponents)))
    return Call(op, draw(kid))


# printed and reparsed, so that every node carries a source offset
_trees = _tree().map(lambda e: parse(pretty(e)))
_coords = st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                    st.floats(-3.0, 3.0, allow_nan=False))
_wrt = st.lists(st.sampled_from(NAMES), min_size=1, unique=True)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except FAILURES as ex:
        return None, (type(ex), str(ex))


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=1000, deadline=None)
@given(st.lists(_trees, min_size=1, max_size=3), _coords, _coords, _coords,
       _wrt)
def test_jet_matches_tree_walker(exprs, x, y, z, wrt):
    p = {"x": x, "y": y, "z": z, "w": 0.25}
    jet = expr.compile(exprs, NAMES, wrt)
    got, error = _outcome(jet, *(p[v] for v in NAMES))

    values = [_outcome(evaluate, e, p) for e in exprs]
    first = next((err for _, err in values if err is not None), None)
    if first is not None:
        # evaluate fails: the jet fails identically, before any tangent
        assert error == first
        return
    partials = [_outcome(derivative, e, p, v) for v in wrt for e in exprs]
    failures = {err for _, err in partials if err is not None}
    if failures:
        assert error in failures
        return
    assert error is None
    want = [v for v, _ in values] + [d for d, _ in partials]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _same(g, w), (g, w)


def _pairs(wrt):
    return [(v1, v2) for i, v1 in enumerate(wrt) for v2 in wrt[i:]]


def _bits(x):
    return struct.pack("<d", x)


@settings(max_examples=600, deadline=None)
@given(st.lists(_trees, min_size=1, max_size=3), _coords, _coords, _coords,
       _wrt)
def test_second_order_jet_matches_tree_walker(exprs, x, y, z, wrt):
    p = {"x": x, "y": y, "z": z, "w": 0.25}
    args = [p[v] for v in NAMES]
    got, error = _outcome(expr.compile(exprs, NAMES, wrt, order=2), *args)

    values = [_outcome(evaluate, e, p) for e in exprs]
    first = next((err for _, err in values if err is not None), None)
    if first is not None:
        assert error == first
        return
    partials = [_outcome(derivative, e, p, v) for v in wrt for e in exprs]
    seconds = [_outcome(second_derivative, e, p, v1, v2)
               for v1, v2 in _pairs(wrt) for e in exprs]
    failures = {err for _, err in partials + seconds if err is not None}
    if failures:
        assert error in failures
        return
    assert error is None
    want = [v for v, _ in values + partials + seconds]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _same(g, w), (g, w)

    # bitwise symmetric: the pairs of the reversed wrt are the same pairs
    # seeded in the other order
    flipped = expr.compile(exprs, NAMES, wrt[::-1], order=2)(*args)
    m, k = len(exprs), len(wrt)
    head = m + k * m
    rev = {pair: i for i, pair in enumerate(_pairs(wrt[::-1]))}
    for i, (v1, v2) in enumerate(_pairs(wrt)):
        j = rev[(v2, v1)]
        for e in range(m):
            a = got[head + i * m + e]
            b = flipped[head + j * m + e]
            assert _bits(a) == _bits(b) or (math.isnan(a) and math.isnan(b))


@settings(max_examples=200, deadline=None)
@given(_trees, _coords, _coords, _coords)
def test_second_partial_outside_free_set_is_exact_zero(e, x, y, z):
    p = {"x": x, "y": y, "z": z, "w": 0.25}
    got, error = _outcome(expr.compile([e], NAMES, NAMES, order=2),
                          *(p[v] for v in NAMES))
    if error is not None:
        return
    free = e.free_variables()
    for (v1, v2), d in zip(_pairs(NAMES), got[1 + len(NAMES):]):
        if v1 not in free or v2 not in free:
            assert d == 0.0 and math.copysign(1.0, d) == 1.0


@pytest.mark.parametrize("source, point, message", [
    ("y + sqrt(x)", {"x": 0.0, "y": 1.0}, "sqrt has no derivative at zero"),
    ("y * x^1.5", {"x": 0.0, "y": 1.0},
     "power has no derivative at zero base"),
    ("y + (x*y)^1.5", {"x": 0.0, "y": 2.0},
     "power has no derivative at zero base"),
])
def test_second_order_failure_keeps_message_and_offset(source, point,
                                                       message):
    e = parse(source)
    with pytest.raises(DomainError) as want:
        second_derivative(e, point, "x", "x")
    with pytest.raises(DomainError) as got:
        expr.compile([e], ("x", "y"), ("x", "y"), order=2)(
            point["x"], point["y"])
    assert message in str(got.value)
    assert str(got.value) == str(want.value)
    assert got.value.offset == want.value.offset is not None


@pytest.mark.parametrize("x, y", [(0.3, 0.2), (0.7, 0.9), (-0.4, 1.7)])
def test_mixed_partial_seeds_like_the_tree_walker(x, y):
    # at these points seeding y on the outer level rounds differently
    e = parse("sin(x*y)/(x+y)")
    want = second_derivative(e, {"x": x, "y": y}, "y", "x")
    for wrt in (("x", "y"), ("y", "x")):
        assert expr.compile([e], ("x", "y"), wrt, order=2)(x, y)[4] == want


def test_second_order_layout():
    a = parse("sin(x)*y^2 + exp(x*y)")
    b = parse("y^3")
    jet = expr.compile([a, b], ("x", "y", "z"), ("y", "x"), order=2)
    p = {"x": 0.3, "y": -1.2, "z": 0.0}
    pairs = [("y", "y"), ("y", "x"), ("x", "x")]
    assert jet(*p.values()) == (
        evaluate(a, p), evaluate(b, p),
        derivative(a, p, "y"), derivative(b, p, "y"),
        derivative(a, p, "x"), 0.0,
        *(v for v1, v2 in pairs for v in (
            second_derivative(a, p, v1, v2),
            second_derivative(b, p, v1, v2))))
    with pytest.raises(ValueError):
        expr.compile([a], ("x", "y"), ("x",), order=3)


@settings(max_examples=200, deadline=None)
@given(_trees, _coords, _coords, _coords)
def test_partial_outside_free_set_is_exact_zero(e, x, y, z):
    p = {"x": x, "y": y, "z": z, "w": 0.25}
    got, error = _outcome(expr.compile([e], NAMES, NAMES),
                          *(p[v] for v in NAMES))
    if error is not None:
        return
    for v, d in zip(NAMES, got[1:]):
        if v not in e.free_variables():
            assert d == 0.0 and math.copysign(1.0, d) == 1.0


@pytest.mark.parametrize("source, point, message", [
    ("1 + 1/(x-1)", {"x": 1.0, "y": 0.0}, "division by zero"),
    ("2*ln(y-x)", {"x": 1.0, "y": 1.0}, "ln of a non-positive value"),
    ("x + sqrt(-y)", {"x": 0.0, "y": 2.0}, "sqrt of a negative value"),
    ("(x-3)^0.5", {"x": 1.0, "y": 0.0},
     "fractional power of a negative base"),
    ("1+(x*y)^-2", {"x": 0.0, "y": 1.0}, "zero raised to a negative power"),
    ("x^y", {"x": -1.0, "y": 2.0},
     "non-constant exponent requires a positive base"),
])
def test_value_failure_keeps_message_and_offset(source, point, message):
    e = parse(source)
    jet = expr.compile([parse("x+y"), e], ("x", "y"), ("x", "y"))
    with pytest.raises(DomainError) as want:
        evaluate(e, point)
    with pytest.raises(DomainError) as got:
        jet(point["x"], point["y"])
    assert message in str(got.value)
    assert str(got.value) == str(want.value)
    assert got.value.offset == want.value.offset is not None


@pytest.mark.parametrize("source, message", [
    ("y + sqrt(x)", "sqrt has no derivative at zero"),
    ("y * x^0.5", "power has no derivative at zero base"),
])
def test_tangent_failure_only_when_differentiating(source, message):
    e = parse(source)
    p = {"x": 0.0, "y": 1.0}
    assert expr.compile([e], ("x", "y"), ("y",))(0.0, 1.0) == (
        evaluate(e, p), derivative(e, p, "y"))
    with pytest.raises(DomainError) as want:
        derivative(e, p, "x")
    with pytest.raises(DomainError) as got:
        expr.compile([e], ("x", "y"), ("x", "y"))(0.0, 1.0)
    assert message in str(got.value)
    assert str(got.value) == str(want.value)


def test_unbound_variable_raises_when_called():
    e = parse("x + 2*q")
    jet = expr.compile([e], ("x",), ("x",))
    with pytest.raises(UnboundVariableError) as got:
        jet(1.0)
    with pytest.raises(UnboundVariableError) as want:
        evaluate(e, {"x": 1.0})
    assert str(got.value) == str(want.value)


def test_layout_and_shared_subexpressions():
    a = parse("sin(x)*y + sin(x)")
    b = parse("y^0")
    jet = expr.compile([a, b, Num(7.0)], ("x", "y"), ("y", "x"))
    x, y = 0.3, -1.2
    assert jet(x, y) == (
        evaluate(a, {"x": x, "y": y}), 1.0, 7.0,
        derivative(a, {"x": x, "y": y}, "y"), 0.0, 0.0,
        derivative(a, {"x": x, "y": y}, "x"), 0.0, 0.0)


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_catalog_grids_bit_identical(name):
    entry = catalog.load(name)
    sys_ = entry.system
    names = sys_.structure.names
    exprs = [e for row in sys_.stackel.entries for e in row]
    for blk in sys_.blocks:
        exprs += [e for row in blk.metric for e in row] + [blk.potential]
    jet = expr.compile(exprs, names, names)
    for q in entry.sample(20, 7):
        p = dict(zip(names, map(float, q)))
        want = [evaluate(e, p) for e in exprs]
        want += [derivative(e, p, v) for v in names for e in exprs]
        assert list(jet(*p.values())) == want


def test_compile_rejects_bad_variable_lists():
    with pytest.raises(ValueError):
        expr.compile([parse("x")], ("x", "x"))
    with pytest.raises(ValueError):
        expr.compile([parse("x")], ("x",), ("y",))
