"""Compiled jets (expr.compile) against the tree walker.

The tree walker of ``walker.py`` (evaluate / derivative /
second_derivative over dual numbers) is the oracle.
A jet must give the same scalars bit for bit, the same failures with the
same messages and offsets, and an exact 0.0 for every partial along a
variable the expression does not mention.  The one permitted difference
is the sign of a zero: the dual abs of -0.0 keeps the sign, math's does
not.
"""

import ast
import builtins
import filecmp
import gc
import math
import re
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walker import derivative, evaluate, second_derivative

from blocksep import catalog, cli, expr, model
from blocksep.expr import (
    Add, Call, Div, DomainError, FUNCTIONS, Mul, Neg, Num, Pow, Sub,
    UnboundVariableError, Var, parse, pretty,
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


@pytest.mark.parametrize("source, x", [
    ("y + exp(800*x)", 1.0),
    ("y * x^400", 10.0),
    ("y + cos(1e308*exp(x))", 1.0),
])
def test_range_failure_is_a_domain_error(source, x):
    # float arithmetic raises OverflowError (exp, a power) or ValueError
    # (cos of inf) here; the tree walker and the jet both turn it into
    # the same DomainError
    e = parse(source)
    p = {"x": x, "y": 2.0}
    with pytest.raises(DomainError,
                       match="value overflows the float range") as got:
        expr.compile([e], ("x", "y"), ("x", "y"), order=2)(x, 2.0)
    for walk in (lambda: evaluate(e, p), lambda: derivative(e, p, "x"),
                 lambda: second_derivative(e, p, "x", "y")):
        with pytest.raises(DomainError) as want:
            walk()
        assert str(want.value) == str(got.value)


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


def _unread_pure_temporaries(exprs, names, wrt, order):
    """The temporaries of a jet's source that nothing reads although
    their operation cannot raise (``+ - *``, negation, ``abs``, the
    select of a dual ``abs``)."""
    code = expr._jet_code(*expr.jet_lines(exprs, names, wrt, order))
    tree = ast.parse(code)
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}

    def can_raise(value):
        if isinstance(value, ast.BinOp):
            return isinstance(value.op, (ast.Div, ast.Pow))
        if isinstance(value, ast.Call):
            return value.func.id != "abs"
        return False   # negation, select

    return [ast.unparse(n) for n in ast.walk(tree)
            if isinstance(n, ast.Assign) and n.targets[0].id not in loaded
            and not can_raise(n.value)]


@settings(max_examples=300, deadline=None)
@given(st.lists(_trees, min_size=1, max_size=3), _wrt, st.sampled_from([1, 2]))
def test_no_pure_temporary_goes_unread(exprs, wrt, order):
    assert _unread_pure_temporaries(exprs, NAMES, wrt, order) == []


@pytest.mark.parametrize("name", ["pendula", "oscillators", "calogero4"])
def test_catalog_jets_read_every_pure_temporary(name):
    sys_ = catalog.load(name).system
    names = sys_.structure.names
    for r, blk in enumerate(sys_.blocks):
        exprs = [*sys_.stackel.entries[r], blk.potential]
        assert _unread_pure_temporaries(exprs, names, names, 2) == []


# ---------------------------------------------------------------------------
# the stack form

def _same_bits(got, want):
    """Equal bit for bit, signs of zero included; a nan matches a nan
    (its payload is not the program's)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    equal = got.view(np.uint64) == want.view(np.uint64)
    assert np.all(equal | (np.isnan(got) & np.isnan(want)))


def _run_stack(jet, width, rows):
    """The stack form over the columns of rows, as a (P, width) array."""
    out = np.empty((width, len(rows)))
    with np.errstate(all="ignore"):
        jet(*np.array(rows, dtype=float).T, out)
    return out.T


@settings(max_examples=300, deadline=None)
@given(st.lists(_trees, min_size=1, max_size=3), _wrt, st.sampled_from([1, 2]),
       st.sampled_from([1, 5, 128]), st.randoms(use_true_random=False))
def test_stack_form_is_the_float_form_bit_for_bit(exprs, wrt, order, P, rnd):
    floats = expr.compile(exprs, NAMES, wrt, order)
    stacked = expr.compile(exprs, NAMES, wrt, order, stack=True)
    k = len(wrt)
    width = len(exprs) * (1 + k + (k * (k + 1) // 2 if order == 2 else 0))

    def draw():
        if rnd.random() < 0.3:
            return rnd.choice((0.0, -0.0, 1.0, -1.0, 0.5))
        return rnd.uniform(-3.0, 3.0)

    rows = [[draw() for _ in NAMES] for _ in range(2 * P)]
    outcomes = [_outcome(floats, *row) for row in rows]
    good = [(row, got) for row, (got, err) in zip(rows, outcomes)
            if err is None][:P]
    if good:
        _same_bits(_run_stack(stacked, width, [row for row, _ in good]),
                   [got for _, got in good])
    if any(err is not None for _, err in outcomes):
        with pytest.raises(expr.ExprError):
            _run_stack(stacked, width, rows)


_FAILURES = [  # an expression, x where it holds, x where it fails
    ("1 + y/(x-1)", 2.5, 1.0, "division by zero"),
    ("y*ln(x)", 1.0, -0.5, "ln of a non-positive value"),
    ("y + exp(800*x)", 0.0, 1.0, "value overflows the float range"),
    ("y*(x-3)^1.5", 4.0, 1.0, "fractional power of a negative base"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [0, 1, 77, 127])
@pytest.mark.parametrize("source, good, bad, message", _FAILURES)
def test_a_failing_row_in_a_stack_raises_its_float_error(source, good, bad,
                                                        message, k):
    # the rows after k fail too, at the division of the first expression,
    # which comes first in the stack form
    exprs = [parse("x/(y-5)"), parse(source)]
    jet = model._GridJet(exprs, ("x", "y"), order=2)
    rows = np.column_stack([good + np.linspace(-0.25, 0.25, 128),
                            np.linspace(-1.0, 1.0, 128)])
    rows[k, 0] = bad
    rows[k + 1:, 1] = 5.0
    with pytest.raises(DomainError) as want:
        expr.compile(exprs, ("x", "y"), ("x", "y"), 2)(*rows[k].tolist())
    with pytest.raises(DomainError) as got:
        jet.stack(rows)
    assert message in str(want.value)
    assert str(got.value) == str(want.value)
    assert got.value.offset == want.value.offset
    if k:  # and the rows before k pass
        jet.stack(rows[:k])


def test_literal_zero_denominator_fails_as_the_walker():
    # a check on a literal that holds is kept, and raises on every call
    e = parse("x + 1/(2-2)")
    with pytest.raises(DomainError) as want:
        evaluate(e, {"x": 1.0})
    forms = [lambda: expr.compile([e], ("x",))(1.0),
             lambda: expr.compile([e], ("x",), ("x",))(1.0),
             lambda: expr.compile([e], ("x",), stack=True)(
                 np.array([1.0]), np.empty((1, 1)))]
    for form in forms:
        for _ in range(2):
            with pytest.raises(DomainError) as got:
                form()
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
            assert got.value.offset == want.value.offset


@pytest.mark.parametrize("name", ["pendula", "oscillators"])
def test_fields_run_no_literal_check_and_no_power_of_one(name, monkeypatch,
                                                         cold_jets):
    # a check on a literal is decided when the jet is made, and x ** 1.0
    # is x: neither is left in the generated fields
    sys_ = catalog.load(name).system
    sys_.jet.constant_twist
    sources = []
    real = builtins.compile

    def capturing(source, filename, *args, **kwargs):
        sources.append(source)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", capturing)
    sys_.jet.field
    for r in range(1, sys_.n + 1):
        sys_.jet.reduced(r)
    assert len(sources) == 1 + sys_.n
    for source in sources:
        checked = re.findall(r"if (\S+) [=<]=? 0\.0: raise _DomainError",
                             source)
        assert all(re.fullmatch(r"[tx]\d+", ref) for ref in checked)
        assert "** 1.0" not in source


def test_only_the_float_form_is_compiled(monkeypatch, cold_jets):
    calls = []
    real = builtins.compile

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    exprs = [parse("x/(y-5) + abs(x*y) + sqrt(y)^1.5"), parse("exp(x)*2")]
    stacked = expr.compile(exprs, ("x", "y"), ("x", "y"), 2, stack=True)
    assert calls == []
    expr.compile(exprs, ("x", "y"), ("x", "y"), 2)
    assert calls == ["<expr jet>"]
    # the stack form runs on no points as well
    out = np.empty((12, 0))
    stacked(np.empty(0), np.empty(0), out)
    assert out.shape == (12, 0)


# ---------------------------------------------------------------------------
# what a jet is

def test_what_a_jet_is_decides_a_hit():
    # -0.0 and 0.0 are equal floats, and make jets of their own sign
    plus = [Add(Var("x"), Num(0.0)), Add(Var("x"), Num(-0.0))]
    assert plus[0] == plus[1]
    for e, sign in zip(plus, (1.0, -1.0)):
        out = np.empty((1, 1))
        expr.compile([e], ("x",), stack=True)(np.array([-0.0]), out)
        assert math.copysign(1.0, expr.compile([e], ("x",))(-0.0)[0]) == sign
        assert math.copysign(1.0, out[0, 0]) == sign
    # equal trees at other offsets: a node's own offset is what its
    # failure reports, in both forms
    assert Div(Var("x"), Var("y"), 3) == Div(Var("x"), Var("y"), 4)
    for offset in (3, 4):
        e = [Div(Var("x"), Var("y"), offset)]
        for call in (lambda: expr.compile(e, ("x", "y"))(1.0, 0.0),
                     lambda: expr.compile(e, ("x", "y"), stack=True)(
                         np.array([1.0]), np.array([0.0]), np.empty((1, 1)))):
            with pytest.raises(DomainError) as got:
                call()
            assert got.value.offset == offset


def _config(tmp_path, name, body):
    path = tmp_path / f"{name}.ini"
    path.write_text(body)
    return str(path)


_BATTERY = [
    ("verify", "[system]\ncatalog = pendula\n[verification]\npoints = 100\n"),
    ("verify", "[system]\ncatalog = oscillators\n"
               "[verification]\npoints = 100\n"),
    ("verify", "[system]\ncatalog = calogero4\n"
               "[verification]\npoints = 100\n"),
    ("curvature", "[system]\ncatalog = e3-case-i\n"
                  "[verification]\npoints = 1000\n"),
    ("curvature", "[system]\ncatalog = e3-case-ii\n"
                  "[verification]\npoints = 1000\n"),
]


def test_no_jet_source_outlives_a_battery_pass(tmp_path, monkeypatch,
                                               cold_jets, capsys):
    made = []
    init = expr._JetSource.__init__

    def recording(self, names):
        init(self, names)
        made.append(weakref.ref(self))

    monkeypatch.setattr(expr._JetSource, "__init__", recording)
    for k, (command, body) in enumerate(_BATTERY):
        path = _config(tmp_path, f"run{k}", body)
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / f"out{k}")]) == 0
    gc.collect()
    assert made
    assert [ref for ref in made if ref() is not None] == []


def test_a_second_run_writes_the_same_files_from_the_cache(
        tmp_path, monkeypatch, cold_jets, capsys):
    runs = [
        ("simulate", "[system]\ncatalog = calogero4\n"
                     "[integration]\nt_span = 0.0, 3.0\n", ["--svg"]),
        ("compare", "[system]\ncatalog = pendula\n"
                    "[integration]\nt_span = 0.0, 5.0\n", ["--block", "2"]),
        *((command, body, []) for command, body in _BATTERY[1::2]),
    ]
    calls = []
    real_ops, real_compile = expr._jet_ops, builtins.compile

    def counting(real):
        def call(*args, **kwargs):
            calls.append(real)
            return real(*args, **kwargs)
        return call

    for attempt in ("first", "second"):
        if attempt == "second":
            (tmp_path / "out").rename(tmp_path / "first")
            monkeypatch.setattr(expr, "_jet_ops", counting(real_ops))
            monkeypatch.setattr(builtins, "compile", counting(real_compile))
        for k, (command, body, extra) in enumerate(runs):
            path = _config(tmp_path, f"run{k}", body)
            out = tmp_path / "out" / str(k)   # the reports echo it
            assert cli.main([command, "--config", path, "--out", str(out),
                             *extra]) == 0
    assert calls == []
    for k in range(len(runs)):
        first, second = tmp_path / "first" / str(k), tmp_path / "out" / str(k)
        names = sorted(p.name for p in first.iterdir())
        assert names and names == sorted(p.name for p in second.iterdir())
        same = filecmp.cmpfiles(first, second, names, shallow=False)[0]
        assert same == names
