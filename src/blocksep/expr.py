"""Scalar expression language over named coordinates.

Expressions are immutable syntax trees over real literals, named
variables, the binary operators ``+ - * / ^``, unary negation, and the
functions ``sin cos tan exp ln sqrt abs``.  The one evaluator is
:func:`compile`: it turns a list of expressions into one straight-line
function that returns every value, first partial and, with ``order=2``,
second partial in a single call, in deterministic IEEE double
arithmetic.  Partials are exact, forward-mode dual numbers
(:class:`dual.Dual`) run once over symbolic floats when the jet is
made, never finite differences.  It records the jet as one list of
operations with two back ends: float source, which is compiled (and
which :func:`jet_lines` hands to the generated fields of :mod:`model`
as their own first lines), and a stack runner that replays the list
over arrays of points.  Everything the commands evaluate runs on jets:
the probe checks of a new system, the vector fields, the clocks, the
chart changes, the geometry and the catalog residuals.  A tree walker
over dual numbers, which gives every value, partial and failure of a
jet bit for bit, is kept in the test suite as the jets' oracle.  A jet
is held by the object that made it (a system, a field, a catalog
item), so a process makes each one as often as it makes that object.

Grammar (EBNF)::

    expression = term { ("+" | "-") term } ;
    term       = unary { ("*" | "/") unary } ;
    unary      = "-" unary | power ;
    power      = atom [ "^" unary ] ;
    atom       = number
               | name "(" expression ")"
               | name
               | "(" expression ")" ;
    name       = letter { letter | digit | "_" } ;
    number     = digit {digit} [ "." digit {digit} ]
                 [ ("e" | "E") ["+" | "-"] digit {digit} ] ;

``^`` is right-associative and binds tighter than unary minus, so
``-x^2`` means ``-(x^2)``; the exponent itself is parsed at unary
level, so ``2^-3`` is valid.  Whitespace between tokens is ignored.
Parse failures report the byte offset of the offending token together
with the set of tokens that would have been accepted there.

Power semantics: a constant exponent (literal, possibly negated) uses
the real power rule and accepts negative bases when the exponent is an
integer; a non-integer constant exponent of a negative base is a domain
error.  A non-constant exponent is evaluated as exp(g*ln(f)) and
requires a positive base.
"""

from __future__ import annotations

import builtins as _builtins
import itertools as _itertools
import math as _math
import operator as _operator
import re as _re

import numpy as _np

from .dual import Dual, real as _real


# ---------------------------------------------------------------------------
# errors

class ExprError(Exception):
    """Base class for expression-language failures."""


class ParseError(ExprError):
    """Syntax or unknown-function failure, with byte offset."""

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        self.message = message
        self.offset = offset
        self.expected = tuple(expected)
        text = f"{message} at offset {offset}"
        if self.expected:
            text += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(text)


class DomainError(ExprError):
    """Evaluation left the real domain or the float range (ln of a
    non-positive value, division by zero, an overflow, ...)."""

    def __init__(self, message: str, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (sub-expression at offset {offset})"
        super().__init__(message)


class UnboundVariableError(ExprError):
    def __init__(self, name: str, offset=None):
        self.name = name
        self.offset = offset
        at = "" if offset is None else f" (at offset {offset})"
        super().__init__(f"unbound variable '{name}'{at}")


# ---------------------------------------------------------------------------
# syntax tree

class Expression:
    """Immutable expression tree node.

    Supports Python arithmetic operators for programmatic construction:
    ``Var('x') + 1`` builds the same tree as ``parse("x+1")``.
    Structural equality ignores source offsets.
    """

    __slots__ = ("offset", "_fv")

    def __init__(self, offset=None):
        self.offset = offset
        self._fv = None

    # -- structure ---------------------------------------------------------

    def _fields(self):
        raise NotImplementedError

    def _free(self):
        raise NotImplementedError

    def free_variables(self) -> frozenset:
        fv = self._fv
        if fv is None:
            fv = self._free()
            self._fv = fv
        return fv

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented if not isinstance(other, Expression) else False
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self).__name__, self._fields()))

    def __repr__(self):
        return f"{type(self).__name__}<{pretty(self)}>"

    def __str__(self):
        return pretty(self)

    def __neg__(self):
        return Neg(self)


def _coerce(x):
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float)):
        return Num(float(x))
    return None


class Num(Expression):
    __slots__ = ("value",)

    def __init__(self, value: float, offset=None):
        super().__init__(offset)
        self.value = float(value)

    def _fields(self):
        return (self.value,)

    def _free(self):
        return frozenset()


class Var(Expression):
    __slots__ = ("name",)

    def __init__(self, name: str, offset=None):
        super().__init__(offset)
        self.name = name

    def _fields(self):
        return (self.name,)

    def _free(self):
        return frozenset((self.name,))


class _Binary(Expression):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Expression, rhs: Expression, offset=None):
        super().__init__(offset)
        self.lhs = lhs
        self.rhs = rhs

    def _fields(self):
        return (self.lhs, self.rhs)

    def _free(self):
        return self.lhs.free_variables() | self.rhs.free_variables()


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(_Binary):
    # _k caches the constant exponent value, or None when the exponent
    # is a general sub-expression.
    __slots__ = ("_k",)

    def __init__(self, lhs, rhs, offset=None):
        super().__init__(lhs, rhs, offset)
        k = None
        if isinstance(rhs, Num):
            k = rhs.value
        elif isinstance(rhs, Neg) and isinstance(rhs.arg, Num):
            k = -rhs.arg.value
        self._k = k


def _build_operator(node):
    """The forward and reflected dunders of an operator building a
    ``node`` of an expression and an expression or a number."""
    def forward(self, other):
        o = _coerce(other)
        return node(self, o) if o is not None else NotImplemented

    def reflected(self, other):
        o = _coerce(other)
        return node(o, self) if o is not None else NotImplemented
    return forward, reflected


Expression.__add__, Expression.__radd__ = _build_operator(Add)
Expression.__sub__, Expression.__rsub__ = _build_operator(Sub)
Expression.__mul__, Expression.__rmul__ = _build_operator(Mul)
Expression.__truediv__, Expression.__rtruediv__ = _build_operator(Div)
Expression.__pow__, Expression.__rpow__ = _build_operator(Pow)


class Neg(Expression):
    __slots__ = ("arg",)

    def __init__(self, arg: Expression, offset=None):
        super().__init__(offset)
        self.arg = arg

    def _fields(self):
        return (self.arg,)

    def _free(self):
        return self.arg.free_variables()


class Call(Expression):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expression, offset=None):
        super().__init__(offset)
        if fn not in FUNCTIONS:
            raise ParseError(f"unknown function '{fn}'", offset if offset is not None else 0,
                             expected=FUNCTIONS)
        self.fn = fn
        self.arg = arg

    def _fields(self):
        return (self.fn, self.arg)

    def _free(self):
        return self.arg.free_variables()


FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")


# the builder of exp calls, for the catalog's scale functions

def exp(x):
    return Call("exp", x)


# ---------------------------------------------------------------------------
# compiled jets

# what floats raise past their range (an overflow in exp or a power; sin,
# cos or tan of an infinity): a jet raises DomainError(_OVERFLOW) instead
_RANGE_ERRORS = (OverflowError, ValueError)
_OVERFLOW = "value overflows the float range"

_FOLD = {"+": _operator.add, "-": _operator.sub, "*": _operator.mul,
         "/": _operator.truediv, "**": _operator.pow}
# the recorded operations that cannot raise on floats
_PURE = frozenset(("+", "-", "*", "neg", "abs", "sel"))
_CALLS = {"sin": _math.sin, "cos": _math.cos, "tan": _math.tan,
          "exp": _math.exp, "log": _math.log, "sqrt": _math.sqrt,
          "abs": abs}
_JET_GLOBALS = dict({f"_{fn}": f for fn, f in _CALLS.items()},
                    _DomainError=DomainError, _Unbound=UnboundVariableError,
                    _RANGE_ERRORS=_RANGE_ERRORS)


def _each(fn, *more):
    # fn at each entry of an array or a literal (and of the endless
    # iterators ``more``), as each float gets it
    return lambda a: _np.fromiter(map(fn, _np.ravel(a).tolist(), *more),
                                  float)


# the stack runner's + - * /, negation, sqrt and abs are exact ufuncs; sin,
# cos, tan, exp, log and ** stay math's, as NumPy's may differ in the last bit
_STACK_OPS = dict(
    {op: _FOLD[op] for op in "+-*/"}, neg=_np.negative, sqrt=_np.sqrt,
    abs=_np.absolute, sel=lambda value, x: _np.where(value >= 0.0, x, -x),
    **{fn: _each(_CALLS[fn]) for fn in ("sin", "cos", "tan", "exp", "log")})
_COMPARE = {"==": _np.equal, "<": _np.less, "<=": _np.less_equal}
# the float source of the ops that are not "a op b" or "_fn(a)"
_FORMS = {"neg": "-{0}", "abs": "abs({0})",
          "sel": "{1} if {0} >= 0.0 else -{1}"}


class _Sym:
    """One float of a jet: a literal, an argument or a temporary.
    Arithmetic on it records operations, so the operators of
    :class:`Dual` run over nested duals of these write the jet."""

    __slots__ = ("src", "ref", "const")

    def __init__(self, src, ref, const=None):
        self.src = src
        self.ref = ref        # float source text: a name or a literal
        self.const = const    # the float of a literal, else None

    def __neg__(self):
        return self.src.neg(self)


def _sym_operator(op: str):
    """The forward and reflected dunders of a binary operator; a dual
    operand is left to the :class:`Dual` reflected method."""
    def forward(self, o):
        return NotImplemented if isinstance(o, Dual) else \
            self.src.binary(op, self, o)

    def reflected(self, o):
        return self.src.binary(op, o, self)
    return forward, reflected


_Sym.__add__, _Sym.__radd__ = _sym_operator("+")
_Sym.__sub__, _Sym.__rsub__ = _sym_operator("-")
_Sym.__mul__, _Sym.__rmul__ = _sym_operator("*")
_Sym.__truediv__, _Sym.__rtruediv__ = _sym_operator("/")


class _JetSource:
    """The op list of :func:`compile`'s jet.

    :meth:`walk` applies the rules of a dual-number tree walk (the
    tests' oracle) over :class:`_Sym` leaves: a first partial seeds its
    variable with tangent 1.0, a second partial seeds the smaller name
    on the outer level.  So every recorded operation is one the walk
    performs, operand for operand, and rounds the same.
    An op is ``(op, target, operands, extra)``, ``extra`` being a
    check's ``(comparison, message, offset)`` or an unbound name's
    ``(name, offset)``; the one list has two back ends, :func:`_line`
    (float source, compiled) and :func:`_stack_jet` (over arrays).  Only
    exact rewrites are made: operations on literals are folded,
    ``x * 1.0``, ``1.0 * x``, ``x / 1.0``, ``x - 0.0`` and ``-(-x)`` are
    ``x``, and so is ``x ** 1.0``; a check on a literal is decided when
    it is recorded.  Repeated operations on the same operands, and
    repeated checks of the same condition, are recorded once.  One pass
    walks the values, then one pass per seeding; a pass shares a node
    object visited twice and reuses the values of the nodes that do not
    mention a seeded variable.  :func:`_live` then drops the ops that
    nothing reads, of the operations that cannot raise.
    """

    def __init__(self, names):
        self.args = {name: _Sym(self, f"x{i}") for i, name in
                     enumerate(names)}
        self.ops: list[tuple] = []
        self.consts: dict[str, float] = {}
        self.memo: dict = {}
        self.negated: dict = {}
        self.values: dict = {}
        self.nodes: dict = {}
        self.seeds = None

    # -- recording -----------------------------------------------------------

    def const(self, value: float) -> _Sym:
        value = float(value)
        text = repr(value)
        sym = self.memo.get(text)
        if sym is None:
            ref = f"({text})" if text.startswith("-") else text
            if not _math.isfinite(value):
                ref = f"_c{len(self.consts)}"
                self.consts[ref] = value
            sym = self.memo[text] = _Sym(self, ref, value)
        return sym

    def sym(self, x) -> _Sym:
        return x if isinstance(x, _Sym) else self.const(x)

    def emit(self, op: str, *operands: _Sym) -> _Sym:
        key = (op, *operands)
        sym = self.memo.get(key)
        if sym is None:
            sym = self.memo[key] = _Sym(self, f"t{len(self.ops)}")
            self.ops.append((op, sym, operands, None))
        return sym

    def binary(self, op: str, a, b) -> _Sym:
        a, b = self.sym(a), self.sym(b)
        ca, cb = a.const, b.const
        if ca is not None and cb is not None:
            try:
                value = _FOLD[op](ca, cb)
            except ArithmeticError:
                value = None
            if type(value) is float:
                return self.const(value)
        if op == "*" and ca == 1.0:
            return b
        if op in ("*", "/", "**") and cb == 1.0 or (
                op == "-" and cb == 0.0 and _math.copysign(1.0, cb) > 0.0):
            return a
        return self.emit(op, a, b)

    def neg(self, a: _Sym) -> _Sym:
        if a.const is not None:
            return self.const(-a.const)
        inner = self.negated.get(a)
        if inner is not None:
            return inner
        out = self.emit("neg", a)
        self.negated[out] = a
        return out

    def call(self, fn: str, a) -> _Sym:
        a = self.sym(a)
        if a.const is not None:
            try:
                value = _CALLS[fn](a.const)
            except (ArithmeticError, ValueError):
                value = None
            if type(value) is float:
                return self.const(value)
        return self.emit(fn, a)

    def once(self, op: str, operands, extra):
        key = (op, *operands, extra[0])
        if key not in self.memo:
            self.memo[key] = None
            self.ops.append((op, None, operands, extra))

    def check(self, a: _Sym, comparison: str, message: str, offset):
        """Raise ``message`` where ``a comparison 0.0`` holds; a condition
        already checked cannot hold again, so it is recorded once.  On a
        literal the condition is decided now: one that cannot hold is
        not recorded, and one that holds raises on every call."""
        if a.const is not None and not _COMPARE[comparison](a.const, 0.0):
            return
        self.once("check", (a,), (comparison, message, offset))

    # -- the functions of the dual-number walk -------------------------------

    def powc(self, x, k, offset):
        if k == 0:
            return 1.0
        if isinstance(x, Dual):
            return Dual(self.powc(x.re, k, offset),
                        (k * self.powc(x.re, k - 1, offset)) * x.im)
        if k < 0.0:
            # float ** raises ZeroDivisionError here, which the walk
            # reports
            self.check(x, "==", "power has no derivative at zero base",
                       offset)
        return self.binary("**", x, k)

    def sin(self, x):
        if isinstance(x, Dual):
            return Dual(self.sin(x.re), self.cos(x.re) * x.im)
        return self.call("sin", x)

    def cos(self, x):
        if isinstance(x, Dual):
            return Dual(self.cos(x.re), -(self.sin(x.re) * x.im))
        return self.call("cos", x)

    def tan(self, x):
        if isinstance(x, Dual):
            c = self.cos(x.re)
            return Dual(self.tan(x.re), x.im / (c * c))
        return self.call("tan", x)

    def exp(self, x):
        if isinstance(x, Dual):
            e = self.exp(x.re)
            return Dual(e, e * x.im)
        return self.call("exp", x)

    def ln(self, x):
        if isinstance(x, Dual):
            return Dual(self.ln(x.re), x.im / x.re)
        return self.call("log", x)

    def sqrt(self, x):
        if isinstance(x, Dual):
            s = self.sqrt(x.re)
            return Dual(s, x.im / (s + s))
        return self.call("sqrt", x)

    def abs(self, x, value, top=True):
        """The walk's dual abs without a branch: every component is
        negated where the value is negative.  The value itself is
        abs(value), so a -0.0 value loses its sign (the one difference
        from the tree walk)."""
        if isinstance(x, Dual):
            return Dual(self.abs(x.re, value, top),
                        self.abs(x.im, value, False))
        if top:
            return self.call("abs", value)
        return self.emit("sel", value, self.sym(x))

    # -- the tree walk -------------------------------------------------------

    def walk(self, e, env):
        if self.seeds is not None and self.seeds.isdisjoint(
                e.free_variables()):
            return self.values[id(e)]
        out = self.nodes.get(id(e))
        if out is None:
            out = self.node(e, env)
            if not isinstance(out, (_Sym, Dual)):
                out = self.const(out)
            self.nodes[id(e)] = out
        return out

    def node(self, e, env):
        """One node of the tree walk, over symbolic floats and duals."""
        t = type(e)
        if t is Var:
            x = env.get(e.name)
            if x is None:
                self.once("unbound", (), (e.name, e.offset))
                return 0.0
            return x
        if t is Num:
            return e.value
        if t is Add:
            return self.walk(e.lhs, env) + self.walk(e.rhs, env)
        if t is Mul:
            return self.walk(e.lhs, env) * self.walk(e.rhs, env)
        if t is Sub:
            return self.walk(e.lhs, env) - self.walk(e.rhs, env)
        if t is Div:
            num = self.walk(e.lhs, env)
            den = self.walk(e.rhs, env)
            self.check(_real(den), "==", "division by zero", e.offset)
            return num / den
        if t is Pow:
            base = self.walk(e.lhs, env)
            b = _real(base)
            k = e._k
            if k is not None:
                if not float(k).is_integer():
                    self.check(b, "<", "fractional power of a negative base",
                               e.offset)
                if k < 0.0:
                    self.check(b, "==", "zero raised to a negative power",
                               e.offset)
                return self.powc(base, k, e.offset)
            expo = self.walk(e.rhs, env)
            self.check(b, "<=",
                       "non-constant exponent requires a positive base",
                       e.offset)
            return self.exp(expo * self.ln(base))
        if t is Neg:
            return -self.walk(e.arg, env)
        if t is Call:
            a = self.walk(e.arg, env)
            ra = _real(a)
            fn = e.fn
            if fn == "ln":
                self.check(ra, "<=", "ln of a non-positive value", e.offset)
                return self.ln(a)
            if fn == "sqrt":
                self.check(ra, "<", "sqrt of a negative value", e.offset)
                if isinstance(a, Dual):
                    self.check(ra, "==", "sqrt has no derivative at zero",
                               e.offset)
                return self.sqrt(a)
            if fn == "abs":
                return self.abs(a, ra)
            return getattr(self, fn)(a)
        raise TypeError(f"not an Expression node: {e!r}")

    def run(self, exprs, seeds=None, env=None):
        """Walk every expression with ``env`` over the arguments."""
        self.seeds = seeds
        self.nodes = {}
        out = [self.walk(e, env or self.args) for e in exprs]
        if seeds is None:
            self.values = self.nodes
        return out


def compile(exprs, names, wrt=(), order=1, stack=False):
    """Compile expressions into one straight-line jet.

    Returns a function taking one float per entry of ``names``,
    positionally, and returning a flat tuple: the values of ``exprs``;
    then for each variable in ``wrt`` (a subset of ``names``) the first
    partials of ``exprs`` along it; then, with ``order=2``, for each
    pair ``(wrt[i], wrt[j])`` with ``i <= j`` the second partials of
    ``exprs`` along it.  Each scalar equals, bit for bit, what a
    dual-number walk of the tree gives at the same point (a zero may
    differ in sign where ``abs`` meets ``-0.0``).  Partials along a
    variable an expression does not mention are the constant 0.0 and
    cost nothing.

    Failures keep their type, message and offset: all values are
    computed first, so a point where the value of some expression fails
    raises exactly the walk's error for it; otherwise the first failure
    raises, in order of the first partials and then of the second
    partials, which is the walk's error for some variable or pair of
    ``wrt``.  A variable missing from ``names`` raises
    :class:`UnboundVariableError` when the function is called.

    Both forms come from one op list: the float form compiles it as
    source; the stack form (``stack=True``, under ``np.errstate``) takes
    a (P,) array per name, P >= 0, and a (K, P) ``out``, writes entry k
    at p bit for bit to ``out[k, p]``, and raises where floats fail.
    """
    return _jet_ops("stack" if stack else "float", exprs, names, wrt, order)


def _jet_ops(form, exprs, names, wrt, order):
    """A jet walked into its op list by a :class:`_JetSource`, and made
    into its "float", "stack" or "lines" form."""
    exprs, names, wrt = list(exprs), tuple(names), tuple(wrt)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate names in {names}")
    if len(set(wrt)) != len(wrt) or not set(wrt) <= set(names):
        raise ValueError(f"wrt {wrt} must be distinct entries of {names}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, not {order!r}")
    src = _JetSource(names)
    args = src.args
    one, zero = src.const(1.0), src.const(0.0)
    out = src.run(exprs)

    def partials(seeds, env, pick):
        todo = [e for e in exprs if seeds <= e.free_variables()]
        got = dict(zip(map(id, todo), src.run(todo, seeds, env)))
        for e in exprs:
            r = got.get(id(e))
            r = pick(r) if isinstance(r, Dual) else None
            out.append(zero if r is None else src.sym(r))

    for v in wrt:
        # a first partial: v seeded with tangent 1.0
        env = dict(args)
        env[v] = Dual(args[v], one)
        partials(frozenset((v,)), env, lambda r: r.im)
    if order == 2:
        for i, v1 in enumerate(wrt):
            for v2 in wrt[i:]:
                # a second partial: the smaller name on the outer level
                a, b = sorted((v1, v2))
                env = dict(args)
                if a == b:
                    env[a] = Dual(Dual(args[a], one), Dual(one, zero))
                else:
                    env[a] = Dual(Dual(args[a], zero), Dual(one, zero))
                    env[b] = Dual(Dual(args[b], one), Dual(zero, zero))
                partials(frozenset((a, b)), env,
                         lambda r: _real(r.im.im)
                         if isinstance(r.im, Dual) else None)
    if form == "stack":
        return _stack_jet(src, out)
    parts = _rendered(src, out)
    if form == "lines":
        return parts
    namespace = dict(_JET_GLOBALS, **parts[2])
    exec(_builtins.compile(_jet_code(*parts), "<expr jet>", "exec"),
         namespace)
    return namespace["_jet"]


def _line(op, target, operands, extra) -> str:
    """One op as a line of the float source."""
    refs = [s.ref for s in operands]
    if op == "check":
        return "if {} {} 0.0: raise _DomainError({!r}, {!r})".format(
            *refs, *extra)
    if op == "unbound":
        return "raise _Unbound({!r}, {!r})".format(*extra)
    form = _FORMS.get(op, f"{{0}} {op} {{1}}" if op in _FOLD else
                      f"_{op}({{0}})")
    return f"{target.ref} = " + form.format(*refs)


def jet_lines(exprs, names, wrt=(), order=1):
    """:func:`compile`'s float jet in parts, for a function that runs a
    jet as its own lines (``_jet`` itself, and the fields of
    :mod:`model`): the refs of the arguments, one per entry of
    ``names`` (``x0``, ``x1``, ...); the ref of each output (a
    temporary ``t<i>``, an argument or a literal); the namespace the
    lines read (the ``math`` functions, the error types, and the
    non-finite literals ``_c<i>``); and ``lines(reads)``, the source of
    the ops that the outputs of index in ``reads`` need and of every op
    that can raise, in order, inside the jet's ``try`` that turns an
    overflow into :class:`DomainError`: a point fails with the same
    error whatever is read.  The lines bind no name but the
    temporaries, and may be none at all."""
    args, outs, consts, lines = _jet_ops("lines", exprs, names, wrt, order)
    return args, outs, dict(_JET_GLOBALS, **consts), lines


def _live(ops, out) -> list[tuple]:
    """The ops that ``out`` or an op kept needs.  An op that can raise
    is always kept, so that a failure stays the tree walk's; only
    ``+ - *``, negation, ``abs`` and the select of a dual ``abs`` are
    dropped when nothing reads them."""
    needed = set(out)
    kept = []
    for op in reversed(ops):
        if op[0] not in _PURE or op[1] in needed:
            kept.append(op)
            needed.update(op[2])
    return kept[::-1]


def _rendered(src, out):
    """:func:`jet_lines`'s parts, with only the literals ``_c<i>``: each
    op as ``(op, target, operands, line)`` of refs, keeping no syms."""
    ops = [(op[0], op[1] and op[1].ref, [s.ref for s in op[2]], _line(*op))
           for op in src.ops]
    outs = [s.ref for s in out]

    def lines(reads):
        body = [op[3] for op in _live(ops, [outs[k] for k in reads])]
        if not body:
            return []
        return ["try:", *(f"    {line}" for line in body),
                "except _RANGE_ERRORS:",
                f"    raise _DomainError({_OVERFLOW!r}) from None"]
    return [s.ref for s in src.args.values()], outs, src.consts, lines


def _jet_code(args, outs, _, lines) -> str:
    """The float source of :func:`compile`'s function ``_jet``, from
    :func:`jet_lines`'s parts over every output."""
    body = [*lines(range(len(outs))),
            "return (" + "".join(f"{ref}, " for ref in outs) + ")"]
    return f"def _jet({', '.join(args)}):\n" + "".join(
        f"    {line}\n" for line in body)


def _raises(error, args, compare=None):
    def step(a):
        if compare is None or compare(a, 0.0).any():
            raise error(*args)
    return step


def _stack_jet(src, out):
    """:func:`compile`'s stack form: the live ops of ``src`` replayed
    over one (P,) array per argument.  Step ``(f, t, a, b)`` sets value t
    to f of value a (and of value b); values are keyed by ref, so that
    the runner keeps no sym, and with it no :class:`_JetSource`, alive."""
    names = [s.ref for s in src.args.values()]
    values = {None: None}   # the literals, added as ops read them
    steps = []
    for op, target, operands, extra in _live(src.ops, out):
        values.update((s.ref, s.const) for s in operands
                      if s.const is not None)
        a, b = (*[s.ref for s in operands], None, None)[:2]
        if op == "check":
            f = _raises(DomainError, extra[1:], _COMPARE[extra[0]])
        elif op == "unbound":
            f = _raises(UnboundVariableError, extra)
        elif op == "**":   # x ** k: the builtin pow, faster than k.__rpow__
            f, b = _each(pow, _itertools.repeat(operands[1].const)), None
        else:
            f = _STACK_OPS[op]
        steps.append((f, target and target.ref, a, b))
    rows = [k for k, s in enumerate(out) if s.const is None]
    reads = [out[k].ref for k in rows]
    fixed = [k for k, s in enumerate(out) if s.const is not None]
    literals = _np.array([out[k].const for k in fixed])[:, None]

    def jet(*cols):
        v = dict(values)
        v.update(zip(names, cols))
        try:
            for f, t, a, b in steps:
                v[t] = f(v[a]) if b is None else f(v[a], v[b])
        except _RANGE_ERRORS:
            raise DomainError(_OVERFLOW) from None
        if rows:
            cols[-1][rows] = [v[ref] for ref in reads]
        cols[-1][fixed] = literals
    return jet


# ---------------------------------------------------------------------------
# parser

_WS = " \t\r\n"
_NUM_RE = _re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME_RE = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind      # "num", "name", one of "+-*/^()", or "end"
        self.text = text
        self.pos = pos        # codepoint index into the source


def _byte_offset(src: str, pos: int) -> int:
    return len(src[:pos].encode("utf-8"))


def _tokenize(src: str):
    toks = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch in _WS:
            i += 1
            continue
        m = _NUM_RE.match(src, i)
        if m is not None:
            toks.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(src, i)
        if m is not None:
            toks.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", _byte_offset(src, i))
    toks.append(_Token("end", "", n))
    return toks


_ATOM_EXPECTED = ("number", "variable", "function", "'('", "'-'")


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def offset(self, tok: _Token) -> int:
        return _byte_offset(self.src, tok.pos)

    def expression(self) -> Expression:
        node = self.term()
        while True:
            t = self.peek()
            if t.kind == "+":
                self.advance()
                node = Add(node, self.term(), node.offset)
            elif t.kind == "-":
                self.advance()
                node = Sub(node, self.term(), node.offset)
            else:
                return node

    def term(self) -> Expression:
        node = self.unary()
        while True:
            t = self.peek()
            if t.kind == "*":
                self.advance()
                node = Mul(node, self.unary(), node.offset)
            elif t.kind == "/":
                self.advance()
                node = Div(node, self.unary(), node.offset)
            else:
                return node

    def unary(self) -> Expression:
        t = self.peek()
        if t.kind == "-":
            self.advance()
            return Neg(self.unary(), self.offset(t))
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return Pow(base, self.unary(), base.offset)
        return base

    def atom(self) -> Expression:
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return Num(float(t.text), self.offset(t))
        if t.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                if t.text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{t.text}'",
                                     self.offset(t), expected=FUNCTIONS)
                self.advance()
                arg = self.expression()
                self.expect(")")
                return Call(t.text, arg, self.offset(t))
            return Var(t.text, self.offset(t))
        if t.kind == "(":
            self.advance()
            node = self.expression()
            self.expect(")")
            return node
        raise ParseError("expected an expression", self.offset(t),
                         expected=_ATOM_EXPECTED)

    def expect(self, kind: str):
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected '{kind}'", self.offset(t),
                             expected=(f"'{kind}'",))
        self.advance()


def parse(source: str) -> Expression:
    """Parse a source string into an :class:`Expression`.

    Raises :class:`ParseError` with the byte offset of the offending
    token and the set of tokens acceptable at that position.
    """
    p = _Parser(source)
    node = p.expression()
    t = p.peek()
    if t.kind != "end":
        raise ParseError("unexpected token", p.offset(t),
                         expected=("operator", "end of input"))
    return node


# ---------------------------------------------------------------------------
# printer

# Precedence levels used by the printer: additive 1, multiplicative 2,
# unary 3, power 4, atoms 5.  A child is parenthesized when its level
# is below the level its position requires, which makes reparsing
# reproduce the tree exactly (left-associative chains print without
# parentheses, right-nested ones keep them).

def _prec(e) -> int:
    t = type(e)
    if t in (Add, Sub):
        return 1
    if t in (Mul, Div):
        return 2
    if t is Neg:
        return 3
    if t is Pow:
        return 4
    if t is Num and e.value < 0.0:
        return 3
    return 5


def _render(e, need: int) -> str:
    t = type(e)
    if t is Num:
        s = repr(e.value)
    elif t is Var:
        s = e.name
    elif t is Add:
        s = _render(e.lhs, 1) + "+" + _render(e.rhs, 2)
    elif t is Sub:
        s = _render(e.lhs, 1) + "-" + _render(e.rhs, 2)
    elif t is Mul:
        s = _render(e.lhs, 2) + "*" + _render(e.rhs, 3)
    elif t is Div:
        s = _render(e.lhs, 2) + "/" + _render(e.rhs, 3)
    elif t is Neg:
        s = "-" + _render(e.arg, 3)
    elif t is Pow:
        s = _render(e.lhs, 5) + "^" + _render(e.rhs, 3)
    elif t is Call:
        return f"{e.fn}({_render(e.arg, 0)})"
    else:
        raise TypeError(f"not an Expression node: {e!r}")
    if _prec(e) < need:
        return "(" + s + ")"
    return s


def pretty(e: Expression) -> str:
    """Source form with minimal parentheses; reparsing reproduces the
    tree (up to literal formatting) and therefore the same values."""
    return _render(e, 0)
