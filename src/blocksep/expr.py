"""Scalar expression language over named coordinates.

Expressions are immutable syntax trees over real literals, named
variables, the binary operators ``+ - * / ^``, unary negation, and the
functions ``sin cos tan exp ln sqrt abs``.  Evaluation is deterministic
IEEE double arithmetic; first and second partial derivatives are exact,
computed with forward-mode dual numbers, never finite differences.
:func:`compile` turns a list of expressions into one straight-line
function that returns every value, first partial and, with ``order=2``,
second partial in a single call, with the same results as the
dual-number tree walker.  Everything that evaluates expressions at many
points (the vector fields, the clocks, the geometry and the catalog
residuals) runs on compiled jets; :func:`evaluate`,
:func:`derivative` and :func:`second_derivative` walk the tree, and
serve as the oracle of the jets and for one-off evaluations.

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
import math as _math
import operator as _operator
import re as _re
from typing import Mapping

from . import dual as _d
from .dual import Dual


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
    """Evaluation left the real domain (ln of a non-positive value,
    division by zero, fractional power of a negative base, ...)."""

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

    # -- construction sugar --------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        return Add(self, o) if o is not None else NotImplemented

    def __radd__(self, other):
        o = _coerce(other)
        return Add(o, self) if o is not None else NotImplemented

    def __sub__(self, other):
        o = _coerce(other)
        return Sub(self, o) if o is not None else NotImplemented

    def __rsub__(self, other):
        o = _coerce(other)
        return Sub(o, self) if o is not None else NotImplemented

    def __mul__(self, other):
        o = _coerce(other)
        return Mul(self, o) if o is not None else NotImplemented

    def __rmul__(self, other):
        o = _coerce(other)
        return Mul(o, self) if o is not None else NotImplemented

    def __truediv__(self, other):
        o = _coerce(other)
        return Div(self, o) if o is not None else NotImplemented

    def __rtruediv__(self, other):
        o = _coerce(other)
        return Div(o, self) if o is not None else NotImplemented

    def __pow__(self, other):
        o = _coerce(other)
        return Pow(self, o) if o is not None else NotImplemented

    def __rpow__(self, other):
        o = _coerce(other)
        return Pow(o, self) if o is not None else NotImplemented

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


# Expression-or-number builders, so catalog code can write sin(expr)
# and plain numeric code can share the same names.

def sin(x):
    return Call("sin", x) if isinstance(x, Expression) else _d.sin(x)


def cos(x):
    return Call("cos", x) if isinstance(x, Expression) else _d.cos(x)


def tan(x):
    return Call("tan", x) if isinstance(x, Expression) else _d.tan(x)


def exp(x):
    return Call("exp", x) if isinstance(x, Expression) else _d.exp(x)


def ln(x):
    return Call("ln", x) if isinstance(x, Expression) else _d.ln(x)


def sqrt(x):
    return Call("sqrt", x) if isinstance(x, Expression) else _d.sqrt(x)


# ---------------------------------------------------------------------------
# evaluation

def _ev(e, env):
    """Recursive evaluator over an environment of floats and/or duals."""
    t = type(e)
    if t is Var:
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(e.name, e.offset) from None
    if t is Num:
        return e.value
    if t is Add:
        return _ev(e.lhs, env) + _ev(e.rhs, env)
    if t is Mul:
        return _ev(e.lhs, env) * _ev(e.rhs, env)
    if t is Sub:
        return _ev(e.lhs, env) - _ev(e.rhs, env)
    if t is Div:
        num = _ev(e.lhs, env)
        den = _ev(e.rhs, env)
        if _d.real(den) == 0.0:
            raise DomainError("division by zero", e.offset)
        return num / den
    if t is Pow:
        base = _ev(e.lhs, env)
        k = e._k
        if k is not None:
            b = _d.real(base)
            if b < 0.0 and not float(k).is_integer():
                raise DomainError("fractional power of a negative base", e.offset)
            if b == 0.0 and k < 0.0:
                raise DomainError("zero raised to a negative power", e.offset)
            try:
                return _d.powc(base, k)
            except ZeroDivisionError:
                raise DomainError("power has no derivative at zero base", e.offset) from None
        expo = _ev(e.rhs, env)
        if _d.real(base) <= 0.0:
            raise DomainError("non-constant exponent requires a positive base", e.offset)
        return _d.exp(expo * _d.ln(base))
    if t is Neg:
        return -_ev(e.arg, env)
    if t is Call:
        a = _ev(e.arg, env)
        fn = e.fn
        if fn == "sin":
            return _d.sin(a)
        if fn == "cos":
            return _d.cos(a)
        if fn == "tan":
            return _d.tan(a)
        if fn == "exp":
            return _d.exp(a)
        if fn == "ln":
            if _d.real(a) <= 0.0:
                raise DomainError("ln of a non-positive value", e.offset)
            return _d.ln(a)
        if fn == "sqrt":
            ra = _d.real(a)
            if ra < 0.0:
                raise DomainError("sqrt of a negative value", e.offset)
            if ra == 0.0 and isinstance(a, Dual):
                raise DomainError("sqrt has no derivative at zero", e.offset)
            return _d.sqrt(a)
        return abs(a)  # "abs"
    raise TypeError(f"not an Expression node: {e!r}")


def evaluate(e: Expression, p: Mapping[str, float]) -> float:
    """Evaluate at a point binding every free variable to a float."""
    return _ev(e, p)


def derivative(e: Expression, p: Mapping[str, float], v: str) -> float:
    """Exact first partial with respect to ``v`` at ``p``."""
    if v not in e.free_variables():
        # Exact: the expression does not mention v, so the partial is
        # identically zero.  Free variables still need to be bound.
        evaluate(e, p)
        return 0.0
    if v not in p:
        raise UnboundVariableError(v)
    env = dict(p)
    env[v] = Dual(env[v], 1.0)
    r = _ev(e, env)
    return r.im if isinstance(r, Dual) else 0.0


def second_derivative(e: Expression, p: Mapping[str, float],
                      v1: str, v2: str) -> float:
    """Exact second partial; bitwise symmetric in (v1, v2) because the
    seeding order is canonicalized before evaluation."""
    fv = e.free_variables()
    if v1 not in fv or v2 not in fv:
        evaluate(e, p)
        return 0.0
    a, b = sorted((v1, v2))
    for name in (a, b):
        if name not in p:
            raise UnboundVariableError(name)
    env = dict(p)
    if a == b:
        env[a] = Dual(Dual(env[a], 1.0), Dual(1.0, 0.0))
    else:
        env[a] = Dual(Dual(env[a], 0.0), Dual(1.0, 0.0))
        env[b] = Dual(Dual(env[b], 1.0), Dual(0.0, 0.0))
    r = _ev(e, env)
    if isinstance(r, Dual) and isinstance(r.im, Dual):
        return _d.real(r.im.im)
    return 0.0


def free_variables(e: Expression) -> frozenset:
    return e.free_variables()


# ---------------------------------------------------------------------------
# compiled jets

_JET_GLOBALS = {
    "_sin": _math.sin, "_cos": _math.cos, "_tan": _math.tan,
    "_exp": _math.exp, "_log": _math.log, "_sqrt": _math.sqrt,
    "_DomainError": DomainError, "_Unbound": UnboundVariableError,
}

_FOLD = {"+": _operator.add, "-": _operator.sub, "*": _operator.mul,
         "/": _operator.truediv, "**": _operator.pow}
_CALLS = {"sin": _math.sin, "cos": _math.cos, "tan": _math.tan,
          "exp": _math.exp, "log": _math.log, "sqrt": _math.sqrt,
          "abs": abs}


class _Sym:
    """One float of a jet's source: a literal, an argument or a
    temporary.  Arithmetic on it writes source, so the operators of
    :class:`Dual` run over nested duals of these write the jet."""

    __slots__ = ("src", "ref", "const")

    def __init__(self, src, ref, const=None):
        self.src = src
        self.ref = ref        # source text: a name or a literal
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
    """Straight-line source for :func:`compile`.

    :meth:`walk` mirrors :func:`_ev` and the functions of :mod:`dual`
    over :class:`_Sym` leaves, seeded the way :func:`derivative` and
    :func:`second_derivative` seed, so every emitted operation is one
    the tree walker performs, operand for operand, and rounds the same.
    Only exact rewrites are made: operations on literals are folded,
    ``x * 1.0``, ``1.0 * x``, ``x / 1.0``, ``x - 0.0`` and ``-(-x)`` are
    ``x``.  Repeated operations on the same operands, and repeated
    checks of the same condition, are emitted once.  One pass walks the
    values, then one pass per seeding; a pass shares a node object
    visited twice and reuses the values of the nodes that do not mention
    a seeded variable.
    """

    def __init__(self, names):
        self.args = {name: _Sym(self, f"x{i}") for i, name in
                     enumerate(names)}
        self.lines: list[str] = []
        self.consts: dict[str, float] = {}
        self.memo: dict = {}
        self.negated: dict = {}
        self.values: dict = {}
        self.nodes: dict = {}
        self.seeds = None

    # -- emission ------------------------------------------------------------

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

    def emit(self, key, code: str) -> _Sym:
        sym = self.memo.get(key)
        if sym is None:
            sym = self.memo[key] = _Sym(self, f"t{len(self.lines)}")
            self.lines.append(f"{sym.ref} = {code}")
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
        if op in "*/" and cb == 1.0 or (
                op == "-" and cb == 0.0 and _math.copysign(1.0, cb) > 0.0):
            return a
        return self.emit((op, a.ref, b.ref), f"{a.ref} {op} {b.ref}")

    def neg(self, a: _Sym) -> _Sym:
        if a.const is not None:
            return self.const(-a.const)
        inner = self.negated.get(a.ref)
        if inner is not None:
            return inner
        out = self.emit(("neg", a.ref), f"-{a.ref}")
        self.negated[out.ref] = a
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
        name = fn if fn == "abs" else "_" + fn
        return self.emit((fn, a.ref), f"{name}({a.ref})")

    def once(self, key, line: str):
        if key not in self.memo:
            self.memo[key] = None
            self.lines.append(line)

    def check(self, cond: str, message: str, offset):
        """Raise ``message`` at run time when ``cond`` holds; a condition
        already checked cannot hold here, so it is emitted once."""
        self.once(("check", cond), f"if {cond}: raise _DomainError("
                                   f"{message!r}, {offset!r})")

    # -- the functions of dual.py --------------------------------------------

    def powc(self, x, k, offset):
        if k == 0:
            return 1.0
        if isinstance(x, Dual):
            return Dual(self.powc(x.re, k, offset),
                        (k * self.powc(x.re, k - 1, offset)) * x.im)
        if k < 0.0:
            # float ** raises ZeroDivisionError here, which _ev reports
            self.check(f"{x.ref} == 0.0",
                       "power has no derivative at zero base", offset)
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
        """Dual.__abs__ without a branch: every component is negated
        where the value is negative.  The value itself is abs(value), so
        a -0.0 value loses its sign (the one difference from the tree
        walker)."""
        if isinstance(x, Dual):
            return Dual(self.abs(x.re, value, top),
                        self.abs(x.im, value, False))
        if top:
            return self.call("abs", value)
        x = self.sym(x)
        return self.emit(("sel", value.ref, x.ref),
                         f"{x.ref} if {value.ref} >= 0.0 else -{x.ref}")

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
        """One node of :func:`_ev`, over symbolic floats and duals."""
        t = type(e)
        if t is Var:
            x = env.get(e.name)
            if x is None:
                self.once(("unbound", e.name),
                          f"raise _Unbound({e.name!r}, {e.offset!r})")
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
            self.check(f"{_d.real(den).ref} == 0.0", "division by zero",
                       e.offset)
            return num / den
        if t is Pow:
            base = self.walk(e.lhs, env)
            b = _d.real(base).ref
            k = e._k
            if k is not None:
                if not float(k).is_integer():
                    self.check(f"{b} < 0.0",
                               "fractional power of a negative base",
                               e.offset)
                if k < 0.0:
                    self.check(f"{b} == 0.0",
                               "zero raised to a negative power", e.offset)
                return self.powc(base, k, e.offset)
            expo = self.walk(e.rhs, env)
            self.check(f"{b} <= 0.0",
                       "non-constant exponent requires a positive base",
                       e.offset)
            return self.exp(expo * self.ln(base))
        if t is Neg:
            return -self.walk(e.arg, env)
        if t is Call:
            a = self.walk(e.arg, env)
            ra = _d.real(a)
            fn = e.fn
            if fn == "ln":
                self.check(f"{ra.ref} <= 0.0", "ln of a non-positive value",
                           e.offset)
                return self.ln(a)
            if fn == "sqrt":
                self.check(f"{ra.ref} < 0.0", "sqrt of a negative value",
                           e.offset)
                if isinstance(a, Dual):
                    self.check(f"{ra.ref} == 0.0",
                               "sqrt has no derivative at zero", e.offset)
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


def compile(exprs, names, wrt=(), order=1):
    """Compile expressions into one straight-line jet.

    Returns a function taking one float per entry of ``names``,
    positionally, and returning a flat tuple: the values of ``exprs``;
    then for each variable in ``wrt`` (a subset of ``names``) the first
    partials of ``exprs`` along it; then, with ``order=2``, for each
    pair ``(wrt[i], wrt[j])`` with ``i <= j`` the second partials of
    ``exprs`` along it.  Each scalar equals, bit for bit, what
    :func:`evaluate`, :func:`derivative` or :func:`second_derivative`
    returns at the same point (a zero may differ in sign where ``abs``
    meets ``-0.0``).  Partials along a variable an expression does not
    mention are the constant 0.0 and cost nothing.

    Failures keep their type, message and offset: all values are
    computed first, so a point where :func:`evaluate` fails on some
    expression raises exactly its error; otherwise the first failure
    raises, in order of the first partials and then of the second
    partials, which is the error :func:`derivative` or
    :func:`second_derivative` raises for some variable or pair of
    ``wrt``.  A variable missing from ``names`` raises
    :class:`UnboundVariableError` when the function is called.
    """
    exprs = list(exprs)
    names = tuple(names)
    wrt = tuple(wrt)
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
        # derivative(): v seeded with tangent 1.0
        env = dict(args)
        env[v] = Dual(args[v], one)
        partials(frozenset((v,)), env, lambda r: r.im)
    if order == 2:
        for i, v1 in enumerate(wrt):
            for v2 in wrt[i:]:
                # second_derivative(): the smaller name on the outer level
                a, b = sorted((v1, v2))
                env = dict(args)
                if a == b:
                    env[a] = Dual(Dual(args[a], one), Dual(one, zero))
                else:
                    env[a] = Dual(Dual(args[a], zero), Dual(one, zero))
                    env[b] = Dual(Dual(args[b], one), Dual(zero, zero))
                partials(frozenset((a, b)), env,
                         lambda r: _d.real(r.im.im)
                         if isinstance(r.im, Dual) else None)
    body = src.lines + ["return (" + "".join(f"{s.ref}, " for s in out)
                        + ")"]
    code = (f"def _jet({', '.join(s.ref for s in args.values())}):\n"
            + "".join(f"    {line}\n" for line in body))
    namespace = dict(_JET_GLOBALS, **src.consts)
    exec(_builtins.compile(code, "<expr jet>", "exec"), namespace)
    return namespace["_jet"]


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
