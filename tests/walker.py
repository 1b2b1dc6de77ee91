"""The tree walker: the jets' oracle, and the references built on it.

``evaluate``, ``derivative`` and ``second_derivative`` walk an
expression tree over floats or nested dual numbers, one node at a
time.  They share no code with :func:`expr.compile` beyond the tree and
the :class:`dual.Dual` arithmetic, and every value, partial and failure
of a jet must equal theirs bit for bit (a zero may differ in sign where
``abs`` meets ``-0.0``).  The program itself evaluates on jets only.

The math functions below take plain floats or duals and dispatch on the
argument type, so the walk is written once for every differentiation
depth.  ``matrix_values``, its derivative forms and ``to_old`` are
references on top of the walk that only the tests call.
"""

import math
from typing import Mapping

import numpy as np

from blocksep.dual import Dual, real
from blocksep.expr import (Add, Call, Div, DomainError, Expression, Mul,
                           Neg, Num, Pow, Sub, UnboundVariableError, Var)
from blocksep.model import PhasePoint


# ---------------------------------------------------------------------------
# the math functions, on floats or duals

def powc(x, k):
    """x**k for a constant real exponent k, valid for negative bases
    when k is an integer."""
    if k == 0:
        return 1.0
    if isinstance(x, Dual):
        return Dual(powc(x.re, k), (k * powc(x.re, k - 1)) * x.im)
    return x ** k


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.re), cos(x.re) * x.im)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.re), -(sin(x.re) * x.im))
    return math.cos(x)


def tan(x):
    if isinstance(x, Dual):
        c = cos(x.re)
        return Dual(tan(x.re), x.im / (c * c))
    return math.tan(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(e, e * x.im)
    return math.exp(x)


def ln(x):
    if isinstance(x, Dual):
        return Dual(ln(x.re), x.im / x.re)
    return math.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.re)
        return Dual(s, x.im / (s + s))
    return math.sqrt(x)


def fabs(x):
    # |x| is locally linear away from 0; at exactly 0 the right
    # derivative is used
    if isinstance(x, Dual):
        return x if real(x) >= 0.0 else -x
    return abs(x)


_FUNCTIONS = {"sin": sin, "cos": cos, "tan": tan, "exp": exp}


# ---------------------------------------------------------------------------
# the walk

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
        if real(den) == 0.0:
            raise DomainError("division by zero", e.offset)
        return num / den
    if t is Pow:
        base = _ev(e.lhs, env)
        k = e._k
        if k is not None:
            b = real(base)
            if b < 0.0 and not float(k).is_integer():
                raise DomainError("fractional power of a negative base",
                                  e.offset)
            if b == 0.0 and k < 0.0:
                raise DomainError("zero raised to a negative power",
                                  e.offset)
            try:
                return powc(base, k)
            except ZeroDivisionError:
                raise DomainError("power has no derivative at zero base",
                                  e.offset) from None
        expo = _ev(e.rhs, env)
        if real(base) <= 0.0:
            raise DomainError(
                "non-constant exponent requires a positive base", e.offset)
        return exp(expo * ln(base))
    if t is Neg:
        return -_ev(e.arg, env)
    if t is Call:
        a = _ev(e.arg, env)
        fn = e.fn
        if fn == "ln":
            if real(a) <= 0.0:
                raise DomainError("ln of a non-positive value", e.offset)
            return ln(a)
        if fn == "sqrt":
            ra = real(a)
            if ra < 0.0:
                raise DomainError("sqrt of a negative value", e.offset)
            if ra == 0.0 and isinstance(a, Dual):
                raise DomainError("sqrt has no derivative at zero", e.offset)
            return sqrt(a)
        if fn == "abs":
            return fabs(a)
        return _FUNCTIONS[fn](a)
    raise TypeError(f"not an Expression node: {e!r}")


def evaluate(e: Expression, p: Mapping[str, float]) -> float:
    """Evaluate at a point binding every free variable to a float.  What
    floats raise past their range (an overflow in exp or a power; sin,
    cos or tan of an infinity) is a DomainError."""
    try:
        return _ev(e, p)
    except (OverflowError, ValueError):
        raise DomainError("value overflows the float range") from None


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
    r = evaluate(e, env)
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
    r = evaluate(e, env)
    if isinstance(r, Dual) and isinstance(r.im, Dual):
        return real(r.im.im)
    return 0.0


# ---------------------------------------------------------------------------
# references on the walk

def matrix_values(grid, env) -> np.ndarray:
    """Evaluate a grid of expressions into a float matrix."""
    return np.array([[evaluate(e, env) for e in row] for row in grid],
                    dtype=float)


def matrix_derivative(grid, env, v: str) -> np.ndarray:
    """Entrywise exact partial derivative of a grid."""
    return np.array(
        [[derivative(e, env, v) for e in row] for row in grid],
        dtype=float)


def matrix_second_derivative(grid, env, v1: str, v2: str) -> np.ndarray:
    return np.array(
        [[second_derivative(e, env, v1, v2) for e in row]
         for row in grid], dtype=float)


def stage_jacobian(stage, new_q) -> np.ndarray:
    """d old / d new of a catalog transform stage at a target-chart
    position, entry by entry."""
    env = dict(zip(stage.new_names, new_q))
    return np.array([[derivative(e, env, v) for v in stage.new_names]
                     for e in stage.old_exprs])


def to_old(transform, point: PhasePoint) -> PhasePoint:
    """The inverse of ``transform.to_new``: each stage's positions by its
    closed forms, and its momenta by solving the transposed Jacobian
    system of the walk."""
    q = tuple(float(v) for v in point.q)
    p = np.array(point.p, dtype=float)
    for stage in reversed(transform.stages):
        p = np.linalg.solve(stage_jacobian(stage, q).T, p)
        q = stage.old_positions(q)
    return PhasePoint(q, tuple(float(v) for v in p))
