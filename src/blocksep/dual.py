"""Forward-mode automatic differentiation on dual numbers.

A :class:`Dual` carries a value and a single tangent component.  The
components may themselves be duals, so nesting two levels gives exact
second partial derivatives.  Only the arithmetic lives here: the jets
of :func:`expr.compile` run it over symbolic floats, which records each
operation once, and write the rules of the functions (sin, ln, the
constant power, abs, ...) themselves.  The tree walker over duals that
serves as the jets' oracle is kept in the test suite.

Mixing duals of different nesting depth in one arithmetic expression is
not supported; callers seed every perturbed input at the same depth.
"""

from __future__ import annotations


class Dual:
    """Value plus one tangent component, both possibly duals."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __repr__(self):
        return f"Dual({self.re!r}, {self.im!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.im + other.im)
        return Dual(self.re + other, self.im)

    def __radd__(self, other):
        return Dual(other + self.re, self.im)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.im - other.im)
        return Dual(self.re - other, self.im)

    def __rsub__(self, other):
        return Dual(other - self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re,
                        self.re * other.im + self.im * other.re)
        return Dual(self.re * other, self.im * other)

    def __rmul__(self, other):
        return Dual(other * self.re, other * self.im)

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.re / other.re
            return Dual(q, (self.im - q * other.im) / other.re)
        return Dual(self.re / other, self.im / other)

    def __rtruediv__(self, other):
        q = other / self.re
        return Dual(q, -q * self.im / self.re)

    def __neg__(self):
        return Dual(-self.re, -self.im)

    def __pos__(self):
        return self


def real(x):
    """Deepest real part: the plain float value under any nesting."""
    while isinstance(x, Dual):
        x = x.re
    return x
