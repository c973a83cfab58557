"""Scalar arithmetic for operator coefficients: the package's one arithmetic layer.

Coefficients live in a small tower:

    int / Fraction      exact rationals
    GaussianRational    exact complex rationals re + im*i
    complex / float     inexact fallback

GaussianRational carries operator methods, so ``+ - * /`` and truth
testing work natively on int, Fraction and GaussianRational (native
``int / int`` is still a float: divide from a Fraction, or with div()).  A
GaussianRational result demotes to int or Fraction when its imaginary part
is 0, and contact with a float or complex gives a complex.

The free functions add, sub, neg, mul, div, conj, is_zero, eq and abs_value
are these operators plus the tower's normal form.  On exact inputs add,
sub, mul and div give exact outputs, with a Fraction of denominator 1
returned as an int; a float or complex operand makes their result complex,
since both operands are taken to complex before the operator runs.  neg
keeps its operand's type, and conj makes only floats complex.  Equality
between inexact values is decided with an absolute tolerance (default
1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

DEFAULT_TOL = 1e-12

_RATIONAL = (int, Fraction)
_INEXACT = (float, complex)


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with Fraction real and imaginary parts.

    Construct through gaussian() so that purely real values collapse back
    to Fraction/int and hashing stays consistent across the tower.
    """

    re: Fraction
    im: Fraction

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return gaussian(self.re + other.re, self.im + other.im)
        if isinstance(other, _RATIONAL):
            return gaussian(self.re + other, self.im)
        if isinstance(other, _INEXACT):
            return complex(self) + complex(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (GaussianRational,) + _RATIONAL + _INEXACT):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return gaussian(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)
        if isinstance(other, _RATIONAL):
            return gaussian(self.re * other, self.im * other)
        if isinstance(other, _INEXACT):
            return complex(self) * complex(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            return self * other.__rtruediv__(1)
        if isinstance(other, _RATIONAL):
            return self * Fraction(1, other)
        if isinstance(other, _INEXACT):
            return complex(self) / complex(other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RATIONAL):
            # a Fraction divisor keeps the quotient exact for int parts too
            d = Fraction(self.re * self.re + self.im * self.im)
            return gaussian(other * self.re / d, -other * self.im / d)
        if isinstance(other, _INEXACT):
            return complex(other) / complex(self)
        return NotImplemented

    def __repr__(self) -> str:
        return f"GaussianRational({self.re}, {self.im})"


Scalar = Union[int, Fraction, GaussianRational, float, complex]


def gaussian(re, im) -> Scalar:
    """Build an exact complex scalar, demoting to rational when im == 0."""
    re = Fraction(re)
    im = Fraction(im)
    if im == 0:
        return demote(re)
    return GaussianRational(re, im)


def demote(s):
    """A Fraction with denominator 1 as its int; any other value unchanged."""
    return s.numerator if type(s) is Fraction and s.denominator == 1 else s


def is_exact(s: Scalar) -> bool:
    return isinstance(s, (int, Fraction, GaussianRational)) and not isinstance(s, bool)


def is_zero(s) -> bool:
    return not s


def to_complex(s: Scalar) -> complex:
    return complex(s)


def _operands(a, b):
    # on float or complex contact both operands go to complex, so the
    # operator runs in complex arithmetic whatever mix came in
    if is_exact(a) and is_exact(b):
        return a, b
    return complex(a), complex(b)


def add(a, b):
    if type(a) in _RATIONAL and type(b) in _RATIONAL:
        return demote(a + b)  # what _operands would hand back, without its checks
    a, b = _operands(a, b)
    return demote(a + b)


def neg(a):
    return -a


def sub(a, b):
    return add(a, -b)


def mul(a, b):
    if type(a) in _RATIONAL and type(b) in _RATIONAL:
        return demote(a * b)
    a, b = _operands(a, b)
    return demote(a * b)


def div(a: Scalar, b: Scalar) -> Scalar:
    a, b = _operands(a, b)
    if not b:
        raise ZeroDivisionError("scalar division by zero")
    if isinstance(a, int):
        a = Fraction(a)
    return demote(a / b)


def conj(a):
    if isinstance(a, _RATIONAL):
        return a
    if isinstance(a, _INEXACT):
        return complex(a).conjugate()
    return a.conjugate()


def abs2(a: Scalar) -> Scalar:
    """|a|^2, exact (Fraction/int) for exact input."""
    if is_exact(a):
        return demote(a * conj(a))
    z = complex(a)
    return z.real * z.real + z.imag * z.imag


def abs_value(a: Scalar) -> float:
    """|a| as a float."""
    return math.sqrt(float(abs2(a)))


def eq(a: Scalar, b: Scalar, tol: float = DEFAULT_TOL) -> bool:
    """Exact equality when both sides are exact, |a-b| <= tol otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(complex(a) - complex(b)) <= tol


def to_text(s: Scalar) -> str:
    """Render a scalar the way the expression grammar reads it back."""
    if isinstance(s, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(s, int):
        return str(s)
    if isinstance(s, Fraction):
        if s.denominator == 1:
            return str(s.numerator)
        return f"{s.numerator}/{s.denominator}"
    if isinstance(s, GaussianRational):
        re_txt = to_text(demote(s.re))
        im_txt = to_text(demote(abs(s.im)))
        sign = "+" if s.im >= 0 else "-"
        return f"({re_txt}{sign}{im_txt}i)"
    if isinstance(s, float):
        return repr(s)
    if isinstance(s, complex):
        sign = "+" if s.imag >= 0 else "-"
        return f"({s.real!r}{sign}{abs(s.imag)!r}i)"
    raise TypeError(f"not a scalar: {s!r}")


def to_json(s: Scalar):
    """JSON form: ints as numbers, rationals as 'p/q', complex as {re, im}."""
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    if isinstance(s, Fraction):
        if s.denominator == 1:
            return s.numerator
        return f"{s.numerator}/{s.denominator}"
    if isinstance(s, GaussianRational):
        return {"re": to_json(demote(s.re)), "im": to_json(demote(s.im))}
    if isinstance(s, float):
        return s
    if isinstance(s, complex):
        return {"re": s.real, "im": s.imag}
    raise TypeError(f"not a scalar: {s!r}")

