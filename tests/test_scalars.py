"""Scalar tower: exact Gaussian rationals and the inexact fallback."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wmfock import scalars as sc
from wmfock.scalars import GaussianRational


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=9)
gaussians = st.builds(sc.gaussian, rationals, rationals)


def test_gaussian_demotes_real_values():
    assert sc.gaussian(3, 0) == 3
    assert isinstance(sc.gaussian(3, 0), int)
    assert sc.gaussian(Fraction(1, 2), 0) == Fraction(1, 2)
    g = sc.gaussian(1, 2)
    assert isinstance(g, GaussianRational)
    assert (g.re, g.im) == (1, 2)


def test_arithmetic_stays_exact():
    a = sc.gaussian(Fraction(1, 2), Fraction(1, 3))
    b = sc.gaussian(Fraction(-1, 2), Fraction(2, 3))
    for v in (sc.add(a, b), sc.mul(a, b), sc.sub(a, b), sc.div(a, b)):
        assert sc.is_exact(v)
    assert sc.mul(a, b) == sc.gaussian(Fraction(-17, 36), Fraction(1, 6))


def test_division_exact_and_guarded():
    assert sc.div(1, 2) == Fraction(1, 2)
    assert sc.div(4, 2) == 2
    i = sc.gaussian(0, 1)
    assert sc.div(1, i) == sc.gaussian(0, -1)
    # parts given as ints, not through gaussian(), still divide exactly
    g = GaussianRational(1, 3)
    assert 1 / g == sc.gaussian(Fraction(1, 10), Fraction(-3, 10))
    assert g / 3 == sc.gaussian(Fraction(1, 3), 1)
    with pytest.raises(ZeroDivisionError):
        sc.div(1, 0)


def test_float_contact_is_infectious():
    assert not sc.is_exact(sc.add(Fraction(1, 2), 0.5))
    assert not sc.is_exact(0.5)
    assert not sc.is_exact(1j)
    assert sc.is_exact(Fraction(1, 2))
    assert sc.is_exact(sc.gaussian(1, 1))
    assert not sc.is_exact(True)


def test_abs2_exact():
    g = sc.gaussian(Fraction(3, 5), Fraction(4, 5))
    assert sc.abs2(g) == 1
    assert sc.abs_value(g) == 1.0


def test_eq_modes():
    assert sc.eq(Fraction(1, 3), Fraction(1, 3))
    assert not sc.eq(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**15))
    assert sc.eq(0.1 + 0.2, 0.3)  # inexact side uses the 1e-12 tolerance


def test_to_json_rendering():
    assert sc.to_json(Fraction(1, 3)) == "1/3"
    assert sc.to_json(Fraction(4, 2)) == 2
    assert sc.to_json(5) == 5
    assert sc.to_json(sc.gaussian(Fraction(1, 2), 1)) == {"re": "1/2", "im": 1}


def test_to_text_round_trips_shape():
    assert sc.to_text(Fraction(-3, 4)) == "-3/4"
    assert sc.to_text(sc.gaussian(0, 1)) == "(0+1i)"
    assert sc.to_text(sc.gaussian(Fraction(1, 2), -2)) == "(1/2-2i)"


@given(gaussians)
def test_conj_involution(a):
    assert sc.conj(sc.conj(a)) == a


@given(gaussians, gaussians)
def test_mul_commutes(a, b):
    assert sc.mul(a, b) == sc.mul(b, a)


@given(gaussians)
def test_abs2_is_self_times_conj(a):
    prod = sc.mul(a, sc.conj(a))
    assert sc.is_exact(prod)
    assert prod == sc.abs2(a)


# --- the tower functions against reference formulas on (re, im) pairs -------
#
# Exact results must match the reference value and its normal-form type;
# inexact ones must be complex and match to rounding.

exacts = st.one_of(st.integers(-30, 30), rationals, gaussians)
floats = st.integers(-40, 40).map(lambda n: n / 4)
plain = st.one_of(exacts, floats)


def parts(x):
    if isinstance(x, GaussianRational):
        return x.re, x.im
    if isinstance(x, complex):
        return Fraction(x.real), Fraction(x.imag)
    return Fraction(x), Fraction(0)


def ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def ref_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def ref_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d


def expected(pair, inexact):
    """The tower's normal form of an exact pair, or the complex it rounds to."""
    re, im = pair
    if inexact:
        return complex(float(re), float(im))
    if im:
        return GaussianRational(re, im)
    return int(re) if re.denominator == 1 else re


def close(got, want):
    return abs(got - want) <= 1e-12 * (1 + abs(want))


def assert_scalar(got, pair, inexact):
    want = expected(pair, inexact)
    assert type(got) is type(want), (got, want)
    assert close(got, want) if inexact else got == want, (got, want)


@given(plain, plain)
def test_tower_binary_functions_match_reference(a, b):
    inexact = isinstance(a, float) or isinstance(b, float)
    for fn, ref in ((sc.add, ref_add), (sc.sub, ref_sub), (sc.mul, ref_mul)):
        assert_scalar(fn(a, b), ref(parts(a), parts(b)), inexact)
    assert sc.eq(a, b) is (parts(a) == parts(b))


@given(plain, plain)
def test_tower_division_matches_reference(a, b):
    inexact = isinstance(a, float) or isinstance(b, float)
    if parts(b) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            sc.div(a, b)
        return
    assert_scalar(sc.div(a, b), ref_div(parts(a), parts(b)), inexact)


@given(plain)
def test_tower_unary_functions_match_reference(a):
    re, im = parts(a)
    # negation, and conjugation of an exact value, keep the input's type
    got = sc.neg(a)
    assert type(got) is type(a) and parts(got) == (-re, -im)
    got = sc.conj(a)
    if isinstance(a, float):
        assert_scalar(got, (re, -im), True)
    else:
        assert type(got) is type(a) and parts(got) == (re, -im)
    assert sc.is_zero(a) is (re == 0 and im == 0)
    assert sc.abs_value(a) == pytest.approx(math.hypot(re, im))


@given(gaussians.filter(lambda g: isinstance(g, GaussianRational)), plain)
def test_gaussian_operators_agree_with_the_tower(g, x):
    assert g
    pairs = [(g + x, sc.add(g, x)), (x + g, sc.add(x, g)), (g - x, sc.sub(g, x)),
             (x - g, sc.sub(x, g)), (g * x, sc.mul(g, x)), (x * g, sc.mul(x, g)),
             (x / g, sc.div(x, g))]
    if parts(x) != (0, 0):
        pairs.append((g / x, sc.div(g, x)))
    for got, want in pairs:
        # exact results demote like the tower; float contact gives a complex
        assert type(got) is type(want) and got == want
