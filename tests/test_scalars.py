"""Scalar tower: exact Gaussian rationals, inexact fallback, Laurent ring."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wmfock import scalars as sc
from wmfock.scalars import GaussianRational, LaurentZ


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


def test_laurent_conjugate_flips_degrees():
    f = LaurentZ({1: 2, -1: Fraction(1, 3)})
    g = f.conjugate()
    assert g.coeffs == {-1: 2, 1: Fraction(1, 3)}
    assert f.conjugate().conjugate() == f


def test_laurent_arithmetic():
    z = LaurentZ({1: 1})
    zinv = z.conjugate()
    assert z * zinv == LaurentZ({0: 1})
    assert (z + zinv).substitute(1j) == pytest.approx(0)
    assert z.substitute(1j) == 1j
    assert LaurentZ({}).is_zero()
    assert not z.is_zero()


def test_laurent_results_do_not_depend_on_operand_order():
    z = LaurentZ({1: 1})
    left, right = sc.add(0.5, z), sc.add(z, 0.5)
    assert left.coeffs == right.coeffs == {0: 0.5 + 0j, 1: 1}
    assert type(left.coeffs[0]) is complex and type(right.coeffs[0]) is complex
    one = (LaurentZ({0: Fraction(1)}) + 0).coeffs[0]
    assert type(one) is int and one == 1


def test_laurent_json_keys():
    f = LaurentZ({2: Fraction(1, 3), 0: -1})
    assert f.to_json() == {"z^0": -1, "z^2": "1/3"}


def test_laurent_degree_support():
    f = LaurentZ({3: 1, -2: 1, 0: 0})
    assert f.degree_support() == [-2, 3]


# --- the tower functions against reference formulas on (re, im) pairs -------
#
# Exact results must match the reference value and its normal-form type;
# inexact ones must be complex and match to rounding.

exacts = st.one_of(st.integers(-30, 30), rationals, gaussians)
floats = st.integers(-40, 40).map(lambda n: n / 4)
plain = st.one_of(exacts, floats)
laurents = st.dictionaries(st.integers(-2, 2), plain, max_size=3).map(LaurentZ)
values = st.one_of(plain, laurents)


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


def laurent_ref(x):
    """{power: (re, im, inexact)} of a LaurentZ or of a scalar at power 0."""
    if isinstance(x, LaurentZ):
        return {k: (*parts(v), not sc.is_exact(v)) for k, v in x.coeffs.items()}
    re, im = parts(x)
    return {0: (re, im, isinstance(x, float))} if re or im else {}


def laurent_combine(fa, fb, op):
    out = {}
    if op is ref_mul:
        for k1, (r1, i1, x1) in fa.items():
            for k2, (r2, i2, x2) in fb.items():
                r0, i0, x0 = out.get(k1 + k2, (0, 0, False))
                r, i = ref_mul((r1, i1), (r2, i2))
                out[k1 + k2] = (r0 + r, i0 + i, x0 or x1 or x2)
    else:
        for k in fa.keys() | fb.keys():
            r1, i1, x1 = fa.get(k, (0, 0, False))
            r2, i2, x2 = fb.get(k, (0, 0, False))
            out[k] = (*op((r1, i1), (r2, i2)), x1 or x2)
    return {k: v for k, v in out.items() if v[0] or v[1]}


def assert_laurent(got, ref):
    assert isinstance(got, LaurentZ)
    assert set(got.coeffs) == set(ref)
    for k, (re, im, inexact) in ref.items():
        v = got.coeffs[k]
        assert sc.is_exact(v) is not inexact
        if inexact:
            assert close(complex(v), complex(float(re), float(im)))
        else:
            assert_scalar(v, (re, im), False)


@given(values, values)
def test_tower_binary_functions_match_reference(a, b):
    laurent = isinstance(a, LaurentZ) or isinstance(b, LaurentZ)
    inexact = isinstance(a, float) or isinstance(b, float)
    for fn, ref in ((sc.add, ref_add), (sc.sub, ref_sub), (sc.mul, ref_mul)):
        if laurent:
            assert_laurent(fn(a, b), laurent_combine(laurent_ref(a), laurent_ref(b), ref))
        else:
            assert_scalar(fn(a, b), ref(parts(a), parts(b)), inexact)
    if laurent:
        same = not laurent_combine(laurent_ref(a), laurent_ref(b), ref_sub)
    else:
        same = parts(a) == parts(b)
    assert sc.eq(a, b) is same


@given(plain, plain)
def test_tower_division_matches_reference(a, b):
    inexact = isinstance(a, float) or isinstance(b, float)
    if parts(b) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            sc.div(a, b)
        return
    assert_scalar(sc.div(a, b), ref_div(parts(a), parts(b)), inexact)


@given(values)
def test_tower_unary_functions_match_reference(a):
    if isinstance(a, LaurentZ):
        ref = laurent_ref(a)
        assert_laurent(sc.neg(a), {k: (-r, -i, x) for k, (r, i, x) in ref.items()})
        assert_laurent(sc.conj(a), {-k: (r, -i, x) for k, (r, i, x) in ref.items()})
        assert sc.is_zero(a) is (not ref)
        want = sum(math.hypot(r, i) for r, i, _ in ref.values())
        assert sc.abs_value(a) == pytest.approx(want)
        return
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
