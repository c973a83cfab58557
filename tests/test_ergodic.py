"""Shift dynamics, Cesaro averages, invariant states, vacuum certificate."""

import time
from fractions import Fraction
from random import Random

import pytest

from conftest import random_element_z
from wmfock.errors import SizeLimitError
from wmfock.ergodic import (cesaro_average, check_cesaro_bound,
                            check_creator_sum_estimate, check_nonconvergence,
                            fixed_point_check, omega_t, vacuum_certificate)
from wmfock.expr import Element, parse
from wmfock.fock import TruncSpace, apply_element_to_vector
from wmfock.rewrite import equal_z, normalize_z
from wmfock import scalars as sc


def test_cesaro_frozen():
    got = cesaro_average(parse("c(0)", "Z"), 2)
    assert got == parse("1/2 c(0) + 1/2 c(1)", "Z")
    unit = parse("3I", "Z")
    for n in (1, 2, 5):
        assert cesaro_average(unit, n) == unit


def _chained_average(x, n):
    total = Element.zero(x.case)
    for k in range(n):
        total = total + x.shift(k)
    return total.scale(Fraction(1, n))


@pytest.mark.parametrize("text", [
    "c(1) - c(2) + c(3)", "c(1)a(1) - c(2)a(2) + 1/2 I", "0.5*c(1) - 0.5*c(2) + c(0)a(1)",
    "(1+1i) c(1) - (1+1i) c(2) + 3I",
])
def test_cesaro_average_equals_chained_sum(text):
    # the shifts collide: terms cancel and come back, so values, types and
    # key order must all match n chained Element additions
    x = parse(text, "Z")
    for n in (1, 2, 3, 5):
        got, want = cesaro_average(x, n), _chained_average(x, n)
        assert repr(got) == repr(want)
        assert list(got.terms) == list(want.terms)


def test_oversized_averages_raise_before_work():
    # both would spend minutes in the average before the basis is ever built
    started = time.monotonic()
    with pytest.raises(SizeLimitError, match="exceeds cap"):
        check_cesaro_bound(TruncSpace("Z", 1, 100_000, 2), parse("c(1)", "Z"), 100_000)
    with pytest.raises(SizeLimitError, match="word evaluations"):
        check_nonconvergence(TruncSpace("Z", -100_000, 0, 2), 100_000)
    assert time.monotonic() - started < 1.0
    check_nonconvergence(TruncSpace("Z", -157, 0, 2), 157)  # the largest admitted n
    with pytest.raises(SizeLimitError):
        check_nonconvergence(TruncSpace("Z", -158, 0, 2), 158)


def test_cesaro_commutes_with_normalize():
    x = parse("c(0)a(0)", "Z")  # support word; normalizes to pair terms
    n = 3
    avg_then_nf = normalize_z(cesaro_average(x, n)).to_element()
    nf_then_avg = cesaro_average(normalize_z(x).to_element(), n)
    assert equal_z(avg_then_nf, nf_then_avg)


def test_cesaro_bound_single_creator():
    space = TruncSpace("Z", 4, 9, 2)
    chk = check_cesaro_bound(space, parse("c(5)", "Z"), 4)
    assert chk.passed
    assert chk.norm_lower == pytest.approx(0.5, abs=1e-6)
    assert chk.bound == pytest.approx(0.5 + 1e-9)


def test_cesaro_bound_two_letter_word():
    space = TruncSpace("Z", -2, 17, 3)
    chk = check_cesaro_bound(space, parse("c(0)c(-1)", "Z"), 16)
    assert chk.passed
    assert chk.norm_lower <= 0.25 + 1e-9


def test_cesaro_bound_annihilator():
    space = TruncSpace("Z", 1, 12, 2)
    chk = check_cesaro_bound(space, parse("a(2)", "Z"), 9)
    assert chk.passed
    assert chk.norm_lower <= Fraction(1, 3) + 1e-9


def test_cesaro_bound_rejects_non_lambda():
    space = TruncSpace("Z", -2, 6, 3)
    with pytest.raises(ValueError):
        check_cesaro_bound(space, parse("c(1)a(1)", "Z"), 4)  # support word
    with pytest.raises(ValueError):
        check_cesaro_bound(space, parse("c(0) + c(1)", "Z"), 4)  # not a word


def test_creator_sum_frozen():
    space = TruncSpace("N", 1, 4, 3)
    one = {(1,): 1}
    chk = check_creator_sum_estimate(space, [one], [1])
    assert chk.passed and chk.total_sq == 1 and chk.bound_sq == 1

    chk = check_creator_sum_estimate(space, [{(1,): 1}] * 3, [1, 2, 3])
    assert chk.passed
    assert chk.total_sq == 3 and chk.bound_sq == 3
    assert chk.orthogonal_exact


def test_creator_sum_random_exact_pythagoras():
    rng = Random(7)
    space = TruncSpace("N", 1, 4, 3)
    vectors = []
    for _ in range(4):
        vectors.append({(k,): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for k in range(1, 5)})
    chk = check_creator_sum_estimate(space, vectors, [1, 2, 3, 4])
    assert chk.passed and chk.orthogonal_exact
    assert chk.total_sq == chk.parts_sq
    assert isinstance(chk.total_sq, (int, Fraction))


def test_creator_sum_level_mismatch():
    space = TruncSpace("N", 1, 4, 3)
    with pytest.raises(ValueError):
        check_creator_sum_estimate(space, [{(1,): 1}, {(1, 1): 1}], [1, 2])


def test_nonconvergence_frozen():
    space = TruncSpace("Z", -5, 1, 2)
    chk = check_nonconvergence(space, 4)
    assert chk.passed
    assert chk.witness_entry == -1
    assert chk.norm_sq == 1
    assert chk.strong_residual == Fraction(1, 4)

    chk1 = check_nonconvergence(TruncSpace("Z", -2, 1, 2), 1)
    assert chk1.passed and chk1.witness_entry == -1


def test_nonconvergence_strong_residual_decreases():
    values = []
    for n in (2, 4, 8, 16):
        space = TruncSpace("Z", -(n + 1), 1, 2)
        values.append(check_nonconvergence(space, n).strong_residual)
    assert values == [Fraction(1, n) for n in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_omega_frozen_family():
    x = parse("3I + 2a(5)c(5) + c(2)c(1)", "Z")  # gamma=3, pair sum 2
    for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
        assert omega_t(x, t) == 3 + 2 * t
    assert omega_t(x, Fraction(0)) == 3


def test_omega_one_is_vacuum_expectation():
    rng = Random(11)
    for _ in range(40):
        x = random_element_z(rng)
        w1 = omega_t(x, Fraction(1))
        lo = min(x.indices() | {0}) - 1
        hi = max(x.indices() | {0}) + 1
        space = TruncSpace("Z", lo, hi, x.max_word_len() + 1)
        vec = apply_element_to_vector(space, x, {(): 1})
        assert w1 == vec.get((), 0)


def test_omega_invariance_and_positivity():
    rng = Random(12)
    ts = (Fraction(0), Fraction(1, 3), Fraction(1))
    for _ in range(40):
        x = random_element_z(rng)
        for t in ts:
            assert omega_t(x.shift(1), t) == omega_t(x, t)
        v = omega_t(x.adjoint() * x, Fraction(1, 3))
        re = v.re if isinstance(v, sc.GaussianRational) else Fraction(v)
        assert re >= Fraction(-1, 10 ** 12)
    assert omega_t(Element.one("Z"), Fraction(1, 2)) == 1


def test_fixed_point_frozen():
    res = fixed_point_check(parse("5I", "Z"))
    assert res.fixed and res.scalar == 5

    res = fixed_point_check(parse("a(3)c(3)", "Z"))
    assert not res.fixed and res.witness is not None

    res = fixed_point_check(parse("c(0) + c(1)", "Z"))
    assert not res.fixed


def test_certificate_frozen():
    assert vacuum_certificate(parse("a(0)c(0)", "Z")) == 1.0
    assert vacuum_certificate(Element.zero("Z")) == 1.0
    assert vacuum_certificate(parse("1/2 a(0)c(0)", "Z")) == 0.5


def test_float_coefficients_give_real_norms():
    # squared norms of inexact vectors are real floats, so float() accepts them
    assert vacuum_certificate(parse("0.5*a(1)c(1)", "Z")) == 0.5
    space = TruncSpace("N", 1, 4, 3)
    chk = check_creator_sum_estimate(space, [{(1,): 0.5, (2,): 1}, {(1,): 0.25j}], [2, 3])
    assert chk.passed
    assert (chk.total_sq, chk.parts_sq, chk.bound_sq) == (1.3125, 1.3125, 2.5)
    # float norms are compared at 1e-12, so orthogonality is not exact
    assert not chk.orthogonal_exact


def test_certificate_rejects_unital():
    with pytest.raises(ValueError):
        vacuum_certificate(parse("I + c(0)", "Z"))


def test_certificate_lower_bound_random():
    rng = Random(13)
    for _ in range(100):
        x = random_element_z(rng, with_unit=False)
        if x.is_zero():
            continue
        assert vacuum_certificate(x) >= 0.5 - 1e-12
