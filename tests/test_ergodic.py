"""Shift dynamics, Cesaro averages, invariant states, vacuum certificate."""

import math
import time
from collections import Counter
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from conftest import random_element_z
from wmfock import ergodic
from wmfock.errors import InternalConsistencyError, SizeLimitError, WindowError
from wmfock.ergodic import (cesaro_average, check_cesaro_bound, check_nonconvergence,
                            fixed_point_check, omega_t, vacuum_certificate)
from wmfock.expr import Case, Element, parse, word_surplus
from wmfock.fock import (TruncSpace, apply_element_to_vector, evaluate,
                         interior_tuples, word_image)
from wmfock.rewrite import classify_word, equal_z, normalize_z
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


@given(st.integers(1, 6), st.integers(0, 3), st.integers(2, 4), st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_nonconvergence_bound_refuses_where_the_product_passes(n, extra, trunc, delta):
    space = TruncSpace("Z", -n - extra, extra, trunc)
    evals = n * sum(math.comb(space.width + k - 1, k) for k in range(trunc + 1))
    with mock.patch.object(ergodic, "NONCONVERGENCE_MAX_EVALS", evals + delta):
        if delta < 0:
            with pytest.raises(SizeLimitError, match="word evaluations"):
                check_nonconvergence(space, n)
        else:
            assert check_nonconvergence(space, n).passed


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


def test_cesaro_bound_refuses_a_word_above_the_particles(monkeypatch):
    # with 2 particles the average reads norm 1 against the bound 1/2; with
    # 1 particle no column is interior, so the check would pass on none
    word = parse("2*c(2)c(1)", "Z")
    assert not check_cesaro_bound(TruncSpace("Z", 1, 10, 2), word, 4).passed

    def no_columns(*args):
        raise AssertionError("a column was checked above the particle count")

    monkeypatch.setattr(ergodic, "acting_tuples", no_columns)
    with pytest.raises(ValueError, match="^creator surplus 2 exceeds the particle count 1: "
                                         "no column is interior$"):
        check_cesaro_bound(TruncSpace("Z", 1, 10, 1), word, 4)


def _cesaro_space(word, particles, n):
    """The window the cesaro subcommand uses: the word's indices and n - 1 shifts."""
    idx = [i for i, _ in word]
    return TruncSpace("Z", min(idx), max(idx) + n - 1, particles)


# (word, particle cap): creators only, annihilators only, and mixed; the caps
# keep the interior matrices small enough for a dense SVD at n = 64
CESARO_WORDS = [
    (((2, True), (1, True)), 3),
    (((2, False),), 2),
    (((1, False), (3, False)), 2),
    (((4, True), (1, False), (2, False)), 2),
]


@pytest.mark.parametrize("word, particles", CESARO_WORDS)
@pytest.mark.parametrize("coeff", [Fraction(-2, 3), sc.gaussian(Fraction(1, 2), Fraction(-3, 4))])
@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_cesaro_norm_is_exact(word, particles, coeff, n):
    # the norm from the support pattern against a dense SVD of the interior
    # matrix, restricted to its nonzero rows and columns (the norm is the same)
    space = _cesaro_space(word, particles, n)
    x = Element(Case.Z, 0, {word: coeff})
    chk = check_cesaro_bound(space, x, n)
    avg = cesaro_average(x, n)
    cols = list(interior_tuples(space, avg.max_surplus(), 0))
    mat = evaluate(space, avg).submatrix(cols=[space.position(t) for t in cols])
    rows = sorted({r for r, _ in mat.entries})
    used = sorted({c for _, c in mat.entries})
    want = oracles.svd_norm(oracles.dense(mat.submatrix(rows=rows, cols=used)))
    assert chk.columns == len(cols)
    assert abs(chk.norm_lower - want) <= 1e-12
    assert chk.passed == (chk.norm_lower <= chk.bound)


def test_cesaro_norm_pins():
    chk = check_cesaro_bound(TruncSpace("Z", 1, 64, 2), parse("c(1)", "Z"), 64)
    assert chk.norm_lower == 0.125 and chk.columns == 65
    chk = check_cesaro_bound(TruncSpace("Z", 1, 12, 2), parse("a(2)", "Z"), 9)
    assert chk.norm_lower == 1 / 3


@st.composite
def cesaro_inputs(draw):
    """A lambda word with a coefficient, an average length and a space for it.

    N words may hold the bottom index 0; the window spans every shift's
    indices, plus a few spare ones.
    """
    case = draw(st.sampled_from(["Z", "N", "ANTI"]))
    low = {"Z": -3, "N": 0, "ANTI": 1}[case]
    index = st.integers(low, low + 3)
    creators = sorted(draw(st.lists(index, max_size=3)), reverse=True)
    annihilators = sorted(draw(st.lists(index, max_size=3)))
    word = tuple((i, True) for i in creators) + tuple((i, False) for i in annihilators)
    assume(word and classify_word(word).kind == "lambda")
    n = draw(st.integers(1, 12))
    re, im = draw(st.sampled_from([(1, 0), (Fraction(-2, 3), 0), (Fraction(1, 2), Fraction(-3, 4))]))
    idx = [i for i, _ in word]
    lo = min(idx) - draw(st.integers(0, 2))
    if case != "Z":
        lo = max(lo, 1)
    hi = max(lo, max(idx) + n - 1) + draw(st.integers(0, 2))
    particles = word_surplus(word) + draw(st.integers(0, 2))
    return case, word, sc.gaussian(re, im), re * re + im * im, n, lo, hi, particles


@given(cesaro_inputs())
@settings(max_examples=150, deadline=None)
# an N word ending in the bottom annihilator a(0), which acts on the vacuum
# unshifted, and an ANTI creator, whose shifts act up to the column's head
@example(("N", ((0, False),), 1, 1, 3, 1, 3, 1))
@example(("N", ((2, True), (0, False), (0, False)), 1, 1, 4, 1, 5, 2))
@example(("ANTI", ((1, True),), 1, 1, 3, 1, 4, 2))
def test_cesaro_bound_matches_oracle_support(inputs):
    # columns, norm and verdict from the support of every shift on every
    # interior column, found by the reference tuple action; every (shift,
    # column) pair with an image must also have gone through word_image
    case, word, coeff, coeff_sq, n, lo, hi, particles = inputs
    space = TruncSpace(case, lo, hi, particles)
    cols = oracles.naive_tuples(case, lo, hi, particles - word_surplus(word))
    shifts = [tuple((i + k, d) for i, d in word) for k in range(n)]
    images = {(w, t): oracles.act_word(case, w, t, particles) for t in cols for w in shifts}
    per_col = [[images[w, t] for w in shifts if images[w, t] is not None] for t in cols]
    assert all(len(set(col)) == len(col) for col in per_col)
    most_in_col = max(map(len, per_col))
    most_in_row = max(Counter(img for col in per_col for img in col).values(), default=0)
    assert min(most_in_col, most_in_row) <= 1
    seen = set()

    def recording(sp, w, t):
        img = word_image(sp, w, t)
        if img is not None:
            seen.add((w, t))
        return img

    with mock.patch.object(ergodic, "word_image", recording):
        chk = check_cesaro_bound(space, Element(case, 0, {word: coeff}), n)
    assert seen == {key for key, img in images.items() if img is not None}
    norm = math.sqrt(float(coeff_sq * max(most_in_col, most_in_row) / Fraction(n * n)))
    assert chk.columns == len(cols)
    assert chk.norm_lower == norm
    assert chk.passed == (norm <= 1 / math.sqrt(n) + 1e-9)


def test_cesaro_support_faults(monkeypatch):
    space = TruncSpace("Z", 1, 8, 2)
    x = parse("c(1)", "Z")
    with pytest.raises(WindowError):
        check_cesaro_bound(TruncSpace("Z", 1, 3, 2), x, 5)  # c(5) leaves [1, 3]
    # faults go through the evaluator the certificate calls; the shifts of
    # c(1) are c(1)..c(4), and () and (1,) are columns all four can act on
    # c(1) and c(2) send every column to the same two rows
    monkeypatch.setattr(ergodic, "word_image",
                        lambda sp, w, t: {1: (7,), 2: (8,)}.get(w[0][0]))
    with pytest.raises(InternalConsistencyError, match="neither"):
        check_cesaro_bound(space, x, 4)
    # all four shifts meet at the column itself: an entry 4 * 1/4
    monkeypatch.setattr(ergodic, "word_image", lambda sp, w, t: t)
    with pytest.raises(InternalConsistencyError, match="entry 1 at column \\(\\), expected 1/4"):
        check_cesaro_bound(space, x, 4)


def test_cesaro_bound_rejects_non_lambda():
    space = TruncSpace("Z", -2, 6, 3)
    with pytest.raises(ValueError):
        check_cesaro_bound(space, parse("c(1)a(1)", "Z"), 4)  # support word
    with pytest.raises(ValueError):
        check_cesaro_bound(space, parse("c(0) + c(1)", "Z"), 4)  # not a word


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
