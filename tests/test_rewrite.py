"""Rewriting to canonical normal forms, checked against a naive action oracle."""

import cmath
import hashlib
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import random_element_n, random_element_z, random_scalar, random_word_z
from wmfock import fock, rewrite, scalars
from wmfock.errors import FuelError, SizeLimitError
from wmfock.expr import Element, parse
from wmfock.rewrite import (WordClass, classify_word, default_fuel, equal_n,
                            equal_z, normalize_n, normalize_z)


def nf(text):
    return normalize_z(parse(text, "Z"))


def test_orthogonal_ranges_vanish():
    out = nf("a(2)c(3)")
    assert out.is_zero()
    assert out.unit == 0 and not out.lam and not out.pairs


def test_support_becomes_pair_difference():
    out = nf("c(1)a(1)")
    assert out.unit == 0 and not out.lam
    assert out.pairs == {1: 1, 0: -1}


def test_pair_absorbs_creator():
    assert nf("a(2)c(2)c(0)").to_element() == parse("c(0)", "Z")
    assert nf("a(0)c(0)c(2)").is_zero()


def test_pair_against_annihilator_expands():
    lhs = parse("a(0)c(0)a(2)", "Z")
    rhs = parse("a(2) - c(1)a(1)a(2) - c(2)a(2)a(2)", "Z")
    assert equal_z(lhs, rhs)
    # and the expansion is itself in normal form
    got = normalize_z(lhs)
    assert got.to_element() == normalize_z(rhs).to_element()


def test_classify_frozen_shapes():
    lam = ((3, True), (1, True), (0, False), (2, False))
    assert classify_word(lam).kind == "lambda"
    pair = classify_word(((5, False), (5, True)))
    assert (pair.kind, pair.index) == ("pair", 5)
    supp = classify_word(((5, True), (5, False)))
    assert (supp.kind, supp.index) == ("support", 5)
    assert classify_word(((1, False), (2, True))).kind == "not-normal"
    # repeated indices are powers, so they stay inside the lambda family
    assert classify_word(((1, True), (1, True))).kind == "lambda"
    assert classify_word(((2, True), (1, True), (3, False))).kind == "lambda"
    assert classify_word(((1, True), (2, True))).kind == "not-normal"
    assert classify_word(()).kind == "unit"


def test_classify_n_support_needs_equal_indices():
    supp = classify_word(((2, False), (2, True)), "N")
    assert (supp.kind, supp.index) == ("support", 2)
    assert classify_word(((1, False), (2, True)), "N").kind == "not-normal"
    assert classify_word(((2, True), (1, False)), "N").kind == "path"


def test_equal_z_frozen():
    assert equal_z(parse("c(1)a(1)", "Z"), parse("c(1)a(1)", "Z"))
    assert equal_z(parse("q(1)", "Z"), parse("a(1)c(1)", "Z"))
    assert not equal_z(parse("c(1)a(1)", "Z"), parse("a(1)c(1)", "Z"))
    assert equal_z(parse("a(0)c(0)a(2)", "Z"),
                   parse("a(2) - c(1)a(1)a(2) - c(2)a(2)a(2)", "Z"))


def test_normalize_n_frozen():
    out = normalize_n(parse("a(1)c(1)", "N"))  # q(1) in the abstract reading
    assert out.unit == 0
    assert out.paths == {(((0,), (0,))): 1, (((1,), (1,))): 1}
    assert normalize_n(parse("c(0)c(1)", "N")).is_zero()
    got = normalize_n(parse("a(2)c(2)c(1)", "N"))
    assert got.paths == {(((1,), ())): 1}


def test_normalize_n_five_rule():
    # s_2 s_1* s_1 expands through the bottom of the index ladder
    lhs = parse("c(2)a(1)c(1)", "N")
    rhs = parse("c(2)c(0)a(0) + c(2)c(1)a(1)", "N")
    assert equal_n(lhs, rhs)


def test_equal_n_frozen():
    assert equal_n(parse("a(1)c(1)", "N"), parse("p(0) + p(1)", "N"))
    x = parse("c(2)a(1) + 3I", "N")
    assert equal_n(x, x)
    assert equal_n(parse("c(1)a(1)c(1)", "N"), parse("c(1)", "N"))


def test_equal_n_separates_support_from_unit():
    assert not equal_n(parse("a(1)c(1)", "N"), parse("I", "N"))
    assert not equal_n(parse("p(0)", "N"), parse("I", "N"))
    assert not equal_n(parse("a(0)c(0)", "N"), parse("I", "N"))


def test_equal_n_keeps_the_formal_gauge():
    # s_0 acts as z P_vac: unit-phase evaluation would call these equal
    assert not equal_n(parse("c(0)", "N"), parse("a(0)", "N"))
    assert not equal_n(parse("c(0)c(0)", "N"), parse("c(0)", "N"))
    assert equal_n(parse("c(0)a(0)", "N"), parse("a(0)c(0)", "N"))


def _random_bottom_element(rng: Random) -> Element:
    e = Element.zero("N")
    if rng.random() < 0.4:
        e = e + Element.one("N", random_scalar(rng))
    for _ in range(rng.randint(1, 3)):
        w = tuple((rng.randint(0, 3), rng.random() < 0.5) for _ in range(rng.randint(1, 3)))
        c = random_scalar(rng) if rng.random() < 0.5 else scalars.gaussian(
            random_scalar(rng), random_scalar(rng))
        if c:
            e = e + Element.word("N", w, c)
    return e


def _oracle_verdict(x: Element, y: Element):
    """equal_n's evaluation verdict from oracles.act_word, on its columns.

    Each side acts at unit phase and each surviving word is weighted by
    z^(#c(0) - #a(0)); degrees lie in [-L, L] for the longest word L, so the
    Laurent images agree iff they agree at 2L + 1 distinct roots of unity.
    """
    d = max([1] + list(x.indices() | y.indices())) + 1
    maxlen = max(x.max_word_len(), y.max_word_len(), 1)
    # equal_n's cap counts its own columns, those with at most L particles;
    # the oracle walks one particle deeper
    if len(oracles.naive_tuples("N", 1, d, maxlen)) > 200_000:
        return SizeLimitError
    cols = oracles.naive_tuples("N", 1, d, maxlen + 1)
    roots = [cmath.exp(2j * cmath.pi * k / (2 * maxlen + 1)) for k in range(2 * maxlen + 1)]

    def image(e, z, t):
        out = {}
        for w, c in [((), e.unit)] + list(e.terms.items()):
            img = oracles.act_word("N", w, t, 2 * maxlen + 1)
            if img is not None:
                deg = sum(1 if dag else -1 for i, dag in w if i == 0)
                out[img] = out.get(img, 0) + oracles.scalar_value(c) * z ** deg
        return out

    for z in roots:
        for t in cols:
            a, b = image(x, z, t), image(y, z, t)
            if any(abs(a.get(k, 0) - b.get(k, 0)) > 1e-9 for k in a.keys() | b.keys()):
                return False
    return True


def test_equal_n_matches_gauged_oracle():
    rng = Random(4242)
    p1 = Element.word("N", ((1, True), (1, False)))
    verdicts = []
    for k in range(200):
        x = _random_bottom_element(rng)
        if k % 4 == 0:
            y = normalize_n(x).to_element()
        elif k % 4 == 1:
            y = normalize_n(x).to_element() + p1
        elif k % 4 == 2:
            # turn every bottom creator into an annihilator and back
            y = Element("N", x.unit, {tuple((i, dag != (i == 0)) for i, dag in w): c
                                      for w, c in x.terms.items()})
        else:
            y = _random_bottom_element(rng)
        want = _oracle_verdict(x, y)
        if want is SizeLimitError:
            with pytest.raises(SizeLimitError):
                equal_n(x, y)
            continue
        assert equal_n(x, y) is want, (x, y)
        verdicts.append(want)
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


def _level_action(x: Element, level: int, z: complex, t: tuple, cap: int) -> dict:
    """x e_t in the level representation, letter by letter from its definition:
    s_i is 0 below the level, z times the vacuum projection at it, and
    oracles.act_word's s_(i - level) above it."""
    out: dict = {}
    for w, c in [((), x.unit)] + list(x.terms.items()):
        img, value = t, oracles.scalar_value(c)
        for i, dag in reversed(w):
            if i < level:
                img = None
            elif i == level:
                img = img if img == () else None
                value *= z if dag else z.conjugate()
            else:
                img = oracles.act_word("N", ((i - level, dag),), img, cap)
            if img is None:
                break
        if img is not None:
            out[img] = out.get(img, 0) + value
    return out


def _charge(w) -> int:
    return sum(1 if dag else -1 for _, dag in w)


def _charge_part(x: Element, q: int) -> Element:
    """The words of x of charge q = #creators - #annihilators, with the unit
    when q = 0."""
    return Element("N", x.unit if q == 0 else 0,
                   {w: c for w, c in x.terms.items() if _charge(w) == q})


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_normal_form_agrees_under_every_level_map(level, extra_width, extra_particles, seed):
    # x and normalize_n(x) are one element of the algebra, so they agree in
    # the level-n representations too: exactly, charge by charge, under
    # fock.level_image at unit phase, and at roots of unity against the
    # letter-by-letter oracle, where the charge-q part's entry (r, t) carries
    # z^(q - |r| + |t|)
    rng = Random(seed)
    x = Element("N", random_scalar(rng) if rng.random() < 0.4 else 0, {
        tuple((rng.randint(0, 3), rng.random() < 0.5) for _ in range(rng.randint(1, 4))):
        random_scalar(rng) for _ in range(rng.randint(1, 3))})
    y = normalize_n(x).to_element()
    charges = {0} | {_charge(w) for w in (*x.terms, *y.terms)}
    parts = {q: (fock.level_image(_charge_part(x, q), level, 1),
                 fock.level_image(_charge_part(y, q), level, 1)) for q in charges}
    margin = max(g.max_surplus() for pair in parts.values() for g in pair)
    space = fock.TruncSpace("N", 1, max(1, 3 - level) + extra_width,
                            margin + 1 + extra_particles)
    roots = [cmath.exp(2j * cmath.pi * k / 9) for k in (1, 2, 4)]
    for t in fock.interior_tuples(space, margin):
        images = {}
        for q, (gx, gy) in parts.items():
            images[q] = fock.column_action(space, gx, t)
            assert fock.agree(images[q], fock.column_action(space, gy, t)), (x, level, q, t)
        for z in roots:
            want = _level_action(x, level, z, t, space.trunc)
            got = {}
            for q, image in images.items():
                for r, v in image.items():
                    got[r] = got.get(r, 0) + complex(v) * z ** (q - len(r) + len(t))
            assert fock.agree(got, want, 1e-9)
            assert fock.agree(want, _level_action(y, level, z, t, space.trunc), 1e-9)


def test_equal_n_cap_is_checked_before_any_column(monkeypatch):
    def no_columns(*args):
        raise AssertionError("column_action called above the cap")

    monkeypatch.setattr(fock, "column_action", no_columns)
    # L = 11 on indices 1..11: C(22, 11) = 705,432 columns of at most L particles
    x = Element.word("N", ((1, True),) * 10 + ((10, True),))
    with pytest.raises(SizeLimitError) as err:
        equal_n(x, x)
    assert str(err.value) == "cross-check space exceeds the bound of 200,000 columns"


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_equal_n_checks_columns_of_l_particles(length):
    # of the columns with at most L particles, a(1)^L is nonzero on (1,)*L
    # alone: columns of at most L - 1 particles would call it 0
    assert equal_n(Element.word("N", ((1, False),) * length), Element.zero("N")) is False


def test_equal_n_decides_coefficients_past_float_range():
    # a differing column's discrepancy is a float; the verdict stays exact
    x = Element.word("N", ((1, True),), 10 ** 400)
    assert equal_n(x, Element.zero("N")) is False
    assert equal_n(x, x + Element.word("N", ((2, True), (2, False)), 10 ** 400)) is False
    assert equal_n(x, Element.word("N", ((1, True),), 10 ** 400)) is True


def test_default_fuel_formula():
    word = ((-1, True), (2, False), (0, True))
    assert default_fuel(word) == 4 ** 3 * 5 ** 3
    assert default_fuel(((0, False),)) == 4 * 2
    assert default_fuel(()) == 1


@given(st.lists(st.tuples(st.integers(min_value=-50, max_value=50), st.booleans()),
                max_size=8).map(tuple))
@settings(max_examples=200, deadline=None)
def test_default_fuel_is_at_least_the_cheap_bound(word):
    # the fold starts the default budget at 8**l and computes the exact one
    # only past it, which is sound because the exact one is never smaller
    assert default_fuel(word) >= 8 ** len(word)


def _fold_steps(monkeypatch, normalize, x):
    """Rewrite steps of normalize(x) at the default fuel, counted on the fold's budget.

    The fuel is passed explicitly, so each fold runs even where the memo
    already holds it.
    """
    count = [0]
    spend = rewrite._Budget.spend

    def counted(budget):
        count[0] += 1
        return spend(budget)

    with monkeypatch.context() as m:
        m.setattr(rewrite._Budget, "spend", counted)
        normalize(x, fuel=max(default_fuel(w) for w in x.terms))
    return count[0]


def test_explicit_fuel_boundary_is_the_step_count(monkeypatch):
    rng = Random(4242)
    for normalize, case, lo, hi in ((normalize_z, "Z", -3, 3), (normalize_n, "N", 0, 3)):
        for _ in range(60):
            word = tuple((rng.randint(lo, hi), rng.random() < 0.5)
                         for _ in range(rng.randint(1, 6)))
            x = Element.word(case, word)
            steps = _fold_steps(monkeypatch, normalize, x)
            assert normalize(x, fuel=steps) == normalize(x)
            with pytest.raises(FuelError):
                normalize(x, fuel=steps - 1)


def test_default_fuel_past_the_cheap_bound(monkeypatch):
    # a(0)c(0) then a(5000) telescopes into 5,001 words, which c(5000) then
    # meets one by one: 5,004 steps, above 8**4 but far below default_fuel
    x = parse("a(0)c(0)a(5000)c(5000)", "Z")
    word = next(iter(x.terms))
    steps = _fold_steps(monkeypatch, normalize_z, x)
    assert 8 ** 4 < steps == 5004 < default_fuel(word)
    assert normalize_z(x) == normalize_z(x, fuel=default_fuel(word))
    with pytest.raises(FuelError):
        normalize_z(x, fuel=8 ** 4)


def _fold_corpus(case, lo, hi):
    """A sha256 over 400 seeded elements' folds, and the labels they fire.

    Each line holds one element's unit, each coefficient dict as its item
    list (so values, types and key order) and its --show-steps log.  The
    second set holds the labels that fired with more than one output word.
    """
    rng = Random(1102)
    normalize = normalize_z if case == "Z" else normalize_n
    lines, fired, expanded = [], set(), set()
    for _ in range(400):
        x = Element.one(case, Fraction(rng.randint(-2, 2)))
        for _ in range(rng.randint(1, 3)):
            x = x + Element.word(case, random_word_z(rng, 4, lo, hi), random_scalar(rng))
        log = []
        nf = normalize(x, log=log)
        coords = (nf.lam, nf.pairs) if case == "Z" else (nf.paths,)
        lines.append(repr((nf.unit, [list(d.items()) for d in coords], log)))
        fired.update(step["rule"] for step in log)
        expanded.update(step["rule"] for step in log if len(step["out"]) > 1)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), fired, expanded


# any change to a normal form, its key order or a step log of the corpus moves these
FOLD_PINS = {"Z": "dab5174f098ee2daf64e3adf60c37b49866254e1ff3daa14f70aebcba35aaeb0",
             "N": "a21a5685ab9ff1fca917e3472bc66ae6c8fabb0713de3f5051342e7b9d926c83"}


@pytest.mark.parametrize("case, lo, hi, labels", [
    ("Z", -3, 3, {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"}),
    ("N", 0, 3, {"N1", "N2", "N2*", "N3", "N3*", "N4", "N5"}),
])
def test_fold_normal_forms_and_step_logs_are_pinned(case, lo, hi, labels):
    digest, fired, expanded = _fold_corpus(case, lo, hi)
    assert fired == labels
    # both resolutions where the cases differ run past their one-word branch
    assert {"R6", "R7", "N4", "N5"} & labels <= expanded
    assert digest == FOLD_PINS[case]


def _act_all(x, tuples, cap):
    return [oracles.act_element("Z", x.unit, x.terms, {t: 1}, cap)
            for t in tuples]


def test_soundness_against_naive_action():
    """normalize_z preserves the operator on a window comfortably past reach."""
    rng = Random(1331)
    cap = 7
    tuples = oracles.naive_tuples("Z", -5, 5, cap)
    probe = [t for t in tuples if len(t) <= 4 and all(-4 <= i <= 4 for i in t)]
    for _ in range(40):
        x = Element.word("Z", random_word_z(rng, max_len=5, lo=-3, hi=3))
        y = normalize_z(x).to_element()
        for t in probe[:: max(1, len(probe) // 60)]:
            a = oracles.act_element("Z", x.unit, x.terms, {t: 1}, cap)
            b = oracles.act_element("Z", y.unit, y.terms, {t: 1}, cap)
            assert a == b, (x.terms, t)


def test_soundness_n_case_against_naive_action():
    rng = Random(1332)
    cap = 6
    tuples = [t for t in oracles.naive_tuples("N", 1, 4, cap) if len(t) <= 3]
    for _ in range(40):
        x = random_element_n(rng, max_words=2, max_len=3, hi=3)
        y = normalize_n(x).to_element()
        for t in tuples:
            a = oracles.act_element("N", x.unit, x.terms, {t: 1}, cap)
            b = oracles.act_element("N", y.unit, y.terms, {t: 1}, cap)
            assert a == b, (x.terms, t)


def test_strip_data_matches_naive_action():
    """The symbolic strip simulation agrees with brute-force word action."""
    rng = Random(555)
    cap = 9
    tuples = oracles.naive_tuples("Z", -4, 4, 5)
    for _ in range(300):
        word = random_word_z(rng, max_len=5, lo=-3, hi=3)
        sigma, alive = oracles.strip_data("Z", word)
        if alive:
            assert oracles.act_word("Z", word, sigma, cap) is not None, word
        else:
            for t in tuples:
                assert oracles.act_word("Z", word, t, cap) is None, (word, t)


def test_strip_prefix_is_minimal_demand():
    # the strip of a live word is exactly what the annihilators consume,
    # listed in consumption order (column head first)
    sigma, alive = oracles.strip_data("Z", ((2, False), (3, False)))
    assert alive and sigma == (3, 2)
    sigma, alive = oracles.strip_data("Z", ((1, True), (0, False)))
    assert alive and sigma == (0,)
    sigma, alive = oracles.strip_data("Z", ((1, True),))
    assert alive and sigma == ()
    _, alive = oracles.strip_data("Z", ((2, False), (1, False)))
    assert not alive  # a_2 a_1 demands 1 then 2 above it: no monotone column
    _, alive = oracles.strip_data("Z", ((1, False), (2, True)))
    assert not alive  # rule: a_i c_j = 0 for i != j


zwords = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=3), st.booleans()),
    min_size=1, max_size=5).map(tuple)


@given(zwords)
@settings(max_examples=60, deadline=None)
def test_idempotence(word):
    once = normalize_z(Element.word("Z", word))
    again = normalize_z(once.to_element())
    assert once.to_element() == again.to_element()


@given(zwords)
@settings(max_examples=60, deadline=None)
def test_star_compatibility(word):
    x = Element.word("Z", word) * Fraction(1, 2)
    lhs = normalize_z(x.adjoint()).to_element()
    rhs = normalize_z(normalize_z(x).to_element().adjoint()).to_element()
    assert lhs == rhs


@given(zwords, st.integers(min_value=-2, max_value=2))
@settings(max_examples=60, deadline=None)
def test_shift_equivariance(word, m):
    x = Element.word("Z", word)
    lhs = normalize_z(x.shift(m)).to_element()
    rhs = normalize_z(x).to_element().shift(m)
    assert lhs == rhs


@given(zwords)
@settings(max_examples=40, deadline=None)
def test_normal_form_is_normal(word):
    out = normalize_z(Element.word("Z", word))
    for lam_word in out.lam:
        assert classify_word(lam_word).kind == "lambda"
    for i, c in out.pairs.items():
        assert isinstance(i, int) and not isinstance(c, float)


def test_normalize_is_linear():
    rng = Random(2024)
    for _ in range(25):
        x = random_element_z(rng)
        y = random_element_z(rng)
        lhs = normalize_z(x + y).to_element()
        rhs = normalize_z(x).to_element() + normalize_z(y).to_element()
        assert equal_z(lhs, rhs)


@pytest.mark.parametrize("coeff", [True, 0.5, complex(0.5, -0.0), 1e999, Fraction(4, 2),
                                   scalars.gaussian(1, -1), Fraction(1, 3)])
def test_word_coefficients_keep_the_tower_normal_form(coeff):
    # each output word carries mul(coeff, k): the fold may skip that multiply
    # only where it changes nothing, so a bool or float still comes out complex
    # and an infinite part still meets the 0j of (1+0j)
    word = ((1, True), (1, False))                       # c(1)a(1) -> pairs 1 and 0
    got = normalize_z(Element.word("Z", word, coeff))
    contrib = scalars.mul(coeff, 1)
    want = {1: scalars.add(0, contrib), 0: scalars.add(0, scalars.neg(contrib))}
    assert repr(got.pairs) == repr(want)
    got_n = normalize_n(Element.word("N", ((2, True),), coeff))
    assert repr(got_n.paths) == repr({((2,), ()): scalars.add(0, contrib)})


def test_agreement_flag_present():
    out = normalize_z(parse("c(1)a(1) + 2I", "Z"))
    assert out.agrees_with(out)
    assert out.unit == 2


# --- the fold memo ------------------------------------------------------------

def _coords(nf):
    """A normal form's unit and coefficient dicts, with value types and key order."""
    return repr([nf.unit] + [list(d.items()) for d in vars(nf).values() if isinstance(d, dict)])


memo_coeffs = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(scalars.gaussian, st.integers(min_value=-2, max_value=2),
              st.fractions(min_value=-2, max_value=2, max_denominator=3)),
    st.floats(min_value=-3, max_value=3),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
# letters and pair words a(i)c(i), whose supports expand into several words
memo_index = st.integers(min_value=0, max_value=3)
memo_words = st.lists(st.one_of(st.tuples(st.tuples(memo_index, st.booleans())),
                                memo_index.map(lambda i: ((i, False), (i, True)))),
                      min_size=1, max_size=4).map(lambda parts: sum(parts, ()))


@given(unit=memo_coeffs, terms=st.dictionaries(memo_words, memo_coeffs, max_size=4))
@settings(max_examples=200, deadline=None)
def test_memo_keeps_values_types_and_order(unit, terms):
    # the same words in both cases, whose folds differ where a support expands
    calls = [(normalize_z, Element("Z", unit, dict(terms))),
             (normalize_n, Element("N", unit, dict(terms)))]
    # an explicit fuel runs each fold past the memo
    want = [_coords(normalize(x, fuel=max(map(default_fuel, x.terms), default=1)))
            for normalize, x in calls]
    for normalize, x in calls:
        normalize(x)                     # stores each word's fold
    assert [_coords(normalize(x)) for normalize, x in calls] == want


def test_changing_a_normal_form_leaves_the_next_call_alone():
    z = parse("c(1)a(1) + 2 c(2)a(1) + a(0)c(0)a(2)", "Z")
    n = parse("a(2)c(2)c(1) + 3 c(1)a(1)", "N")
    want_z, want_n = normalize_z(z), normalize_n(n)
    assert want_z.lam and want_z.pairs and want_n.paths
    got_z, got_n = normalize_z(z), normalize_n(n)
    got_z.lam.clear()
    got_z.pairs[0] = 99
    got_n.paths.clear()
    assert normalize_z(z) == want_z and normalize_n(n) == want_n


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(rewrite, "_memo", {})
    monkeypatch.setattr(rewrite, "_memo_words", 0)

    def held():
        return sum(1 + len(folded) for folded in rewrite._memo.values())

    telescope = parse("a(0)c(0)a(5000)c(5000)", "Z")
    want = normalize_z(telescope)
    assert held() == rewrite._memo_words == 1 + 5001 <= rewrite._MEMO_WORDS
    # under a smaller bound the telescope is never stored, and a stream of
    # distinct words empties the memo whenever one would pass the bound
    monkeypatch.setattr(rewrite, "_MEMO_WORDS", 100)
    monkeypatch.setattr(rewrite, "_memo", {})
    monkeypatch.setattr(rewrite, "_memo_words", 0)
    rng = Random(77)
    for k in range(2000):
        if k % 500 == 0:
            assert normalize_z(telescope) == want
            assert held() == rewrite._memo_words <= 100
        case = "Z" if k % 2 else "N"
        normalize = normalize_z if case == "Z" else normalize_n
        normalize(Element.word(case, random_word_z(rng, 5, 0, 6)))
        assert held() == rewrite._memo_words <= 100
