"""Truncated Fock spaces: enumeration, generator matrices, norms, interior."""

import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import random_element_z, random_scalar, random_word_z
from wmfock import fock, scalars
from wmfock.errors import SizeLimitError
from wmfock.expr import Element, parse
from wmfock.fock import (DEFAULT_CAP, IdentityCheck, SparseMat, TruncSpace, WindowError,
                         accumulate, acting_tuples, agree,
                         apply_element_to_vector, build_generator,
                         column_action, enumerate_basis, evaluate,
                         interior_tuples, level_image, vector_norm_sq,
                         verify_identity, word_image)
from wmfock.spectral import RepSpec, rep_matrix


def test_basis_frozen_n_case():
    space = TruncSpace("N", 1, 2, 2)
    assert space.basis == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    assert space.dimension == 6
    assert space.level_dimension(1) == 2


def test_basis_vacuum_only():
    assert TruncSpace("Z", -5, 5, 0).basis == [()]


def test_basis_single_index_column():
    space = TruncSpace("Z", 0, 0, 3)
    assert space.basis == [(), (0,), (0, 0), (0, 0, 0)]


def test_basis_matches_naive_enumeration():
    for case, lo, hi, L in (("Z", -2, 2, 3), ("N", 1, 3, 3), ("ANTI", 1, 3, 3)):
        space = TruncSpace(case, lo, hi, L)
        assert space.basis == oracles.naive_tuples(case, lo, hi, L)


def test_dimension_formula():
    # stars and bars per level: C(w + k - 1, k) tuples of k from w indices
    space = TruncSpace("Z", -3, 3, 4)
    w = 7
    assert space.dimension == sum(math.comb(w + k - 1, k) for k in range(5))


def test_creator_frozen_action():
    space = TruncSpace("N", 1, 2, 2)
    m = build_generator(space, 1, True)
    pos = space.position
    assert m.entries == {
        (pos((1,)), pos(())): 1,
        (pos((1, 1)), pos((1,))): 1,
    }
    # annihilator is the transpose
    a = build_generator(space, 1, False)
    assert a.entries == {(c, r): v for (r, c), v in m.entries.items()}


def test_creator_anti_case():
    space = TruncSpace("ANTI", 1, 3, 2)
    m = build_generator(space, 1, True)
    for t in space.basis:
        src = space.position(t)
        images = [r for (r, c) in m.entries if c == src]
        if len(t) >= 2:
            assert not images  # top level truncates to zero
        else:
            assert images == [space.position((1,) + t)]


def test_generator_window_guard():
    space = TruncSpace("N", 1, 2, 2)
    with pytest.raises(WindowError):
        build_generator(space, 3, True)
    with pytest.raises(WindowError):
        build_generator(space, 0, True)  # bottom generator has no matrix here


def test_grading():
    space = TruncSpace("Z", -2, 2, 3)
    m = build_generator(space, 0, True)
    for (r, c) in m.entries:
        assert len(space.basis[r]) == len(space.basis[c]) + 1


def test_partial_isometry_on_interior():
    space = TruncSpace("Z", -2, 2, 3)
    for i in (-2, 0, 2):
        m = build_generator(space, i, True)
        prod = m @ m.adjoint() @ m
        for col in map(space.position, interior_tuples(space, 3)):
            got = {r: v for (r, c), v in prod.entries.items() if c == col}
            want = {r: v for (r, c), v in m.entries.items() if c == col}
            assert got == want


def test_range_orthogonality_full_matrix():
    space = TruncSpace("Z", -2, 2, 3)
    for i in range(-2, 3):
        for j in range(-2, 3):
            if i == j:
                continue
            ai = build_generator(space, i, False)
            cj = build_generator(space, j, True)
            assert not (ai @ cj).entries


def test_products_are_partial_permutations():
    rng = Random(31)
    space = TruncSpace("Z", -2, 2, 4)
    for _ in range(30):
        word = random_word_z(rng, max_len=4, lo=-2, hi=2)
        m = evaluate(space, Element.word("Z", word))
        assert all(v == 1 for v in m.entries.values())
        cols = [c for (_, c) in m.entries]
        assert len(cols) == len(set(cols))


def test_evaluate_unit_and_diagonal():
    space = TruncSpace("Z", -2, 2, 3)
    ident = evaluate(space, Element.one("Z"))
    assert ident.entries == {(k, k): 1 for k in range(space.dimension)}
    diag = evaluate(space, parse("q(0)", "Z"))  # a(0)c(0)
    expect = {}
    for t in space.basis:
        if len(t) < space.trunc and (t == () or t[0] <= 0):
            k = space.position(t)
            expect[(k, k)] = 1
    assert diag.entries == expect


def test_evaluate_support_relation_n():
    space = TruncSpace("N", 1, 2, 2)
    x = parse("q(1) - p(0) - p(1)", "N")
    m = evaluate(space, x)
    for col in map(space.position, interior_tuples(space, 2)):
        assert not [r for (r, c) in m.entries if c == col]


def test_evaluate_matches_naive_oracle():
    rng = Random(77)
    space = TruncSpace("Z", -3, 3, 4)
    for _ in range(20):
        x = random_element_z(rng, max_words=3, max_len=3, lo=-3, hi=3)
        m = evaluate(space, x)
        dense = oracles.dense(m)
        for t in space.basis:
            vec = oracles.act_element("Z", x.unit, x.terms, {t: 1}, space.trunc)
            col = np.zeros(space.dimension, dtype=complex)
            for img, v in vec.items():
                col[space.position(img)] = v
            assert np.array_equal(dense[:, space.position(t)], col)


def test_word_image_matches_naive_oracle():
    # every basis tuple, including tuples already at trunc particles
    rng = Random(78)
    for case, lo, hi, trunc, letters in [
        ("Z", -3, 3, 4, (-3, 3)),
        ("N", 1, 3, 3, (0, 3)),  # index 0 is the bottom generator
        ("ANTI", 1, 3, 3, (1, 3)),
    ]:
        space = TruncSpace(case, lo, hi, trunc)
        assert any(len(t) == trunc for t in space.basis)
        alive = 0
        for _ in range(60):
            word = tuple((rng.randint(*letters), rng.random() < 0.5)
                         for _ in range(rng.randint(1, 5)))
            for t in space.basis:
                img = word_image(space, word, t)
                assert img == oracles.act_word(case, word, t, trunc), (case, word, t)
                alive += img is not None
        assert alive > 0, case


def test_interior_frozen_examples():
    space = TruncSpace("N", 1, 2, 2)
    assert sorted(map(space.position, interior_tuples(space, 2))) == [space.position(())]
    assert sorted(map(space.position, interior_tuples(space, 0))) == list(range(6))
    assert sorted(interior_tuples(space, 1)) == [(), (1,), (2,)]


def test_interior_index_margin():
    space = TruncSpace("Z", -2, 2, 2)
    inner = list(interior_tuples(space, 1, 1))
    assert set(inner) == {(), (-1,), (0,), (1,)}


def test_interior_contract():
    # words of <= r letters with indices in the shrunk window act exactly
    space = TruncSpace("Z", -3, 3, 4)
    rng = Random(5)
    for _ in range(100):
        word = tuple((rng.randint(-2, 2), rng.random() < 0.5) for _ in range(2))
        for t in interior_tuples(space, 2, 1):
            big = oracles.act_word("Z", word, t, 50)
            assert word_image(space, word, t) == big


def test_truncated_words_are_contractions():
    rng = Random(13)
    space = TruncSpace("Z", -2, 2, 3)
    for _ in range(20):
        word = random_word_z(rng, max_len=4, lo=-2, hi=2)
        m = evaluate(space, Element.word("Z", word))
        if m.entries:
            assert oracles.svd_norm(oracles.dense(m)) <= 1 + 1e-9
    # averaging four creators with orthogonal ranges halves the norm
    x = parse("1/4 c(5) + 1/4 c(6) + 1/4 c(7) + 1/4 c(8)", "Z")
    m = evaluate(TruncSpace("Z", 4, 9, 3), x)
    assert oracles.svd_norm(oracles.dense(m)) == pytest.approx(0.5, abs=1e-9)


def test_verify_identity_frozen():
    nspace = TruncSpace("N", 1, 3, 3)
    chk = verify_identity(nspace, parse("q(1)", "N"), parse("p(0) + p(1)", "N"))
    assert chk.passed and chk.exact and chk.max_discrepancy == 0

    zspace = TruncSpace("Z", -2, 2, 3)
    chk = verify_identity(zspace, parse("a(1)c(2)", "Z"), Element.zero("Z"))
    assert chk.passed and chk.exact

    anti = TruncSpace("ANTI", 1, 4, 4)
    chk = verify_identity(anti, parse("a(1)c(1)", "ANTI"), Element.one("ANTI"))
    assert chk.passed and chk.exact and chk.max_discrepancy == 0
    assert chk.columns_checked > 0


def test_verify_identity_reports_failures():
    zspace = TruncSpace("Z", -2, 2, 3)
    chk = verify_identity(zspace, parse("p(0)", "Z"), Element.zero("Z"))
    assert not chk.passed
    assert chk.discrepancy_json != "exact-0"


def test_verify_identity_refuses_a_margin_above_the_particles(monkeypatch):
    # c(1)c(0) = 0 is false, but with one particle no column is interior to it
    def no_columns(*args):
        raise AssertionError("a column was checked above the particle count")

    monkeypatch.setattr(fock, "column_action", no_columns)
    space = TruncSpace("Z", -3, 3, 1)
    lhs, zero = parse("c(1)c(0)", "Z"), Element.zero("Z")
    with pytest.raises(ValueError, match="^margin 2 exceeds the particle count 1: "
                                         "no column is interior$"):
        verify_identity(space, lhs, zero)
    with pytest.raises(ValueError, match="^margin 3 exceeds"):
        verify_identity(space, zero, zero, margin=3)


def test_identity_check_json_tag():
    nspace = TruncSpace("N", 1, 3, 3)
    chk = verify_identity(nspace, parse("q(1)", "N"), parse("p(0) + p(1)", "N"))
    assert isinstance(chk, IdentityCheck)
    assert chk.discrepancy_json == "exact-0"


def _with_float_coefficient(x: Element) -> Element:
    w = min(x.terms)
    return Element(x.case, x.unit, {**x.terms, w: float(x.terms[w])})


def test_verify_identity_native_and_tower_arithmetic_agree():
    nspace = TruncSpace("N", 1, 3, 3)
    zspace = TruncSpace("Z", -2, 2, 3)
    for space, lhs, rhs in (
            (nspace, parse("1/2 q(1)", "N"), parse("1/2 p(0) + 1/2 p(1)", "N")),
            (zspace, parse("1/3 p(0)", "Z"), parse("1/2 p(0)", "Z")),
            (zspace, parse("1/3 q(1) + 2/7 p(-1)", "Z"), parse("1/2 q(1)", "Z"))):
        rational = verify_identity(space, lhs, rhs)
        tower = verify_identity(space, lhs, _with_float_coefficient(rhs))
        assert rational.exact and not tower.exact
        assert rational.passed == tower.passed
        assert rational.columns_checked == tower.columns_checked
        assert rational.max_discrepancy == tower.max_discrepancy


def test_verify_identity_failing_rational_discrepancy_pinned():
    zspace = TruncSpace("Z", -2, 2, 3)
    chk = verify_identity(zspace, parse("1/3 p(0)", "Z"), parse("1/2 p(0)", "Z"))
    assert not chk.passed and chk.exact
    assert chk.columns_checked == 56
    # |complex(1/3) - complex(1/2)|, one ulp above float(1/6)
    assert chk.max_discrepancy == 0.16666666666666669


def test_apply_element_and_column_action_agree():
    rng = Random(99)
    space = TruncSpace("Z", -3, 3, 4)
    for _ in range(30):
        x = random_element_z(rng)
        t = space.basis[rng.randrange(space.dimension)]
        via_vec = apply_element_to_vector(space, x, {t: 1})
        via_col = column_action(space, x, t)
        assert via_vec == via_col


def test_vector_norm_sq_exact():
    v = {(1,): Fraction(3, 5), (2,): Fraction(4, 5)}
    assert vector_norm_sq(v) == 1


def test_vector_norm_sq_inexact_is_a_real_float():
    v = {(1,): 0.5, (2,): 1j, (3,): Fraction(1, 2)}
    total = vector_norm_sq(v)
    assert type(total) is float and total == 1.5


def test_enumerate_basis_cap():
    with pytest.raises(ValueError):
        enumerate_basis("Z", -30, 30, 6, cap=1000)


def test_repr_of_an_unbounded_space():
    # the repr reads no dimension, so a space far past any cap prints
    space = TruncSpace("N", 1, 10 ** 5, 10 ** 5)
    assert repr(space) == f"TruncSpace(N, [1, 100000], trunc=100000, cap={DEFAULT_CAP})"


def test_bottom_generator_evaluation_n():
    # c(0)/a(0) act as the rank-one vacuum projection at unit phase
    space = TruncSpace("N", 1, 2, 2)
    m = evaluate(space, parse("q(0)", "N"))
    k = space.position(())
    assert m.entries == {(k, k): 1}
    assert evaluate(space, parse("p(0)", "N")).entries == {(k, k): 1}


def test_level_image_frozen():
    x = parse("2 I + c(2) a(1) + 3 c(1) c(1) a(1) + a(0) c(3) + c(3) c(2)", "N")
    z = scalars.gaussian(Fraction(3, 5), Fraction(4, 5))
    # a(0) c(3) holds a letter below level 1 and is dropped; the level's
    # letters become bottom letters and carry z^(#c(1) - #a(1)), an inverse
    # power being the conjugate
    got = level_image(x, 1, z)
    assert got.unit == 2
    assert list(got.terms.items()) == [
        (((1, True), (0, False)), scalars.gaussian(Fraction(3, 5), Fraction(-4, 5))),
        (((0, True), (0, True), (0, False)), scalars.gaussian(Fraction(9, 5), Fraction(12, 5))),
        (((2, True), (1, True)), 1)]
    # the phase multiplies natively: a float stays a float
    flipped = level_image(x, 1, -1.0).terms[((0, True), (0, True), (0, False))]
    assert type(flipped) is float and flipped == -3.0
    # at level 2 only c(3) c(2) survives, as c(1) c(0) with z^1
    assert level_image(x, 2, z) == Element("N", 2, {((1, True), (0, True)): z})
    assert level_image(x, 4, z) == Element.one("N", 2)
    for bad in ((parse("c(1)", "Z"), 0), (x, -1)):
        with pytest.raises(ValueError):
            level_image(*bad, z)


def test_level_image_at_level_zero_is_the_gauge():
    # level 0 keeps every word and multiplies its coefficient by
    # z^(#c(0) - #a(0)); a coefficient without a gauge factor is kept as it is.
    # z is not a root of unity, so each degree gives its own factor
    rng = Random(2424)
    z = scalars.gaussian(Fraction(3, 5), Fraction(4, 5))
    seen = set()
    for _ in range(300):
        x = Element("N", random_scalar(rng), {
            tuple((rng.randint(0, 3), rng.random() < 0.5) for _ in range(rng.randint(0, 4))):
            scalars.gaussian(random_scalar(rng), random_scalar(rng))
            for _ in range(rng.randint(1, 3))})
        got = level_image(x, 0, z)
        assert got.unit == x.unit and list(got.terms) == list(x.terms)
        for w, c in x.terms.items():
            deg = sum(1 if dag else -1 for i, dag in w if i == 0)
            seen.add(deg)
            if deg:
                power = 1
                for _ in range(abs(deg)):
                    power = scalars.mul(power, z if deg > 0 else scalars.conj(z))
                assert got.terms[w] == scalars.mul(c, power)
            else:
                assert got.terms[w] is c
    assert seen >= {-2, -1, 0, 1, 2}


# delta, then what accumulate stores into an empty vector and into {k: 1/2}
# (None: nothing stored), with the types that add(0, delta) and
# add(1/2, delta) give
ACCUMULATE_TABLE = [
    (Fraction(4, 2), 2, Fraction(5, 2)),
    (Fraction(0), None, Fraction(1, 2)),
    (0, None, Fraction(1, 2)),
    (True, 1 + 0j, 1.5 + 0j),
    (0.5, 0.5 + 0j, 1 + 0j),
    (1j, 1j, 0.5 + 1j),
    (scalars.gaussian(1, 1), scalars.gaussian(1, 1), scalars.gaussian(Fraction(3, 2), 1)),
    # a cancelled real part leaves a GaussianRational, not a demoted value
    (scalars.gaussian(Fraction(-1, 2), 1), scalars.gaussian(Fraction(-1, 2), 1),
     scalars.GaussianRational(Fraction(0), Fraction(1))),
]


@pytest.mark.parametrize("delta, into_empty, into_half", ACCUMULATE_TABLE)
def test_accumulate_stores_the_tower_normal_form(delta, into_empty, into_half):
    for start, want in (({}, into_empty), ({"k": Fraction(1, 2)}, into_half)):
        vec = dict(start)
        accumulate(vec, "k", delta)
        got = vec.get("k")
        assert type(got) is type(want) and repr(got) == repr(want), (start, delta)
        assert ("k" in vec) == (want is not None)


def test_accumulate_drops_a_cancelled_key():
    vec = {"k": -2, "j": 1}
    accumulate(vec, "k", Fraction(4, 2))
    assert vec == {"j": 1}


def test_agree_reads_a_missing_key_as_zero():
    assert agree({(1,): Fraction(1, 2)}, {(1,): Fraction(1, 2), (2,): 0})
    assert not agree({(1,): 1}, {})
    assert agree({(1,): 1.0}, {(1,): 1 + 1e-15})
    assert not agree({(1,): 1.0}, {(1,): 1 + 1e-15}, tol=0.0)


@pytest.mark.parametrize("case, lo, hi, trunc", [("Z", -2, 2, 4), ("N", 1, 1, 6),
                                                   ("ANTI", 1, 3, 3)])
def test_dimension_exceeds_matches_the_closed_form(case, lo, hi, trunc):
    space = TruncSpace(case, lo, hi, trunc)
    dim = sum(space.level_dimension(k) for k in range(trunc + 1))
    assert space.dimension == dim
    assert not space.dimension_exceeds(dim)
    assert space.dimension_exceeds(dim - 1)
    # the cap is measured the same way: a space of exactly the cap is listed
    assert len(TruncSpace(case, lo, hi, trunc, cap=dim).materialize()) == dim
    with pytest.raises(SizeLimitError, match="exceeds cap"):
        TruncSpace(case, lo, hi, trunc, cap=dim - 1).materialize()
    # a huge particle cap is refused after a few levels
    assert TruncSpace(case, lo, hi, 10 ** 12).dimension_exceeds(dim)


# --- the first-letter rule --------------------------------------------------------

def draw_window(draw):
    """A case, a window and a strategy for words of up to 3 letters: the
    window's indices and, in the N case, the bottom letter 0."""
    case = draw(st.sampled_from(["Z", "N", "ANTI"]))
    lo = draw(st.integers(-2, 1) if case == "Z" else st.integers(1, 2))
    hi = lo + draw(st.integers(0, 3))
    index = st.sampled_from([0] * (case == "N") + list(range(lo, hi + 1)))
    return case, lo, hi, st.lists(st.tuples(index, st.booleans()), max_size=3).map(tuple)


@st.composite
def letter_inputs(draw):
    """A space's case, window and particle cap, a word and a particle bound."""
    case, lo, hi, words = draw_window(draw)
    trunc = draw(st.integers(0, 3))
    word = draw(words)
    bound = draw(st.none() | st.integers(-1, 4))
    return case, lo, hi, trunc, word, bound


@given(letter_inputs())
@settings(max_examples=300, deadline=None, derandomize=True)
# the bottom letters, 0 particles, a negative bound, an empty word, and an
# ANTI creator and annihilator
@example(("N", 1, 3, 2, ((0, False),), None))
@example(("N", 2, 3, 2, ((2, False), (0, True)), 1))
@example(("Z", -1, 1, 0, ((0, True),), None))
@example(("Z", -1, 1, 2, ((1, False),), -1))
@example(("Z", -1, 1, 2, (), 1))
@example(("ANTI", 1, 3, 3, ((2, True),), 2))
@example(("ANTI", 1, 3, 3, ((1, True), (2, False)), None))
def test_acting_tuples_are_the_tuples_the_last_letter_acts_on(inputs):
    case, lo, hi, trunc, word, bound = inputs
    space = TruncSpace(case, lo, hi, trunc)
    want = [t for t in space.tuples(bound)
            if not word or oracles.act_letter(case, *word[-1], t, trunc) is not None]
    assert list(acting_tuples(space, word, bound)) == want


COEFFS = [1, -1, Fraction(1, 2), Fraction(-3, 4), 0.25, 1j,
          scalars.gaussian(Fraction(1, 2), Fraction(-1, 3))]


@st.composite
def evaluate_inputs(draw):
    """A space and an element of it: units, empty words and N bottom letters."""
    case, lo, hi, words = draw_window(draw)
    terms = draw(st.dictionaries(words, st.sampled_from(COEFFS), max_size=4))
    unit = draw(st.sampled_from([0, 0, 1, Fraction(2, 3), 0.5]))
    return TruncSpace(case, lo, hi, draw(st.integers(0, 4))), Element(case, unit, terms)


@given(evaluate_inputs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_evaluate_matches_a_full_column_walk(inputs):
    # entries, their insertion order and their types, as if every column
    # were walked
    space, x = inputs
    want = SparseMat(space.dimension, space.dimension,
                     {(space.position(img), c): v for c, t in enumerate(space.basis)
                      for img, v in column_action(space, x, t).items()})
    got = evaluate(space, x)
    assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
    assert [(k, type(v), repr(v)) for k, v in got.entries.items()] == \
        [(k, type(v), repr(v)) for k, v in want.entries.items()]


def test_evaluate_walks_only_the_columns_its_words_act_on(monkeypatch):
    walked = []

    def counting(space, x, t):
        walked.append(t)
        return column_action(space, x, t)

    monkeypatch.setattr(fock, "column_action", counting)
    space = TruncSpace("N", 1, 4, 3)
    assert evaluate(space, Element.zero("N")).is_zero() and walked == []
    # generator 1 below level 2 is the zero map
    assert rep_matrix(RepSpec(2, 1, space), 1).is_zero() and walked == []
    assert len(evaluate(space, Element.creator("N", 0)).entries) == 1
    assert walked == [()]
