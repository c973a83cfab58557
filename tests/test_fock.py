"""Truncated Fock spaces: enumeration, generator matrices, norms, interior."""

import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import oracles
from conftest import random_element_z, random_word_z
from wmfock import scalars
from wmfock.expr import Element, parse
from wmfock.fock import (IdentityCheck, TruncSpace, WindowError, accumulate,
                         apply_element_to_vector, build_generator,
                         column_action, enumerate_basis, evaluate,
                         interior_columns, interior_tuples, operator_norm,
                         operator_norm_interval, vector_norm_sq,
                         verify_identity, word_image)


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
        interior = set(interior_columns(space, 3, 0))
        for col in interior:
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
    for col in interior_columns(space, 2, 0):
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
    assert sorted(interior_columns(space, 2, 0)) == [space.position(())]
    assert sorted(interior_columns(space, 0, 0)) == list(range(6))
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


def test_operator_norm_frozen():
    space = TruncSpace("Z", 0, 1, 3)
    ident = evaluate(space, Element.one("Z"))
    assert operator_norm(ident) == pytest.approx(1.0, abs=1e-9)

    nspace = TruncSpace("N", 1, 2, 2)
    a1 = build_generator(nspace, 1, True)
    assert operator_norm(a1) == pytest.approx(1.0, abs=1e-9)


def test_operator_norm_averaged_creators():
    space = TruncSpace("Z", 4, 9, 3)
    x = parse("1/4 c(5) + 1/4 c(6) + 1/4 c(7) + 1/4 c(8)", "Z")
    m = evaluate(space, x)
    got = operator_norm(m)
    assert got == pytest.approx(0.5, abs=1e-9)
    assert got == pytest.approx(oracles.svd_norm(
        oracles.dense(m)), abs=1e-8)


def test_operator_norm_interval_orders():
    space = TruncSpace("Z", -2, 2, 3)
    rng = Random(12)
    for _ in range(10):
        x = random_element_z(rng, max_words=2, max_len=2, lo=-2, hi=2)
        m = evaluate(space, x)
        lower, upper = operator_norm_interval(m)
        assert lower <= upper + 1e-9


def test_truncated_words_are_contractions():
    rng = Random(13)
    space = TruncSpace("Z", -2, 2, 3)
    for _ in range(20):
        word = random_word_z(rng, max_len=4, lo=-2, hi=2)
        m = evaluate(space, Element.word("Z", word))
        if m.entries:
            assert operator_norm(m) <= 1 + 1e-9


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


def test_bottom_generator_evaluation_n():
    # c(0)/a(0) act as the rank-one vacuum projection at unit phase
    space = TruncSpace("N", 1, 2, 2)
    m = evaluate(space, parse("q(0)", "N"))
    k = space.position(())
    assert m.entries == {(k, k): 1}
    assert evaluate(space, parse("p(0)", "N")).entries == {(k, k): 1}


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
    (scalars.LaurentZ({1: 1}), scalars.LaurentZ({1: 1}),
     scalars.LaurentZ({0: Fraction(1, 2), 1: 1})),
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
