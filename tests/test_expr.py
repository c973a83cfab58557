"""Expression layer: grammar, sugar, adjoint, shift, algebra laws."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from conftest import random_element_z
from wmfock import scalars as sc
from wmfock.expr import Case, Element, ParseError, parse, to_string


def w(*letters):
    return tuple(letters)


def test_parse_plain_word():
    e = parse("c(2) a(2)", "Z")
    assert e.unit == 0
    assert e.terms == {w((2, True), (2, False)): 1}


def test_parse_unit_literal():
    e = parse("I", "Z")
    assert e.unit == 1 and e.terms == {}


def test_parse_sugar_and_complex_scalar():
    e = parse("2*c(0)c(-1) + (0+1i)*p(3)", "Z")
    assert e.terms[w((0, True), (-1, True))] == 2
    # p(i) is the range projection: creator then annihilator
    assert e.terms[w((3, True), (3, False))] == sc.gaussian(0, 1)
    assert len(e.terms) == 2 and e.unit == 0


def test_sugar_table():
    assert parse("q(1)", "Z").terms == {w((1, False), (1, True)): 1}
    assert parse("p(1)", "Z").terms == {w((1, True), (1, False)): 1}
    x = parse("x(1)", "Z")
    assert x.terms == {w((1, False),): 1, w((1, True),): 1}


def test_parse_adjoint_tick():
    assert parse("c(2)'", "Z").terms == {w((2, False),): 1}
    assert parse("(c(1)c(2))'", "Z").terms == {w((2, False), (1, False)): 1}
    # double tick cancels
    assert parse("c(2)''", "Z").terms == {w((2, True),): 1}


def test_parse_scalar_forms():
    assert parse("1/2 c(0)", "Z").terms[w((0, True),)] == Fraction(1, 2)
    assert parse("-c(0)", "Z").terms[w((0, True),)] == -1
    assert parse("3I - I", "Z").unit == 2
    assert parse("(1-1i) I", "Z").unit == sc.gaussian(1, -1)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("c(", "Z")
    with pytest.raises(ParseError):
        parse("c(1) +", "Z")
    with pytest.raises(ParseError):
        parse("b(1)", "Z")
    try:
        parse("c(1) @ c(2)", "Z")
    except ParseError as err:
        assert "@" in str(err) or "5" in str(err)
    else:
        pytest.fail("expected a syntax error")


def test_parse_nesting_is_bounded():
    deep = "(" * 2000 + "c(1)" + ")" * 2000
    with pytest.raises(ParseError, match="nested deeper"):
        parse(deep, "Z")
    nested = "(" * 50 + "c(1)" + ")" * 50
    assert parse(nested, "Z") == parse("c(1)", "Z")
    assert parse(nested, "N") == parse("c(1)", "N")


def test_parse_index_domain():
    with pytest.raises(ParseError):
        parse("c(-1)", "N")
    parse("c(-1)", "Z")
    # the abstract bottom generator is a legal token in the N case
    assert parse("c(0)", "N").terms == {w((0, True),): 1}


def test_adjoint_frozen_example():
    e = Element.word("Z", w((2, False), (3, True))) * sc.gaussian(0, 1)
    a = e.adjoint()
    assert a.terms == {w((3, False), (2, True)): sc.gaussian(0, -1)}


def test_adjoint_unit_real():
    e = Element.one("Z") * 2
    assert e.adjoint().unit == 2


def test_multiply_unit_law_and_words():
    x = parse("c(1)a(2)", "Z")
    assert (Element.one("Z") * x).terms == x.terms
    u = Element.word("Z", w((1, True),))
    v = Element.word("Z", w((2, False),))
    assert (u * v).terms == {w((1, True), (2, False)): 1}


def test_shift_frozen_examples():
    e = Element.word("Z", w((3, False), (3, True)))
    assert e.shift(1).terms == {w((4, False), (4, True)): 1}
    x = parse("2I + c(0)a(-1)", "Z")
    assert x.shift(0) == x
    assert x.shift(2).shift(-2) == x
    assert x.shift(1).unit == x.unit


def test_shift_n_underflow():
    e = parse("c(1)", "N")
    assert e.shift(1).terms == {w((2, True),): 1}
    assert e.shift(-1).terms == {w((0, True),): 1}
    with pytest.raises(ValueError):
        e.shift(-2)


def test_case_mismatch_rejected():
    with pytest.raises(ValueError):
        parse("c(1)", "Z") * parse("c(1)", "N")
    with pytest.raises(ValueError):
        parse("c(1)", "Z") + parse("c(1)", "N")


def test_print_parse_round_trip_simple():
    for text in ("2*a(1)c(1) + I", "c(0)c(-1)", "(1/2)*a(2)"):
        e = parse(text, "Z")
        assert parse(to_string(e), "Z") == e


small = st.integers(min_value=-3, max_value=3)
words = st.lists(st.tuples(small, st.booleans()), min_size=1, max_size=4).map(tuple)
coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)


def element_from(pairs, unit):
    e = Element.one("Z") * unit if unit else Element.zero("Z")
    for word, c in pairs:
        e = e + Element.word("Z", word) * c
    return e


elements = st.builds(element_from,
                     st.lists(st.tuples(words, coeffs), max_size=3),
                     st.fractions(min_value=-4, max_value=4, max_denominator=3))


@given(elements)
def test_adjoint_involution(x):
    assert x.adjoint().adjoint() == x


@given(elements, elements)
def test_adjoint_antihomomorphism(x, y):
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()


@given(elements, elements, st.integers(min_value=-2, max_value=2))
def test_shift_homomorphism(x, y, m):
    assert (x * y).shift(m) == x.shift(m) * y.shift(m)
    assert (x + y).shift(m) == x.shift(m) + y.shift(m)


@given(elements, elements, elements)
def test_distributivity(x, y, z):
    assert (x + y) * z == x * z + y * z


@given(elements)
def test_print_parse_round_trip(x):
    assert parse(to_string(x), "Z") == x


@given(elements)
def test_no_zero_coefficients_stored(x):
    y = x + x * Fraction(-1)
    assert y.is_zero() and y.terms == {}
    assert all(not sc.is_zero(c) for c in x.terms.values())


def test_indices_and_lengths():
    rng = Random(9)
    for _ in range(50):
        x = random_element_z(rng)
        idx = set()
        for word in x.terms:
            idx.update(i for i, _ in word)
        assert x.indices() == idx
        assert x.max_word_len() == max((len(word) for word in x.terms), default=0)
