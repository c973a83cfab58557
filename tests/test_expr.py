"""Expression layer: grammar, sugar, adjoint, shift, algebra laws."""

import hashlib
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from conftest import random_element_z
from wmfock import scalars as sc
from wmfock.expr import Case, Element, ParseError, parse


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
    assert parse("٣ c(٣)", "Z") == parse("3 c(3)", "Z")
    assert parse("1.5e1 I", "Z").unit == 15 and parse("2. c(1)", "Z") == parse("2 c(1)", "Z")
    assert parse("4 / 2 I", "Z").unit == 2 and type(parse("4/2 I", "Z").unit) is int
    assert parse("( - 1/2 + 3/4 i ) I", "Z").unit == sc.gaussian(Fraction(-1, 2), Fraction(3, 4))
    assert parse("(0.5-1i) I", "Z").unit == complex(0.5, -1)
    assert parse("(1+0i) I", "Z").unit == 1
    # the complex literal as a factor, by juxtaposition or after '*', and ticked
    assert parse("c(1) (1+2i)", "Z").terms == {w((1, True),): sc.gaussian(1, 2)}
    assert parse("c(1)*(1+2i)'", "Z").terms == {w((1, True),): sc.gaussian(1, -2)}
    # a dangling '*' after a leading scalar is still read as the scalar alone
    assert parse("2* + c(1)", "Z") == parse("2 I + c(1)", "Z")


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


@pytest.mark.parametrize("text, pos", [("c(1) -", 6), ("-", 1)])
def test_a_missing_term_names_the_end_of_input(text, pos):
    with pytest.raises(ParseError) as err:
        parse(text, "Z")
    assert str(err.value) == f"expected a term, found end of input (at position {pos})"
    assert err.value.pos == pos


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
        assert parse(str(e), "Z") == e


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
    assert parse(str(x), "Z") == x


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


# --- seeded corpus: the accepted language and its Elements, pinned ----------

MUTANTS = ("²", "٣", "½", "é", "@")


def corpus_text(rng):
    """One expression drawn from the grammar, then mutated two times in five."""
    gap = lambda: rng.choice(("", "", " ", "  "))

    def real():
        if rng.random() < 0.05:  # legal only in some places, or nowhere
            return rng.choice(("-1", "2/0", "1/2.5", "1/-2", "0.5/2"))
        return rng.choice(("0", "1", "2", "12", "٣", "0.5", ".25", "2.", "1e2", "3E-1",
                           "1/2", "3 / 4", "4/2"))

    def complex_literal():
        return (f"({gap()}{rng.choice(('', '', '', '-', '-', '+'))}{gap()}{real()}{gap()}"
                f"{rng.choice('+-')}{gap()}{real()}{gap()}"
                f"{rng.choice(('i', 'i', 'i', 'i', 'i', 'j', 'ii'))}{gap()})")

    def atom(depth):
        r = rng.random()
        if r < 0.6:
            index = rng.choice(("1", "2", "3", " 3 ", "٣", "1", "2", "0", "-1", "1/2", "1.5"))
            return f"{rng.choice('acpqxI')}({index})"
        if r < 0.7:
            return "I"
        if r < 0.85 or depth >= 2:
            return complex_literal()
        return f"({expr(depth + 1)})"

    def term(depth):
        head = ""
        if rng.random() < 0.5:
            head = (real() if rng.random() < 0.6 else complex_literal()) + \
                rng.choice(("", " ", "*", " * "))
        out = head
        for k in range(rng.choice((0, 1, 1, 2, 3)) if head else rng.choice((1, 1, 2, 3))):
            if k:
                out += rng.choice(("", " ", "*", " * "))
            out += atom(depth) + "'" * rng.choice((0, 0, 0, 1, 2))
        return out

    def expr(depth):
        out = rng.choice(("", "", "-", "- ")) + term(depth)
        for _ in range(rng.choice((0, 1, 1, 2))):
            out += rng.choice((" + ", "-", "+", " - ")) + term(depth)
        return out

    text = expr(0)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        k = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.4:
            text = text[:k] + rng.choice(MUTANTS) + text[k:]
        elif op < 0.7:
            text = text[:k] + text[k + 1:]
        elif op < 0.85:
            text = text[:k]
        else:
            text = text[:k] + rng.choice(MUTANTS) + text[k + 1:]
    return text


def corpus(seed, count=2000):
    """(text, case) pairs of the seeded corpus."""
    rng = Random(seed)
    return [(corpus_text(rng), rng.choice(("Z", "Z", "N", "ANTI"))) for _ in range(count)]


def corpus_digest(seed):
    """Accepted count and sha256 of the corpus in order: per accepted string its
    unit, then each term's word with the repr and type of its coefficient; one
    mark per rejection."""
    h = hashlib.sha256()
    accepted = 0
    for text, case in corpus(seed):
        try:
            e = parse(text, case)
        except ValueError:
            h.update(b"rejected\n")
            continue
        accepted += 1
        h.update(f"{e.unit!r}:{type(e.unit).__name__}".encode())
        for word, c in e.terms.items():
            h.update(f"|{word}:{c!r}:{type(c).__name__}".encode())
        h.update(b"\n")
    return accepted, h.hexdigest()


@pytest.mark.parametrize("seed, accepted, digest", [
    (11, 399, "f02659bf4948a4907d77cad75233a321bedf947960ac451edd5b77ab8dcbbb90"),
    (12, 432, "df4e9c3ce4017ab67412659d0ca51769ba4b652fc4d599d50efad4d1ded60530"),
    (13, 462, "39346e6f19ee981a7ab1c00695bdb2c0b3960c9b3c558e398ceba801114625cd"),
])
def test_corpus_elements_pinned(seed, accepted, digest):
    assert corpus_digest(seed) == (accepted, digest)


@pytest.mark.parametrize("text, pos", [("c(²)", 2), ("²", 0), ("c(3²)", 3), ("c(½)", 2),
                                       ("1/0 c(1)", 2), ("(1/2.5+1i) I", 3),
                                       ("c(1/2)", 2),
                                       pytest.param("c(" + "9" * 5000 + ")", 2, id="c(9...9)")])
def test_malformed_literals_are_positioned(text, pos):
    with pytest.raises(ParseError) as err:
        parse(text, "Z")
    assert err.value.pos == pos


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_corpus_rejections_are_parse_errors(seed):
    for text, case in corpus(seed):
        try:
            parse(text, case)
        except ParseError as err:
            assert 0 <= err.pos <= len(text), text
        except ValueError as err:
            pytest.fail(f"{text!r}: bare {err!r}")


@pytest.mark.parametrize("text, pos", [("(1+2i", 4), ("(1/2-3i", 6), ("-(1 + 2 i c(1)", 8),
                                       ("(1+2i3)", 4)])
def test_unclosed_complex_literal_is_named(text, pos):
    with pytest.raises(ParseError, match=r"^unclosed complex literal: expected '\)'") as err:
        parse(text, "Z")
    assert err.value.pos == pos
    # a word after the 'i' is no literal's end: it stays an unknown generator
    with pytest.raises(ParseError, match="unknown generator 'ix'"):
        parse("(1+2ix)", "Z")
