"""Expression layer: generator words, linear combinations, parser, printer.

An Element is a finite linear combination of generator words plus a scalar
multiple of the unit I.  A generator token is (index, dagger): dagger=True
is the creator c(i) (abstract generator s_i), dagger=False the annihilator
a(i) (abstract s_i*).  Words multiply by concatenation and act as operator
products read left to right, i.e. the rightmost letter acts first.

Three index conventions share the same syntax:

    Z     indices range over all integers
    N     indices >= 0 (abstract Cuntz-like family; s_0 exists)
    ANTI  indices >= 1 (anti-monotone mirror)

Sugar understood by the parser: p(i) = c(i)a(i), q(i) = a(i)c(i),
x(i) = a(i) + c(i), and I for the unit.  A trailing tick ' is the adjoint.

Grammar.  Terms join with + and - (the first may carry a -).  A term is an
optional scalar and an optional *, then factors multiplied by juxtaposition
or *: a generator such as c(-2), I, a complex literal or a parenthesised
expression, each followed by any number of ticks.  Scalar literals are an
integer (3), a decimal with an optional exponent (0.5, .5, 2., 1e-3; float),
p/q with integers p and q (exact), and (re + im i) or (re - im i), whose
parts are any of those and whose re may be negated (exact parts give a
Gaussian rational, otherwise a float complex).  Digits are any Unicode
decimal digits, and whitespace may stand between tokens and inside a
literal.  Any malformed input raises ParseError, whose pos is the offset
of the offending token or character; a complex literal without its ')'
is named as unclosed at its 'i'.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, Tuple

from . import scalars
from .scalars import Scalar

Token = Tuple[int, bool]          # (index, dagger)
Word = Tuple[Token, ...]


class Case(str, Enum):
    Z = "Z"
    N = "N"
    ANTI = "ANTI"

    @classmethod
    def coerce(cls, value) -> "Case":
        if isinstance(value, Case):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise ValueError(f"unknown case tag: {value!r}") from None


def check_index(case: Case, i: int) -> None:
    if case is Case.N and i < 0:
        raise ValueError(f"N-case generator index must be >= 0, got {i}")
    if case is Case.ANTI and i < 1:
        raise ValueError(f"anti-monotone generator index must be >= 1, got {i}")


# --- word helpers ---------------------------------------------------------

def word_adjoint(w: Word) -> Word:
    return tuple((i, not d) for i, d in reversed(w))


def word_shift(w: Word, m: int) -> Word:
    return tuple((i + m, d) for i, d in w)


def word_str(w: Word) -> str:
    return "".join(f"{'c' if d else 'a'}({i})" for i, d in w)


def word_surplus(w: Word) -> int:
    """Max creator surplus over suffixes, reading right to left.

    Applying the word to a k-particle vector can reach at most k + surplus
    particles at any intermediate stage, so surplus is the exact truncation
    margin needed for this word.
    """
    depth = 0
    top = 0
    for i, d in reversed(w):
        depth += 1 if d else -1
        if depth > top:
            top = depth
    return top


def word_indices(w: Word) -> set:
    return {i for i, _ in w}


# --- elements -------------------------------------------------------------

@dataclass
class Element:
    """unit * I + sum of coeff * word, with scalar coefficients."""

    case: Case
    unit: Scalar = 0
    terms: Dict[Word, Scalar] = field(default_factory=dict)

    def __post_init__(self):
        self.case = Case.coerce(self.case)
        if scalars.is_zero(self.unit):
            self.unit = 0
        dead = [w for w, c in self.terms.items() if scalars.is_zero(c)]
        for w in dead:
            del self.terms[w]
        if self.case is not Case.Z:  # every integer is a Z-case index
            for w in self.terms:
                for i, _ in w:
                    check_index(self.case, i)

    # constructors

    @classmethod
    def zero(cls, case) -> "Element":
        return cls(case)

    @classmethod
    def one(cls, case, coeff: Scalar = 1) -> "Element":
        return cls(case, unit=coeff)

    @classmethod
    def word(cls, case, w: Word, coeff: Scalar = 1) -> "Element":
        return cls(case, terms={tuple(w): coeff})

    @classmethod
    def creator(cls, case, i: int) -> "Element":
        return cls.word(case, ((i, True),))

    @classmethod
    def annihilator(cls, case, i: int) -> "Element":
        return cls.word(case, ((i, False),))

    # queries

    def is_zero(self) -> bool:
        return scalars.is_zero(self.unit) and not self.terms

    def indices(self) -> set:
        out = set()
        for w in self.terms:
            out |= word_indices(w)
        return out

    def max_word_len(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def max_surplus(self) -> int:
        return max((word_surplus(w) for w in self.terms), default=0)

    def is_exact(self) -> bool:
        if not scalars.is_exact(self.unit) and self.unit != 0:
            return False
        return all(scalars.is_exact(c) for c in self.terms.values())

    # algebra

    def _require_same_case(self, other: "Element") -> None:
        if self.case is not other.case:
            raise ValueError(f"case mismatch: {self.case.value} vs {other.case.value}")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_case(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = scalars.add(terms.get(w, 0), c)
        return Element(self.case, scalars.add(self.unit, other.unit), terms)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element(self.case, scalars.neg(self.unit),
                       {w: scalars.neg(c) for w, c in self.terms.items()})

    def scale(self, s: Scalar) -> "Element":
        if scalars.is_zero(s):
            return Element.zero(self.case)
        return Element(self.case, scalars.mul(s, self.unit),
                       {w: scalars.mul(s, c) for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._require_same_case(other)
            unit = scalars.mul(self.unit, other.unit)
            terms: Dict[Word, Scalar] = {}

            def put(w: Word, c: Scalar) -> None:
                terms[w] = scalars.add(terms.get(w, 0), c)

            if not scalars.is_zero(self.unit):
                for w, c in other.terms.items():
                    put(w, scalars.mul(self.unit, c))
            if not scalars.is_zero(other.unit):
                for w, c in self.terms.items():
                    put(w, scalars.mul(c, other.unit))
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    put(w1 + w2, scalars.mul(c1, c2))
            return Element(self.case, unit, terms)
        if isinstance(other, (int, Fraction, float, complex, scalars.GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, float, complex, scalars.GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def adjoint(self) -> "Element":
        return Element(self.case, scalars.conj(self.unit),
                       {word_adjoint(w): scalars.conj(c) for w, c in self.terms.items()})

    def shift(self, m: int) -> "Element":
        """Shift every generator index by m.

        Unrestricted for the Z case; for N and ANTI the shifted indices must
        stay inside the legal range or ValueError is raised.
        """
        return Element(self.case, self.unit,
                       {word_shift(w, m): c for w, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if self.case is not other.case:
            return False
        if not scalars.eq(self.unit, other.unit):
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(scalars.eq(c, other.terms[w]) for w, c in self.terms.items())

    def __str__(self):
        return element_to_str(self)

    def __repr__(self):
        return f"Element({self.case.value}: {element_to_str(self)})"

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))


# --- printer ---------------------------------------------------------------

def _split_sign(s: Scalar):
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return (-1, -s) if s < 0 else (1, s)
    if isinstance(s, float):
        return (-1, -s) if s < 0 else (1, s)
    return 1, s


def element_to_str(x: Element) -> str:
    pieces = []
    if not scalars.is_zero(x.unit):
        sign, mag = _split_sign(x.unit)
        body = "I" if mag == 1 else f"{scalars.to_text(mag)}*I"
        pieces.append((sign, body))
    for w, c in x.sorted_terms():
        sign, mag = _split_sign(c)
        if mag == 1:
            body = word_str(w)
        else:
            body = f"{scalars.to_text(mag)}*{word_str(w)}"
        pieces.append((sign, body))
    if not pieces:
        return "0"
    out = []
    for k, (sign, body) in enumerate(pieces):
        if k == 0:
            out.append(("-" if sign < 0 else "") + body)
        else:
            out.append((" - " if sign < 0 else " + ") + body)
    return "".join(out)


# --- parser ----------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# deepest parenthesis nesting the parser accepts; each level costs four
# Python frames of the recursive descent
_MAX_NESTING = 100

# an unsigned number: an integer or decimal with an optional exponent, or p/q
# with an integer p; q may be any number so that a decimal q is refused by name
_REAL = r"(?: \d+ (?:\.\d*)? | \.\d+ ) (?:[eE][+-]?\d+)?"
_NUMBER = rf"(?: \d+ \s*/\s* {_REAL} | {_REAL} )"

# one token; whitespace is the one character no alternative matches, so a
# scan with finditer skips it
_TOKEN = re.compile(rf"""
      (?P<name> [^\W\d_]+ )                             # generator, I, or any other word
    | (?P<complex> \( \s* (?P<neg>-)? \s* (?P<re>{_NUMBER}) \s*
                   (?P<op>[+-]) \s* (?P<im>{_NUMBER}) \s* i (?![^\W\d_])
                   (?: \s* \) )? )                      # (re ± im i), unclosed refused by _lex
    | (?P<sym> [-+*/()'] )                              # symbol
    | (?P<num> {_NUMBER} )                              # number, p/q as one token
    | (?P<bad> \S )                                     # any other character
    """, re.VERBOSE)

# generator name -> its words, as daggers on its one index: p(i) = c(i)a(i)
_GENERATORS = {"a": ((False,),), "c": ((True,),), "p": ((True, False),),
               "q": ((False, True),), "x": ((False,), (True,))}


def _lex(text: str):
    """Tokens (kind, text, pos), closed by (None, None, len(text))."""
    toks = [(m.lastgroup, m[0], m.start()) for m in _TOKEN.finditer(text)]
    for kind, val, pos in toks:  # names are letters (str.isalpha), so '²' is stray
        if (kind == "name" or kind == "bad") and not val.isalpha():
            k = next(k for k, ch in enumerate(val) if not ch.isalpha())
            raise ParseError(f"unexpected character {val[k]!r}", pos + k)
        if kind == "complex" and not val.endswith(")"):
            raise ParseError("unclosed complex literal: expected ')' after its 'i'",
                             pos + len(val) - 1)
    return toks + [(None, None, len(text))]


def _int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError("integer literal too long", pos) from None


def _real(text: str, pos: int) -> Scalar:
    """int, reduced Fraction or finite float of an unsigned number token at pos."""
    p, slash, q = text.partition("/")
    if not slash:
        if p.isdigit():
            return _int(p, pos)
        value = float(p)
        if not math.isfinite(value):
            raise ParseError("number literal too large for a float", pos)
        return value
    qpos = pos + len(text) - len(q.lstrip())
    if not q.strip().isdigit():
        raise ParseError("rational denominator must be an integer", qpos)
    d = _int(q, qpos)
    if d == 0:
        raise ParseError("zero denominator", qpos)
    r = Fraction(_int(p, pos), d)
    return int(r) if r.denominator == 1 else r


def _scalar(kind: str, text: str, pos: int) -> Scalar:
    """Value of a number or complex token at pos; a complex one with both
    parts exact is a Gaussian rational, otherwise a float complex."""
    if kind == "num":
        return _real(text, pos)
    m = _TOKEN.match(text)  # the literal's own match gives its parts and offsets
    re_part = _real(m["re"], pos + m.start("re"))
    im_part = _real(m["im"], pos + m.start("im"))
    if m["neg"]:
        re_part = scalars.neg(re_part)
    if m["op"] == "-":
        im_part = scalars.neg(im_part)
    if scalars.is_exact(re_part) and scalars.is_exact(im_part):
        return scalars.gaussian(re_part, im_part)
    return complex(float(re_part), float(im_part))


class _Parser:
    def __init__(self, text: str, case: Case):
        self.case = case
        self.toks = _lex(text)
        self.pos = 0
        self.depth = 0

    def next(self):
        tok = self.toks[self.pos]
        if tok[0] is None:
            raise ParseError("unexpected end of input", tok[2])
        self.pos += 1
        return tok

    def expect(self, ch: str) -> None:
        _, val, pos = self.next()
        if val != ch:
            raise ParseError(f"expected {ch!r}, found {val!r}", pos)

    # only a symbol token's text is one of the symbol characters
    def at_sym(self, ch: str) -> bool:
        return self.toks[self.pos][1] == ch

    def at_factor(self) -> bool:
        kind, val, _ = self.toks[self.pos]
        return kind == "name" or kind == "complex" or val == "("

    # grammar

    def parse_expr(self) -> Element:
        negate = self.at_sym("-")
        if negate:
            self.next()
        acc = -self.parse_term() if negate else self.parse_term()
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next()[1]
            t = self.parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term(self) -> Element:
        kind, val, pos = self.toks[self.pos]
        have_scalar = kind == "num" or kind == "complex"
        if have_scalar:
            self.next()
            coeff = _scalar(kind, val, pos)
            if self.at_sym("*"):
                self.next()
        elif not self.at_factor():
            found = "end of input" if kind is None else repr(val)
            raise ParseError(f"expected a term, found {found}", pos)
        acc = None
        star = False  # a '*' between two factors requires the second
        while star or self.at_factor():
            f = self.parse_factor()
            acc = f if acc is None else acc * f
            star = self.at_sym("*")
            if star:
                self.next()
        if acc is None:
            return Element.one(self.case, coeff)
        return acc.scale(coeff) if have_scalar else acc

    def parse_factor(self) -> Element:
        atom = self.parse_atom()
        while self.at_sym("'"):
            self.next()
            atom = atom.adjoint()
        return atom

    def parse_int(self) -> int:
        negative = self.at_sym("-")
        if negative:
            self.next()
        kind, val, pos = self.next()
        if kind != "num" or not val.isdigit():
            raise ParseError("expected an integer index", pos)
        return -_int(val, pos) if negative else _int(val, pos)

    def parse_atom(self) -> Element:
        kind, val, pos = self.next()
        if kind == "complex":
            return Element.one(self.case, _scalar(kind, val, pos))
        if val == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return inner
        if kind != "name":
            raise ParseError(f"expected an atom, found {val!r}", pos)
        if val == "I":
            return Element.one(self.case)
        if val not in _GENERATORS:
            raise ParseError(f"unknown generator {val!r}", pos)
        self.expect("(")
        i = self.parse_int()
        self.expect(")")
        try:
            check_index(self.case, i)
        except ValueError as e:
            raise ParseError(str(e), pos) from None
        return Element(self.case, terms={tuple((i, d) for d in daggers): 1
                                         for daggers in _GENERATORS[val]})

    def run(self) -> Element:
        out = self.parse_expr()
        kind, val, pos = self.toks[self.pos]
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return out


def parse(text: str, case="Z") -> Element:
    """Parse an expression string into an Element for the given case."""
    return _Parser(text, Case.coerce(case)).run()
