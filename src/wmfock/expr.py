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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterator, Tuple

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


def to_string(x: Element) -> str:
    return element_to_str(x)


# --- parser ----------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_SYMBOLS = set("+-*/()'")

# deepest parenthesis nesting the parser accepts; each level costs four
# Python frames of the recursive descent
_MAX_NESTING = 100


def _lex(text: str):
    """Yield (kind, value, pos); kinds: name, num, sym."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            yield ("name", text[i:j], i)
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            yield ("num", text[i:j], i)
            i = j
            continue
        if ch in _SYMBOLS:
            yield ("sym", ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)


class _Parser:
    def __init__(self, text: str, case: Case):
        self.case = case
        self.toks = list(_lex(text))
        self.pos = 0
        self.text = text
        self.depth = 0

    def peek(self, offset: int = 0):
        j = self.pos + offset
        return self.toks[j] if j < len(self.toks) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input", tok[2])
        self.pos += 1
        return tok

    def expect(self, kind: str, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok

    def at_sym(self, ch: str, offset: int = 0) -> bool:
        kind, val, _ = self.peek(offset)
        return kind == "sym" and val == ch

    # scalar pieces

    def parse_number(self) -> Scalar:
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError(f"expected a number, found {val!r}", pos)
        if "." in val or "e" in val or "E" in val:
            return float(val)
        n = int(val)
        if self.at_sym("/") and self.peek(1)[0] == "num":
            self.next()
            kind2, val2, pos2 = self.next()
            if "." in val2 or "e" in val2 or "E" in val2:
                raise ParseError("rational denominator must be an integer", pos2)
            d = int(val2)
            if d == 0:
                raise ParseError("zero denominator", pos2)
            q = Fraction(n, d)
            return int(q) if q.denominator == 1 else q
        return n

    def parse_signed_number(self) -> Scalar:
        if self.at_sym("-"):
            self.next()
            return scalars.neg(self.parse_number())
        if self.at_sym("+"):
            self.next()
        return self.parse_number()

    def looks_like_complex(self) -> bool:
        # '(' num ['/' num] ('+'|'-') num ['/' num] 'i' ')'
        if not self.at_sym("("):
            return False
        j = 1
        if self.peek(j)[0] == "sym" and self.peek(j)[1] == "-":
            j += 1
        if self.peek(j)[0] != "num":
            return False
        j += 1
        if self.peek(j)[0] == "sym" and self.peek(j)[1] == "/" and self.peek(j + 1)[0] == "num":
            j += 2
        if not (self.peek(j)[0] == "sym" and self.peek(j)[1] in "+-"):
            return False
        j += 1
        if self.peek(j)[0] != "num":
            return False
        j += 1
        if self.peek(j)[0] == "sym" and self.peek(j)[1] == "/" and self.peek(j + 1)[0] == "num":
            j += 2
        if not (self.peek(j)[0] == "name" and self.peek(j)[1] == "i"):
            return False
        j += 1
        return self.peek(j)[0] == "sym" and self.peek(j)[1] == ")"

    def parse_complex(self) -> Scalar:
        self.expect("sym", "(")
        re = self.parse_signed_number()
        kind, sign, pos = self.next()
        if kind != "sym" or sign not in "+-":
            raise ParseError("expected '+' or '-' in complex literal", pos)
        im = self.parse_number()
        if sign == "-":
            im = scalars.neg(im)
        self.expect("name", "i")
        self.expect("sym", ")")
        if scalars.is_exact(re) and scalars.is_exact(im):
            return scalars.gaussian(re, im)
        return complex(float(re), float(im))

    # grammar

    def parse_expr(self) -> Element:
        negate = False
        if self.at_sym("-"):
            self.next()
            negate = True
        acc = self.parse_term()
        if negate:
            acc = -acc
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next()[1]
            t = self.parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term(self) -> Element:
        coeff: Scalar = 1
        have_scalar = False
        if self.peek()[0] == "num":
            coeff = self.parse_number()
            have_scalar = True
        elif self.looks_like_complex():
            coeff = self.parse_complex()
            have_scalar = True
        if have_scalar and self.at_sym("*"):
            self.next()
        factors = []
        while True:
            kind, val, _ = self.peek()
            if kind == "name" or (kind == "sym" and val == "("):
                factors.append(self.parse_factor())
                if self.at_sym("*") and self.peek(1)[0] in ("name", "sym") \
                        and (self.peek(1)[0] == "name" or self.peek(1)[1] == "("):
                    self.next()
                continue
            break
        if not factors:
            if not have_scalar:
                kind, val, pos = self.peek()
                raise ParseError(f"expected a term, found {val!r}", pos)
            return Element.one(self.case, coeff)
        acc = factors[0]
        for f in factors[1:]:
            acc = acc * f
        return acc.scale(coeff) if have_scalar else acc

    def parse_factor(self) -> Element:
        atom = self.parse_atom()
        while self.at_sym("'"):
            self.next()
            atom = atom.adjoint()
        return atom

    def parse_int(self) -> int:
        neg_ = False
        if self.at_sym("-"):
            self.next()
            neg_ = True
        kind, val, pos = self.next()
        if kind != "num" or "." in val or "e" in val or "E" in val:
            raise ParseError("expected an integer index", pos)
        return -int(val) if neg_ else int(val)

    def parse_atom(self) -> Element:
        kind, val, pos = self.peek()
        if kind == "name":
            self.next()
            if val == "I":
                return Element.one(self.case)
            if val in ("a", "c", "p", "q", "x"):
                self.expect("sym", "(")
                i = self.parse_int()
                self.expect("sym", ")")
                try:
                    check_index(self.case, i)
                except ValueError as e:
                    raise ParseError(str(e), pos) from None
                if val == "a":
                    return Element.annihilator(self.case, i)
                if val == "c":
                    return Element.creator(self.case, i)
                if val == "p":
                    return Element.word(self.case, ((i, True), (i, False)))
                if val == "q":
                    return Element.word(self.case, ((i, False), (i, True)))
                return Element.annihilator(self.case, i) + Element.creator(self.case, i)
            raise ParseError(f"unknown generator {val!r}", pos)
        if kind == "sym" and val == "(":
            if self.looks_like_complex():
                return Element.one(self.case, self.parse_complex())
            self.next()
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect("sym", ")")
            return inner
        raise ParseError(f"expected an atom, found {val!r}", pos)

    def run(self) -> Element:
        out = self.parse_expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return out


def parse(text: str, case="Z") -> Element:
    """Parse an expression string into an Element for the given case."""
    return _Parser(text, Case.coerce(case)).run()
