"""Rewriting to canonical normal form, Z and N cases.

The rewriter is a single left-to-right fold: the state is a linear
combination of already-normal words, and each incoming letter is resolved
against the tail of every state word by a local case analysis.  Each
resolution step either extends the word, kills it, or replaces it by a
small combination of shorter-or-equal normal words, so a word of length l
is processed in one pass.

Fuel.  Each word of an element is folded on its own budget, and one step
is spent each time a letter meets one state word, so a word's step count is
the sum over its letters of the state size before that letter.  An explicit
fuel is the most steps a word may take: FuelError is raised on the step
after it.  The default budget is default_fuel(word) = 4**l * (hi - lo + 2)**l,
never less than 8**l; the fold starts from 8**l and computes the exact
default only when a word takes more steps than that.

Memo.  A fold at the default fuel without a log is memoized per case and
word: the memo keeps the fold's normal words and int multiplicities as an
immutable tuple in the fold's order, and each call still scales and sums
its own coefficients, so a hit gives the same values, types and key order
as a fresh fold.  The memo holds at most _MEMO_WORDS = 2**14 words,
counting each entry's word and the words of its fold; it is emptied when
a fold would pass that, and a fold bigger than the whole bound, or one that
ran out of fuel, is never stored.  An explicit fuel or a log bypasses the
memo and runs every step, so FuelError comes at the same step and a log
lists every step.

Z case.  Normal words are the Gamma words (creator letters with
non-increasing indices followed by annihilator letters with non-decreasing
indices), with the standalone supports c(i)a(i) rewritten at the end into
pair words a(i)c(i) minus a(i-1)c(i-1) (R8).  The result is the Hamel
decomposition  unit*I + sum(lam) + sum over i of pairs[i]*a(i)c(i),
which is unique, so any sound terminating strategy lands on the same
answer.

N case.  Normal words are paths c(mu)a(nu-reversed) for non-increasing
multi-indices mu, nu; a standalone support a(i)c(i) left at the end is
expanded (the N4 final pass).  Canonical keys here are NOT linearly
independent in the algebra, which is why equal_n cross-checks map
agreement against evaluation agreement and raises on any mismatch.

Rules.  One step function serves both cases, with a per-case table of
labels and of the one expansion where the cases differ:

    Z    N     resolution
    R1   N1    a(i)c(j) = 0 for i != j
    R2   N2    c(i)c(j) = 0 for i < j
    R3   N2*   a(i)a(j) = 0 for i > j
    R4   N3    a(i)c(i)c(j) = c(j) for j <= i, else 0
    R5   N3*   ...a(p)a(j)c(j) = ...a(p)  (p <= j)
    R6   N4    a(i)c(i)a(j)        the support expansion
    R7   N5    ...c(p)a(j)c(j)     ...c(p) for j >= p, else the expansion

Both expansions come from one relation: the support projection a(i)c(i)
is the sum of the range projections c(k)a(k) for k <= i, and c(k)a(k)
dies next to a(j) or c(p) for k above j or p.  N reads the sum up from
its bottom index 0; Z has no bottom, so it reads the sum as the telescoped
complement I - sum over k > i of c(k)a(k).

Provenance.  With q(i) = a(i)c(i) and p(i) = c(i)a(i), the Exel-Laca
conditions, numbered as in exel_laca, are (1) the q(i) commute, (2)
p(i)p(j) = 0 for i != j, (3) q(i)p(j) = [i >= j] p(j), and (4) the
product over x in X of q(x) times the product over y in Y of I - q(y) is
the sum of p(k) over max Y < k <= min X (from k = 0 in N when Y is
empty), when that set is finite; an empty set gives 0.  Every rule
follows from them and from the law c(i)a(i)c(i) = c(i), which the
Exel-Laca definition puts on its partial-isometry generators: it gives
c(i) = p(i)c(i) = c(i)q(i) and a(i) = a(i)p(i) = q(i)a(i).  A star
marks the adjoint of a condition.  Each rule, with one finite instance:

    R1 N1    (2): a(1)c(2) = a(1)p(1)p(2)c(2) = 0.
    R2 N2    (3): c(1)c(2) = c(1)q(1)p(2)c(2) = 0, as q(1)p(2) = 0.
    R3 N2*   (3)*: a(2)a(1) = (c(1)c(2))* = 0.
    R4 N3    (3): a(2)c(2)c(1) = q(2)p(1)c(1) = c(1), and
             a(1)c(1)c(2) = q(1)p(2)c(2) = 0.
    R5 N3*   (3)*: a(1)a(2)c(2) = a(1)p(1)q(2) = a(1), as
             p(1)q(2) = (q(2)p(1))* = p(1).
    R6       (4) with X = {j}, Y = {i}, times a(j) on the right, and (1):
             q(3)(I - q(1)) = p(2) + p(3) gives
             a(1)c(1)a(3) = a(3) - c(2)a(2)a(3) - c(3)a(3)a(3), and
             q(1)(I - q(3)) = 0 gives a(3)c(3)a(1) = a(1).
    R7       (4) with X = {p}, Y = {j}, times c(p) on the left:
             q(3)(I - q(1)) = p(2) + p(3) gives
             c(3)a(1)c(1) = c(3) - c(3)c(2)a(2) - c(3)c(3)a(3), and
             q(1)(I - q(3)) = 0 gives c(1)a(3)c(3) = c(1).
    R8       the ladder q(2) = q(1) + p(2): c(2)a(2) = a(2)c(2) - a(1)c(1).
             The ladder is itself (4) twice, q(2)(I - q(1)) = p(2) and
             q(1)(I - q(2)) = 0, with (1).
       N4    (4) with X = {i, j}, Y empty, times a(j) on the right:
             q(2)q(1) = p(0) + p(1) gives
             a(2)c(2)a(1) = c(0)a(0)a(1) + c(1)a(1)a(1).  The final pass
             is (4) with X = {i}: a(1)c(1) = c(0)a(0) + c(1)a(1).
       N5    (4) times c(p) on the left, with X = {j}, Y empty for j < p:
             c(2)a(1)c(1) = c(2)c(0)a(0) + c(2)c(1)a(1); and with
             X = {p}, Y = {j} for j >= p: c(1)a(2)c(2) = c(1).

No rule needs a relation beyond these.  One that did would be a relation
of the Fock operators that the Exel-Laca algebra lacks: the quotient part
of the paper's claim, which the rules leave open.  For Z, the algebraic
side of that part is the independence of the normal words on the Fock
space, no nonzero combination of them vanishing there; acceptance
criterion 02 checks it on 60 seeded words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from . import scalars
from .errors import FuelError, InternalConsistencyError, SizeLimitError
from .expr import Case, Element, Token, Word, word_str
from .fock import TruncSpace, accumulate, agree, level_image, verify_identity

MultiIndex = Tuple[int, ...]

# Coefficient types that the fold uses as they are when a word's
# multiplicity is 1: scalars.mul(c, 1) equals c for them up to the demotion
# that the following add or accumulate applies anyway.  A float, complex
# or bool still goes through mul, whose complex normal form can change it
# (a bool becomes complex, an infinite part times 0j gives nan).
_EXACT = (int, Fraction, scalars.GaussianRational)


def default_fuel(word: Word) -> int:
    l = len(word)
    if l == 0:
        return 1
    lo = min(i for i, _ in word)
    hi = max(i for i, _ in word)
    return 4**l * (hi - lo + 2) ** l


# --- word shape predicates --------------------------------------------------

def _gamma_split(w: Word) -> Optional[Tuple[MultiIndex, MultiIndex]]:
    """Split into (creator indices, annihilator letter indices) if normal."""
    k = 0
    while k < len(w) and w[k][1]:
        k += 1
    creators = tuple(i for i, _ in w[:k])
    annih = tuple(i for i, d in w[k:] if not d)
    if len(annih) != len(w) - k:
        return None
    for a, b in zip(creators, creators[1:]):
        if a < b:
            return None
    for a, b in zip(annih, annih[1:]):
        if a > b:
            return None
    return creators, annih


def _is_pair(w: Word) -> bool:
    return (len(w) == 2 and not w[0][1] and w[1][1] and w[0][0] == w[1][0])


def _is_support(w: Word) -> bool:
    return (len(w) == 2 and w[0][1] and not w[1][1] and w[0][0] == w[1][0])


@dataclass(frozen=True)
class WordClass:
    kind: str                      # lambda | pair | support | path | unit | not-normal
    index: Optional[int] = None


def classify_word(w: Word, case=Case.Z) -> WordClass:
    """Classify a word against the normal-form families (Z reading default)."""
    case = Case.coerce(case)
    w = tuple(w)
    if not w:
        return WordClass("unit")
    if case is Case.Z:
        if _is_pair(w):
            return WordClass("pair", w[0][0])
        if _is_support(w):
            return WordClass("support", w[0][0])
        if _gamma_split(w) is not None:
            return WordClass("lambda")
        return WordClass("not-normal")
    if case is Case.N:
        if _is_pair(w):
            return WordClass("support", w[0][0])
        if _gamma_split(w) is not None:
            return WordClass("path")
        return WordClass("not-normal")
    raise ValueError(f"classify_word supports Z and N, not {case.value}")


# --- the fold ----------------------------------------------------------------

class _Budget:
    """The fuel of one word's fold; the fold calls spend() once per step.

    An explicit fuel is the limit as given.  The default starts from the
    cheap bound 8**l, which default_fuel(word) never undercuts, and the
    exact default is computed only if the fold spends past that bound.
    perfbench/tracing.py counts rewrite steps by wrapping spend().
    """

    __slots__ = ("left", "word")

    def __init__(self, word: Word, fuel: Optional[int]):
        self.word = word if fuel is None else None
        self.left = 8 ** len(word) if fuel is None else fuel

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0 and self.word is not None:
            self.left += default_fuel(self.word) - 8 ** len(self.word)
            self.word = None
        if self.left < 0:
            raise FuelError("rewrite step budget exhausted")


def _tail_annihilator_run(w: Word) -> int:
    n = 0
    for i, d in reversed(w):
        if d:
            break
        n += 1
    return n


def _expand_z(prefix: Word, i: int, top: int, suffix: Word) -> Dict[Word, int]:
    """prefix a(i)c(i) suffix, as prefix (I - sum over i < k <= top of c(k)a(k)) suffix."""
    out = {prefix + suffix: 1}
    for k in range(i + 1, top + 1):
        out[prefix + ((k, True), (k, False)) + suffix] = -1
    return out


def _expand_n(prefix: Word, i: int, top: int, suffix: Word) -> Dict[Word, int]:
    """prefix a(i)c(i) suffix, as prefix (sum over 0 <= k <= min(i, top) of c(k)a(k)) suffix."""
    return {prefix + ((k, True), (k, False)) + suffix: 1 for k in range(min(i, top) + 1)}


class _Rules(NamedTuple):
    """One case's name, rule labels (see the module docstring) and support expansion."""

    case: str
    mismatch: str
    creators: str
    annihilators: str
    pair_creator: str
    absorb: str
    pair_annihilator: str
    telescope: str
    expand: Callable[[Word, int, int, Word], Dict[Word, int]]


_Z_RULES = _Rules("Z", "R1", "R2", "R3", "R4", "R5", "R6", "R7", _expand_z)
_N_RULES = _Rules("N", "N1", "N2", "N2*", "N3", "N3*", "N4", "N5", _expand_n)


def _step(w: Word, tok: Token, log, rules: _Rules) -> Dict[Word, int]:
    """Resolve normal state word w against one incoming letter.

    The case enters only through rules: the labels logged and the support
    expansion of R6/N4 and R7/N5.
    """
    j, dagger = tok
    if not w:
        return {(tok,): 1}

    if _is_pair(w):                      # state a(i)c(i)
        i = w[0][0]
        if dagger:
            out, rule = ({(tok,): 1} if j <= i else {}), rules.pair_creator
        else:
            out, rule = rules.expand((), i, j, (tok,)), rules.pair_annihilator
        _log(log, rule, w, tok, out)
        return out

    last_i, last_d = w[-1]
    if dagger and not last_d:
        # creator meets trailing annihilator
        if last_i != j:
            out, rule = {}, rules.mismatch
        elif _tail_annihilator_run(w) >= 2:
            out, rule = {w[:-1]: 1}, rules.absorb
        elif len(w) == 1:
            return {w + (tok,): 1}       # lone a(j)c(j): keep as the pair word
        else:
            # the creator block ends at c(p)
            p = w[-2][0]
            out = {w[:-1]: 1} if j >= p else rules.expand(w[:-1], j, p, ())
            rule = rules.telescope
    elif dagger and last_i < j:                  # c(p)c(j), p < j
        out, rule = {}, rules.creators
    elif not dagger and not last_d and last_i > j:   # a(p)a(j), p > j
        out, rule = {}, rules.annihilators
    else:
        return {w + (tok,): 1}           # free junction
    _log(log, rule, w, tok, out)
    return out


def _log(log, rule: str, w: Word, tok: Optional[Token], out: Dict[Word, int]) -> None:
    """Record one resolution; a final-pass rule has no incoming letter."""
    if log is not None:
        log.append({
            "rule": rule,
            "state": word_str(w),
            "letter": word_str((tok,)) if tok else "",
            "out": [(("-" if c < 0 else "") + (word_str(v) if v else "I")) for v, c in out.items()],
        })


def _reduce_word(word: Word, rules: _Rules, fuel: Optional[int], log) -> Dict[Word, int]:
    budget = _Budget(word, fuel)
    state: Dict[Word, int] = {(): 1}
    for tok in word:
        nxt: Dict[Word, int] = {}
        for w, c in state.items():
            budget.spend()
            for v, k in _step(w, tok, log, rules).items():
                acc = nxt.get(v, 0) + c * k
                if acc:
                    nxt[v] = acc
                elif v in nxt:
                    del nxt[v]
        state = nxt
        if not state:
            break
    return state


# the fold memo (see Memo in the module docstring): (case, word) -> the
# fold's items, and the words held, each entry's word with its fold's words
_MEMO_WORDS = 1 << 14
_memo: Dict[Tuple[str, Word], Tuple[Tuple[Word, int], ...]] = {}
_memo_words = 0


def _fold(word: Word, rules: _Rules, fuel: Optional[int], log) -> Iterable[Tuple[Word, int]]:
    """word's fold as (normal word, multiplicity) pairs, in the fold's order.

    An unlogged fold at the default fuel is read from the memo, and stored
    there the first time it runs; an explicit fuel or a log runs the fold.
    """
    global _memo_words
    if fuel is not None or log is not None:
        return _reduce_word(word, rules, fuel, log).items()
    key = (rules.case, word)
    folded = _memo.get(key)
    if folded is None:
        folded = tuple(_reduce_word(word, rules, None, None).items())
        size = 1 + len(folded)
        if size <= _MEMO_WORDS:
            if _memo_words + size > _MEMO_WORDS:
                _memo.clear()
                _memo_words = 0
            _memo[key] = folded
            _memo_words += size
    return folded


# --- normal forms -------------------------------------------------------------

@dataclass
class NormalFormZ:
    """unit*I + sum(lam[w]*w) + sum(pairs[i]*a(i)c(i)); the Hamel coordinates."""

    unit: scalars.Scalar = 0
    lam: Dict[Word, scalars.Scalar] = field(default_factory=dict)
    pairs: Dict[int, scalars.Scalar] = field(default_factory=dict)

    def is_zero(self) -> bool:
        return scalars.is_zero(self.unit) and not self.lam and not self.pairs

    def to_element(self) -> Element:
        terms: Dict[Word, scalars.Scalar] = dict(self.lam)
        for i, c in self.pairs.items():
            terms[((i, False), (i, True))] = c
        return Element(Case.Z, self.unit, terms)

    def agrees_with(self, other: "NormalFormZ") -> bool:
        return (scalars.eq(self.unit, other.unit) and agree(self.lam, other.lam)
                and agree(self.pairs, other.pairs))


@dataclass
class NormalFormN:
    """unit*I + sum over (mu, nu) of paths[(mu, nu)] * s_mu s_nu^*."""

    unit: scalars.Scalar = 0
    paths: Dict[Tuple[MultiIndex, MultiIndex], scalars.Scalar] = field(default_factory=dict)

    def is_zero(self) -> bool:
        return scalars.is_zero(self.unit) and not self.paths

    def to_element(self) -> Element:
        terms: Dict[Word, scalars.Scalar] = {}
        for (mu, nu), c in self.paths.items():
            w = tuple((m, True) for m in mu) + tuple((x, False) for x in reversed(nu))
            terms[w] = c
        return Element(Case.N, self.unit, terms)

    def agrees_with(self, other: "NormalFormN") -> bool:
        return scalars.eq(self.unit, other.unit) and agree(self.paths, other.paths)


def normalize_z(x: Element, fuel: Optional[int] = None, log: Optional[list] = None) -> NormalFormZ:
    """Rewrite a Z-case element to its unique Hamel normal form."""
    if x.case is not Case.Z:
        raise ValueError("normalize_z expects a Z-case element")
    nf = NormalFormZ(unit=x.unit)
    for word, coeff in x.terms.items():
        for w, k in _fold(word, _Z_RULES, fuel, log):
            contrib = coeff if k == 1 and type(coeff) in _EXACT else scalars.mul(coeff, k)
            if not w:
                nf.unit = scalars.add(nf.unit, contrib)
            elif _is_pair(w):
                accumulate(nf.pairs, w[0][0], contrib)
            elif _is_support(w):
                # R8: c(i)a(i) = a(i)c(i) - a(i-1)c(i-1)
                i = w[0][0]
                _log(log, "R8", w, None, {((i, False), (i, True)): 1,
                                          ((i - 1, False), (i - 1, True)): -1})
                accumulate(nf.pairs, i, contrib)
                accumulate(nf.pairs, i - 1, scalars.neg(contrib))
            else:
                accumulate(nf.lam, w, contrib)
    if scalars.is_zero(nf.unit):
        nf.unit = 0
    return nf


def normalize_n(x: Element, fuel: Optional[int] = None, log: Optional[list] = None) -> NormalFormN:
    """Rewrite an N-case element to canonical path form s_mu s_nu^*."""
    if x.case is not Case.N:
        raise ValueError("normalize_n expects an N-case element")
    nf = NormalFormN(unit=x.unit)
    for word, coeff in x.terms.items():
        for w, k in _fold(word, _N_RULES, fuel, log):
            contrib = coeff if k == 1 and type(coeff) in _EXACT else scalars.mul(coeff, k)
            pending = {w: 1}
            if _is_pair(w):
                # trailing standalone support: N4 expansion
                pending = _expand_n((), w[0][0], w[0][0], ())
                _log(log, "N4", w, None, pending)
            for v in pending:
                if not v:
                    nf.unit = scalars.add(nf.unit, contrib)
                    continue
                split = _gamma_split(v)
                if split is None:
                    raise InternalConsistencyError(f"fold produced non-normal word {word_str(v)}")
                mu, annih = split
                accumulate(nf.paths, (mu, tuple(reversed(annih))), contrib)
    if scalars.is_zero(nf.unit):
        nf.unit = 0
    return nf


def equal_z(x: Element, y: Element) -> bool:
    """Algebra equality in the Z case, decided on Hamel coordinates; an
    inexact coefficient compares within scalars.DEFAULT_TOL (1e-12)."""
    return normalize_z(x).agrees_with(normalize_z(y))


# --- N-case evaluation cross-check --------------------------------------------

_EQUAL_N_CAP = 200_000


def _charge_parts(x: Element) -> Dict[int, Tuple[object, dict]]:
    """x split by charge, #creators - #annihilators: {charge: (unit, terms)},
    with the unit at charge 0."""
    parts = {0: (x.unit, {})}
    for w, c in x.terms.items():
        parts.setdefault(sum(1 if dag else -1 for _, dag in w), (0, {}))[1][w] = c
    return parts


def equal_n(x: Element, y: Element) -> bool:
    """Algebra equality in the N case, decided by two routes at once.

    Route one compares canonical path maps; route two evaluates both sides
    in the vacuum-level representation at every unimodular phase, by charge.
    The gauge action gamma_z(s_i) = z s_i (Exel and Laca, "Cuntz-Krieger
    algebras for infinite matrices", 1999; Raeburn, Graph Algebras, CBMS
    103, 2005) puts the entry (r, c) of a word of charge
    Q = #creators - #annihilators at gauge degree Q - (|r| - |c|).  So the
    sides agree at every phase exactly when their parts of each charge (the
    unit's is 0) agree as fock.level_image at level 0 with z = 1; a charge
    whose two parts hold the same unit and terms is skipped.
    With d one above the largest index and L the longest word (at least 1),
    each pair of parts goes through fock.verify_identity with margin L + 1
    on TruncSpace(N, 1, d, 2L + 1): its columns are the tuples with at most
    L particles, and no image reaches the truncation.  L particles are
    enough.  A word of at most L letters reads at most L entries of a
    tuple: as deep as it strips, plus the one head that a later creator
    compares (or whose absence a bottom letter tests).  It passes the rest
    of the tuple through unchanged, so (x - y)e_t = 0 for every t exactly
    when it holds at t[:L].  The column count, the dimension of
    TruncSpace(N, 1, d, L), is bounded before any work: above 200,000
    columns SizeLimitError is raised.
    Agreeing canonical maps with disagreeing evaluations would mean the
    rewriter itself is broken, so that combination raises
    InternalConsistencyError.  The converse is expected: canonical path
    keys are not linearly independent, so equal elements may carry
    different canonical maps; the evaluation verdict decides.
    """
    if x.case is not Case.N or y.case is not Case.N:
        raise ValueError("equal_n expects N-case elements")
    idx = x.indices() | y.indices()
    # one index above everything referenced, so a fresh head letter can
    # witness the gap between a support projection and the unit
    d = max([1] + [i for i in idx]) + 1
    maxlen = max(x.max_word_len(), y.max_word_len(), 1)
    if TruncSpace(Case.N, 1, d, maxlen).dimension_exceeds(_EQUAL_N_CAP):
        raise SizeLimitError(f"cross-check space exceeds the bound of {_EQUAL_N_CAP:,} columns")
    space = TruncSpace(Case.N, 1, d, 2 * maxlen + 1)

    maps_agree = normalize_n(x).agrees_with(normalize_n(y))
    px, py = _charge_parts(x), _charge_parts(y)

    def charge_agrees(q: int) -> bool:
        a, b = px.get(q, (0, {})), py.get(q, (0, {}))
        if a == b:
            return True
        ga, gb = (level_image(Element(Case.N, *part), 0, 1) for part in (a, b))
        return verify_identity(space, ga, gb, margin=maxlen + 1).passed

    evals_agree = all(charge_agrees(q) for q in px.keys() | py.keys())

    if maps_agree and not evals_agree:
        raise InternalConsistencyError(
            "canonical maps agree but evaluations differ: rewriting is unsound here")
    return evals_agree
