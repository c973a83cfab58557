"""Rewriting to canonical normal form, Z and N cases.

The rewriter is a single left-to-right fold: the state is a linear
combination of already-normal words, and each incoming letter is resolved
against the tail of every state word by a local case analysis.  Each
resolution step either extends the word, kills it, or replaces it by a
small combination of shorter-or-equal normal words, so a word of length l
is processed in one pass.  The step budget (fuel) from the interface
contract is enforced but never approached.

Z case.  Normal words are the Gamma words (creator letters with
non-increasing indices followed by annihilator letters with non-decreasing
indices), with the standalone supports c(i)a(i) rewritten at the end into
pair words a(i)c(i) minus a(i-1)c(i-1).  The result is the Hamel
decomposition  unit*I + sum(lam) + sum over i of pairs[i]*a(i)c(i),
which is unique, so any sound terminating strategy lands on the same
answer.

N case.  Normal words are paths c(mu)a(nu-reversed) for non-increasing
multi-indices mu, nu; standalone supports a(i)c(i) expand by
a(i)c(i) = sum_{k=0..i} c(k)a(k).  Canonical keys here are NOT linearly
independent in the algebra, which is why equal_n cross-checks map
agreement against evaluation agreement and raises on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from . import scalars
from .errors import FuelError, InternalConsistencyError, SizeLimitError
from .expr import Case, Element, Token, Word, word_str
from .fock import TruncSpace, accumulate, column_action

MultiIndex = Tuple[int, ...]


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
        if len(w) == 2 and not w[0][1] and w[1][1] and w[0][0] == w[1][0]:
            return WordClass("support", w[0][0])
        if _gamma_split(w) is not None:
            return WordClass("path")
        return WordClass("not-normal")
    raise ValueError(f"classify_word supports Z and N, not {case.value}")


# --- the fold ----------------------------------------------------------------

class _Budget:
    __slots__ = ("left",)

    def __init__(self, amount: int):
        self.left = amount

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise FuelError("rewrite step budget exhausted")


def _tail_annihilator_run(w: Word) -> int:
    n = 0
    for i, d in reversed(w):
        if d:
            break
        n += 1
    return n


def _step_z(w: Word, tok: Token, log) -> Dict[Word, int]:
    """Resolve normal state word w against one incoming letter (Z case)."""
    j, dagger = tok
    if not w:
        return {(tok,): 1}

    if _is_pair(w):                      # state a(i)c(i)
        i = w[0][0]
        if dagger:
            # R4: a(i)c(i)c(j) = c(j) if i >= j else 0
            out = {((j, True),): 1} if i >= j else {}
            _log(log, "R4", w, tok, out)
            return out
        if i >= j:
            out = {((j, False),): 1}
        else:
            out = {((j, False),): 1}
            for k in range(i + 1, j + 1):
                out[((k, True), (k, False), (j, False))] = -1
        _log(log, "R6", w, tok, out)
        return out

    last_i, last_d = w[-1]
    if dagger:
        if last_d:
            # creator on creator: R2 kills increasing junctions
            if last_i < j:
                _log(log, "R2", w, tok, {})
                return {}
            return {w + (tok,): 1}
        # creator meets trailing annihilator
        if last_i != j:
            _log(log, "R1", w, tok, {})
            return {}
        run = _tail_annihilator_run(w)
        if run >= 2:
            # ...a(p)a(j)c(j) = ...a(p), p <= j by normality
            out = {w[:-1]: 1}
            _log(log, "R5", w, tok, out)
            return out
        if len(w) == 1:
            # lone a(j) followed by c(j): keep as the pair word
            return {((j, False), (j, True)): 1}
        # creator block ends at c(p): R7 telescope
        p = w[-2][0]
        if j >= p:
            out = {w[:-1]: 1}
        else:
            out = {w[:-1]: 1}
            for k in range(j + 1, p + 1):
                out[w[:-1] + ((k, True), (k, False))] = -1
        _log(log, "R7", w, tok, out)
        return out

    # incoming annihilator
    if last_d:
        return {w + (tok,): 1}          # junction creator->annihilator is free
    if last_i > j:
        _log(log, "R3", w, tok, {})
        return {}
    return {w + (tok,): 1}


def _step_n(w: Word, tok: Token, log) -> Dict[Word, int]:
    """Resolve normal state word w against one incoming letter (N case)."""
    j, dagger = tok
    if not w:
        return {(tok,): 1}

    if len(w) == 2 and not w[0][1] and w[1][1]:   # standalone support a(i)c(i)
        i = w[0][0]
        if dagger:
            # N3: a(i)c(i)c(j) = c(j) if j <= i else 0
            out = {((j, True),): 1} if j <= i else {}
            _log(log, "N3", w, tok, out)
            return out
        out = {((k, True), (k, False), (j, False)): 1 for k in range(0, min(i, j) + 1)}
        _log(log, "N4", w, tok, out)
        return out

    last_i, last_d = w[-1]
    if dagger:
        if last_d:
            # creator after creator: s_p s_j dies for p < j
            if last_i < j:
                _log(log, "N2", w, tok, {})
                return {}
            return {w + (tok,): 1}
        # incoming creator meets a trailing annihilator: junction s_p* s_j
        if last_i != j:
            _log(log, "N1", w, tok, {})
            return {}
        if _tail_annihilator_run(w) >= 2:
            # ...s_p* s_j* s_j absorbs to ...s_p* (p <= j by normality)
            out = {w[:-1]: 1}
            _log(log, "N3*", w, tok, out)
            return out
        if len(w) == 1:
            # lone s_j* s_j: keep as the support word
            return {((j, False), (j, True)): 1}
        # preceded by the creator s_p
        p = w[-2][0]
        if j >= p:
            out = {w[:-1]: 1}
        else:
            out = {w[:-1] + ((k, True), (k, False)): 1 for k in range(0, j + 1)}
        _log(log, "N5", w, tok, out)
        return out

    # incoming annihilator
    if last_d:
        return {w + (tok,): 1}          # junction creator -> annihilator is free
    if last_i > j:
        # adjoint of N2: s_p* s_j* = (s_j s_p)* dies for j < p
        _log(log, "N2*", w, tok, {})
        return {}
    return {w + (tok,): 1}


def _log(log, rule: str, w: Word, tok: Token, out: Dict[Word, int]) -> None:
    if log is not None:
        log.append({
            "rule": rule,
            "state": word_str(w),
            "letter": word_str((tok,)),
            "out": [(("-" if c < 0 else "") + (word_str(v) if v else "I")) for v, c in out.items()],
        })


def _reduce_word(word: Word, step, budget: _Budget, log) -> Dict[Word, int]:
    state: Dict[Word, int] = {(): 1}
    for tok in word:
        nxt: Dict[Word, int] = {}
        for w, c in state.items():
            budget.spend()
            for v, k in step(w, tok, log).items():
                acc = nxt.get(v, 0) + c * k
                if acc:
                    nxt[v] = acc
                elif v in nxt:
                    del nxt[v]
        state = nxt
        if not state:
            break
    return state


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

    def agrees_with(self, other: "NormalFormZ", tol: float = scalars.DEFAULT_TOL) -> bool:
        if not scalars.eq(self.unit, other.unit, tol):
            return False
        for d1, d2 in ((self.lam, other.lam), (self.pairs, other.pairs)):
            for k in set(d1) | set(d2):
                if not scalars.eq(d1.get(k, 0), d2.get(k, 0), tol):
                    return False
        return True


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

    def agrees_with(self, other: "NormalFormN", tol: float = scalars.DEFAULT_TOL) -> bool:
        if not scalars.eq(self.unit, other.unit, tol):
            return False
        for k in set(self.paths) | set(other.paths):
            if not scalars.eq(self.paths.get(k, 0), other.paths.get(k, 0), tol):
                return False
        return True


def normalize_z(x: Element, fuel: Optional[int] = None, log: Optional[list] = None) -> NormalFormZ:
    """Rewrite a Z-case element to its unique Hamel normal form."""
    if x.case is not Case.Z:
        raise ValueError("normalize_z expects a Z-case element")
    nf = NormalFormZ(unit=x.unit)
    for word, coeff in x.terms.items():
        budget = _Budget(fuel if fuel is not None else default_fuel(word))
        for w, k in _reduce_word(word, _step_z, budget, log).items():
            contrib = scalars.mul(coeff, k)
            if not w:
                nf.unit = scalars.add(nf.unit, contrib)
            elif _is_pair(w):
                accumulate(nf.pairs, w[0][0], contrib)
            elif _is_support(w):
                # R8: c(i)a(i) = a(i)c(i) - a(i-1)c(i-1)
                i = w[0][0]
                if log is not None:
                    log.append({
                        "rule": "R8",
                        "state": word_str(w),
                        "letter": "",
                        "out": [word_str(((i, False), (i, True))),
                                "-" + word_str(((i - 1, False), (i - 1, True)))],
                    })
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
        budget = _Budget(fuel if fuel is not None else default_fuel(word))
        for w, k in _reduce_word(word, _step_n, budget, log).items():
            contrib = scalars.mul(coeff, k)
            pending = [(w, contrib)]
            if len(w) == 2 and not w[0][1] and w[1][1]:
                # trailing standalone support: N4 expansion
                i = w[0][0]
                pending = [(((kk, True), (kk, False)), contrib) for kk in range(0, i + 1)]
                if log is not None:
                    log.append({
                        "rule": "N4",
                        "state": word_str(w),
                        "letter": "",
                        "out": [word_str(((kk, True), (kk, False))) for kk in range(0, i + 1)],
                    })
            for v, c in pending:
                if not v:
                    nf.unit = scalars.add(nf.unit, c)
                    continue
                split = _gamma_split(v)
                if split is None:
                    raise InternalConsistencyError(f"fold produced non-normal word {word_str(v)}")
                mu, annih = split
                nu = tuple(reversed(annih))
                accumulate(nf.paths, (mu, nu), c)
    if scalars.is_zero(nf.unit):
        nf.unit = 0
    return nf


def equal_z(x: Element, y: Element, tol: float = scalars.DEFAULT_TOL) -> bool:
    """Algebra equality in the Z case, decided on Hamel coordinates."""
    return normalize_z(x).agrees_with(normalize_z(y), tol)


# --- N-case evaluation cross-check --------------------------------------------

_EQUAL_N_CAP = 200_000


def _gauged(x: Element) -> Element:
    """x with each word's coefficient times its gauge factor z^(#c(0) - #a(0)).

    fock evaluates s_0 at unit phase; with these coefficients that gives the
    vacuum-level action, where s_0 acts as z P_vac.
    """
    terms = {}
    for w, c in x.terms.items():
        deg = sum(1 if dag else -1 for i, dag in w if i == 0)
        terms[w] = scalars.mul(c, scalars.LaurentZ({deg: 1})) if deg else c
    return Element(Case.N, x.unit, terms)


def equal_n(x: Element, y: Element, tol: float = scalars.DEFAULT_TOL) -> bool:
    """Algebra equality in the N case, decided by two routes at once.

    Route one compares canonical path maps; route two evaluates both sides
    under the vacuum-level representation with a formal gauge variable.
    With d one above the largest index and L the longest word (at least 1),
    its columns are every tuple of TruncSpace(N, 1, d, 2L + 1) with at most
    L + 1 particles, deep enough to separate words of length L; each side's
    gauge factors ride on its coefficients (see _gauged).  Their count, the
    closed form sum of comb(d + k - 1, k) for k = 0..L + 1, is checked
    before any work: above 200,000 columns SizeLimitError is raised.
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
    space = TruncSpace(Case.N, 1, d, 2 * maxlen + 1)
    columns = sum(space.level_dimension(k) for k in range(maxlen + 2))
    if columns > _EQUAL_N_CAP:
        raise SizeLimitError(f"cross-check space too large ({columns} columns)")

    maps_agree = normalize_n(x).agrees_with(normalize_n(y), tol)
    gx, gy = _gauged(x), _gauged(y)
    evals_agree = True
    for t in space.tuples(max_particles=maxlen + 1):
        ax = column_action(space, gx, t)
        ay = column_action(space, gy, t)
        if not all(scalars.eq(ax.get(k, 0), ay.get(k, 0), tol) for k in ax.keys() | ay.keys()):
            evals_agree = False
            break

    if maps_agree and not evals_agree:
        raise InternalConsistencyError(
            "canonical maps agree but evaluations differ: rewriting is unsound here")
    return evals_agree
