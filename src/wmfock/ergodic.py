"""Shift averages, the canonical family of shift-invariant states, and
vacuum-distance certificates.

The index shift tau moves every letter index up by one.  Cesaro averages of
shifted words contract at rate 1/sqrt(n); the averaged occupation projections
over negative indices stay at norm one, which is the non-convergence witness.
States omega_t evaluate the unit part plus t times the total occupation
weight of the normal form.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from . import scalars
from .errors import InternalConsistencyError, SizeLimitError
from .expr import Case, Element, Word, word_shift, word_surplus
from .fock import (
    BasisTuple,
    TruncSpace,
    accumulate,
    acting_tuples,
    apply_element_to_vector,
    vector_norm_sq,
    word_image,
)
from .rewrite import classify_word, normalize_z

# check_nonconvergence refuses, before any work starts, an average whose n
# words on every basis tuple would be more than this many word evaluations;
# it then evaluates only the words whose first letter acts
NONCONVERGENCE_MAX_EVALS = 2_000_000


def cesaro_average(x: Element, n: int) -> Element:
    """(1/n) * sum of the first n index shifts of x, exact coefficients.
    Only the tests call it, as the reference route for check_cesaro_bound."""
    if n <= 0:
        raise ValueError("average length must be positive")
    # one terms dict summed in shift order: the values and the key order of
    # n chained Element additions, without copying the sum at every step
    unit = 0
    terms: Dict[Word, scalars.Scalar] = {}
    for k in range(n):
        unit = scalars.add(unit, x.unit)
        for w, c in x.shift(k).terms.items():
            accumulate(terms, w, c)
    return Element(x.case, unit, terms).scale(Fraction(1, n))


@dataclass(frozen=True)
class CesaroCheck:
    """The outcome of check_cesaro_bound.

    ``norm_lower`` is the exact operator norm of the average on the interior
    columns (a lower bound for the untruncated norm), rounded to a float
    only by its final square root; ``columns`` counts those columns, and
    ``bound`` is 1/sqrt(n) + 1e-9.  ``passed`` compares the exact squared
    norm with 1/n when the word's coefficient is exact, and ``norm_lower``
    with ``bound`` when it is a float.
    """

    bound: float
    norm_lower: float
    columns: int
    passed: bool


def check_cesaro_bound(space: TruncSpace, word_element: Element, n: int) -> CesaroCheck:
    """Certify the 1/sqrt(n) contraction of a Cesaro average of one word.

    The average is evaluated on interior columns only, where truncation is
    invisible, so its operator norm there bounds the untruncated norm from
    below; the check asserts that even this lower bound respects the
    1/sqrt(n) estimate.

    The norm is exact, from the support of the columns alone.  Each shift
    tau^k(w) of the lambda word w has its own first letter, so for a word
    made only of creators the images of one column lead with distinct
    letters and every row holds at most one entry, while a word with an
    annihilator acts on a column only for the one k that matches the
    column's first index, so every column holds at most one entry.  Every
    entry is c/n for the word's coefficient c, so A*A (or AA*) is diagonal
    and ||avg||^2 = |c/n|^2 * max(most entries in one column, most entries
    in one row).

    Each shift goes through word_image only on the interior columns its
    first letter admits (fock.acting_tuples); the images are counted in ints
    per column and per row, and c/n is formed once.  Two shifts meeting at
    one image (an entry other than c/n), or columns of neither pattern,
    raise InternalConsistencyError.  A space above its dimension cap raises
    SizeLimitError before any evaluation, and a window too small for the
    shifts raises WindowError.  A word whose creator surplus exceeds the
    particle count has no interior column, and raises ValueError before any.
    """
    if len(word_element.terms) != 1 or not scalars.is_zero(word_element.unit):
        raise ValueError("the Cesaro bound applies to a single word")
    word, coeff = next(iter(word_element.terms.items()))
    if classify_word(word).kind != "lambda":
        raise ValueError("the Cesaro bound applies to lambda words only")
    space.check_cap()
    if n <= 0:
        raise ValueError("average length must be positive")
    # the lowest index of any shift is in shift 0, or in shift 1 once shift
    # 0's is the N case's unchecked bottom index; the highest is in shift n - 1
    for k in sorted({0, min(1, n - 1), n - 1}):
        space.check_indices(word_element.shift(k))
    # the average's coefficient, as cesaro_average would give it
    entry = scalars.mul(Fraction(1, n), scalars.add(0, coeff))
    m = space.trunc - word_surplus(word)  # interior columns hold at most m particles
    if m < 0:
        raise ValueError(f"creator surplus {space.trunc - m} exceeds the particle count "
                         f"{space.trunc}: no column is interior")
    hits = [(t, img) for w in (word_shift(word, k) for k in range(n))
            for t in acting_tuples(space, w, m) if (img := word_image(space, w, t)) is not None]
    # zip(*hits) is the columns and the rows of the entries, or empty
    most_in_col, most_in_row = [max(Counter(side).values()) for side in zip(*hits)] or [0, 0]
    if most_in_col > 1 and most_in_row > 1:  # the only way two shifts can meet
        met = [(t, h) for (t, _), h in Counter(hits).items() if h > 1]
        if met:  # report the first column in basis order
            t, h = min(met, key=lambda d: (len(d[0]), d[0]))
            raise InternalConsistencyError(
                f"Cesaro average entry {scalars.to_text(scalars.mul(h, entry))} at "
                f"column {t}, expected {scalars.to_text(entry)}")
        raise InternalConsistencyError(
            f"Cesaro average has {most_in_col} entries in one column and {most_in_row} "
            "in one row; its columns are neither row- nor column-disjoint")
    norm_sq = scalars.abs2(entry) * max(most_in_col, most_in_row)
    norm = math.sqrt(float(norm_sq))
    bound = 1.0 / math.sqrt(n) + 1e-9
    passed = norm_sq <= Fraction(1, n) if scalars.is_exact(entry) else norm <= bound
    columns = math.comb(space.width + m, m)
    return CesaroCheck(bound, norm, columns, passed)


@dataclass(frozen=True)
class NonconvergenceCheck:
    diagonal: bool
    witness_entry: object
    norm_sq: object
    strong_residual: object
    passed: bool


def check_nonconvergence(space: TruncSpace, n: int) -> NonconvergenceCheck:
    """Averaged occupation projections over indices 0..-(n-1) stay at norm 1.

    D = vacuum projection minus the average is diagonal on the truncated
    basis; its entry at the one-particle vector with index -n is exactly -1,
    and no entry exceeds 1 in modulus, so both norm bounds meet at 1.  The
    diagonal entry at index 0 is -1/n, the strong-convergence residual.

    The average's entries are read off int counts: each word a(-k)c(-k)
    goes through word_image on the tuples its creator admits
    (fock.acting_tuples), an image other than the tuple fails the diagonal
    check, and the hits are counted per tuple, so n D[t, t] is the int
    n [t = ()] - hits[t].  The norm and the three reported entries are
    divided by n once, at the end.
    SizeLimitError is raised before any work when n times the dimension of
    the space (every word on every tuple) exceeds NONCONVERGENCE_MAX_EVALS.
    """
    if space.case is not Case.Z:
        raise ValueError("non-convergence witness lives on the integer case")
    if n < 1:
        raise ValueError("average length must be positive")
    if space.lo > -n or space.hi < 0:
        raise ValueError(f"window must contain [{-n}, 0]")
    if space.trunc < 2:
        raise ValueError("particle cap must be at least 2 so the witness column is interior")
    if space.dimension_exceeds(NONCONVERGENCE_MAX_EVALS // n):
        raise SizeLimitError(f"non-convergence check: n = {n} words on every basis tuple need "
                             f"word evaluations above the bound of {NONCONVERGENCE_MAX_EVALS}")
    space.check_cap()
    diag_ok = True
    hits: Counter = Counter()
    for w in (((-k, False), (-k, True)) for k in range(n)):
        for t in acting_tuples(space, w):
            img = word_image(space, w, t)
            if img is not None:
                diag_ok = diag_ok and img == t
                hits[t] += 1
    # D is 1 - avg at the vacuum and -avg elsewhere
    vacuum = n - hits.pop((), 0)
    scaled = {(): vacuum, (-n,): -hits[(-n,)], (0,): -hits[(0,)]}  # n * D[t, t]
    most = max([abs(vacuum), *hits.values()])  # the largest |n * D[t, t]|
    if not diag_ok:
        scaled, most = {}, 0
    entry = {t: scalars.demote(Fraction(m, n)) for t, m in scaled.items()}
    max_sq = Fraction(most * most, n * n)
    witness = entry.get((-n,))
    vac_entry = entry.get(())
    zero_entry = entry.get((0,))
    witness_ok = witness == -1
    vac_ok = vac_entry is not None and scalars.is_zero(vac_entry)
    norm_ok = max_sq == 1
    passed = diag_ok and witness_ok and vac_ok and norm_ok
    strong = scalars.neg(zero_entry) if zero_entry is not None else None
    return NonconvergenceCheck(diag_ok, witness, max_sq, strong, passed)


def omega_t(x: Element, t) -> scalars.Scalar:
    """The state value gamma + t * (sum of occupation-pair coefficients)."""
    if x.case is not Case.Z:
        raise ValueError("omega_t is defined on the integer case")
    nf = normalize_z(x)
    beta = 0
    for coeff in nf.pairs.values():
        beta = scalars.add(beta, coeff)
    return scalars.add(nf.unit, scalars.mul(t, beta))


@dataclass(frozen=True)
class FixedPointResult:
    fixed: bool
    scalar: Optional[scalars.Scalar]
    witness: Optional[str]


def fixed_point_check(x: Element) -> FixedPointResult:
    """Shift-fixed elements are exactly the scalar multiples of the unit."""
    if x.case is not Case.Z:
        raise ValueError("the shift fixed-point check is defined on the integer case")
    nf = normalize_z(x)
    if not nf.lam and not nf.pairs:
        return FixedPointResult(True, nf.unit, None)
    moved = normalize_z(x.shift(1) - x)
    return FixedPointResult(False, None, str(moved.to_element()))


def vacuum_certificate(x: Element) -> float:
    """Lower witness for the distance from x to the vacuum projection.

    Measures the defect of x against the vacuum projection on the vacuum
    itself and on one extra one-particle vector just outside the index range
    of x (below it for the integer case, above it for the anti-monotone
    case); the larger of the two is a norm lower bound.
    """
    if x.case is Case.N:
        raise ValueError("certificate applies to the integer and anti-monotone cases")
    if not scalars.is_zero(x.unit):
        raise ValueError("certificate expects an element with no unit part")
    idx = x.indices()
    if x.case is Case.Z:
        s = (min(idx) - 1) if idx else -1
        lo, hi = s, max(idx) if idx else s
    else:
        s = (max(idx) + 1) if idx else 2
        lo, hi = min(idx) if idx else s, s
    space = TruncSpace(x.case, lo, hi, x.max_word_len() + 2)
    vac: Dict[BasisTuple, scalars.Scalar] = {(): 1}
    r1 = dict(vac)
    for t, coeff in apply_element_to_vector(space, x, vac).items():
        accumulate(r1, t, scalars.neg(coeff))
    probe: Dict[BasisTuple, scalars.Scalar] = {(s,): 1}
    r2 = apply_element_to_vector(space, x, probe)
    n1 = vector_norm_sq(r1)
    n2 = vector_norm_sq(r2)
    return math.sqrt(max(float(n1), float(n2)))
