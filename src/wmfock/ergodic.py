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
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

from . import scalars
from .errors import SizeLimitError
from .expr import Case, Element, Word
from .fock import (
    BasisTuple,
    TruncSpace,
    accumulate,
    apply_element_to_vector,
    columns_matrix,
    creator_tuple,
    evaluate,
    interior_tuples,
    operator_norm,
    vector_norm_sq,
)
from .rewrite import classify_word, normalize_z

# check_nonconvergence evaluates its n words on every basis tuple; it refuses
# more than this many word evaluations before any work starts
NONCONVERGENCE_MAX_EVALS = 2_000_000


def cesaro_average(x: Element, n: int) -> Element:
    """(1/n) * sum of the first n index shifts of x, exact coefficients."""
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
    n: int
    bound: float
    norm_lower: float
    columns: int
    passed: bool


def check_cesaro_bound(space: TruncSpace, word_element: Element, n: int,
                       tol: float = 1e-9) -> CesaroCheck:
    """Certify the 1/sqrt(n) contraction of a Cesaro average of one word.

    The average is evaluated on interior columns only, where truncation is
    invisible, so its operator norm there bounds the untruncated norm from
    below; the check asserts that even this certified lower bound respects
    the 1/sqrt(n) estimate.  The matrix rows span the whole space, so a
    space above its dimension cap raises SizeLimitError before averaging.
    """
    if len(word_element.terms) != 1 or not scalars.is_zero(word_element.unit):
        raise ValueError("the Cesaro bound applies to a single word")
    word = next(iter(word_element.terms))
    if classify_word(word).kind != "lambda":
        raise ValueError("the Cesaro bound applies to lambda words only")
    if space.dimension > space.cap:
        raise SizeLimitError(f"space dimension {space.dimension} exceeds cap {space.cap}")
    avg = cesaro_average(word_element, n)
    margin = avg.max_surplus()
    cols = list(interior_tuples(space, margin, 0))
    mat = columns_matrix(space, avg, cols)
    norm = operator_norm(mat) if not mat.is_zero() else 0.0
    bound = 1.0 / math.sqrt(n) + tol
    return CesaroCheck(n, bound, norm, len(cols), norm <= bound)


@dataclass(frozen=True)
class CreatorSumCheck:
    count: int
    total_sq: object
    parts_sq: object
    bound_sq: object
    orthogonal_exact: bool
    passed: bool


def check_creator_sum_estimate(space: TruncSpace,
                               vectors: Sequence[Dict[BasisTuple, scalars.Scalar]],
                               indices: Sequence[int]) -> CreatorSumCheck:
    """Exact Pythagoras identity for creator sums with distinct indices.

    ||sum_j creator(i_j) eta_j||^2 equals the sum of the individual norms
    squared, and is bounded by n * max_j ||eta_j||^2 when each creator is
    applied inside the window.  ``orthogonal_exact`` is true only when both
    squared norms are exact and equal; inexact ones are compared at 1e-12.
    """
    if len(vectors) != len(indices):
        raise ValueError("one index per vector required")
    if len(set(indices)) != len(indices):
        raise ValueError("indices must be distinct")
    levels = {len(t) for vec in vectors for t in vec}
    if len(levels) > 1:
        raise ValueError("vectors must live in a common particle level")
    total: Dict[BasisTuple, scalars.Scalar] = {}
    parts_sq = 0
    max_in_sq = 0
    for i, vec in zip(indices, vectors):
        img: Dict[BasisTuple, scalars.Scalar] = {}
        for t, coeff in vec.items():
            out = creator_tuple(space, i, t)
            if out is not None:
                accumulate(img, out, coeff)
        parts_sq = scalars.demote(parts_sq + vector_norm_sq(img))
        in_sq = vector_norm_sq(vec)
        if float(in_sq) > float(max_in_sq):
            max_in_sq = in_sq
        for t, coeff in img.items():
            accumulate(total, t, coeff)
    total_sq = vector_norm_sq(total)
    bound_sq = scalars.demote(len(indices) * max_in_sq)
    exact = scalars.is_exact(total_sq) and scalars.is_exact(parts_sq)
    if exact:
        orthogonal = total_sq == parts_sq
    else:
        orthogonal = abs(float(total_sq) - float(parts_sq)) <= 1e-12
    within = float(total_sq) <= float(bound_sq) + 1e-12
    return CreatorSumCheck(len(indices), total_sq, parts_sq, bound_sq,
                           exact and orthogonal, orthogonal and within)


@dataclass(frozen=True)
class NonconvergenceCheck:
    n: int
    diagonal: bool
    vacuum_entry_zero: bool
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
    The n words are evaluated on every basis tuple, so SizeLimitError is
    raised before any work when n times the dimension of the space exceeds
    NONCONVERGENCE_MAX_EVALS.
    """
    if space.case is not Case.Z:
        raise ValueError("non-convergence witness lives on the integer case")
    if n < 1:
        raise ValueError("average length must be positive")
    if space.lo > -n or space.hi < 0:
        raise ValueError(f"window must contain [{-n}, 0]")
    if space.trunc < 2:
        raise ValueError("particle cap must be at least 2 so the witness column is interior")
    evals = space.dimension * n
    if evals > NONCONVERGENCE_MAX_EVALS:
        raise SizeLimitError(f"non-convergence check needs {evals} word evaluations "
                             f"(n = {n} words on {space.dimension} basis tuples), "
                             f"above the bound of {NONCONVERGENCE_MAX_EVALS}")
    avg = Element(Case.Z, terms={((-k, False), (-k, True)): 1 for k in range(n)})
    avg = avg.scale(Fraction(1, n))
    mat = evaluate(space, avg)
    space.materialize()
    vac = space.position(())
    diag_ok = all(r == c for (r, c) in mat.entries)
    # entries of D: 1 - avg at the vacuum, -avg elsewhere; all exact rationals
    witness = None
    vac_entry = None
    zero_entry = None
    max_sq = Fraction(0)
    if diag_ok:
        for p, t in enumerate(space.basis):
            a = mat.entries.get((p, p), 0)
            d = scalars.add(1 if p == vac else 0, scalars.neg(a))
            sq = Fraction(scalars.abs2(d))
            if sq > max_sq:
                max_sq = sq
            if t == (-n,):
                witness = d
            if p == vac:
                vac_entry = d
            if t == (0,):
                zero_entry = d
    witness_ok = witness == -1
    vac_ok = vac_entry is not None and scalars.is_zero(vac_entry)
    norm_ok = max_sq == 1
    passed = diag_ok and witness_ok and vac_ok and norm_ok
    strong = scalars.neg(zero_entry) if zero_entry is not None else None
    return NonconvergenceCheck(n, diag_ok, vac_ok, witness, max_sq, strong, passed)


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
