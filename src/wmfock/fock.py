"""Truncated weakly monotone Fock spaces and exact evaluation.

This module is the package's one tuple evaluator: every word acting on a
basis tuple and every column of an element goes through word_image and
column_action below, and verify_identity is the one check of an identity
between elements on interior columns.  That includes rewrite.equal_n,
which compares charge parts through verify_identity, and
spectral.limit_residual, which applies its squares' words through
word_image.  accumulate is the one add-and-drop-zeros step and agree the
one entrywise comparison that tuple-keyed vectors and rewrite's normal
forms share.  Matrices stay sparse, with entries from the scalar layer;
the package's one dense float route is spectral.decompose.

Basis vectors are index tuples (i1, ..., ik) with k <= trunc; the empty
tuple is the vacuum.  Z and N cases use non-increasing tuples (i1 >= ... >=
ik, with indices >= 1 for N), the ANTI case non-decreasing tuples with
indices >= 1.  The creator c(i) prepends i when the result is admissible
and kills top-level vectors; the annihilator a(i) strips a leading i.  In
the N case, index-0 letters denote the abstract bottom generator: under
evaluation (at unit phase) both c(0) and a(0) act as the rank-one vacuum
projection.  A word that survives has met each bottom letter at the
vacuum, so its gauge factor z^(#c(0) - #a(0)) depends on the word alone;
level_image, the one level map, puts it into the coefficients.
A word acts letter by letter on each tuple it meets; no (word, tuple) memo
is kept, since recomputing a short word costs no more than hashing such a
key.

Basis order is by particle count, then ascending lexicographic order of
the tuple, and is part of the interface: matrix positions are stable.

Spaces are lazy: constructing one never materializes the basis, and the
cap is checked, with dimension_exceeds like every size guard, only when a
basis listing is needed, so identity checks can run column by column on
interior tuples of windows far beyond the cap.  Every column is built by
column_action, whatever the coefficients: a lone coefficient is stored as
it is, and coefficients meeting at one image are summed by the scalar layer.
evaluate walks only the columns some word's first acting letter admits
(acting_tuples, the one first-letter rule), or all of them given a unit.

Interior contract: a word whose creator surplus is at most r maps the
span of basis tuples with at most trunc - r particles exactly as the
untruncated operator does, provided its indices stay inside the window;
shrinking the window by an index margin s makes room for index-shifting
families.  verify_identity's default margin is the max creator surplus of
the words involved, the tight sound choice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from . import scalars
from .errors import SizeLimitError, WindowError
from .expr import Case, Element, Word

BasisTuple = Tuple[int, ...]

DEFAULT_CAP = 2_000_000


class TruncSpace:
    """A truncated Fock space over an index window with a particle cap."""

    def __init__(self, case, lo: int, hi: int, trunc: int, cap: int = DEFAULT_CAP):
        self.case = Case.coerce(case)
        if lo > hi:
            raise ValueError(f"empty index window [{lo}, {hi}]")
        if self.case in (Case.N, Case.ANTI) and lo < 1:
            raise ValueError(f"{self.case.value}-case window must start at index >= 1")
        if trunc < 0:
            raise ValueError("particle truncation must be >= 0")
        self.lo = lo
        self.hi = hi
        self.trunc = trunc
        self.cap = cap
        self._basis: Optional[List[BasisTuple]] = None
        self._index: Optional[Dict[BasisTuple, int]] = None

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def dimension(self) -> int:
        return math.comb(self.width + self.trunc, self.trunc)

    def level_dimension(self, k: int) -> int:
        return math.comb(self.width + k - 1, k)

    def dimension_exceeds(self, bound: int) -> bool:
        """Whether the dimension passes bound: with m, k the larger and smaller
        of width and trunc, C(m + j, j) for j = 0..k, each at least twice the
        last, is built until it passes bound or reaches the dimension C(m + k, k)."""
        m, k = max(self.width, self.trunc), min(self.width, self.trunc)
        count, j = 1, 0
        while count <= bound and j < k:
            j += 1
            count = count * (m + j) // j
        return count > bound

    def check_cap(self) -> None:
        """Raise SizeLimitError when the dimension passes the cap."""
        if self.dimension_exceeds(self.cap):
            raise SizeLimitError(f"space on [{self.lo}, {self.hi}] with {self.trunc} "
                                 f"particles exceeds cap {self.cap}")

    def tuples(self, max_particles: Optional[int] = None,
               lo: Optional[int] = None, hi: Optional[int] = None) -> Iterator[BasisTuple]:
        """Yield basis tuples level by level in basis order (lazily)."""
        lo = self.lo if lo is None else lo
        hi = self.hi if hi is None else hi
        limit = self.trunc if max_particles is None else min(max_particles, self.trunc)
        if limit < 0:
            return
        yield ()
        if lo > hi:
            return
        anti = self.case is Case.ANTI
        for k in range(1, limit + 1):
            yield from _level_tuples(anti, lo, hi, k)

    def materialize(self) -> List[BasisTuple]:
        if self._basis is None:
            self.check_cap()
            self._basis = list(self.tuples())
            self._index = {t: p for p, t in enumerate(self._basis)}
        return self._basis

    @property
    def basis(self) -> List[BasisTuple]:
        return self.materialize()

    def position(self, t: BasisTuple) -> int:
        self.materialize()
        return self._index[t]

    def contains_index(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    def check_indices(self, x: Element) -> None:
        if x.case is not self.case:
            raise ValueError(f"element case {x.case.value} does not match "
                             f"space case {self.case.value}")
        for i in x.indices():
            if i == 0 and self.case is Case.N:
                continue  # abstract bottom generator, acts at the vacuum only
            if not self.contains_index(i):
                raise WindowError(f"index {i} outside window [{self.lo}, {self.hi}]")

    def __repr__(self):
        return (f"TruncSpace({self.case.value}, [{self.lo}, {self.hi}], "
                f"trunc={self.trunc}, cap={self.cap})")


def _level_tuples(anti: bool, lo: int, hi: int, k: int) -> Iterator[BasisTuple]:
    """Ascending-lex k-tuples; non-increasing entries, or non-decreasing if anti.

    Both orders are produced lazily and without recursion, so any particle
    count can be enumerated: the non-decreasing tuples are exactly
    combinations_with_replacement's, and the non-increasing ones come from
    an odometer over the first k - 2 entries, each such head extended by
    every admissible pair of last entries.
    """
    if anti:
        return itertools.combinations_with_replacement(range(lo, hi + 1), k)
    if k == 1:
        return ((i,) for i in range(lo, hi + 1))
    return _non_increasing_tuples(lo, hi, k)


def _non_increasing_tuples(lo: int, hi: int, k: int) -> Iterator[BasisTuple]:
    head = [lo] * (k - 2)
    while True:
        base = tuple(head)
        yield from (base + (x, y) for x in range(lo, (head[-1] if head else hi) + 1)
                    for y in range(lo, x + 1))
        # the next head: raise its rightmost entry below that entry's bound
        # (the entry before it, or hi for the first) and reset the rest to lo
        j = k - 3
        while j >= 0 and head[j] == (head[j - 1] if j else hi):
            j -= 1
        if j < 0:
            return
        head[j] += 1
        head[j + 1:] = [lo] * (k - 3 - j)


def enumerate_basis(case, lo: int, hi: int, trunc: int, cap: int = DEFAULT_CAP) -> TruncSpace:
    """Build a space and materialize its basis (size-guarded)."""
    space = TruncSpace(case, lo, hi, trunc, cap)
    space.materialize()
    return space


# --- tuple-level generator actions ------------------------------------------

def creator_tuple(space: TruncSpace, i: int, t: BasisTuple) -> Optional[BasisTuple]:
    if len(t) >= space.trunc:
        return None
    if t:
        if space.case is Case.ANTI:
            if i > t[0]:
                return None
        elif i < t[0]:
            return None
    return (i,) + t


def annihilator_tuple(i: int, t: BasisTuple) -> Optional[BasisTuple]:
    if t and t[0] == i:
        return t[1:]
    return None


def word_image(space: TruncSpace, w: Word, t: BasisTuple) -> Optional[BasisTuple]:
    """Image tuple of the word acting on e_t, or None when it dies.

    Words are partial permutations of the basis: the image carries
    coefficient exactly 1 when it exists.
    """
    out = t
    for i, dag in reversed(w):
        if i == 0 and space.case is Case.N:
            # bottom generator at unit phase: rank-one vacuum projection
            out = out if out == () else None
        else:
            out = creator_tuple(space, i, out) if dag else annihilator_tuple(i, out)
        if out is None:
            break
    return out


def acting_tuples(space: TruncSpace, w: Word,
                  max_particles: Optional[int] = None) -> Iterator[BasisTuple]:
    """The basis tuples with at most max_particles particles on which the
    first acting letter of w (its last, inside the window as check_indices
    asks) does not die, lazily in basis order.  A tuple's head is its
    largest entry (its smallest for ANTI), so c(i) acts on the tuples below
    the cap with every entry <= i (>= i for ANTI), a(i) on i followed by
    such a tuple, the N case's bottom letter on the vacuum alone, and an
    empty word on every tuple."""
    top = space.trunc if max_particles is None else min(max_particles, space.trunc)
    if not w:
        return space.tuples(top)
    i, dag = w[-1]
    if i == 0 and space.case is Case.N:
        return space.tuples(min(top, 0))
    lo, hi = (i, None) if space.case is Case.ANTI else (None, i)
    if dag:
        return space.tuples(min(top, space.trunc - 1), lo, hi)
    return ((i,) + s for s in space.tuples(top - 1, lo, hi))


def level_image(x: Element, level: int, z) -> Element:
    """x under the level map: s_i goes to 0 below the level, to z times the
    vacuum projection at it, and to s_(i - level) above it.

    A word with a letter below the level is dropped; the others shift each
    index down by the level, one to one, and their coefficient is multiplied
    (native *) by z^(#c(level) - #a(level)), the conjugate of z standing for
    its inverse.  z is a unimodular scalar; the unit, and a coefficient
    without a gauge factor, are kept as they are.
    """
    if x.case is not Case.N or level < 0:
        raise ValueError("the level map takes N-case elements and a level >= 0")
    terms = {}
    for w, c in x.terms.items():
        if any(i < level for i, _ in w):
            continue
        deg = sum(1 if dag else -1 for i, dag in w if i == level)
        if deg:
            c = c * math.prod([z if deg > 0 else z.conjugate()] * abs(deg))
        terms[tuple((i - level, dag) for i, dag in w)] = c
    return Element(Case.N, x.unit, terms)


def accumulate(vec: dict, key, delta) -> None:
    """Add delta to vec[key] in place, dropping the key when the sum is 0.

    When key is absent and delta is an int or a Fraction, delta is stored
    demoted (if nonzero) without an addition: that is what add(0, delta)
    gives.  Every other type, bool included, takes add, whose normal form
    may change it (add(0, 0.5) is (0.5+0j), add(0, True) is (1+0j)).
    """
    if key not in vec and type(delta) in (int, Fraction):
        if delta:
            vec[key] = scalars.demote(delta)
        return
    acc = scalars.add(vec.get(key, 0), delta)
    if scalars.is_zero(acc):
        vec.pop(key, None)
    else:
        vec[key] = acc


def agree(va: dict, vb: dict, tol: float = scalars.DEFAULT_TOL) -> bool:
    """Whether two sparse vectors agree entry by entry under scalars.eq,
    reading a missing key as 0."""
    return all(scalars.eq(va.get(k, 0), vb.get(k, 0), tol) for k in va.keys() | vb.keys())


def column_action(space: TruncSpace, x: Element, t: BasisTuple) -> Dict[BasisTuple, scalars.Scalar]:
    """The vector x e_t as a tuple-keyed dict (zero coefficients dropped).

    A coefficient whose word is the only one to reach its image is stored as
    it is; coefficients meeting at one image are summed with accumulate.
    """
    out: Dict[BasisTuple, scalars.Scalar] = {}
    if x.unit:
        out[t] = x.unit
    for w, c in x.terms.items():
        img = word_image(space, w, t)
        if img is None:
            continue
        if img in out:
            accumulate(out, img, c)
        else:
            out[img] = c
    return out


def apply_element_to_vector(space: TruncSpace, x: Element,
                            vec: Dict[BasisTuple, scalars.Scalar]) -> Dict[BasisTuple, scalars.Scalar]:
    out: Dict[BasisTuple, scalars.Scalar] = {}
    for t, v in vec.items():
        if scalars.is_zero(v):
            continue
        for img, c in column_action(space, x, t).items():
            accumulate(out, img, scalars.mul(v, c))
    return out


def vector_norm_sq(vec: Dict[BasisTuple, scalars.Scalar]):
    """Exact |vec|^2 when all entries are exact, float otherwise."""
    return scalars.demote(sum(scalars.abs2(v) for v in vec.values()))


# --- sparse matrices -----------------------------------------------------------

class SparseMat:
    """Dict-of-entries sparse matrix over the scalar tower."""

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, n_rows: int, n_cols: int, entries: Optional[dict] = None):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = {}
        if entries:
            for k, v in entries.items():
                if not scalars.is_zero(v):
                    self.entries[k] = v

    @classmethod
    def zero(cls, n_rows: int, n_cols: int) -> "SparseMat":
        return cls(n_rows, n_cols)

    def _require_shape(self, other: "SparseMat") -> None:
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "SparseMat") -> "SparseMat":
        self._require_shape(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = scalars.add(out.get(k, 0), v)
        return SparseMat(self.n_rows, self.n_cols, out)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + other.scale(-1)

    def __neg__(self) -> "SparseMat":
        return self.scale(-1)

    def scale(self, s) -> "SparseMat":
        return SparseMat(self.n_rows, self.n_cols,
                         {k: scalars.mul(s, v) for k, v in self.entries.items()})

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.n_cols != other.n_rows:
            raise ValueError("shape mismatch in product")
        by_col: Dict[int, list] = {}
        for (r, k), v in self.entries.items():
            by_col.setdefault(k, []).append((r, v))
        out: dict = {}
        for (k, c), bv in other.entries.items():
            for r, av in by_col.get(k, ()):
                key = (r, c)
                out[key] = scalars.add(out.get(key, 0), scalars.mul(av, bv))
        return SparseMat(self.n_rows, other.n_cols, out)

    def adjoint(self) -> "SparseMat":
        return SparseMat(self.n_cols, self.n_rows,
                         {(c, r): scalars.conj(v) for (r, c), v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def is_exact(self) -> bool:
        return all(scalars.is_exact(v) for v in self.entries.values())

    def submatrix(self, rows: Optional[List[int]] = None,
                  cols: Optional[List[int]] = None) -> "SparseMat":
        rmap = None if rows is None else {r: p for p, r in enumerate(rows)}
        cmap = None if cols is None else {c: p for p, c in enumerate(cols)}
        out = {}
        for (r, c), v in self.entries.items():
            if rmap is not None and r not in rmap:
                continue
            if cmap is not None and c not in cmap:
                continue
            out[(r if rmap is None else rmap[r],
                 c if cmap is None else cmap[c])] = v
        return SparseMat(self.n_rows if rows is None else len(rows),
                         self.n_cols if cols is None else len(cols), out)

    def max_abs_entry(self) -> float:
        return max((scalars.abs_value(v) for v in self.entries.values()), default=0.0)

    def __repr__(self):
        return f"SparseMat({self.n_rows}x{self.n_cols}, nnz={len(self.entries)})"


def build_generator(space: TruncSpace, i: int, dagger: bool) -> SparseMat:
    """Matrix of the creator (dagger) or annihilator with index i."""
    if not space.contains_index(i):
        raise WindowError(f"index {i} outside window [{space.lo}, {space.hi}]")
    return evaluate(space, Element.word(space.case, ((i, dagger),)))


def evaluate(space: TruncSpace, x: Element) -> SparseMat:
    """Matrix of x on the full truncated basis (materializes the basis),
    walking in basis order the columns its words act on (acting_tuples), or
    every column when x has a unit part."""
    space.check_indices(x)
    basis = space.materialize()
    cols = range(len(basis)) if x.unit else \
        sorted({space.position(t) for w in x.terms for t in acting_tuples(space, w)})
    entries: dict = {}
    for c in cols:
        for img, v in column_action(space, x, basis[c]).items():
            entries[(space.position(img), c)] = v
    return SparseMat(len(basis), len(basis), entries)


# --- interior contract -----------------------------------------------------------

def interior_tuples(space: TruncSpace, margin: int, index_margin: int = 0) -> Iterator[BasisTuple]:
    if margin < 0 or index_margin < 0:
        raise ValueError("margins must be >= 0")
    yield from space.tuples(max_particles=space.trunc - margin,
                            lo=space.lo + index_margin, hi=space.hi - index_margin)


@dataclass
class IdentityCheck:
    passed: bool
    exact: bool
    max_discrepancy: float
    columns_checked: int

    @property
    def discrepancy_json(self):
        if self.exact and self.max_discrepancy == 0.0:
            return "exact-0"
        return self.max_discrepancy


def verify_identity(space: TruncSpace, lhs: Element, rhs: Element,
                    margin: Optional[int] = None, index_margin: int = 0) -> IdentityCheck:
    """Compare lhs and rhs column by column on interior tuples.

    Columns come from column_action.  When every unit and coefficient on
    both sides is exact, equal columns are skipped with a single ==.  The
    entries of other columns are compared one by one: exact scalars compare
    exactly, and once a float or complex value is involved the comparison
    is |diff| <= scalars.DEFAULT_TOL (1e-12).  Word images are recomputed
    for every column; no memo is kept.

    The margin defaults to the max creator surplus of the words on either
    side, which is the least margin for which truncated and untruncated
    actions agree on the interior.  A margin above the space's particle
    count leaves no interior column, and raises ValueError before any.
    An exact difference past float range counts as an infinite discrepancy.
    """
    space.check_indices(lhs)
    space.check_indices(rhs)
    if margin is None:
        margin = max(lhs.max_surplus(), rhs.max_surplus())
    if margin > space.trunc:
        raise ValueError(f"margin {margin} exceeds the particle count {space.trunc}: "
                         "no column is interior")
    # exact coefficients give exact entries, so skipping equal columns
    # cannot hide an inexact one from the exact flag
    skip_equal = lhs.is_exact() and rhs.is_exact()
    passed = True
    exact = True
    worst = 0.0
    count = 0
    for t in interior_tuples(space, margin, index_margin):
        count += 1
        va = column_action(space, lhs, t)
        vb = column_action(space, rhs, t)
        if skip_equal and va == vb:
            continue
        for key in va.keys() | vb.keys():
            a = va.get(key, 0)
            b = vb.get(key, 0)
            if not (scalars.is_exact(a) and scalars.is_exact(b)):
                exact = False
            if not scalars.eq(a, b):
                passed = False
            try:
                d = abs(scalars.to_complex(a) - scalars.to_complex(b))
            except OverflowError:  # an exact entry past float range
                d = math.inf
            if d > worst:
                worst = d
    return IdentityCheck(passed=passed, exact=exact, max_discrepancy=worst,
                         columns_checked=count)
