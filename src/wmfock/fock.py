"""Truncated weakly monotone Fock spaces and exact evaluation.

This module is the package's one tuple evaluator: every word acting on a
basis tuple and every column of an element goes through word_image and
column_action below, and accumulate is the one add-and-drop-zeros step
that tuple-keyed vectors and rewrite's normal forms share.

Basis vectors are index tuples (i1, ..., ik) with k <= trunc; the empty
tuple is the vacuum.  Z and N cases use non-increasing tuples (i1 >= ... >=
ik, with indices >= 1 for N), the ANTI case non-decreasing tuples with
indices >= 1.  The creator c(i) prepends i when the result is admissible
and kills top-level vectors; the annihilator a(i) strips a leading i.  In
the N case, index-0 letters denote the abstract bottom generator: under
evaluation (at unit phase) both c(0) and a(0) act as the rank-one vacuum
projection.  A word that survives has met each bottom letter at the
vacuum, so its gauge factor z^(#c(0) - #a(0)) depends on the word alone;
rewrite.equal_n puts that factor into the coefficients and evaluates here.
build_generator still rejects index 0, since the gauge-aware version lives
with the representation builders.  A word acts letter by letter on each
tuple it meets; no (word, tuple) memo is kept, since recomputing a short
word costs no more than hashing such a key.

Basis order is by particle count, then ascending lexicographic order of
the tuple, and is part of the interface: matrix positions are stable.

Spaces are lazy: constructing one never materializes the basis, and the
dimension cap is enforced only when a basis listing is actually needed.
Identity checks therefore run column by column on interior tuples and can
use windows whose full dimension is far beyond the cap.  Every column is
built by column_action, whatever the coefficients: a lone coefficient is
stored as it is, and coefficients meeting at one image are summed by the
scalar layer.

Interior contract: a word whose creator surplus is at most r maps the
span of basis tuples with at most trunc - r particles exactly as the
untruncated operator does, provided its indices stay inside the window;
shrinking the window by an index margin s makes room for index-shifting
families.  verify_identity's default margin is the max creator surplus of
the words involved, the tight sound choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import scalars
from .errors import NonConvergenceError, SizeLimitError, WindowError
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
        return sum(math.comb(self.width + k - 1, k) for k in range(self.trunc + 1))

    def level_dimension(self, k: int) -> int:
        return math.comb(self.width + k - 1, k)

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
            if self.dimension > self.cap:
                raise SizeLimitError(
                    f"space dimension {self.dimension} exceeds cap {self.cap}")
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

    def __len__(self) -> int:
        return self.dimension

    def __repr__(self):
        return (f"TruncSpace({self.case.value}, [{self.lo}, {self.hi}], "
                f"trunc={self.trunc}, dim={self.dimension})")


def _level_tuples(anti: bool, lo: int, hi: int, k: int) -> Iterator[BasisTuple]:
    """Ascending-lex k-tuples; non-increasing entries, or non-decreasing if anti."""

    def rec(prefix: BasisTuple) -> Iterator[BasisTuple]:
        if len(prefix) == k:
            yield prefix
            return
        if not prefix:
            lo2, hi2 = lo, hi
        elif anti:
            lo2, hi2 = prefix[-1], hi
        else:
            lo2, hi2 = lo, prefix[-1]
        for nxt in range(lo2, hi2 + 1):
            yield from rec(prefix + (nxt,))

    yield from rec(())


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
    """Dict-of-entries sparse matrix over the scalar tower (or LaurentZ)."""

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
    def identity(cls, n: int, coeff=1) -> "SparseMat":
        return cls(n, n, {(i, i): coeff for i in range(n)})

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

    def to_dense(self, z: Optional[complex] = None) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=complex)
        for (r, c), v in self.entries.items():
            if isinstance(v, scalars.LaurentZ):
                if z is None:
                    raise TypeError("formal Laurent entries need a z value to densify")
                out[r, c] = v.substitute(z)
            else:
                out[r, c] = scalars.to_complex(v)
        return out

    def __repr__(self):
        return f"SparseMat({self.n_rows}x{self.n_cols}, nnz={len(self.entries)})"


def build_generator(space: TruncSpace, i: int, dagger: bool) -> SparseMat:
    """Matrix of the creator (dagger) or annihilator with index i."""
    if not space.contains_index(i):
        raise WindowError(f"index {i} outside window [{space.lo}, {space.hi}]")
    return evaluate(space, Element.word(space.case, ((i, dagger),)))


def columns_matrix(space: TruncSpace, x: Element, cols: Sequence[BasisTuple]) -> SparseMat:
    """Matrix of x restricted to the given column tuples (full row space)."""
    space.materialize()
    entries: dict = {}
    for cpos, t in enumerate(cols):
        for img, v in column_action(space, x, t).items():
            entries[(space.position(img), cpos)] = v
    return SparseMat(space.dimension, len(cols), entries)


def evaluate(space: TruncSpace, x: Element) -> SparseMat:
    """Matrix of x on the full truncated basis (materializes the basis)."""
    space.check_indices(x)
    return columns_matrix(space, x, space.materialize())


# --- interior contract -----------------------------------------------------------

def interior_tuples(space: TruncSpace, margin: int, index_margin: int = 0) -> Iterator[BasisTuple]:
    if margin < 0 or index_margin < 0:
        raise ValueError("margins must be >= 0")
    yield from space.tuples(max_particles=space.trunc - margin,
                            lo=space.lo + index_margin, hi=space.hi - index_margin)


def interior_columns(space: TruncSpace, margin: int, index_margin: int = 0) -> List[int]:
    """Basis positions of the interior tuples (materializes the basis)."""
    space.materialize()
    return [space.position(t) for t in interior_tuples(space, margin, index_margin)]


@dataclass
class IdentityCheck:
    passed: bool
    exact: bool
    max_discrepancy: float
    columns_checked: int
    margin: int
    index_margin: int

    @property
    def discrepancy_json(self):
        if self.exact and self.max_discrepancy == 0.0:
            return "exact-0"
        return self.max_discrepancy


def verify_identity(space: TruncSpace, lhs: Element, rhs: Element,
                    margin: Optional[int] = None, index_margin: int = 0,
                    tol: float = scalars.DEFAULT_TOL) -> IdentityCheck:
    """Compare lhs and rhs column by column on interior tuples.

    Columns come from column_action.  When every unit and coefficient on
    both sides is exact, equal columns are skipped with a single ==.  The
    entries of other columns are compared one by one: exact scalars compare
    exactly, and once a float or complex value is involved the comparison
    is |diff| <= tol.  Word images are recomputed for every column; no memo
    is kept.

    The margin defaults to the max creator surplus of the words on either
    side, which is the least margin for which truncated and untruncated
    actions agree on the interior.
    """
    space.check_indices(lhs)
    space.check_indices(rhs)
    if margin is None:
        margin = max(lhs.max_surplus(), rhs.max_surplus())
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
            if not scalars.eq(a, b, tol):
                passed = False
            d = abs(scalars.to_complex(a) - scalars.to_complex(b))
            if d > worst:
                worst = d
    return IdentityCheck(passed=passed, exact=exact, max_discrepancy=worst,
                         columns_checked=count, margin=margin, index_margin=index_margin)


# --- norms ------------------------------------------------------------------------

def _to_arrays(mat: SparseMat):
    n = len(mat.entries)
    rows = np.empty(n, dtype=np.int64)
    cols = np.empty(n, dtype=np.int64)
    any_complex = False
    vals_list = []
    for k, ((r, c), v) in enumerate(mat.entries.items()):
        if isinstance(v, scalars.LaurentZ):
            raise TypeError("norms of formal Laurent matrices are undefined; substitute z first")
        rows[k] = r
        cols[k] = c
        z = scalars.to_complex(v)
        vals_list.append(z)
        if z.imag != 0.0:
            any_complex = True
    vals = np.array(vals_list, dtype=complex)
    if not any_complex:
        vals = vals.real.astype(float)
    return rows, cols, vals, any_complex


def column_norm_lower(mat: SparseMat) -> float:
    """Max column 2-norm: a certified lower bound for the operator norm."""
    acc: Dict[int, scalars.Scalar] = {}
    for (r, c), v in mat.entries.items():
        acc[c] = scalars.add(acc.get(c, 0), scalars.abs2(v))
    if not acc:
        return 0.0
    best = max(acc.values(), key=lambda s: float(s))
    return math.sqrt(float(best))


def operator_norm(mat: SparseMat, tol: float = 1e-9, max_iter: int = 10000,
                  seed: int = 12345) -> float:
    """Largest singular value via power iteration on A*A (fixed seed)."""
    if mat.is_zero():
        return 0.0
    rows, cols, vals, cplx = _to_arrays(mat)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.n_cols)
    if cplx:
        v = v + 1j * rng.standard_normal(mat.n_cols)
    v = v / np.linalg.norm(v)
    cvals = np.conj(vals)
    prev = -1.0
    for _ in range(max_iter):
        w = np.zeros(mat.n_rows, dtype=vals.dtype)
        np.add.at(w, rows, vals * v[cols])
        est = float(np.real(np.vdot(w, w)))
        u = np.zeros(mat.n_cols, dtype=vals.dtype)
        np.add.at(u, cols, cvals * w[rows])
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return math.sqrt(max(est, 0.0))
        v = u / nu
        if abs(est - prev) <= tol * max(1.0, abs(est)):
            return math.sqrt(max(est, 0.0))
        prev = est
    raise NonConvergenceError(f"power iteration did not settle in {max_iter} steps")


def operator_norm_interval(mat: SparseMat, tol: float = 1e-9,
                           max_iter: int = 10000, seed: int = 12345) -> Tuple[float, float]:
    """(certified column lower bound, power-iteration estimate)."""
    return column_norm_lower(mat), operator_norm(mat, tol=tol, max_iter=max_iter, seed=seed)
