"""Position-operator moments, the three-term polynomial family, truncated
rank-one limits, commutants, and level-shifted representations.

The position element at index i is the sum of the annihilator and creator.
Its vacuum moments are the Catalan numbers in even orders.  The polynomial
family q_0 = 1, q_1 = x, q_{n+1} = x q_n - q_{n-1} sends the vacuum to the
n-fold tensor power of a single basis letter.  Averaged squared positions
over a symmetric index window converge to a rank-one perturbation of half
the identity; the residual is computed exactly on vectors.

Representations at level n (fock.level_image) send the first n generators
to zero, the n-th to a phase times the vacuum projection, and the rest to
creators shifted down by n.  decompose recovers the level/phase/multiplicity
data of a direct sum of such blocks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import scalars
from .errors import SizeLimitError, WindowError
from .expr import Case, Element
from .fock import (
    BasisTuple,
    SparseMat,
    TruncSpace,
    accumulate,
    annihilator_tuple,
    apply_element_to_vector,
    creator_tuple,
    evaluate,
    interior_columns,
    level_image,
    vector_norm_sq,
)
from .exactla import nullspace
from .reports import EXACT_ZERO, Instance, Report
from .suites import check_particles

# moment_sequence refuses, before any work, a sweep whose order times the
# larger of the order and the number of basis tuples it can reach exceeds
# this; x(1) to order 447 takes about a second, and entries grow with order
MOMENTS_MAX_WORK = 200_000

# decompose runs d + 1 SVDs, each of d stacked dense n x n adjoints, so reps
# decompose refuses, before building it, a direct sum of dimension n above
# DECOMPOSE_MAX_DIM or with (d + 1) * d * max(n, 12)**3 above
# DECOMPOSE_MAX_WORK (below 12 rows a block costs about as much as one of
# 12); a call near either bound takes one to two seconds
DECOMPOSE_MAX_DIM = 300
DECOMPOSE_MAX_WORK = 1_000_000_000

# commutant_dim solves for the n**2 entries of T exactly, so the commutant
# command refuses, before building a matrix, a space of dimension above this;
# x(1), x(2) at n = 105 take about 0.15 s.  It does not bound the time: where
# the elimination fills in, its exact fractions grow, and x(1) + 1/3 x(2) with
# (1+2i) c(1) c(2) + a(2) + p(1) takes about 1 s at n = 15 and 11 s at n = 21
COMMUTANT_MAX_DIM = 100

# verify_rep forms about (max_index + 2)**2 products of matrices with an entry
# per tuple, a tuple costing its length and a product at least REP_MIN_COST;
# check_rep_size refuses rep-n runs past REP_MAX_WORK, about one second
REP_MAX_WORK = 100_000_000
REP_MIN_COST = 2_000

# limit_residual applies a(i) and c(i) twice per index of its window of
# 2N + 1 indices, so the limit command refuses, before any work, a wider
# window than this; N = 10,000 takes about 0.2 s
LIMIT_MAX_WIDTH = 20_001


# --- the three-term polynomial family --------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Integer-coefficient polynomial, coefficients ascending by degree."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        c = tuple(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def times_x(self) -> "Polynomial":
        return Polynomial((0,) + self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Polynomial(tuple(x - y for x, y in zip(a, b)))


def recurrence_family(n_max: int) -> List[Polynomial]:
    """q_0..q_nMax with q_{n+1} = x q_n - q_{n-1}."""
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    fam = [Polynomial((1,))]
    if n_max >= 1:
        fam.append(Polynomial((0, 1)))
    for _ in range(2, n_max + 1):
        fam.append(fam[-1].times_x() - fam[-2])
    return fam


def position_element(case, i: int) -> Element:
    return Element.annihilator(case, i) + Element.creator(case, i)


def poly_element(poly: Polynomial, g: Element) -> Element:
    """poly(g) as an element (Horner over noncommuting powers of one g)."""
    out = Element.zero(g.case)
    for c in reversed(poly.coeffs):
        out = out * g + Element.one(g.case, c)
    return out


# --- vacuum moments ---------------------------------------------------------

def vacuum_moment(x: Element, order: int):
    """<vacuum, x^order vacuum>, exact for exact coefficients."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return moment_sequence(x, order)[order]


def moment_sequence(x: Element, max_order: int) -> List:
    """[<vacuum, x^k vacuum> for k = 0..max_order], in one sweep.

    The window and particle cap are sized from x and max_order so truncation
    never touches any power; x is applied max_order times in all, and each
    moment is the vacuum entry after its step.  SizeLimitError is raised
    before any work when max_order times the larger of max_order and the
    dimension of that space exceeds MOMENTS_MAX_WORK.
    """
    if max_order < 0:
        return []
    if max_order * max_order > MOMENTS_MAX_WORK:
        _refuse_moments(max_order)
    out = [1]
    idx = x.indices()
    if not idx or max_order == 0:
        for _ in range(max_order):
            out.append(scalars.mul(out[-1], x.unit))
        return out
    lo, hi = min(idx), max(idx)
    if x.case is not Case.Z:  # index 0 of N takes no window index (check_indices)
        lo, hi = max(lo, 1), max(hi, 1)
    space = TruncSpace(x.case, lo, hi, max(1, max_order * x.max_word_len()))
    if space.dimension_exceeds(MOMENTS_MAX_WORK // max_order):
        _refuse_moments(max_order)
    vec: Dict[BasisTuple, scalars.Scalar] = {(): 1}
    for _ in range(max_order):
        vec = apply_element_to_vector(space, x, vec)
        out.append(vec.get((), 0))
    return out


def _refuse_moments(max_order: int) -> None:
    raise SizeLimitError(f"moments to order {max_order}: the order times the larger of the order "
                         f"and the basis tuples reached is above the bound of {MOMENTS_MAX_WORK}")


# --- the polynomial family on the truncated space ---------------------------

def verify_qn(space: TruncSpace, i: int, n_max: int) -> Report:
    """q_n(position at i) sends the vacuum to the n-fold letter exactly, and
    q_2(x(2)) q_1(x(1)) sends it to (2, 2, 1) when index 2 and 3 particles fit."""
    if n_max > space.trunc:
        raise ValueError("particle cap too small for the requested degree")
    if not space.contains_index(i):
        raise WindowError(f"index {i} outside window [{space.lo}, {space.hi}]")
    fam = recurrence_family(n_max)
    xel = position_element(space.case, i)
    report = Report(suite="qn-family",
                    config={"window": [space.lo, space.hi],
                            "particles": space.trunc, "index": i,
                            "nMax": n_max})
    for n, poly in enumerate(fam):
        got = apply_element_to_vector(space, poly_element(poly, xel), {(): 1})
        report.add(_difference(f"qn[{n}]", got, {(i,) * n: 1}))
    if space.contains_index(2) and space.trunc >= 3:
        fam2 = recurrence_family(2)
        prod = poly_element(fam2[2], position_element(space.case, 2)) \
            * poly_element(fam2[1], position_element(space.case, 1))
        got = apply_element_to_vector(space, prod, {(): 1})
        report.add(_difference("product[q2(2)q1(1)]", got, {(2, 2, 1): 1}))
    return report


def _difference(iid: str, got: Dict, want: Dict) -> Instance:
    """Passes when got - want is exactly 0; otherwise reports its norm."""
    diff = dict(got)
    for t, v in want.items():
        accumulate(diff, t, scalars.neg(v))
    return Instance(iid, not diff, math.sqrt(float(vector_norm_sq(diff))) if diff else EXACT_ZERO)


# --- averaged squared positions ---------------------------------------------

def limit_residual(space: TruncSpace, n_window: int, xi: BasisTuple) -> float:
    """|| average of squared positions applied to xi minus T xi ||.

    T is the vacuum projection plus half the complement; the average runs
    over indices -n_window..n_window.  Each square x(i)^2 = (a(i) + c(i))^2
    is applied to xi letter by letter, and the images are counted in ints;
    the scale 1/(2 n_window + 1) and T enter once, in the exact squared
    norm, and only the final square root is floating point.
    """
    if space.case is not Case.Z:
        raise ValueError("the averaged-square limit lives on the integer case")
    if space.lo > -n_window or space.hi < n_window:
        raise ValueError(f"window must contain [{-n_window}, {n_window}]")
    xi = tuple(xi)
    for t in xi:
        if not space.contains_index(t):
            raise WindowError(f"vector index {t} outside the window")
    if len(xi) + 2 > space.trunc:
        raise ValueError("particle cap too small: need two spare levels above xi")
    count = 2 * n_window + 1
    acc: Dict[BasisTuple, int] = {}
    for i in range(-n_window, n_window + 1):
        for once in (annihilator_tuple(i, xi), creator_tuple(space, i, xi)):
            if once is None:
                continue
            for twice in (annihilator_tuple(i, once), creator_tuple(space, i, once)):
                if twice is not None:
                    acc[twice] = acc.get(twice, 0) + 1
    # the residual is acc / count - T xi, with T xi = (1 if vacuum else 1/2) xi
    at_xi = Fraction(acc.pop(xi, 0), count) - (1 if xi == () else Fraction(1, 2))
    norm_sq = Fraction(sum(v * v for v in acc.values()), count * count) + at_xi * at_xi
    return math.sqrt(float(norm_sq))


# --- commutants --------------------------------------------------------------

def commutant_dim(mats: Sequence[SparseMat]) -> Tuple[int, List[SparseMat]]:
    """Exact dimension and basis of {T: TM = MT and TM* = M*T for all M}.

    Matrices must share one square shape and have exact entries; the answer
    is a certificate, computed by exact elimination.

    Each M (then each M* other than M itself) contributes the equations
    (TM - MT)[r, c] = 0 in row-major (r, c) order, over the unknowns
    T[r, k] at key r*n + k.  A self-adjoint M's second set would repeat its
    first and add no pivot, so it is left out.  The row order changes only
    the elimination's work: each basis vector is the solution with one free
    unknown 1 and the other free unknowns 0, in key order.  An
    equation only meets column c and row r of M, so it is assembled from
    M's nonzero entries grouped by column and by row, not from a dense loop
    over k; a pair (r, c) whose column and row are both empty gives no
    equation.  Entries of M are nonzero, and the keys r*n + k of the column
    group are distinct, as are the keys k*n + c of the row group; the two
    groups share at most the unknown T[r, c], whose coefficient
    M[c, c] - M[r, r] is the one sum, dropped when it cancels.
    """
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].n_rows
    for m in mats:
        if m.n_rows != n or m.n_cols != n:
            raise ValueError("commutant needs square matrices of one shape")
        if not m.is_exact():
            raise TypeError("commutant_dim requires exact entries")
    rows: List[Dict] = []
    for m in list(mats) + [a for m in mats if (a := m.adjoint()).entries != m.entries]:
        by_row: Dict[int, list] = {}
        by_col: Dict[int, list] = {}
        for (r, c), v in m.entries.items():
            by_row.setdefault(r, []).append((c, v))
            by_col.setdefault(c, []).append((r, v))
        for r in range(n):
            m_row = by_row.get(r, ())
            for c in range(n):
                # (TM - MT)[r, c] = sum_k T[r, k] M[k, c] - M[r, k] T[k, c]
                row = {r * n + k: a for k, a in by_col.get(c, ())}
                for k, b in m_row:
                    key = k * n + c
                    if key in row:
                        s = scalars.sub(row[key], b)
                        if scalars.is_zero(s):
                            del row[key]
                        else:
                            row[key] = s
                    else:
                        row[key] = scalars.neg(b)
                if row:
                    rows.append(row)
    basis_vecs = nullspace(rows, range(n * n))
    basis = [SparseMat(n, n, {(k // n, k % n): v for k, v in vec.items()})
             for vec in basis_vecs]
    return len(basis), basis


# --- level-shifted representations ------------------------------------------

@dataclass(frozen=True)
class RepSpec:
    """A level-n representation datum on a natural-index truncated space."""

    level: int
    phase: object  # a unimodular scalar
    space: TruncSpace

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if self.space.case is not Case.N:
            raise ValueError("representation spaces use the natural-index case")
        if not _unimodular(self.phase):
            raise ValueError("phase must be unimodular")


def _unimodular(phase) -> bool:
    """Whether |phase| = 1, within 1e-12 if inexact."""
    m = scalars.abs2(phase)
    if scalars.is_exact(m):  # kept exact: float() of a huge phase overflows
        return m == 1
    return abs(float(m) - 1.0) <= 1e-12


def rep_matrix(spec: RepSpec, i: int) -> SparseMat:
    """Matrix of the i-th generator: the evaluated fock.level_image of c(i)
    at the spec's level, with the phase as the gauge."""
    if i < 0:
        raise ValueError("generator indices are nonnegative")
    return evaluate(spec.space, level_image(Element.creator(Case.N, i), spec.level, spec.phase))


def verify_rep(space: TruncSpace, level: int, max_index: int) -> Report:
    """Defining relations, partial isometry, vacuum-projection identity and
    the gauge degree pattern, all exact, at every unimodular phase at once.

    This rests on the charge argument.  Under the level map, the gauge
    action gamma_z(s_i) = z s_i (Exel and Laca, "Cuntz-Krieger algebras for
    infinite matrices", 1999; Raeburn, Graph Algebras, CBMS 103, 2005) puts
    the entry (r, c) of a word of charge Q = #creators - #annihilators at
    gauge degree Q - (|r| - |c|).  So an identity between elements of one
    charge holds at every unimodular phase exactly when it holds at phase 1.
    Each relation here has one charge (orthogonal, sum-relation and
    vacuum-projection 0, partial-isometry 1) and is checked on generators
    built at phase 1.  gauge-degree[i] checks the degree pattern itself, at
    the phase z0 = (3+4i)/5: every entry (r, c) of generator i must equal
    z0^(1 - |r| + |c|).  So no phase is taken: every unimodular one is
    covered.  check_rep_window's refusals come before any matrix is built.
    """
    check_rep_window(space, (level,), max_index)
    unit_phase = RepSpec(level, 1, space)
    extra = level + 1  # generator used by the vacuum-projection identity
    gens = {i: rep_matrix(unit_phase, i) for i in (*range(max_index + 1), extra)}
    dim = space.dimension  # rep_matrix listed the basis
    cols = interior_columns(space, 1, 0)
    levels = [len(t) for t in space.basis]
    report = Report(suite="rep-n",
                    config={"level": level,
                            "window": [space.lo, space.hi],
                            "particles": space.trunc,
                            "maxIndex": max_index})

    def exact_instance(iid: str, diff: SparseMat, details: Optional[dict] = None) -> None:
        ok = diff.is_zero()
        report.add(Instance(iid, ok, EXACT_ZERO if ok else diff.max_abs_entry(),
                            details or {}))

    adj = {i: g.adjoint() for i, g in gens.items()}
    for i in range(max_index + 1):
        for j in range(max_index + 1):
            if i != j:
                exact_instance(f"orthogonal[{i},{j}]", adj[i] @ gens[j])
    rhs = SparseMat.zero(dim, dim)  # the sum of G_k G_k^* over k <= i
    for i in range(max_index + 1):
        range_proj = gens[i] @ adj[i]
        rhs = rhs + range_proj
        lhs = (adj[i] @ gens[i]).submatrix(cols=cols)
        exact_instance(f"sum-relation[{i}]", lhs - rhs.submatrix(cols=cols),
                       {"columns": len(cols)})
        exact_instance(f"partial-isometry[{i}]",
                       (range_proj @ gens[i] - gens[i]).submatrix(cols=cols))
    pom = adj[extra] @ gens[extra] - gens[extra] @ adj[extra]
    pom_want = evaluate(space, Element.creator(Case.N, 0))
    exact_instance("vacuum-projection", (pom - pom_want).submatrix(cols=cols),
                   {"generator": extra})
    z0 = scalars.gaussian(Fraction(3, 5), Fraction(4, 5))  # not a root of unity
    gauged, powers = RepSpec(level, z0, space), {}  # powers: z0^k by k
    for i in range(max_index + 1):
        bad = 0
        for (r, c), v in rep_matrix(gauged, i).entries.items():
            k = 1 - levels[r] + levels[c]
            if k not in powers:
                powers[k] = math.prod([z0 if k > 0 else z0.conjugate()] * abs(k))
            bad += not scalars.eq(v, powers[k])
        report.add(Instance(f"gauge-degree[{i}]", bad == 0,
                            EXACT_ZERO if bad == 0 else float(bad)))
    return report


def check_rep_window(space: TruncSpace, levels: Sequence[int], max_index: int) -> None:
    """Refuse verify_rep at each of levels up to max_index: ValueError for a
    negative level (every level is checked first), then ValueError for a
    level given twice, then WindowError when generator max_index, shifted
    down by a level, leaves the window, then ValueError for a space with no
    particle, where sum-relation, partial-isometry and vacuum-projection
    would have no interior column."""
    if any(level < 0 for level in levels):
        raise ValueError("level must be nonnegative")
    seen = set()
    for level in levels:
        if level in seen:
            raise ValueError(f"level {level} given twice")
        seen.add(level)
    for level in levels:
        if max_index > level and max_index - level > space.hi:
            raise WindowError(f"generator {max_index} needs window top {max_index - level}")
    check_particles("rep-n", space, 1)


def check_rep_size(space: TruncSpace, levels: int, max_index: int) -> None:
    """Refuse verify_rep at `levels` levels up to max_index when levels *
    (max_index + 2)**2 * max(dim * particles, REP_MIN_COST) > REP_MAX_WORK."""
    bound = REP_MAX_WORK // (levels * (max_index + 2) ** 2)
    if REP_MIN_COST > bound or (space.trunc and space.dimension_exceeds(bound // space.trunc)):
        raise SizeLimitError(f"rep-n suite: {levels} levels of generators 0..{max_index} with "
                             f"{space.trunc} particles on {space.width} indices could take "
                             f"more than {REP_MAX_WORK:,} steps")


# --- direct sums and their decomposition ------------------------------------

@dataclass(frozen=True)
class RepComponent:
    level: int
    phase: complex
    multiplicity: int


@dataclass
class DecomposeResult:
    components: List[RepComponent]
    residual_dim: int
    details: Dict


def build_direct_sum(d: int, particles: int,
                     components: Sequence[Tuple[int, object, int]],
                     zero_dim: int = 0) -> Tuple[List[SparseMat], Dict]:
    """Block-diagonal generators s_0..s_d for a direct sum of level blocks.

    Each component is (level, phase, multiplicity); the level-k block lives
    on the natural-index window [1, d-k] so every generator up to index d is
    representable inside it.
    """
    blocks: List[Tuple[RepSpec, int]] = []
    for level, phase, mult in components:
        _check_component(d, level, mult)
        sp = TruncSpace(Case.N, 1, d - level, particles)
        sp.materialize()
        for _ in range(mult):
            blocks.append((RepSpec(level, phase, sp), sp.dimension))
    total = sum(dim for _, dim in blocks) + zero_dim
    gens: List[SparseMat] = []
    for i in range(d + 1):
        entries: Dict[Tuple[int, int], object] = {}
        off = 0
        for spec, dim in blocks:
            for (r, c), v in rep_matrix(spec, i).entries.items():
                entries[(off + r, off + c)] = v
            off += dim
        gens.append(SparseMat(total, total, entries))
    meta = {
        "dim": total,
        "zeroDim": zero_dim,
        "blocks": [{"level": spec.level, "dim": dim,
                    "phase": scalars.to_text(spec.phase)} for spec, dim in blocks],
    }
    return gens, meta


def _check_component(d: int, level: int, mult: int) -> None:
    if not (0 <= level < d):
        raise ValueError("component level must satisfy 0 <= level < d")
    if mult < 1:
        raise ValueError("multiplicity must be positive")


def check_decompose_size(d: int, particles: int,
                         components: Sequence[Tuple[int, object, int]],
                         zero_dim: int = 0) -> int:
    """The dimension of build_direct_sum's space, checked before anything is
    built against DECOMPOSE_MAX_DIM, a block past that bound counted as one
    more than it, then against DECOMPOSE_MAX_WORK.  Raises SizeLimitError past
    either bound, and ValueError for a component build_direct_sum would reject."""
    if particles < 0:
        raise ValueError("particle truncation must be >= 0")
    dim = zero_dim
    for level, _, mult in components:
        _check_component(d, level, mult)
        block = TruncSpace(Case.N, 1, d - level, particles)
        too_big = block.dimension_exceeds(DECOMPOSE_MAX_DIM)
        dim += mult * (DECOMPOSE_MAX_DIM + 1 if too_big else block.dimension)
    if dim > DECOMPOSE_MAX_DIM:
        raise SizeLimitError(f"the direct sum's dimension exceeds the decompose bound of "
                             f"{DECOMPOSE_MAX_DIM}")
    if (d + 1) * d * max(dim, 12) ** 3 > DECOMPOSE_MAX_WORK:
        raise SizeLimitError(f"decomposing the direct sum takes (d + 1) * d * max(dim, 12)**3 "
                             f"steps, above the bound of {DECOMPOSE_MAX_WORK:,}")
    return dim


def _nullspace_dense(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of a."""
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0])))
    return vt[rank:].conj().T


def _orth_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of a."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0])))
    return u[:, :rank]


def _reachable_dim(dense: Sequence[np.ndarray], vacua: List[np.ndarray]) -> int:
    """Dimension of the smallest subspace holding the vacua and invariant
    under every generator and its adjoint.

    The span grows by rounds.  A generator maps the part of the span that
    was there before the last round into the span already, so a round only
    applies the generators and adjoints to the directions the last round
    added, and keeps what of their images is orthogonal to the span.  The
    loop stops when a round adds nothing or the span fills the space.
    """
    n = dense[0].shape[0]
    span = _orth_columns(np.column_stack(vacua))
    added = span
    while added.shape[1] and span.shape[1] < n:
        grown = []
        for mat in dense:
            grown.append(mat @ added)
            grown.append(mat.conj().T @ added)
        fresh = np.hstack(grown)
        for _ in range(2):  # twice, so rounding cannot leave a component in the span
            fresh = fresh - span @ (span.conj().T @ fresh)
        added = _orth_columns(fresh)
        span = np.hstack([span, added])
    return span.shape[1]


def decompose(gens: Sequence[SparseMat]) -> DecomposeResult:
    """Recover (level, phase, multiplicity) data from direct-sum generators.

    For each candidate level k the joint kernel of the other generators'
    adjoints is computed (a thin SVD of their stacked adjoints); the k-th
    generator restricted there is the phase on the block vacua plus a
    nilpotent ghost from other levels, which the iterated-range projection
    removes.  The cleaned restriction must be normal within 1e-9; its
    eigenvalues above 1e-6 in modulus, clustered within 1e-6 of each
    cluster's first, give the phases and multiplicities.  The span reachable
    from the recovered vacua under the generators and their adjoints is
    grown only from the directions each round adds, and what lies outside
    it counts toward residual_dim; details["reachableDim"] is its
    dimension, and nothing else depends on that loop.
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n_rows
    for g in gens:
        if g.n_rows != n or g.n_cols != n:
            raise ValueError("generators must share one square shape")
    dense = [np.zeros((n, n), dtype=complex) for _ in gens]
    for mat, g in zip(dense, gens):
        for (r, c), v in g.entries.items():
            mat[r, c] = scalars.to_complex(v)
    components: List[RepComponent] = []
    vacua: List[np.ndarray] = []
    per_level: List[Dict] = []
    for k in range(len(dense)):
        others = [dense[j].conj().T for j in range(len(dense)) if j != k]
        stack = np.vstack(others) if others else np.zeros((0, n), dtype=complex)
        basis = _nullspace_dense(stack)
        m = basis.shape[1]
        per_level.append({"level": k, "jointKernelDim": m})
        if m == 0:
            continue
        restricted = basis.conj().T @ dense[k] @ basis
        clean = _orth_columns(np.linalg.matrix_power(restricted, m))
        if clean.shape[1] == 0:
            continue
        core = clean.conj().T @ restricted @ clean
        defect = np.linalg.norm(core @ core.conj().T - core.conj().T @ core)
        if defect > 1e-9:
            raise ValueError(f"restriction at level {k} is not normal (defect {defect:.3e})")
        vals, vecs = np.linalg.eig(core)
        order = np.argsort(-np.abs(vals))
        clusters: List[List[int]] = []
        for idx in order:
            if abs(vals[idx]) <= 1e-6:
                continue
            for cl in clusters:
                if abs(vals[cl[0]] - vals[idx]) <= 1e-6:
                    cl.append(idx)
                    break
            else:
                clusters.append([idx])
        for cl in clusters:
            phase = complex(np.mean([vals[i] for i in cl]))
            components.append(RepComponent(k, phase, len(cl)))
            for i in cl:
                vacua.append(basis @ (clean @ vecs[:, i]))
    reachable = _reachable_dim(dense, vacua) if vacua else 0
    components.sort(key=lambda c: (c.level, cmath.phase(c.phase)))
    return DecomposeResult(components, n - reachable,
                           {"dim": n, "levels": per_level, "reachableDim": reachable})
