"""Position-operator moments, the three-term polynomial family, truncated
rank-one limits, commutants, and level-shifted representations.

The position element at index i is the sum of the annihilator and creator.
Its vacuum moments are the Catalan numbers in even orders.  The polynomial
family q_0 = 1, q_1 = x, q_{n+1} = x q_n - q_{n-1} sends the vacuum to the
n-fold tensor power of a single basis letter.  Averaged squared positions
over a symmetric index window converge to a rank-one perturbation of half
the identity; the residual is computed exactly on vectors.

Representations at level n send the first n generators to zero, the n-th to
a phase times the vacuum projection, and the rest to creators.  decompose
recovers the level/phase/multiplicity data of a direct sum of such blocks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import scalars
from .errors import WindowError
from .expr import Case, Element
from .fock import (
    BasisTuple,
    SparseMat,
    TruncSpace,
    accumulate,
    apply_element_to_vector,
    build_generator,
    interior_columns,
    vector_norm_sq,
)
from .exactla import nullspace
from .reports import EXACT_ZERO, Instance, Report


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

    def __call__(self, x: float) -> float:
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

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
    moment is the vacuum entry after its step.
    """
    if max_order < 0:
        return []
    out = [1]
    idx = x.indices()
    if not idx or max_order == 0:
        for _ in range(max_order):
            out.append(scalars.mul(out[-1], x.unit))
        return out
    lo, hi = min(idx), max(idx)
    if x.case is not Case.Z:
        lo = max(lo, 1)
    space = TruncSpace(x.case, lo, hi, max(1, max_order * x.max_word_len()))
    vec: Dict[BasisTuple, scalars.Scalar] = {(): 1}
    for _ in range(max_order):
        vec = apply_element_to_vector(space, x, vec)
        out.append(vec.get((), 0))
    return out


# --- the polynomial family on the truncated space ---------------------------

def verify_qn(space: TruncSpace, i: int, n_max: int,
              include_product: bool = True) -> Report:
    """q_n(position at i) sends the vacuum to the n-fold letter exactly."""
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
    if include_product and space.contains_index(2) and space.trunc >= 3:
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
    over indices -n_window..n_window.  All vector arithmetic is exact, only
    the final square root is floating point.
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
    acc: Dict[BasisTuple, scalars.Scalar] = {}
    start: Dict[BasisTuple, scalars.Scalar] = {xi: 1}
    for i in range(-n_window, n_window + 1):
        sq = position_element(Case.Z, i)
        for t, v in apply_element_to_vector(space, sq * sq, start).items():
            accumulate(acc, t, v)
    scale = Fraction(1, count)
    resid: Dict[BasisTuple, scalars.Scalar] = {t: scalars.mul(scale, v) for t, v in acc.items()}
    # subtract T xi = (1 if vacuum else 1/2) xi
    accumulate(resid, xi, -1 if xi == () else Fraction(-1, 2))
    return math.sqrt(float(vector_norm_sq(resid)))


# --- commutants --------------------------------------------------------------

def commutant_dim(mats: Sequence[SparseMat]) -> Tuple[int, List[SparseMat]]:
    """Exact dimension and basis of {T: TM = MT and TM* = M*T for all M}.

    Matrices must share one square shape and have exact entries; the answer
    is a certificate, computed by exact elimination.

    Each M (then each M*) contributes the equations (TM - MT)[r, c] = 0 in
    row-major (r, c) order, over the unknowns T[r, k] at key r*n + k.  An
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
    for m in list(mats) + [m.adjoint() for m in mats]:
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
    phase: object  # "formal" or a unimodular scalar
    space: TruncSpace

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if self.space.case is not Case.N:
            raise ValueError("representation spaces use the natural-index case")
        if not self.formal:
            m = scalars.abs2(self.phase)
            if scalars.is_exact(m):
                ok = m == 1
            else:
                ok = abs(float(m) - 1.0) <= 1e-12
            if not ok:
                raise ValueError("phase must be unimodular")

    @property
    def formal(self) -> bool:
        return isinstance(self.phase, str) and self.phase == "formal"


def rep_matrix(spec: RepSpec, i: int) -> SparseMat:
    """Matrix of the i-th generator: zero below the level, phase times the
    vacuum projection at the level, creators shifted down by it above."""
    if i < 0:
        raise ValueError("generator indices are nonnegative")
    space = spec.space
    space.materialize()
    dim = space.dimension
    if i < spec.level:
        return SparseMat.zero(dim, dim)
    if i == spec.level:
        z = scalars.LaurentZ({1: 1}) if spec.formal else spec.phase
        vac = space.position(())
        return SparseMat(dim, dim, {(vac, vac): z})
    return build_generator(space, i - spec.level, dagger=True)


def verify_rep(spec: RepSpec, max_index: int) -> Report:
    """Defining relations, partial isometry, vacuum-projection identity and
    the gauge degree pattern, all exact in the formal Laurent ring.

    A numeric phase is verified through its formal twin: every identity is
    checked with z kept formal, which covers all unimodular substitutions at
    once, so the numeric phase only needs its modulus checked.
    """
    space = spec.space
    n = spec.level
    if max_index > n and max_index - n > space.hi:
        raise WindowError(f"generator {max_index} needs window top {max_index - n}")
    formal = RepSpec(n, "formal", space)
    gens = {i: rep_matrix(formal, i) for i in range(max_index + 1)}
    extra = n + 1  # generator used by the vacuum-projection identity
    if extra not in gens:
        gens[extra] = rep_matrix(formal, extra)
    space.materialize()
    dim = space.dimension
    cols = interior_columns(space, 1, 0)
    levels = [len(t) for t in space.basis]
    report = Report(suite="rep-n",
                    config={"level": n,
                            "phase": "formal" if spec.formal else scalars.to_text(spec.phase),
                            "window": [space.lo, space.hi],
                            "particles": space.trunc,
                            "maxIndex": max_index})

    def exact_instance(iid: str, diff: SparseMat, details: Optional[dict] = None) -> None:
        ok = diff.is_zero()
        report.add(Instance(iid, ok, EXACT_ZERO if ok else diff.max_abs_entry(),
                            details or {}))

    if not spec.formal:
        m = scalars.abs2(spec.phase)
        ok = (m == 1) if scalars.is_exact(m) else abs(float(m) - 1.0) <= 1e-12
        report.add(Instance("phase-unimodular", ok,
                            EXACT_ZERO if ok and scalars.is_exact(m) else abs(float(m) - 1.0)))

    for i in range(max_index + 1):
        for j in range(max_index + 1):
            if i != j:
                exact_instance(f"orthogonal[{i},{j}]",
                               gens[i].adjoint() @ gens[j])
    for i in range(max_index + 1):
        lhs = (gens[i].adjoint() @ gens[i]).submatrix(cols=cols)
        rhs = SparseMat.zero(dim, dim)
        for k in range(i + 1):
            rhs = rhs + gens[k] @ gens[k].adjoint()
        exact_instance(f"sum-relation[{i}]", lhs - rhs.submatrix(cols=cols),
                       {"columns": len(cols)})
        exact_instance(f"partial-isometry[{i}]",
                       (gens[i] @ gens[i].adjoint() @ gens[i] - gens[i]).submatrix(cols=cols))
    pom = gens[extra].adjoint() @ gens[extra] - gens[extra] @ gens[extra].adjoint()
    vac = space.position(())
    pom_want = SparseMat(dim, dim, {(vac, vac): 1})
    exact_instance("vacuum-projection", (pom - pom_want).submatrix(cols=cols),
                   {"generator": extra})
    for i in range(max_index + 1):
        bad = 0
        for (r, c), v in gens[i].entries.items():
            k = _monomial_degree(v)
            if k is None or k != 1 - levels[r] + levels[c]:
                bad += 1
        report.add(Instance(f"gauge-degree[{i}]", bad == 0,
                            EXACT_ZERO if bad == 0 else float(bad)))
    return report


def _monomial_degree(v) -> Optional[int]:
    if isinstance(v, scalars.LaurentZ):
        nz = [k for k, c in v.coeffs.items() if not scalars.is_zero(c)]
        return nz[0] if len(nz) == 1 else None
    return 0 if not scalars.is_zero(v) else None


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

    @property
    def total_multiplicity(self) -> int:
        return sum(c.multiplicity for c in self.components)


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
        if not (0 <= level < d):
            raise ValueError("component level must satisfy 0 <= level < d")
        if mult < 1:
            raise ValueError("multiplicity must be positive")
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


def _nullspace_dense(a: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of a."""
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vt = np.linalg.svd(a)
    cut = tol * max(1.0, s[0] if len(s) else 0.0)
    rank = int(np.sum(s > cut))
    return vt[rank:].conj().T


def _orth_columns(a: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of a."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cut = tol * max(1.0, s[0] if len(s) else 0.0)
    rank = int(np.sum(s > cut))
    return u[:, :rank]


def decompose(gens: Sequence[SparseMat], normal_tol: float = 1e-9,
              cluster_tol: float = 1e-6) -> DecomposeResult:
    """Recover (level, phase, multiplicity) data from direct-sum generators.

    For each candidate level k the joint kernel of the other generators'
    adjoints is computed; the k-th generator restricted there is the phase
    on the block vacua plus a nilpotent ghost from other levels, which the
    iterated-range projection removes.  The cleaned restriction must be
    normal within normal_tol; its eigenvalue clusters give the phases and
    multiplicities, and anything not reachable from the recovered vacua
    counts toward residual_dim.
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n_rows
    for g in gens:
        if g.n_rows != n or g.n_cols != n:
            raise ValueError("generators must share one square shape")
    dense = [g.to_dense() for g in gens]
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
        if defect > normal_tol:
            raise ValueError(f"restriction at level {k} is not normal (defect {defect:.3e})")
        vals, vecs = np.linalg.eig(core)
        order = np.argsort(-np.abs(vals))
        clusters: List[List[int]] = []
        for idx in order:
            if abs(vals[idx]) <= cluster_tol:
                continue
            for cl in clusters:
                if abs(vals[cl[0]] - vals[idx]) <= cluster_tol:
                    cl.append(idx)
                    break
            else:
                clusters.append([idx])
        for cl in clusters:
            phase = complex(np.mean([vals[i] for i in cl]))
            components.append(RepComponent(k, phase, len(cl)))
            for i in cl:
                vacua.append(basis @ (clean @ vecs[:, i]))
    if vacua:
        span = _orth_columns(np.column_stack(vacua))
        while True:
            grown = [span]
            for mat in dense:
                grown.append(mat @ span)
                grown.append(mat.conj().T @ span)
            new_span = _orth_columns(np.hstack(grown))
            if new_span.shape[1] == span.shape[1]:
                span = new_span
                break
            span = new_span
        reachable = span.shape[1]
    else:
        reachable = 0
    components.sort(key=lambda c: (c.level, cmath.phase(c.phase)))
    return DecomposeResult(components, n - reachable,
                           {"dim": n, "levels": per_level, "reachableDim": reachable})
