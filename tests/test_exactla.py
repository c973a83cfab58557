"""Exact sparse elimination: rank, nullspace, and the float-free guarantee."""

from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wmfock import scalars as sc
from wmfock.exactla import Eliminator, nullspace, rank_of


def rows_of(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def test_rank_simple():
    assert rank_of(rows_of([[1, 2], [2, 4]])) == 1
    assert rank_of(rows_of([[1, 0], [0, 1]])) == 2
    assert rank_of([]) == 0
    assert rank_of([{}]) == 0


def test_rank_hilbert_exact_where_floats_fail():
    # the 12x12 Hilbert matrix is invertible, but float programs lose it
    n = 12
    hil = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    assert rank_of(rows_of(hil)) == n
    approx = np.array([[float(v) for v in row] for row in hil])
    assert np.linalg.matrix_rank(approx) < n


def test_floats_rejected():
    with pytest.raises(TypeError):
        rank_of([{0: 0.5}])
    with pytest.raises(TypeError):
        rank_of([{0: 1j}])


def test_gaussian_rational_entries():
    i = sc.gaussian(0, 1)
    # rows (1, i) and (i, -1) are parallel over the Gaussian rationals
    assert rank_of([{0: 1, 1: i}, {0: i, 1: -1}]) == 1
    assert rank_of([{0: 1, 1: i}, {0: 1, 1: -1}]) == 2


def test_nullspace_line():
    basis = nullspace(rows_of([[1, 1], [2, 2]]), columns=[0, 1])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 1 == 0 and any(v.values())


def test_nullspace_vectors_annihilate_rows():
    rng = Random(60)
    for _ in range(20):
        rows = [{j: Fraction(rng.randint(-3, 3)) for j in range(5)}
                for _ in range(3)]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        basis = nullspace(rows, columns=list(range(5)))
        assert len(basis) == 5 - rank_of(rows)
        for v in basis:
            for r in rows:
                s = sum(r.get(j, 0) * v.get(j, 0) for j in range(5))
                assert s == 0


def test_solve_dim():
    # dimension of the solution space, ncols - rank
    assert len(nullspace(rows_of([[1, 0, 0]]), columns=range(3))) == 2
    assert len(nullspace([], columns=range(4))) == 4


rationals = st.one_of(st.integers(min_value=-3, max_value=3),
                     st.fractions(min_value=-2, max_value=2, max_denominator=3))


def described(vectors):
    return [[(k, repr(v), type(v)) for k, v in vec.items()] for vec in vectors]


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_native_and_tower_routes_agree(matrix):
    rows = rows_of(matrix)
    # the same rows times i: Gaussian entries, eliminated through their operators
    i = sc.gaussian(0, 1)
    tower_rows = [{j: sc.mul(v, i) for j, v in r.items()} for r in rows]
    assert rank_of(rows) == rank_of(tower_rows)
    basis = nullspace(rows, columns=range(3))
    assert described(basis) == described(nullspace(tower_rows, columns=range(3)))
    for v in basis:
        for r in rows:
            assert sum(c * v.get(j, 0) for j, c in r.items()) == 0
    elim = Eliminator()
    for r in rows:
        elim.add_row(r)
    for vec in basis + list(elim.pivots.values()):
        for v in vec.values():
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1)


def test_eliminator_rational_rows_then_gaussian_row():
    i = sc.gaussian(0, 1)
    rows = [{0: 1, 1: 2}, {0: Fraction(1, 2), 1: 3, 2: 1},
            {0: i, 1: 1, 2: i, 3: 1}, {0: 2, 1: 4}]
    e = Eliminator()
    assert e.add_row(rows[0]) and e.add_row(rows[1])
    assert e.add_row(rows[2])
    assert not e.add_row(rows[3])  # a rational row after a Gaussian one
    dense = np.array([[complex(r.get(j, 0)) for j in range(4)] for r in rows])
    assert e.rank == np.linalg.matrix_rank(dense) == 3


def test_eliminator_incremental():
    e = Eliminator()
    assert e.add_row({0: 1, 1: 2})
    assert not e.add_row({0: 2, 1: 4})  # dependent
    assert e.add_row({1: 1})
    assert e.rank == 2


@given(st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                         min_size=4, max_size=4),
                min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_rank_matches_numpy_on_ints(matrix):
    ours = rank_of(rows_of(matrix))
    theirs = int(np.linalg.matrix_rank(np.array(matrix, dtype=float)))
    assert ours == theirs


def test_rank_invariant_under_row_scaling():
    rows = rows_of([[2, 3, 0], [0, 1, 5]])
    scaled = [{j: v * Fraction(7, 3) for j, v in r.items()} for r in rows]
    assert rank_of(rows) == rank_of(scaled)


def rref_nullspace(rows, columns):
    """Reference: the nullspace as read from pivot rows kept in RREF by
    scanning every pivot row for each new pivot, and those pivot rows."""
    def axpy(row, c, other):
        for k, v in other.items():
            s = sc.demote(row.get(k, 0) + c * v)
            if s:
                row[k] = s
            else:
                row.pop(k, None)

    pivots = {}
    for row in rows:
        work = dict(row)
        while hit := [k for k in work if k in pivots]:
            axpy(work, -work[hit[0]], pivots[hit[0]])
            work.pop(hit[0], None)
        if not work:
            continue
        key = min(work)
        inv = sc.div(1, work[key])
        work = {k: sc.demote(v * inv) for k, v in work.items()}
        work[key] = 1
        for prow in pivots.values():
            if key in prow:
                axpy(prow, -prow[key], work)
                prow.pop(key, None)
        pivots[key] = work
    basis = []
    for free in columns:
        if free not in pivots:
            vec = {free: 1}
            vec.update((pk, -prow[free]) for pk, prow in pivots.items() if prow.get(free))
            basis.append(vec)
    return pivots, basis


# p/q + im i with small parts; im is 0 about half the time, and then the
# entry stays a Fraction, Fraction(k, 1) included
exact = st.builds(lambda p, q, im: sc.gaussian(Fraction(p, q), im) if im else Fraction(p, q),
                  st.integers(-3, 3), st.integers(1, 3),
                  st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2)]))


@st.composite
def sparse_systems(draw):
    # up to 12 columns, keyed out of order; rows may be empty or repeated,
    # and their entries are drawn exact or all int
    columns = draw(st.permutations(range(draw(st.integers(1, 12)))))
    entry = draw(st.sampled_from([exact, st.integers(-2, 2)]))
    row = st.dictionaries(st.sampled_from(columns), entry, max_size=6)
    rows = [{k: v for k, v in r.items() if v} for r in draw(st.lists(row, max_size=12))]
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return draw(st.permutations(rows)), columns


def described_entries(vectors):
    # each vector's keys are distinct, so sorting never compares the types
    return [sorted(vec) for vec in described(vectors)]


@given(sparse_systems())
@settings(max_examples=150, deadline=None)
def test_indexed_rref_matches_scanned_reference(system):
    rows, columns = system
    pivots, want = rref_nullspace(rows, columns)
    basis = nullspace(rows, columns)
    assert rank_of(rows) == len(pivots)
    # the same vectors, each with its keys in the same order
    assert described(basis) == described(want)
    for v in basis:
        for r in rows:
            assert sum(c * v.get(j, 0) for j, c in r.items()) == 0
    elim = Eliminator()
    for r in rows:
        elim.add_row(r)
    assert elim.pivots.keys() == pivots.keys()
    assert all(described_entries([elim.pivots[k]]) == described_entries([pivots[k]])
               for k in pivots)
    for key, prow in elim.pivots.items():
        # RREF: 1 at the smallest key, and no other pivot's key
        assert prow[key] == 1 and min(prow) == key
        assert not (prow.keys() - {key}) & elim.pivots.keys()
    for vec in basis + list(elim.pivots.values()):
        for v in vec.values():
            assert v and not (type(v) is Fraction and v.denominator == 1)
