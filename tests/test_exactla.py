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
    elim = Eliminator(reduce_full=True)
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
