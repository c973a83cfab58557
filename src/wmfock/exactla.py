"""Exact sparse linear algebra over the rational and Gaussian-rational scalars.

Rows are sparse dicts mapping a hashable, orderable column key to a nonzero
scalar.  Elimination is exact; inexact entries (floats) are rejected so a
rank or nullspace result is always a certificate, never an estimate.

An Eliminator picks its arithmetic per row.  While every row it has been
given holds only int and Fraction entries it uses native +, * and == 0,
demoting a result to int when its denominator is 1; from the first row with
a GaussianRational entry onwards it uses the scalar tower.  Both routes give
the same values of the same types, so a rank, pivot row or nullspace vector
does not depend on the route.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, List, NamedTuple, Sequence

from . import scalars
from .scalars import is_exact, is_zero

Row = Dict[Hashable, object]


class _Arithmetic(NamedTuple):
    add: Callable
    mul: Callable
    neg: Callable
    inv: Callable
    is_zero: Callable


def _rational(q):
    # the scalar tower's demotion: a Fraction with denominator 1 becomes an int
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


_NATIVE = _Arithmetic(add=lambda a, b: _rational(a + b),
                      mul=lambda a, b: _rational(a * b),
                      neg=operator.neg,
                      inv=lambda v: _rational(Fraction(1, v)),
                      is_zero=operator.not_)


def _tower() -> _Arithmetic:
    # looked up when an Eliminator switches, so wrappers installed on the
    # scalar layer at run time see its calls
    return _Arithmetic(add=scalars.add, mul=scalars.mul, neg=scalars.neg,
                       inv=lambda v: scalars.div(1, v), is_zero=scalars.is_zero)


def _scale_row(row: Row, c, arith: _Arithmetic) -> Row:
    mul = arith.mul
    return {k: mul(v, c) for k, v in row.items()}


def _axpy(row: Row, c, other: Row, arith: _Arithmetic) -> None:
    # row += c * other, dropping entries that cancel to zero
    add, mul, is_zero = arith.add, arith.mul, arith.is_zero
    for k, v in other.items():
        s = add(row.get(k, 0), mul(c, v))
        if is_zero(s):
            row.pop(k, None)
        else:
            row[k] = s


class Eliminator:
    """Incremental exact Gaussian elimination with optional full reduction.

    With reduce_full=True the pivot rows are kept mutually reduced (RREF),
    which is what nullspace extraction needs; rank-only callers can skip
    the extra work.

    Rows of int and Fraction entries are eliminated in native arithmetic
    until the first row with a GaussianRational entry arrives; from then
    on every row goes through the scalar tower.  Pivot rows hold the same
    values, of the same types, on either route.
    """

    def __init__(self, reduce_full: bool = False):
        self.pivots: Dict[Hashable, Row] = {}
        self.reduce_full = reduce_full
        self._arith = _NATIVE

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _admit(self, row: Row) -> None:
        # reject inexact entries; leave the native route at the first other exact one
        for v in row.values():
            if type(v) is int or type(v) is Fraction:
                continue
            if not is_exact(v):
                raise TypeError("exact elimination requires int/Fraction/GaussianRational entries")
            if self._arith is _NATIVE:
                self._arith = _tower()

    def reduce(self, row: Row) -> Row:
        """Return row reduced against the current pivot rows (row unchanged)."""
        work = dict(row)
        self._admit(work)
        arith = self._arith
        while True:
            hit = None
            for k in work:
                if k in self.pivots:
                    hit = k
                    break
            if hit is None:
                return work
            _axpy(work, arith.neg(work[hit]), self.pivots[hit], arith)
            work.pop(hit, None)

    def add_row(self, row: Row) -> bool:
        """Insert a row; returns True if it added a new pivot."""
        work = self.reduce(row)
        if not work:
            return False
        arith = self._arith
        key = min(work)
        work = _scale_row(work, arith.inv(work[key]), arith)
        work[key] = 1
        if self.reduce_full:
            for prow in self.pivots.values():
                if key in prow:
                    _axpy(prow, arith.neg(prow[key]), work, arith)
                    prow.pop(key, None)
        self.pivots[key] = work
        return True


def rank_of(rows: Iterable[Row]) -> int:
    elim = Eliminator(reduce_full=False)
    for row in rows:
        elim.add_row(row)
    return elim.rank


def nullspace(rows: Iterable[Row], columns: Sequence[Hashable]) -> List[Row]:
    """Exact basis of the solution space of row . x = 0 over the given columns.

    Basis vectors are returned as sparse dicts; each has a distinguished free
    column set to 1, so they are independent by construction.
    """
    elim = Eliminator(reduce_full=True)
    for row in rows:
        elim.add_row(row)
    pivot_keys = set(elim.pivots)
    basis: List[Row] = []
    for free in columns:
        if free in pivot_keys:
            continue
        vec: Row = {free: 1}
        for pk, prow in elim.pivots.items():
            c = prow.get(free)
            if c is not None and not is_zero(c):
                vec[pk] = scalars.neg(c)
        basis.append(vec)
    return basis
