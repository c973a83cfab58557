"""Exact sparse linear algebra over the rational and Gaussian-rational scalars.

Rows are sparse dicts mapping a hashable, orderable column key to a nonzero
scalar.  Elimination is exact; inexact entries (floats) are rejected so a
rank or nullspace result is always a certificate, never an estimate.

Elimination runs on the scalars' own operators: int and Fraction natively,
GaussianRational through its operator methods.  Each stored entry is
demoted to int when it is a Fraction with denominator 1, so pivot rows and
nullspace vectors hold the scalar tower's normal form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Sequence

from .scalars import demote, div, is_exact

Row = Dict[Hashable, object]


def _scale_row(row: Row, c) -> Row:
    return {k: demote(v * c) for k, v in row.items()}


def _axpy(row: Row, c, other: Row) -> None:
    # row += c * other, dropping entries that cancel to zero
    for k, v in other.items():
        s = demote(row.get(k, 0) + c * v)
        if s:
            row[k] = s
        else:
            row.pop(k, None)


class Eliminator:
    """Incremental exact Gaussian elimination with optional full reduction.

    With reduce_full=True the pivot rows are kept mutually reduced (RREF),
    which is what nullspace extraction needs; rank-only callers can skip
    the extra work.
    """

    def __init__(self, reduce_full: bool = False):
        self.pivots: Dict[Hashable, Row] = {}
        self.reduce_full = reduce_full

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Return row reduced against the current pivot rows (row unchanged)."""
        for v in row.values():
            if type(v) is not int and type(v) is not Fraction and not is_exact(v):
                raise TypeError("exact elimination requires int/Fraction/GaussianRational entries")
        work = dict(row)
        while True:
            hit = None
            for k in work:
                if k in self.pivots:
                    hit = k
                    break
            if hit is None:
                return work
            _axpy(work, -work[hit], self.pivots[hit])
            work.pop(hit, None)

    def add_row(self, row: Row) -> bool:
        """Insert a row; returns True if it added a new pivot."""
        work = self.reduce(row)
        if not work:
            return False
        key = min(work)
        work = _scale_row(work, div(1, work[key]))
        work[key] = 1
        if self.reduce_full:
            for prow in self.pivots.values():
                if key in prow:
                    _axpy(prow, -prow[key], work)
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
            if c:
                vec[pk] = -c
        basis.append(vec)
    return basis
