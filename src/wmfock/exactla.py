"""Exact sparse linear algebra over the rational and Gaussian-rational scalars.

Rows are sparse dicts mapping a hashable, orderable column key to a nonzero
scalar.  Elimination is exact; inexact entries (floats) are rejected so a
rank or nullspace result is always a certificate, never an estimate.

Pivot rows are kept in reduced row echelon form: each is 1 at its smallest
key, its pivot, and holds no other pivot's key.  So a row is reduced by
subtracting once each pivot it meets, in any order, and no pivot key comes
back; a new pivot is cleared from the rows that hold its key, found through
an index from each free column to its rows; and the nullspace is read off
the pivot rows.

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


def _subtract(row: Row, c, prow: Row, pivot: Hashable) -> List[Hashable]:
    """row -= c * prow off prow's pivot key; returns the keys that enter row."""
    entered = []
    for k, v in prow.items():
        if k != pivot:
            old = row.get(k)
            if old is None:
                row[k] = demote(-c * v)
                entered.append(k)
            elif s := demote(old - c * v):
                row[k] = s
            else:
                del row[k]
    return entered


class Eliminator:
    """Incremental exact Gaussian elimination into reduced pivot rows."""

    def __init__(self):
        self.pivots: Dict[Hashable, Row] = {}
        # free column -> pivot keys of the rows holding it, stale ones included
        self._holders: Dict[Hashable, List[Hashable]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Return row reduced against the current pivot rows (row unchanged)."""
        if not set(map(type, row.values())) <= {int, Fraction} and not all(map(is_exact, row.values())):
            raise TypeError("exact elimination requires int/Fraction/GaussianRational entries")
        work = dict(row)
        for key in self.pivots.keys() & row.keys():
            _subtract(work, work.pop(key), self.pivots[key], key)
        return work

    def add_row(self, row: Row) -> bool:
        """Insert a row; returns True if it added a new pivot."""
        prow = self.reduce(row)
        if not prow:
            return False
        key = min(prow)
        # an all-int row that is 1 at its pivot is scaled and demoted already
        if prow[key] != 1 or set(map(type, prow.values())) != {int}:
            inv = div(1, prow[key])
            prow = {k: demote(v * inv) for k, v in prow.items()}
            prow[key] = 1
        holders = self._holders
        for k in prow:
            if k != key:
                holders.setdefault(k, []).append(key)
        for p in holders.pop(key, ()):
            other = self.pivots[p]
            if key in other:
                for k in _subtract(other, other.pop(key), prow, key):
                    holders[k].append(p)
        self.pivots[key] = prow
        return True


def rank_of(rows: Iterable[Row]) -> int:
    elim = Eliminator()
    for row in rows:
        elim.add_row(row)
    return elim.rank


def nullspace(rows: Iterable[Row], columns: Sequence[Hashable]) -> List[Row]:
    """Exact basis of the solution space of row . x = 0 over the given columns.

    Basis vectors are returned as sparse dicts, one per free column in the
    order of columns; each has its free column set to 1 and every other
    free column 0, so they are independent by construction and do not
    depend on the order of the rows.
    """
    elim = Eliminator()
    for row in rows:
        elim.add_row(row)
    basis: Dict[Hashable, Row] = {f: {f: 1} for f in columns if f not in elim.pivots}
    for p, prow in elim.pivots.items():
        for f in prow.keys() & basis.keys():
            basis[f][p] = -prow[f]
    return list(basis.values())
