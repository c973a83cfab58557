"""Bundled verification suites over index windows.

Each suite exhaustively instantiates a family of operator identities over a
sub-window and certifies them on interior columns of a truncated space.
The integer-case suite covers the defining relations of the weakly monotone
family; the anti-monotone suite covers their mirrored forms, whose key
feature is that the lowest-index creator is a co-isometry.
"""

from __future__ import annotations

from functools import partial

from .errors import SizeLimitError
from .expr import Case, Element
from .fock import TruncSpace, verify_identity
from .reports import Instance, Report


# A suite over w letter indices checks fewer than 3 * w**2 identities, each
# on at most the tuples of the window those indices span; relations_z_suite
# and anti_suite refuse, before the first identity, a suite whose product
# passes this bound.  A column costs a few microseconds.
SUITE_MAX_COLUMNS = 5_000_000


def _check_size(suite: str, space: TruncSpace, index_margin: int) -> None:
    inner = TruncSpace(space.case, space.lo + index_margin, space.hi - index_margin, space.trunc)
    if inner.dimension_exceeds(SUITE_MAX_COLUMNS // (3 * inner.width ** 2)):
        raise SizeLimitError(f"{suite} suite: letters on {inner.width} indices with {space.trunc} "
                             f"particles could check more than {SUITE_MAX_COLUMNS:,} columns")


def _w(case: Case, *letters) -> Element:
    return Element.word(case, tuple(letters))


def check_particles(suite: str, space: TruncSpace, least: int) -> None:
    """ValueError when space has fewer than least particles, the largest
    creator surplus among suite's identities: below it some identity has no
    interior column, and would pass unchecked.  With least particles the
    vacuum is interior to every identity."""
    if space.trunc < least:
        raise ValueError(f"{suite} suite: the particle count must be at least {least}, so that "
                         f"every identity has an interior column; got {space.trunc}")


def run_identity(report: Report, space: TruncSpace, index_margin: int,
                 iid: str, lhs: Element, rhs: Element) -> None:
    """Check lhs = rhs on the interior columns of space; add the verdict to report."""
    chk = verify_identity(space, lhs, rhs, index_margin=index_margin)
    report.add(Instance(iid, chk.passed, chk.discrepancy_json,
                        {"columns": chk.columns_checked}))


def relations_z_suite(space: TruncSpace, depth: int = 2) -> Report:
    """Defining relations of the integer case over the window's interior.

    depth controls how far the instantiated letter indices stay away from
    the window edges; the identities themselves are checked on interior
    columns with the surplus-derived particle margin.  absorb[i,i] has
    creator surplus 2, so fewer than 2 particles raise ValueError.
    """
    if space.case is not Case.Z:
        raise ValueError("this suite is for the integer case")
    lo, hi = space.lo + depth, space.hi - depth
    if lo > hi:
        raise ValueError("window too small for the requested depth")
    _check_size("relations-z", space, depth)
    check_particles("relations-z", space, 2)
    Z = Case.Z
    report = Report(suite="relations-z",
                    config={"window": [space.lo, space.hi],
                            "particles": space.trunc,
                            "letters": [lo, hi]})
    run = partial(run_identity, report, space, depth)
    idx = range(lo, hi + 1)
    for i in idx:
        for j in idx:
            if i != j:
                run(f"annihilate-create[{i},{j}]", _w(Z, (i, False), (j, True)), Element.zero(Z))
            if i < j:
                run(f"creator-order[{i},{j}]", _w(Z, (i, True), (j, True)), Element.zero(Z))
                run(f"annihilator-order[{j},{i}]", _w(Z, (j, False), (i, False)), Element.zero(Z))
            run(f"absorb[{i},{j}]", _w(Z, (i, False), (i, True), (j, True)),
                _w(Z, (j, True)).scale(1 if i >= j else 0))
    for i in range(lo + 1, hi + 1):
        run(f"ladder[{i}]", _w(Z, (i, False), (i, True)),
            _w(Z, (i - 1, False), (i - 1, True)) + _w(Z, (i, True), (i, False)))
    return report


def anti_suite(space: TruncSpace) -> Report:
    """Mirrored relations of the anti-monotone case.

    The creator at index 1 is a co-isometry: its annihilator-creator product
    is the identity on interior columns.  Range orthogonality and the
    partial-isometry law hold for every index.  creator-order has creator
    surplus 2 and needs two indices, so fewer than 2 particles raise
    ValueError on a wider window than one index, and 0 particles on that.
    """
    if space.case is not Case.ANTI:
        raise ValueError("this suite is for the anti-monotone case")
    _check_size("anti", space, 0)
    check_particles("anti", space, 2 if space.width > 1 else 1)
    A = Case.ANTI
    report = Report(suite="anti",
                    config={"window": [space.lo, space.hi],
                            "particles": space.trunc})
    run = partial(run_identity, report, space, 0)
    run("co-isometry[1]", _w(A, (1, False), (1, True)), Element.one(A))
    idx = range(space.lo, space.hi + 1)
    for i in idx:
        for j in idx:
            if i != j:
                run(f"annihilate-create[{i},{j}]", _w(A, (i, False), (j, True)), Element.zero(A))
            if i > j:
                run(f"creator-order[{i},{j}]", _w(A, (i, True), (j, True)), Element.zero(A))
        run(f"partial-isometry[{i}]", _w(A, (i, True), (i, False), (i, True)), _w(A, (i, True)))
    return report
