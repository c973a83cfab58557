"""Relation matrices of Exel-Laca type and verification of their conditions.

A relation matrix assigns each ordered generator pair (i, j) a 0/1 entry.
The weakly monotone matrix is entry(i, j) = [i >= j], indexed over the
integers in the Z case and over the naturals in the N case; the case is
the space's, and the ANTI case has no such matrix.  The conditions checked
are, with q(i) the support projection of the i-th generator and p(i) its
range projection:

  (1) q(i) q(j) = q(j) q(i)
  (2) p(i) p(j) = 0 for i != j
  (3) q(i) p(j) = entry(i, j) p(j)
  (4) prod_{x in X} q(x) prod_{y in Y} (I - q(y)) = sum over the support set
      of p(j), whenever that support set is finite

plus the one-step ladder q(j+1) = q(j) + p(j+1).
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import FinitenessError, SizeLimitError
from .expr import Case, Element, check_index
from .fock import TruncSpace
from .reports import Instance, Report
from .suites import check_particles, run_identity


def _matrix_case(case) -> Case:
    """The case of a weakly monotone relation matrix, Z or N; ValueError otherwise."""
    case = Case.coerce(case)
    if case is Case.ANTI:
        raise ValueError("the weakly monotone relation matrix is over Z or N, not ANTI")
    return case


def a_coeff(case, X: Iterable[int], Y: Iterable[int], j: int) -> int:
    """Product of entries [x >= j] over X and complements [y < j] over Y; 0 or 1."""
    case = _matrix_case(case)
    X, Y = tuple(X), tuple(Y)
    for i in (*X, *Y, j):
        check_index(case, i)
    return int(all(x >= j for x in X) and all(y < j for y in Y))


def support_set(case, X: Iterable[int], Y: Iterable[int]) -> Tuple[int, ...]:
    """Sorted tuple of columns j with a_coeff = 1; FinitenessError if infinite."""
    case = _matrix_case(case)
    xs, ys = set(X), set(Y)
    for i in xs | ys:
        check_index(case, i)
    # coefficient 1 exactly on (max Y, min X] within the index set
    if not xs:
        # no upper cap on j, and some (or all) large j have coefficient 1
        raise FinitenessError("support set is unbounded above without an X constraint")
    hi = min(xs)
    if ys:
        lo = max(ys) + 1
    elif case is Case.N:
        lo = 0
    else:
        raise FinitenessError("support set over the integers is unbounded below without a Y constraint")
    return tuple(range(lo, hi + 1))


def _q(case: Case, i: int) -> Element:
    return Element.word(case, ((i, False), (i, True)))


def _p(case: Case, i: int) -> Element:
    return Element.word(case, ((i, True), (i, False)))


def condition_elements(case, X: Sequence[int], Y: Sequence[int]) -> Tuple[Element, Element]:
    """Left and right side of condition (4) for the given constraint sets."""
    lhs = Element.one(case)
    for x in sorted(X, reverse=True):
        lhs = lhs * _q(case, x)
    for y in sorted(Y, reverse=True):
        lhs = lhs * (Element.one(case) - _q(case, y))
    rhs = Element.zero(case)
    for j in support_set(case, X, Y):
        rhs = rhs + _p(case, j)
    return lhs, rhs


def _set_label(s: Sequence[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


# verify_el_suite refuses, before any work, more generated (X, Y) pairs than
# this: criterion 03 has 2,116 and --max-size 3 on -6..6 has 16,900
EL_MAX_PAIRS = 20_000

# verify_el_suite also refuses, before any work, a suite whose identities
# times the tuples of the universe's window (with the space's particle cap)
# exceed this: --max-size 3 on -6..6 with 4 particles is 17,097 * 715, about
# 12.2 M, and --particles 100000 on -3..3 or a 597-index universe is past it
EL_MAX_COLUMNS = 20_000_000


def _subsets(universe: Sequence[int], max_size: int) -> List[Tuple[int, ...]]:
    return [s for k in range(max_size + 1) for s in itertools.combinations(universe, k)]


def check_el_size(space: TruncSpace, u: int, first: int, last: int, max_size: int = 2,
                  pairs: Optional[Sequence] = None) -> None:
    """Refuse a suite over u universe indices from first to last with more
    than EL_MAX_PAIRS generated (X, Y) pairs, or more than EL_MAX_COLUMNS
    identities times the tuples of first..last.  Only ints are formed, so a
    universe too large to list is refused at once."""
    size = min(max_size, u)
    counts = itertools.accumulate(math.comb(u, k) for k in range(size + 1))
    if pairs is None and any(n * n > EL_MAX_PAIRS for n in counts):
        raise SizeLimitError(f"exel-laca suite: the (X, Y) pairs of sets up to size {size} "
                             f"over {u} indices exceed the bound of {EL_MAX_PAIRS:,}")
    n_pairs = len(pairs) if pairs is not None else \
        sum(math.comb(u, k) for k in range(size + 1)) ** 2
    # conditions (1)-(3), the (X, Y) pairs and the ladder
    identities = 3 * math.comb(u, 2) + u * u + n_pairs + u - 1
    if TruncSpace(space.case, first, last, space.trunc).dimension_exceeds(
            EL_MAX_COLUMNS // identities):
        raise SizeLimitError(f"exel-laca suite: {identities:,} identities over {u} indices "
                             f"with {space.trunc} particles could check more than "
                             f"{EL_MAX_COLUMNS:,} columns")


def verify_el_suite(
    space: TruncSpace,
    universe: Sequence[int],
    max_size: int = 2,
    pairs: Optional[Sequence[Tuple[Sequence[int], Sequence[int]]]] = None,
) -> Report:
    """Exhaustive check of conditions (1)-(4) and the ladder over a finite
    index universe.

    The space's case picks the relation matrix; an ANTI space raises
    ValueError before any other check.  Column tuples are restricted to the
    universe's margin inside the window, which loses nothing because every
    letter index lives in the universe: an empty universe, or a pair index
    outside it, raises ValueError before any work.  With pairs given, only those (X, Y) combinations are run for
    condition (4); otherwise all pairs of subsets up to max_size (no subset
    is larger than the universe), where combinations whose support set is
    infinite are asserted to raise FinitenessError instead.  More than
    EL_MAX_PAIRS such pairs raise SizeLimitError before any work, and so do
    more than EL_MAX_COLUMNS identities times basis tuples of the universe's
    window (check_el_size).  Every identity has creator surplus at most 1 and
    q-on-p[i,i] has 1, so a space with no particle raises ValueError, after
    those.
    """
    case = _matrix_case(space.case)
    universe = sorted(universe)
    if not universe:
        raise ValueError("the universe is empty")
    for i in universe:
        if not space.contains_index(i):
            raise ValueError(f"universe index {i} outside the window")
    for X, Y in pairs or ():
        for i in (*X, *Y):
            if i not in universe:
                raise ValueError(f"pair index {i} outside the universe")
    check_el_size(space, len(universe), universe[0], universe[-1], max_size, pairs)
    check_particles("exel-laca", space, 1)
    s_margin = max(0, min(universe[0] - space.lo, space.hi - universe[-1]))
    report = Report(
        suite="exel-laca",
        config={
            "kind": f"WM_{case.value}",
            "window": [space.lo, space.hi],
            "particles": space.trunc,
            "universe": list(universe),
            "maxSize": max_size,
        },
    )

    run = partial(run_identity, report, space, s_margin)
    for i in universe:
        for j in universe:
            if i < j:
                run(f"q-commute[{i},{j}]", _q(case, i) * _q(case, j), _q(case, j) * _q(case, i))
                run(f"p-orthogonal[{i},{j}]", _p(case, i) * _p(case, j), Element.zero(case))
                run(f"p-orthogonal[{j},{i}]", _p(case, j) * _p(case, i), Element.zero(case))
            run(f"q-on-p[{i},{j}]", _q(case, i) * _p(case, j),
                _p(case, j).scale(1 if i >= j else 0))

    if pairs is None:
        subsets = _subsets(universe, min(max_size, len(universe)))
        pairs = [(X, Y) for X in subsets for Y in subsets]
    for X, Y in pairs:
        iid = f"sum-relation[X={_set_label(X)},Y={_set_label(Y)}]"
        try:
            lhs, rhs = condition_elements(case, X, Y)
        except FinitenessError as exc:
            report.add(Instance(iid, True, None,
                                {"support": "infinite", "error": str(exc)}))
            continue
        run(iid, lhs, rhs)

    for j in range(universe[0], universe[-1]):
        run(f"ladder[q({j + 1})=q({j})+p({j + 1})]",
            _q(case, j + 1), _q(case, j) + _p(case, j + 1))

    return report
