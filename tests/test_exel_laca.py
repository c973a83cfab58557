"""Exel-Laca coefficients, support sets, and relation verification."""

from functools import partial

import pytest
from hypothesis import given, strategies as st

from wmfock import exel_laca
from wmfock.errors import SizeLimitError
from wmfock.exel_laca import (FinitenessError, a_coeff, condition_elements, support_set,
                              verify_el_suite)
from wmfock.expr import Case, Element, parse
from wmfock.fock import TruncSpace, verify_identity
from wmfock.rewrite import equal_z

WMZ = Case.Z
WMN = Case.N


def test_entry_frozen():
    # entry(i, j) is a_coeff with X = {i} and Y empty
    assert a_coeff(WMZ, {3}, set(), 3) == 1
    assert a_coeff(WMZ, {2}, set(), 5) == 0


def test_only_the_weakly_monotone_kinds(monkeypatch):
    def no_identities(*args, **kwargs):
        raise AssertionError("identity checked on an ANTI space")

    monkeypatch.setattr(exel_laca, "run_identity", no_identities)
    with pytest.raises(ValueError, match="^the weakly monotone relation matrix is over "
                                         "Z or N, not ANTI$"):
        verify_el_suite(TruncSpace("ANTI", 1, 4, 2), universe=[1, 2])
    with pytest.raises(ValueError, match="not ANTI$"):
        a_coeff(Case.ANTI, {2}, {1}, 2)
    with pytest.raises(ValueError, match="not ANTI$"):
        support_set(Case.ANTI, {2}, {1})


def test_a_coeff_frozen():
    assert a_coeff(WMZ, {3}, {0}, 2) == 1
    assert a_coeff(WMZ, {3}, {0}, 5) == 0
    for j in (-4, 0, 7):
        assert a_coeff(WMZ, set(), set(), j) == 1


def test_support_set_frozen():
    assert support_set(WMZ, {3}, {0}) == (1, 2, 3)
    assert support_set(WMZ, {0}, {3}) == ()
    with pytest.raises(FinitenessError):
        support_set(WMZ, set(), {0})
    with pytest.raises(FinitenessError):
        support_set(WMZ, {2}, set())  # unbounded below over the integers
    with pytest.raises(FinitenessError):
        support_set(WMZ, set(), set())


def test_support_set_wm_n_clamps_at_zero():
    assert support_set(WMN, {2}, set()) == (0, 1, 2)
    assert support_set(WMN, {2}, {0}) == (1, 2)
    with pytest.raises(FinitenessError):
        support_set(WMN, set(), {1})


small_sets = st.sets(st.integers(min_value=-5, max_value=5), min_size=1,
                     max_size=3)


@given(small_sets, small_sets)
def test_support_empty_iff_crossing(X, Y):
    assert (support_set(WMZ, X, Y) == ()) == (min(X) <= max(Y))


@pytest.mark.parametrize("case", [WMZ, WMN])
@given(data=st.data())
def test_support_set_is_where_a_coeff_is_one(case, data):
    # every finite support: over Z that needs a Y constraint, over N it does not
    low = -5 if case is WMZ else 0
    index = st.integers(min_value=low, max_value=5)
    X = data.draw(st.sets(index, min_size=1, max_size=3))
    Y = data.draw(st.sets(index, min_size=1 if case is WMZ else 0, max_size=3))
    columns = range(low - 2 if case is WMZ else 0, 8)
    assert tuple(j for j in columns if a_coeff(case, X, Y, j) == 1) == support_set(case, X, Y)


@given(small_sets, small_sets, small_sets,
       st.integers(min_value=-6, max_value=6))
def test_a_coeff_multiplicative(X1, X2, Y, j):
    X2 = X2 - X1
    X = X1 | X2
    assert a_coeff(WMZ, X, Y, j) == a_coeff(WMZ, X1, Y, j) * a_coeff(WMZ, X2, Y, j)


def test_relation_instance_frozen():
    lhs, rhs = condition_elements(WMZ, [3], [0])
    assert equal_z(lhs, parse("q(3)(I - q(0))", "Z"))
    assert equal_z(rhs, parse("p(1) + p(2) + p(3)", "Z"))


def test_relation_instance_empty_support():
    lhs, rhs = condition_elements(WMZ, [0], [0])
    assert rhs.is_zero()
    # lhs = q(0)(I - q(0)) need not be syntactically zero, only equivalently
    assert equal_z(lhs, rhs)


def test_relation_ladder():
    # the instance X={j+1}, Y={j} rearranges to q_{j+1} = q_j + p_{j+1}
    for j in (-2, 0, 3):
        lhs, rhs = condition_elements(WMZ, [j + 1], [j])
        assert equal_z(parse(f"q({j + 1})", "Z"),
                       parse(f"q({j}) + p({j + 1})", "Z"))
        space = TruncSpace("Z", j - 2, j + 3, 3)
        assert verify_identity(space, lhs, rhs).passed


def test_condition_elements_pair_shape():
    lhs, rhs = condition_elements(WMZ, [2], [0])
    assert equal_z(lhs, parse("q(2)(I - q(0))", "Z"))
    total = Element.zero("Z")
    for j in support_set(WMZ, {2}, {0}):
        total = total + parse(f"p({j})", "Z")
    assert equal_z(rhs, total)


def test_verify_el_suite_small_exact():
    space = TruncSpace("Z", -4, 4, 3)
    report = verify_el_suite(space, universe=[-2, -1, 0, 1, 2], max_size=1)
    assert report.passed
    assert all(i.passed for i in report.instances)
    assert any(i.details.get("support") == "infinite"
               for i in report.instances)
    kinds = {i.id.split("[")[0] for i in report.instances}
    assert kinds == {"q-commute", "p-orthogonal", "q-on-p", "sum-relation",
                     "ladder"}


def test_verify_el_suite_explicit_pairs():
    space = TruncSpace("Z", -4, 4, 3)
    report = verify_el_suite(space, universe=[-1, 0, 1, 2],
                             pairs=[([2], [0]), ([1], [-1])])
    assert report.passed
    sums = [i for i in report.instances if i.id.startswith("sum-relation")]
    assert len(sums) == 2


def test_conditions_two_and_three():
    space = TruncSpace("Z", -4, 4, 3)
    zero = Element.zero("Z")
    assert verify_identity(space, parse("p(1)p(2)", "Z"), zero).passed
    assert verify_identity(space, parse("q(2)p(1)", "Z"), parse("p(1)", "Z")).passed
    assert verify_identity(space, parse("q(1)p(2)", "Z"), zero).passed


def test_remark_ladder_in_suite():
    space = TruncSpace("Z", -4, 4, 3)
    report = verify_el_suite(space, universe=[-1, 0, 1], max_size=1)
    ladder = [i for i in report.instances if i.id.startswith("ladder")]
    assert ladder and all(i.passed for i in ladder)


def test_max_size_past_the_universe_changes_only_the_config():
    space = TruncSpace("Z", -3, 3, 2)
    full = verify_el_suite(space, universe=[-1, 0, 1], max_size=3)
    past = verify_el_suite(space, universe=[-1, 0, 1], max_size=100_000)
    assert past.config["maxSize"] == 100_000
    assert [(i.id, i.passed, i.details) for i in past.instances] == \
        [(i.id, i.passed, i.details) for i in full.instances]


def test_pair_bound_is_checked_before_any_identity(monkeypatch):
    def no_identities(*args, **kwargs):
        raise AssertionError("identity checked above the pair bound")

    monkeypatch.setattr(exel_laca, "run_identity", no_identities)
    space = TruncSpace("Z", -10, 10, 2)
    # 1 + 17 + 136 + 680 = 834 subsets, so 695,556 pairs
    with pytest.raises(SizeLimitError, match="exceed the bound of 20,000"):
        verify_el_suite(space, universe=range(-8, 9), max_size=3)
    with pytest.raises(SizeLimitError):
        verify_el_suite(space, universe=range(-8, 9), max_size=10 ** 9)


# spec builds the space on a window, and the space's case picks the matrix
Z_SPACE = partial(TruncSpace, WMZ)
N_SPACE = partial(TruncSpace, WMN)


@pytest.mark.parametrize("spec, window, universe, pair, index", [
    (Z_SPACE, (-3, 3), range(-1, 2), ([99], []), 99),
    (Z_SPACE, (-3, 3), range(-1, 2), ([99], [0]), 99),
    (Z_SPACE, (-6, 6), range(-4, 5), ([5], [-5]), 5),
    (Z_SPACE, (-6, 6), range(-4, 5), ([0], [-5]), -5),
    (N_SPACE, (1, 6), range(3, 5), ([-5], []), -5),
])
def test_pair_indices_outside_the_universe_are_refused_before_any_identity(
        monkeypatch, spec, window, universe, pair, index):
    # a letter outside the universe could sit outside the columns' margin,
    # or outside the window, so such a pair is refused before any work
    def no_identities(*args, **kwargs):
        raise AssertionError("identity checked before the pair indices")

    monkeypatch.setattr(exel_laca, "run_identity", no_identities)
    space = spec(*window, 2)
    with pytest.raises(ValueError, match=rf"^pair index {index} outside the universe$"):
        verify_el_suite(space, universe=universe, pairs=[([], []), pair])


@pytest.mark.parametrize("pairs", [None, [([], [])]])
def test_an_empty_universe_is_refused_before_any_identity(monkeypatch, pairs):
    def no_identities(*args, **kwargs):
        raise AssertionError("identity checked for an empty universe")

    monkeypatch.setattr(exel_laca, "run_identity", no_identities)
    with pytest.raises(ValueError, match="^the universe is empty$"):
        verify_el_suite(TruncSpace("Z", -3, 3, 2), universe=[], pairs=pairs)
