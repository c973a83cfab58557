"""Position moments, cyclicity polynomials, limits, commutants, reps."""

import cmath
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wmfock import scalars, spectral
from wmfock.ergodic import check_cesaro_bound, check_nonconvergence
from wmfock.errors import SizeLimitError
from wmfock.expr import Case, Element, parse
from wmfock.fock import (SparseMat, TruncSpace, apply_element_to_vector,
                         build_generator, evaluate, level_image)
from wmfock.rewrite import equal_n
from wmfock.spectral import (Polynomial, RepSpec, build_direct_sum,
                             check_decompose_size, check_rep_size, commutant_dim, decompose,
                             limit_residual,
                             moment_sequence, poly_element, position_element,
                             recurrence_family, rep_matrix, vacuum_moment,
                             verify_qn, verify_rep)


def test_recurrence_frozen():
    fam = recurrence_family(3)
    assert fam[0].coeffs == (1,)
    assert fam[1].coeffs == (0, 1)
    assert fam[2].coeffs == (-1, 0, 1)
    assert fam[3].coeffs == (0, -2, 0, 1)


def test_recurrence_properties():
    fam = recurrence_family(12)
    for n in range(1, 12):
        lhs = fam[n + 1]
        rhs_coeffs = list(fam[n].times_x().coeffs)
        for k, c in enumerate(fam[n - 1].coeffs):
            rhs_coeffs[k] -= c
        assert lhs.coeffs == tuple(rhs_coeffs)
        assert fam[n].degree == n
        assert all(isinstance(c, int) for c in fam[n].coeffs)


def test_position_element():
    x = position_element(Case.Z, 1)
    assert x == parse("a(1) + c(1)", "Z")
    assert x.adjoint() == x


def test_vacuum_moment_frozen():
    x = position_element(Case.Z, 1)
    assert vacuum_moment(x, 0) == 1
    for k in (1, 3, 5, 7, 9):
        assert vacuum_moment(x, k) == 0
    catalan = oracles.catalan_numbers(6)
    for k, want in zip((2, 4, 6, 8, 10), catalan[1:6]):
        assert vacuum_moment(x, k) == want
    assert [vacuum_moment(x, k) for k in (2, 4, 6, 8, 10)] == [1, 2, 5, 14, 42]


def test_moment_sequence_matches_pointwise():
    x = position_element(Case.Z, 2)
    seq = moment_sequence(x, 8)
    assert seq == [vacuum_moment(x, k) for k in range(9)]
    assert all(isinstance(v, (int, Fraction)) for v in seq)


def _per_order_moment(x, order):
    """<vacuum, x^order vacuum> on a space sized for this order alone."""
    if order == 0:
        return 1
    idx = x.indices()
    if not idx:
        u = 1
        for _ in range(order):
            u = scalars.mul(u, x.unit)
        return u
    lo = min(idx) if x.case is Case.Z else max(min(idx), 1)
    space = TruncSpace(x.case, lo, max(idx), max(1, order * x.max_word_len()))
    vec = {(): 1}
    for _ in range(order):
        vec = apply_element_to_vector(space, x, vec)
    return vec.get((), 0)


@pytest.mark.parametrize("text, case", [
    ("x(1)", "Z"), ("x(1) + x(2)", "Z"), ("0.5*x(1) + c(2)", "Z"),
    ("1/2 x(1) + 3/4 c(1)a(1) + 2I", "Z"), ("x(1) + 1/3 x(2)", "N"),
    ("x(0) + x(1)", "N"), ("x(1) + 0.25*x(3)", "ANTI"), ("(1/2+1/3i) I", "Z"),
])
def test_moment_sweep_matches_per_order_moments(text, case):
    x = parse(text, case)
    want = [_per_order_moment(x, k) for k in range(9)]
    assert repr(moment_sequence(x, 8)) == repr(want)
    assert repr([vacuum_moment(x, k) for k in range(9)]) == repr(want)
    assert moment_sequence(x, 0) == [1] and moment_sequence(x, -1) == []


def test_moment_sweep_applies_x_once_per_order(monkeypatch):
    calls = [0]
    apply = spectral.apply_element_to_vector

    def counted(*args):
        calls[0] += 1
        return apply(*args)

    monkeypatch.setattr(spectral, "apply_element_to_vector", counted)
    seq = moment_sequence(position_element(Case.Z, 1), 12)
    assert calls[0] == 12
    assert seq[12] == 132


def test_moments_of_the_bottom_letter():
    # index 0 of N takes no window index: c(0) and p(0) are the vacuum
    # projection, x(0) twice it
    for text, base in [("c(0)", 1), ("p(0)", 1), ("x(0)", 2)]:
        assert moment_sequence(parse(text, "N"), 6) == [base ** k for k in range(7)]


def test_moments_independent_of_index():
    a = position_element(Case.Z, 0)
    b = position_element(Case.Z, -3)
    assert moment_sequence(a, 6) == moment_sequence(b, 6)


def test_verify_qn_report():
    space = TruncSpace("N", 1, 3, 6)
    report = verify_qn(space, 1, 6)
    assert report.passed
    ids = [i.id for i in report.instances]
    assert "qn[6]" in ids and "product[q2(2)q1(1)]" in ids
    for inst in report.instances:
        assert inst.passed


def test_qn_hits_basis_vector():
    # q_2(X_i) applied to the vacuum gives the two-particle column e_i (x) e_i
    from wmfock.fock import apply_element_to_vector
    space = TruncSpace("N", 1, 3, 4)
    fam = recurrence_family(2)
    q2 = poly_element(fam[2], position_element(Case.N, 2))
    got = apply_element_to_vector(space, q2, {(): 1})
    assert got == {(2, 2): 1}


def test_limit_residual_vacuum_closed_form():
    import math
    for N in (3, 12):
        space = TruncSpace("Z", -N, N, 2)
        got = limit_residual(space, N, ())
        assert got == pytest.approx(1 / math.sqrt(2 * N + 1), abs=1e-12)
    space = TruncSpace("Z", -12, 12, 2)
    assert limit_residual(space, 12, ()) == pytest.approx(0.2, abs=1e-12)


def test_limit_residual_excited_vector():
    residuals = []
    for N in (10, 20, 40):
        space = TruncSpace("Z", -N, N, 4)
        residuals.append(limit_residual(space, N, (2, 1)))
    assert residuals[0] > residuals[1] > residuals[2]
    for N, r in zip((10, 20, 40), residuals):
        count = 2 * N + 1
        bound = abs(0.5 - (N - 2) / count) + (N - 2) ** 0.5 / count + 2 / count
        assert r <= bound + 1e-12


def _squared_position_residual(space, n_window, xi):
    """limit_residual with each square applied as the element x * x."""
    acc = {}
    for i in range(-n_window, n_window + 1):
        sq = position_element(Case.Z, i)
        for t, v in apply_element_to_vector(space, sq * sq, {xi: 1}).items():
            acc[t] = scalars.add(acc.get(t, 0), v)
    resid = {t: v * Fraction(1, 2 * n_window + 1) for t, v in acc.items()}
    resid[xi] = resid.get(xi, 0) - (1 if xi == () else Fraction(1, 2))
    return math.sqrt(float(sum(scalars.abs2(v) for v in resid.values())))


@pytest.mark.parametrize("n_window, xi", [(3, ()), (5, (2,)), (4, (3, 1, -2)), (6, (0, 0))])
def test_limit_residual_matches_squared_element(n_window, xi):
    space = TruncSpace("Z", -n_window, n_window, len(xi) + 2)
    assert limit_residual(space, n_window, xi) == \
        _squared_position_residual(space, n_window, xi)


def test_limit_residual_guards():
    space = TruncSpace("Z", -3, 3, 2)
    with pytest.raises(ValueError):
        limit_residual(space, 5, ())
    with pytest.raises(ValueError):
        limit_residual(space, 3, (1,))  # needs two spare particle levels


def test_commutant_frozen_instances():
    s1 = TruncSpace("N", 1, 1, 1)
    a1 = build_generator(s1, 1, True)
    dim, basis = commutant_dim([a1])
    assert dim == 1 and len(basis) == 1

    x1 = evaluate(s1, parse("x(1)", "N"))
    dim, _ = commutant_dim([x1])
    assert dim == 2

    s2 = TruncSpace("N", 1, 2, 2)
    gens = [build_generator(s2, i, True) for i in (1, 2)]
    dim, _ = commutant_dim(gens)
    assert dim == 1


def test_commutant_basis_commutes():
    space = TruncSpace("N", 1, 2, 2)
    gens = [build_generator(space, i, True) for i in (1, 2)]
    dim, basis = commutant_dim(gens)
    for t in basis:
        for m in gens:
            assert (t @ m - m @ t).is_zero()
            assert (t @ m.adjoint() - m.adjoint() @ t).is_zero()


def test_commutant_monotone():
    space = TruncSpace("N", 1, 2, 2)
    a1 = build_generator(space, 1, True)
    a2 = build_generator(space, 2, True)
    d1, _ = commutant_dim([a1])
    d12, _ = commutant_dim([a1, a2])
    assert d12 <= d1


def _basis_digest(basis):
    data = repr([sorted((pos, repr(v)) for pos, v in m.entries.items()) for m in basis])
    return hashlib.sha256(data.encode()).hexdigest()


def _positions_n13x4():
    space = TruncSpace("N", 1, 3, 4)
    return [evaluate(space, parse(f"x({i})", "N")) for i in (1, 2, 3)]


def _level_zero_gaussian():
    phase = scalars.gaussian(Fraction(3, 5), Fraction(4, 5))
    spec = RepSpec(0, phase, TruncSpace("N", 1, 3, 3))
    return [rep_matrix(spec, i) for i in range(4)]


def _positions_n12x9():
    # n = 55: 3,025 unknowns
    space = TruncSpace("N", 1, 2, 9)
    return [evaluate(space, parse(f"x({i})", "N")) for i in (1, 2)]


def _rational_diagonal():
    # M[r, r] - M[c, c] is a sum of Fractions, and cancels for r, c = 0, 2
    return [SparseMat(3, 3, {(0, 0): Fraction(1, 2), (1, 1): Fraction(-1, 2),
                             (2, 2): Fraction(1, 2), (0, 1): Fraction(1, 3),
                             (1, 0): Fraction(1, 3)})]


@pytest.mark.parametrize("mats, dim, digest", [
    # rational entries
    (_positions_n13x4, 2,
     "ea8318e7ed22a552ff5c56f2556a9fc32a5c3163aecfa811040e90c005c735f3"),
    (_positions_n12x9, 1,
     "4d1be548f3c372d5d487143109850c013a41617c756cc3619004dfae79314416"),
    # a Gaussian phase
    (_level_zero_gaussian, 1,
     "0ae706a265a444fbf04cb9b20dbf67c4a24ea0d01f2d1e902378d85e71d8aa12"),
    # rational diagonal entries: the one coefficient that is a sum
    (_rational_diagonal, 3,
     "2834c578919c4b6847c4e2d864e0c1631b8c6306a8d0258079bfeee7f92af55c"),
])
def test_commutant_basis_byte_identical(mats, dim, digest):
    # sha256 of every basis entry's position and repr, as first recorded
    got_dim, basis = commutant_dim(mats())
    assert got_dim == dim
    assert _basis_digest(basis) == digest


def test_rep_matrix_frozen():
    space = TruncSpace("N", 1, 3, 3)
    s0 = rep_matrix(RepSpec(0, 1, space), 0)
    vac = space.position(())
    assert s0.entries == {(vac, vac): 1}

    spec2 = RepSpec(2, 1, space)
    assert rep_matrix(spec2, 1).is_zero()
    assert rep_matrix(spec2, 0).is_zero()

    spec1 = RepSpec(1, 1, space)
    assert rep_matrix(spec1, 2).entries == build_generator(space, 1, True).entries

    # a numeric phase at the level is stored as it is, and the generators
    # above the level are the creators
    for phase in (scalars.gaussian(Fraction(3, 5), Fraction(4, 5)), -1.0):
        spec = RepSpec(1, phase, space)
        level = rep_matrix(spec, 1).entries
        assert level == {(vac, vac): phase}
        assert type(level[(vac, vac)]) is type(phase)
        for i in (2, 3, 4):
            assert rep_matrix(spec, i).entries == build_generator(space, i - 1, True).entries


def _three_way_rep_matrix(spec, i):
    """rep_matrix as first written: zero below the level, the phase on the
    bottom letter c(0) at it, and c(i - level) above it."""
    if i < spec.level:
        x = Element.zero(Case.N)
    elif i == spec.level:
        x = Element.word(Case.N, ((0, True),), spec.phase)
    else:
        x = Element.creator(Case.N, i - spec.level)
    return evaluate(spec.space, x)


@pytest.mark.parametrize("phase", [1j, 1, scalars.gaussian(Fraction(3, 5), Fraction(4, 5)),
                                   -1.0], ids=["1j", "1", "3/5+4/5i", "-1.0"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_rep_matrix_matches_the_three_way_reference(level, phase):
    # the level map gives the same entries, in the same order, of the same types
    spec = RepSpec(level, phase, TruncSpace("N", 1, 3, 3))
    for i in range(level + 4):
        got, want = rep_matrix(spec, i).entries, _three_way_rep_matrix(spec, i).entries
        assert list(got.items()) == list(want.items())
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
    with pytest.raises(ValueError, match="generator indices are nonnegative"):
        rep_matrix(spec, -1)


def test_rep_matrix_normal_partial_isometry():
    space = TruncSpace("N", 1, 3, 3)
    for level, phase in ((0, scalars.gaussian(Fraction(3, 5), Fraction(4, 5))), (1, -1)):
        spec = RepSpec(level, phase, space)
        m = rep_matrix(spec, level)
        assert (m @ m.adjoint() - m.adjoint() @ m).is_zero()


def test_rep_spec_guards():
    space = TruncSpace("N", 1, 3, 3)
    with pytest.raises(ValueError):
        RepSpec(-1, 1, space)
    with pytest.raises(ValueError):
        RepSpec(0, 2, space)  # not unimodular
    with pytest.raises(ValueError):
        RepSpec(0, 1, TruncSpace("Z", -1, 1, 2))
    with pytest.raises(ValueError):
        RepSpec(0, 1 + Fraction(1, 10 ** 15), space)  # exact: no tolerance


def test_verify_rep_refuses_a_negative_level_before_any_matrix(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("a matrix was built before the level was checked")
    monkeypatch.setattr(spectral, "rep_matrix", no_matrix)
    monkeypatch.setattr(spectral, "evaluate", no_matrix)
    with pytest.raises(ValueError, match="level must be nonnegative"):
        verify_rep(TruncSpace("N", 1, 3, 3), -1, 3)


def test_verify_rep_formal():
    space = TruncSpace("N", 1, 4, 4)
    for level in (0, 1, 2):
        report = verify_rep(space, level, 4)
        assert report.passed, [i.id for i in report.instances if not i.passed]
        kinds = {i.id.split("[")[0] for i in report.instances}
        assert {"orthogonal", "sum-relation", "partial-isometry",
                "vacuum-projection", "gauge-degree"} <= kinds


def test_verify_rep_exactness():
    space = TruncSpace("N", 1, 3, 3)
    report = verify_rep(space, 0, 3)
    for inst in report.instances:
        assert inst.discrepancy in (None, "exact-0", 0)


# negative controls: the level map as it is, gauged with the conjugate
# phase, ignoring the level (always level 0), and ignoring the gauge
# (always phase 1), with the instances each one fails at level 1.  The
# relations are checked at phase 1, so only gauge-degree sees a gauge fault
REP_FAULTS = [
    (level_image, []),
    (lambda x, level, z: level_image(x, level, z.conjugate()), ["gauge-degree[1]"]),
    (lambda x, level, z: level_image(x, 0, z), ["vacuum-projection"]),
    (lambda x, level, z: level_image(x, level, 1), ["gauge-degree[1]"]),
]


@pytest.mark.parametrize("level_map, failing", REP_FAULTS,
                         ids=["as-is", "conjugate-gauge", "level-ignored", "gauge-ignored"])
def test_rep_n_refutes_a_faulty_level_map(monkeypatch, level_map, failing):
    monkeypatch.setattr(spectral, "level_image", level_map)
    report = verify_rep(TruncSpace("N", 1, 4, 3), 1, 3)
    assert len(report.instances) == 25
    assert [i.id for i in report.instances if not i.passed] == failing


def test_decompose_frozen_mixture():
    gens, meta = build_direct_sum(3, 3, [(0, 1j, 1), (1, -1, 2)])
    assert meta["zeroDim"] == 0
    result = decompose(gens)
    got = sorted(((c.level, c.phase, c.multiplicity) for c in result.components),
                 key=lambda t: t[0])
    assert len(got) == 2
    level0, level1 = got
    assert level0[0] == 0 and level0[2] == 1
    assert abs(level0[1] - 1j) <= 1e-9
    assert level1[0] == 1 and level1[2] == 2
    assert abs(level1[1] - (-1)) <= 1e-9
    assert result.residual_dim == 0


def test_decompose_single_component():
    gens, _ = build_direct_sum(2, 2, [(0, 1, 1)])
    result = decompose(gens)
    assert [(c.level, c.multiplicity) for c in result.components] == [(0, 1)]
    assert abs(result.components[0].phase - 1) <= 1e-9
    assert result.residual_dim == 0


def test_decompose_zero_block_is_residual():
    gens, _ = build_direct_sum(2, 2, [(0, 1, 1)], zero_dim=3)
    result = decompose(gens)
    assert [(c.level, c.multiplicity) for c in result.components] == [(0, 1)]
    assert result.residual_dim == 3


def test_decompose_round_trip_random():
    import random
    rng = random.Random(41)
    for _ in range(6):
        comps = []
        for level in range(rng.randint(1, 2)):
            k = rng.randint(1, 2)
            angles = rng.sample(range(8), k)
            for a in angles:
                comps.append((level, cmath.exp(2j * cmath.pi * a / 8),
                              rng.randint(1, 2)))
        gens, _ = build_direct_sum(2, 2, comps)
        result = decompose(gens)
        want = sorted((l, round(p.real, 6), round(p.imag, 6), m)
                      for l, p, m in comps)
        got = sorted((c.level, round(c.phase.real, 6), round(c.phase.imag, 6),
                      c.multiplicity) for c in result.components)
        assert got == want
        assert result.residual_dim == 0


def _full_nullspace(a, tol=1e-9):
    """_nullspace_dense as it was: always the full SVD."""
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vt = np.linalg.svd(a)
    cut = tol * max(1.0, s[0] if len(s) else 0.0)
    rank = int(np.sum(s > cut))
    return vt[rank:].conj().T


def _iterated_range_dim(dense, vacua):
    """The reachable span as it was computed: every generator and adjoint
    applied to the whole span, until a round adds nothing."""
    span = spectral._orth_columns(np.column_stack(vacua))
    while True:
        grown = [span]
        for mat in dense:
            grown.append(mat @ span)
            grown.append(mat.conj().T @ span)
        new_span = spectral._orth_columns(np.hstack(grown))
        if new_span.shape[1] == span.shape[1]:
            return new_span.shape[1]
        span = new_span


# int, Gaussian-rational and float phases
PHASES = [1, -1, scalars.gaussian(0, 1), scalars.gaussian(Fraction(3, 5), Fraction(-4, 5)),
          scalars.gaussian(Fraction(-5, 13), Fraction(12, 13)), -1.0, complex(0.6, 0.8),
          cmath.exp(2j * cmath.pi / 8)]


@st.composite
def direct_sums(draw):
    d = draw(st.integers(1, 3))
    particles = draw(st.integers(1, 3))
    comps = draw(st.lists(st.tuples(st.integers(0, d - 1), st.sampled_from(PHASES),
                                    st.integers(1, 2)), min_size=1, max_size=3))
    return d, particles, comps, draw(st.integers(0, 3))


@given(direct_sums())
@settings(max_examples=40, deadline=None)
def test_decompose_matches_full_svd_and_iterated_range(spec):
    d, particles, comps, zero_dim = spec
    gens, meta = build_direct_sum(d, particles, comps, zero_dim)
    assert check_decompose_size(d, particles, comps, zero_dim) == meta["dim"]
    seen = []
    thin, reach = spectral._nullspace_dense, spectral._reachable_dim

    def nullspace_spy(a):
        got = thin(a)
        assert np.array_equal(got, _full_nullspace(a))
        seen.append(a.shape)
        return got

    def reach_spy(dense, vacua):
        got = reach(dense, vacua)
        assert got == _iterated_range_dim(dense, vacua)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_nullspace_dense", nullspace_spy)
        mp.setattr(spectral, "_reachable_dim", reach_spy)
        result = decompose(gens)
    assert len(seen) == d + 1 and all(rows >= cols for rows, cols in seen)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_nullspace_dense", _full_nullspace)
        mp.setattr(spectral, "_reachable_dim", _iterated_range_dim)
        want = decompose(gens)
    assert repr(result.components) == repr(want.components)
    assert result.details == want.details
    assert result.residual_dim == want.residual_dim


def test_decompose_size_bounds():
    # the closed form agrees with the built sum, and the bounds fire before
    # any block is built, however large the spec
    for d, particles, comps, zero_dim in [(3, 3, [(0, 1j, 1), (1, -1, 2)], 0),
                                          (4, 2, [(3, 1, 2)], 5), (2, 0, [(1, 1, 3)], 1)]:
        _, meta = build_direct_sum(d, particles, comps, zero_dim)
        assert check_decompose_size(d, particles, comps, zero_dim) == meta["dim"]
    assert check_decompose_size(1, 299, [(0, 1, 1)]) == spectral.DECOMPOSE_MAX_DIM
    for d, particles, comps, zero_dim, match in [
            (1, 300, [(0, 1, 1)], 0, "dimension exceeds"),
            (3, 10 ** 100, [(0, 1, 1)], 0, "dimension exceeds"),
            (10 ** 100, 10 ** 100, [(0, 1, 1)], 0, "dimension exceeds"),
            (3, 3, [], 301, "dimension exceeds"),
            (7, 2, [(0, 1, 7)], 33, "above the bound"),
            (10 ** 6, 0, [], 0, "above the bound")]:
        with pytest.raises(SizeLimitError, match=match):
            check_decompose_size(d, particles, comps, zero_dim)
    with pytest.raises(ValueError, match="0 <= level < d"):
        check_decompose_size(3, 3, [(3, 1, 1)])
    with pytest.raises(ValueError, match="multiplicity"):
        check_decompose_size(3, 3, [(0, 1, 0)])


def _no_dimension(space):
    raise AssertionError("a guard read the dimension of a space not yet bounded")


# a 1,000-letter word over 200 indices: its moment space has a dimension
# of thousands of digits
LONG_WORD = "".join(f"c({i % 200 + 1})" for i in range(1000))
# 1,500 creators at index 10^6
WIDE_WORD = Element.word("N", ((1_000_000, True),) * 1500)


@pytest.mark.parametrize("refuse, match", [
    (lambda: check_cesaro_bound(TruncSpace("Z", 1, 100_000, 2), parse("c(1)", "Z"), 100_000),
     "exceeds cap"),
    (lambda: check_nonconvergence(TruncSpace("Z", -100_000, 0, 2), 100_000), "word evaluations"),
    (lambda: moment_sequence(parse(LONG_WORD, "Z"), 447), "above the bound"),
    (lambda: check_decompose_size(3, 10 ** 100, [(0, 1, 1)]), "decompose bound"),
    (lambda: verify_rep(TruncSpace("N", 1, 3, 20_000_000), 0, 3),
     "exceeds cap"),
    (lambda: check_rep_size(TruncSpace("N", 1, 3, 20_000_000), 3, 3), "rep-n suite"),
    (lambda: check_rep_size(TruncSpace("N", 1, 2, 1), 1, 3000), "rep-n suite"),
    # equal_n's column count here has thousands of digits, too many to print
    (lambda: equal_n(WIDE_WORD, WIDE_WORD), "bound of 200,000 columns"),
])
def test_refusals_never_sum_the_space(monkeypatch, refuse, match):
    monkeypatch.setattr(TruncSpace, "dimension", property(_no_dimension))
    with pytest.raises(SizeLimitError, match=match):
        refuse()


# each bound is drawn next to the closed form the guard used to compute
@given(st.sampled_from(["x(1)", "2I", "c(1)c(2)", "x(1) + a(2)c(3)", "c(3)a(1)"]),
       st.integers(1, 8), st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_moment_bound_refuses_where_the_product_passes(text, order, delta):
    x = parse(text, "Z")
    idx = x.indices()
    tuples = sum(math.comb(max(idx) - min(idx) + k, k)
                 for k in range(max(1, order * x.max_word_len()) + 1)) if idx else 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "MOMENTS_MAX_WORK", order * max(order, tuples) + delta)
        if delta < 0:
            with pytest.raises(SizeLimitError, match="above the bound"):
                moment_sequence(x, order)
        else:
            assert len(moment_sequence(x, order)) == order + 1


@given(st.integers(1, 4), st.integers(0, 4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=3),
       st.integers(0, 10), st.integers(-2, 2))
@settings(max_examples=150, deadline=None)
def test_decompose_bound_refuses_where_the_sum_passes(d, particles, comps, zero_dim, delta):
    comps = [(level % d, 1, mult) for level, mult in comps]
    dim = zero_dim + sum(mult * math.comb(d - level + particles, particles)
                         for level, _, mult in comps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "DECOMPOSE_MAX_DIM", dim + delta)
        mp.setattr(spectral, "DECOMPOSE_MAX_WORK", 10 ** 18)  # the dimension bound alone
        if delta < 0:
            with pytest.raises(SizeLimitError, match="decompose bound"):
                check_decompose_size(d, particles, comps, zero_dim)
        else:
            assert check_decompose_size(d, particles, comps, zero_dim) == dim


@given(st.integers(1, 5), st.integers(0, 4), st.integers(1, 4), st.integers(0, 5),
       st.integers(0, 50), st.integers(-2, 2))
@settings(max_examples=150, deadline=None)
def test_rep_bound_refuses_where_the_work_passes(hi, particles, levels, max_index,
                                                  min_cost, delta):
    dim = math.comb(hi + particles, particles)
    work = levels * (max_index + 2) ** 2 * max(dim * particles, min_cost)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "REP_MAX_WORK", work + delta)
        mp.setattr(spectral, "REP_MIN_COST", min_cost)
        if delta < 0:
            with pytest.raises(SizeLimitError, match="rep-n suite"):
                check_rep_size(TruncSpace("N", 1, hi, particles), levels, max_index)
        else:
            check_rep_size(TruncSpace("N", 1, hi, particles), levels, max_index)


def test_moment_sweep_bound():
    bound = spectral.MOMENTS_MAX_WORK
    top = math.isqrt(bound)
    assert len(moment_sequence(parse("2I", "Z"), top)) == top + 1
    for text, order in [("2I", top + 1), ("x(1)", top + 1), ("x(1)", 10 ** 9),
                        ("x(1) + x(2) + x(3)", 40)]:
        with pytest.raises(SizeLimitError, match="above the bound"):
            moment_sequence(parse(text, "Z"), order)


@given(st.integers(min_value=0, max_value=10))
@settings(max_examples=11, deadline=None)
def test_polynomial_eval_against_recurrence(n):
    # evaluate q_n at sample points through the recurrence directly
    fam = recurrence_family(max(n, 1))
    for x in (-2, 0, Fraction(1, 2), 3):
        a, b = 1, x
        for _ in range(2, n + 1):
            a, b = b, x * b - a
        direct = b if n >= 1 else 1
        poly = fam[n]
        val = sum(c * x ** k for k, c in enumerate(poly.coeffs))
        assert val == direct
