"""Position moments, cyclicity polynomials, limits, commutants, reps."""

import cmath
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wmfock import scalars, spectral
from wmfock.expr import Case, parse
from wmfock.fock import (SparseMat, TruncSpace, apply_element_to_vector,
                         build_generator, evaluate)
from wmfock.spectral import (Polynomial, RepSpec, build_direct_sum,
                             commutant_dim, decompose, limit_residual,
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


def _rational_diagonal():
    # M[r, r] - M[c, c] is a sum of Fractions, and cancels for r, c = 0, 2
    return [SparseMat(3, 3, {(0, 0): Fraction(1, 2), (1, 1): Fraction(-1, 2),
                             (2, 2): Fraction(1, 2), (0, 1): Fraction(1, 3),
                             (1, 0): Fraction(1, 3)})]


@pytest.mark.parametrize("mats, dim, digest", [
    # rational entries
    (_positions_n13x4, 2,
     "ea8318e7ed22a552ff5c56f2556a9fc32a5c3163aecfa811040e90c005c735f3"),
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
    spec = RepSpec(0, "formal", space)
    s0 = rep_matrix(spec, 0)
    vac = space.position(())
    assert list(s0.entries) == [(vac, vac)]
    from wmfock.scalars import LaurentZ
    assert s0.entries[(vac, vac)] == LaurentZ({1: 1})

    spec2 = RepSpec(2, "formal", space)
    assert rep_matrix(spec2, 1).is_zero()
    assert rep_matrix(spec2, 0).is_zero()

    spec1 = RepSpec(1, 1, space)
    assert rep_matrix(spec1, 2).entries == build_generator(space, 1, True).entries


def test_rep_matrix_normal_partial_isometry():
    space = TruncSpace("N", 1, 3, 3)
    for level in (0, 1):
        spec = RepSpec(level, "formal", space)
        m = rep_matrix(spec, level)
        assert (m @ m.adjoint() - m.adjoint() @ m).is_zero()


def test_rep_spec_guards():
    space = TruncSpace("N", 1, 3, 3)
    with pytest.raises(ValueError):
        RepSpec(-1, "formal", space)
    with pytest.raises(ValueError):
        RepSpec(0, 2, space)  # not unimodular
    with pytest.raises(ValueError):
        RepSpec(0, 1, TruncSpace("Z", -1, 1, 2))


def test_verify_rep_formal():
    space = TruncSpace("N", 1, 4, 4)
    for level in (0, 1, 2):
        report = verify_rep(RepSpec(level, "formal", space), 4)
        assert report.passed, [i.id for i in report.instances if not i.passed]
        kinds = {i.id.split("[")[0] for i in report.instances}
        assert {"orthogonal", "sum-relation", "partial-isometry",
                "vacuum-projection", "gauge-degree"} <= kinds


def test_verify_rep_exactness():
    space = TruncSpace("N", 1, 3, 3)
    report = verify_rep(RepSpec(0, "formal", space), 3)
    for inst in report.instances:
        assert inst.discrepancy in (None, "exact-0", 0)


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
