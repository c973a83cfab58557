"""Acceptance gate: one test per shipped criterion, tolerances pinned.

Run with -v to get one pass/fail line per criterion.  Randomized corpora
use fixed seeds so every run checks the identical instances.  Exact
comparisons are integer/Fraction equality; float tolerances are written
out literally at each assertion.
"""

import math
import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import oracles
from conftest import random_element_anti, random_element_z
from wmfock.exactla import rank_of
from wmfock.exel_laca import verify_el_suite
from wmfock.ergodic import (check_cesaro_bound, check_nonconvergence,
                            omega_t, vacuum_certificate)
from wmfock.expr import Case, Element, parse
from wmfock.fock import (TruncSpace, apply_element_to_vector, column_action,
                         interior_tuples, verify_identity, word_image)
from wmfock.rewrite import classify_word, normalize_z
from wmfock.spectral import (build_direct_sum, commutant_dim, decompose,
                             limit_residual, poly_element,
                             position_element, recurrence_family,
                             vacuum_moment, verify_qn, verify_rep)

T0 = time.time()

ORACLE_CAP = 32


def exact_apply(case, element, col):
    """Untruncated action on one column, exact coefficient arithmetic."""
    out = {}

    def bump(t, c):
        s = out.get(t, 0) + c
        if s == 0:
            out.pop(t, None)
        else:
            out[t] = s

    if element.unit:
        bump(col, element.unit)
    for w, coeff in element.terms.items():
        img = oracles.act_word(case, w, col, ORACLE_CAP)
        if img is not None:
            bump(img, coeff)
    return out


def columns_agree(space, lhs, rhs, t):
    va = column_action(space, lhs, t)
    vb = column_action(space, rhs, t)
    return all(va.get(k, 0) == vb.get(k, 0) for k in set(va) | set(vb))


def test_criterion_01_rewrite_soundness_z():
    started = time.time()
    rng = Random(20260819)
    space = TruncSpace("Z", -7, 7, 9)
    for _ in range(1000):
        length = rng.randint(1, 8)
        w = tuple((rng.randint(-5, 5), rng.random() < 0.5)
                  for _ in range(length))
        x = Element.word("Z", w)
        normal = normalize_z(x).to_element()
        diff = x - normal

        # zero operator on the determining columns pins the zero element
        words = list(diff.terms)
        if diff.unit:
            words.append(())
        for col in oracles.determining_columns("Z", words):
            assert exact_apply("Z", diff, col) == {}

        # direct interior check at the conservative margin, exact
        chk = verify_identity(space, x, normal, margin=8)
        assert chk.passed and chk.exact and chk.max_discrepancy == 0.0

        # spot probes across the least-margin interior
        margin = max(x.max_surplus(), normal.max_surplus())
        for _ in range(3):
            level = rng.randint(0, space.trunc - margin)
            t = tuple(sorted((rng.randint(-7, 7) for _ in range(level)),
                             reverse=True))
            assert columns_agree(space, x, normal, t)
    assert time.time() - started < 60.0


def random_hamel_word(rng):
    while True:
        if rng.random() < 0.15:
            i = rng.randint(-4, 4)
            return ((i, False), (i, True))
        nc = rng.randint(0, 2)
        na = rng.randint(0, 2)
        creators = sorted(rng.sample(range(-4, 5), nc), reverse=True)
        annihilators = sorted(rng.sample(range(-4, 5), na))
        w = []
        for i in creators:
            w.extend([(i, True)] * rng.randint(1, 2))
        for i in annihilators:
            w.extend([(i, False)] * rng.randint(1, 2))
        w = tuple(w)
        if not w or len(w) > 4:
            continue
        if classify_word(w).kind not in ("lambda", "pair"):
            continue
        return w


def test_criterion_02_hamel_independence():
    rng = Random(77)
    words = set()
    while len(words) < 60:
        words.add(random_hamel_word(rng))
    words = sorted(words)
    space = TruncSpace("Z", -6, 6, 5)
    interior = list(interior_tuples(space, 1))
    rows = []
    for w in words:
        row = {}
        for t in interior:
            img = word_image(space, w, t)
            if img is not None:
                row[(t, img)] = 1
        rows.append(row)
    assert rank_of(rows) == 60

    keys = sorted({k for row in rows for k in row})
    pos = {k: j for j, k in enumerate(keys)}
    dense = np.zeros((60, len(keys)))
    for r, row in enumerate(rows):
        for k, v in row.items():
            dense[r, pos[k]] = v
    assert oracles.float_rank(dense) == 60


def test_criterion_03_exel_laca_suite():
    started = time.time()
    space = TruncSpace("Z", -6, 6, 4)
    report = verify_el_suite(space, universe=range(-4, 5), max_size=2)
    assert report.passed
    for inst in report.instances:
        assert inst.passed, inst.id
    ladder = {i.id for i in report.instances if i.id.startswith("ladder")}
    for j in range(-3, 4):
        assert f"ladder[q({j + 1})=q({j})+p({j + 1})]" in ladder
    assert time.time() - started < 30.0


def test_criterion_04_wigner_moments():
    x = position_element(Case.Z, 1)
    catalan = oracles.catalan_numbers(6)
    for order, want in zip((2, 4, 6, 8, 10), catalan[1:]):
        assert vacuum_moment(x, order) == want
    assert [vacuum_moment(x, k) for k in (2, 4, 6, 8, 10)] == [1, 2, 5, 14, 42]
    for order in (1, 3, 5, 7, 9):
        assert vacuum_moment(x, order) == 0


def test_criterion_05_cyclicity_polynomials():
    space = TruncSpace("N", 1, 3, 6)
    report = verify_qn(space, 1, 6)
    assert report.passed
    ids = {i.id for i in report.instances}
    assert {f"qn[{k}]" for k in range(7)} <= ids
    assert "product[q2(2)q1(1)]" in ids
    for inst in report.instances:
        assert inst.passed, inst.id

    fam = recurrence_family(2)
    q2 = poly_element(fam[2], position_element(Case.N, 2))
    q1 = poly_element(fam[1], position_element(Case.N, 1))
    got = apply_element_to_vector(space, q2 * q1, {(): 1})
    assert got == {(2, 2, 1): 1}


def test_criterion_06_averaging_limit():
    for n in (10, 20, 40):
        space = TruncSpace("Z", -n, n, 2)
        got = limit_residual(space, n, ())
        assert abs(got - 1 / math.sqrt(2 * n + 1)) <= 1e-12

    residuals = []
    for n in (10, 20, 40):
        space = TruncSpace("Z", -n, n, 4)
        r = limit_residual(space, n, (2, 1))
        count = 2 * n + 1
        bound = (abs(0.5 - (n - 2) / count)
                 + math.sqrt(n - 2) / count + 2 / count)
        assert r <= bound + 1e-12
        residuals.append(r)
    assert residuals[0] > residuals[1] > residuals[2]


def test_criterion_07_cesaro_and_nonconvergence():
    for text in ("c(0)", "c(0)c(-1)", "a(2)"):
        word = parse(text, "Z")
        idx = word.indices()
        for n in (4, 16, 64):
            space = TruncSpace("Z", min(idx) - 1, max(idx) + n,
                               word.max_word_len() + 1)
            chk = check_cesaro_bound(space, word, n)
            assert chk.passed
            assert chk.norm_lower <= 1 / math.sqrt(n) + 1e-9

    for n in (4, 8, 16):
        space = TruncSpace("Z", -n, 1, 2)
        chk = check_nonconvergence(space, n)
        assert chk.passed
        assert chk.norm_sq == 1


def test_criterion_08_invariant_states():
    rng = Random(808)
    ts = (Fraction(0), Fraction(1, 3), Fraction(1))
    for _ in range(200):
        x = random_element_z(rng)
        for t in ts:
            assert omega_t(x.shift(1), t) == omega_t(x, t)
            v = omega_t(x.adjoint() * x, t)
            assert float(v) >= -1e-12

        idx = x.indices()
        lo = (min(idx) if idx else 0) - 1
        hi = (max(idx) if idx else 0) + 1
        space = TruncSpace("Z", lo, hi, x.max_word_len() + 1)
        vac_image = apply_element_to_vector(space, x, {(): 1})
        assert omega_t(x, Fraction(1)) == vac_image.get((), 0)


def test_criterion_09_vacuum_certificate():
    assert vacuum_certificate(parse("a(0)c(0)", "Z")) == 1.0
    rng = Random(909)
    for _ in range(500):
        x = random_element_z(rng, with_unit=False)
        assert vacuum_certificate(x) >= 0.5 - 1e-12


def test_criterion_10_n_case_representations():
    space = TruncSpace("N", 1, 5, 4)
    for level in (0, 1, 2):
        report = verify_rep(space, level, 5)
        assert report.passed
        assert any(i.id.startswith("vacuum-projection")
                   for i in report.instances)
        for inst in report.instances:
            assert inst.passed, inst.id
            assert inst.discrepancy in (None, "exact-0", 0)

    gens, _ = build_direct_sum(3, 3, [(0, 1j, 1), (1, -1, 2)])
    result = decompose(gens)
    got = sorted(((c.level, c.phase, c.multiplicity)
                  for c in result.components), key=lambda c: c[0])
    assert [(c[0], c[2]) for c in got] == [(0, 1), (1, 2)]
    assert abs(got[0][1] - 1j) <= 1e-9
    assert abs(got[1][1] - (-1)) <= 1e-9
    assert result.residual_dim == 0


def test_criterion_11_commutant_dimensions():
    from wmfock.fock import build_generator, evaluate

    one_mode = TruncSpace("N", 1, 1, 1)
    a1 = build_generator(one_mode, 1, True)
    assert commutant_dim([a1])[0] == 1
    assert commutant_dim([evaluate(one_mode, parse("x(1)", "N"))])[0] == 2

    two_mode = TruncSpace("N", 1, 2, 2)
    gens = [build_generator(two_mode, i, True) for i in (1, 2)]
    assert commutant_dim(gens)[0] == 1


def test_criterion_12_anti_monotone():
    space = TruncSpace("ANTI", 1, 4, 4)
    chk = verify_identity(space, parse("a(1)c(1)", "ANTI"),
                          Element.one("ANTI"))
    assert chk.passed and chk.exact
    assert chk.discrepancy_json == "exact-0"

    rng = Random(1212)
    for _ in range(100):
        x = random_element_anti(rng)
        assert vacuum_certificate(x) >= 0.5 - 1e-12


def test_total_runtime_within_target():
    assert time.time() - T0 < 300.0
