"""The benchmark's workloads: seeded inputs, job lists and verdict checks.

A job is one call into wmfock: ``cli.main`` with an argv, or one library
function.  Each job carries a check that compares its result with an answer
from a route independent of the timed call: a closed form, a documented
value, or the reference implementations in ``tests/oracles.py``.  Checks run
after the timed passes.  Job callables look functions up on their module at
call time, so that a tracer's wrappers are the code that runs, and they build
their spaces afresh, so that no pass reuses a basis an earlier pass built.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import oracles
from wmfock import cli, exactla, fock, rewrite, scalars, spectral
from wmfock.expr import Case, Element, parse

# cap handed to the oracle's tuple action where truncation must never bite
UNTRUNCATED = 64


@dataclass
class Job:
    label: str
    call: Callable[[], Any]
    # None when the result is right, otherwise the reason it is wrong
    check: Callable[[Any], Optional[str]]
    # work counts the traced run must reproduce, as measured on the seed commit
    pin: Optional[Dict[str, int]] = None


# --- CLI jobs -------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: List[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_job(argv: List[str], check_output: Callable[[Any], Optional[str]],
            csv: bool = False) -> Job:
    def check(res: CliResult) -> Optional[str]:
        if res.code != 0:
            return f"exit code {res.code}: {res.err.strip()[:200]}"
        return check_output(res.out if csv else json.loads(res.out))

    return Job("wmfock " + " ".join(argv), lambda: run_cli(argv), check)


def all_pass(total: int):
    """Report check: exactly `total` instances, each passing with an exact-0 certificate."""
    def check(rep) -> Optional[str]:
        failing = [i["id"] for i in rep["instances"]
                   if not i["pass"] or i.get("discrepancy", "exact-0") != "exact-0"]
        if failing:
            return f"failing instances {failing[:5]}"
        if len(rep["instances"]) != total:
            return f"{len(rep['instances'])} instances, want {total}"
        return None
    return check


def exel_laca_total(universe: int, max_size: int) -> int:
    """Instance count of verify_el_suite over a universe of that many indices."""
    subsets = sum(math.comb(universe, k) for k in range(max_size + 1))
    return 3 * math.comb(universe, 2) + universe ** 2 + subsets ** 2 + (universe - 1)


# Counts of the criterion-03 run on the seed commit (the ROADMAP baseline).
# Work-saving changes to the scalar tower or the word action move them.
CRITERION_03_PIN = {"instances": 2313, "columns": 524480, "cache_hits": 1378080,
                    "cache_misses": 500280, "cache_peak": 500280,
                    "fraction_allocs": 2488704}


def exel_laca(seed: int) -> List[Job]:
    """Criterion 03 on a Z window shifted by 0..6, then the WM_N kind on 1..10."""
    shift = seed % 7
    jobs = []
    for lo, hi in ((-6 + shift, 6 + shift), (1, 10)):
        argv = ["verify", "--suite", "exel-laca", "--window", f"{lo}..{hi}",
                "--particles", "4"]
        universe = (hi - 2) - (lo + 2) + 1
        jobs.append(cli_job(argv, all_pass(exel_laca_total(universe, 2))))
    jobs[0].pin = CRITERION_03_PIN
    return jobs


# --- cli-mix ----------------------------------------------------------------------

def catalan_moments(max_order: int) -> List[int]:
    cat = oracles.catalan_numbers(max_order // 2 + 1)
    return [cat[k // 2] if k % 2 == 0 else 0 for k in range(max_order + 1)]


def expect_fields(want: Dict[str, Any], index: int = 0, where: str = "details"):
    def check(rep) -> Optional[str]:
        inst = rep["instances"][index]
        got = {k: inst.get(where, {}).get(k) for k in want}
        if not inst["pass"] or got != want:
            return f"{inst['id']}: pass={inst['pass']} {got}, want {want}"
        return None
    return check


def expect_key(key: str, want):
    def check(rep) -> Optional[str]:
        return None if rep.get(key) == want else f"{key}={rep.get(key)!r}, want {want!r}"
    return check


def close_to(want: float, tol: float):
    def check(rep) -> Optional[str]:
        inst = rep["instances"][0]
        got = inst.get("discrepancy")
        if not inst["pass"] or got is None or abs(got - want) > tol:
            return f"{inst['id']}: pass={inst['pass']} value {got}, want {want}"
        return None
    return check


def limit_within_bound(rep) -> Optional[str]:
    # the residual bound and the monotone decrease of acceptance criterion 06
    got = []
    for inst in rep["instances"]:
        n = int(inst["id"].split("=")[1].rstrip("]"))
        count = 2 * n + 1
        bound = abs(0.5 - (n - 2) / count) + math.sqrt(n - 2) / count + 2 / count
        r = inst["details"]["residual"]
        if r > bound + 1e-12:
            return f"{inst['id']}: residual {r} above {bound}"
        got.append(r)
    if len(got) != 3 or not got[0] > got[1] > got[2]:
        return f"residuals {got} do not decrease"
    return None


def decomposed(declared):
    def check(rep) -> Optional[str]:
        comps, resid = rep["instances"]
        order = lambda c: (c[0], c[1].real, c[1].imag)
        found = sorted(((c["level"], complex(c["phase"]["re"], c["phase"]["im"]), c["mult"])
                        for c in comps["details"]["found"]), key=order)
        want = sorted(declared, key=order)
        if len(found) != len(want) or any(
                f[0] != w[0] or f[2] != w[2] or abs(f[1] - w[1]) > 1e-9
                for f, w in zip(found, want)):
            return f"components {found}, want {want}"
        if resid["details"]["residualDim"] != 0:
            return f"residual dimension {resid['details']['residualDim']}"
        return None
    return check


def commutant_report(want_dim: Callable[[], int]):
    def check(rep) -> Optional[str]:
        dim = rep["instances"][0]["details"]["dim"]
        want = want_dim()
        return None if dim == want else f"commutant dimension {dim}, want {want}"
    return check


def cli_mix(seed: int) -> List[Job]:
    """Sixteen short calls covering every subcommand; the seed shifts Z indices."""
    s = seed % 5
    rep_spec = {"d": 3, "particles": 3, "components": [
        {"level": 0, "phase": {"re": 0, "im": 1}, "mult": 1},
        {"level": 1, "phase": -1, "mult": 2}]}
    small_gens = {"case": "N", "window": [1, 1], "particles": 1, "exprs": ["x(1)"],
                  "expect": 2}
    gens = {"case": "N", "window": [1, 2], "particles": 4, "exprs": ["x(1)", "x(2)"]}
    cesaro_n = 64
    moments_csv = catalan_moments(6)
    return [
        cli_job(["rewrite", "--case", "z", "--expr", f"c({s + 1}) a({s + 1})"],
                expect_key("normalForm", f"-a({s})c({s}) + a({s + 1})c({s + 1})")),
        cli_job(["rewrite", "--case", "n", "--expr", "c(2) a(1) c(1)", "--show-steps"],
                expect_key("normalForm", "c(2)c(0)a(0) + c(2)c(1)a(1)")),
        cli_job(["moments", "--expr", "x(1)", "--max-order", "10"],
                expect_key("moments", catalan_moments(10))),
        cli_job(["moments", "--expr", "x(1)", "--max-order", "6", "--csv"],
                lambda out: None if out.splitlines() == ["order,moment"] + [
                    f"{k},{v}" for k, v in enumerate(moments_csv)] else f"csv {out!r}",
                csv=True),
        cli_job(["verify", "--suite", "exel-laca", "--window", f"{s - 4}..{s + 4}",
                 "--particles", "3", "--max-size", "1"], all_pass(exel_laca_total(5, 1))),
        # 3 letters: 6 annihilate-create, 3+3 order, 9 absorb, 2 ladder instances
        cli_job(["verify", "--suite", "relations-z", "--window", f"{s - 3}..{s + 3}",
                 "--particles", "3"], all_pass(23)),
        # 4 indices: co-isometry, 12 annihilate-create, 6 order, 4 partial isometry
        cli_job(["verify", "--suite", "anti", "--window", "1..4", "--particles", "3"],
                all_pass(23)),
        # 3 levels x (6 orthogonal + 3 sum + 3 partial isometry + 1 vacuum + 3 gauge)
        cli_job(["verify", "--suite", "rep-n", "--window", "1..4", "--particles", "3",
                 "--max-index", "2"], all_pass(48)),
        cli_job(["limit", "--N", "10,20,40", "--vector", "2,1"], limit_within_bound),
        # the average of n creators with orthogonal ranges has norm 1/sqrt(n)
        cli_job(["cesaro", "--word", f"c({s})", "--n", str(cesaro_n)],
                close_to(1 / math.sqrt(cesaro_n), 1e-6)),
        # omega_t of one occupation pair a(j)c(j) is t
        cli_job(["states", "--expr", f"a({s + 1})c({s + 1})", "--t", "1/3"],
                expect_fields({"value": "1/3"})),
        cli_job(["certificate", "--expr", f"a({s})c({s})"], close_to(1.0, 0.0)),
        cli_job(["nonconvergence", "--n", "8"],
                expect_fields({"witnessEntry": -1, "strongResidual": "1/8"})),
        cli_job(["commutant", "--gens", json.dumps(small_gens)],
                commutant_report(lambda: 2)),
        cli_job(["commutant", "--gens", json.dumps(gens)],
                commutant_report(lambda: dense_commutant_dim(
                    position_matrices(1, 2, 4)))),
        cli_job(["reps", "decompose", "--spec", json.dumps(rep_spec)],
                decomposed([(0, 1j, 1), (1, -1 + 0j, 2)])),
    ]


# --- algebra ------------------------------------------------------------------------

def random_element(rng: Random, case: Case, lo: int, hi: int) -> Element:
    """unit plus up to three words of length 1..3 with small Fraction coefficients."""
    unit = Fraction(rng.randint(-2, 2)) if rng.random() < 0.5 else 0
    terms: Dict = {}
    for _ in range(rng.randint(1, 3)):
        w = tuple((rng.randint(lo, hi), rng.random() < 0.5)
                  for _ in range(rng.randint(1, 3)))
        terms[w] = terms.get(w, 0) + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Element(case, unit, terms)


def gamma_shaped(w) -> bool:
    """Creators with non-increasing indices, then annihilators non-decreasing."""
    k = 0
    while k < len(w) and w[k][1]:
        k += 1
    creators = [i for i, _ in w[:k]]
    annihilators = [i for i, _ in w[k:]]
    return (not any(d for _, d in w[k:]) and creators == sorted(creators, reverse=True)
            and annihilators == sorted(annihilators))


def is_support(w) -> bool:
    return len(w) == 2 and w[0][1] and not w[1][1] and w[0][0] == w[1][0]


def random_hamel_word(rng: Random):
    """A normal word of the Z case: a pair a(i)c(i), or a Gamma word of length <= 4."""
    while True:
        if rng.random() < 0.15:
            i = rng.randint(-4, 4)
            return ((i, False), (i, True))
        creators = sorted(rng.sample(range(-4, 5), rng.randint(0, 2)), reverse=True)
        annihilators = sorted(rng.sample(range(-4, 5), rng.randint(0, 2)))
        w = []
        for i in creators:
            w.extend([(i, True)] * rng.randint(1, 2))
        for i in annihilators:
            w.extend([(i, False)] * rng.randint(1, 2))
        w = tuple(w)
        if w and len(w) <= 4 and not is_support(w):
            return w


def apply_exact(case: str, unit, terms, col) -> Dict:
    """Untruncated action of unit*I + sum(terms) on one column, exact arithmetic."""
    out: Dict = {}

    def bump(t, c):
        s = out.get(t, 0) + c
        if s == 0:
            out.pop(t, None)
        else:
            out[t] = s

    if unit:
        bump(col, unit)
    for w, c in terms.items():
        img = oracles.act_word(case, w, col, UNTRUNCATED)
        if img is not None:
            bump(img, c)
    return out


def check_normal_z(x: Element):
    """The normal form is made of Hamel words and equals x on determining columns."""
    def check(nf) -> Optional[str]:
        bad = [w for w in nf.lam if not gamma_shaped(w) or is_support(w)]
        if bad:
            return f"non-normal words {bad[:3]}"
        terms = dict(nf.lam)
        for i, c in nf.pairs.items():
            terms[((i, False), (i, True))] = c
        words = list(x.terms) + list(terms) + [()]
        for col in oracles.determining_columns("Z", words):
            if apply_exact("Z", x.unit, x.terms, col) != apply_exact("Z", nf.unit, terms, col):
                return f"normal form differs from the input on column {col}"
        return None
    return check


def check_normal_n(x: Element):
    """Every path is canonical, and the form equals x at unit phase on all short columns."""
    def check(nf) -> Optional[str]:
        terms: Dict = {}
        for (mu, nu), c in nf.paths.items():
            if list(mu) != sorted(mu, reverse=True) or list(nu) != sorted(nu, reverse=True):
                return f"path {(mu, nu)} is not canonical"
            w = tuple((m, True) for m in mu) + tuple((v, False) for v in reversed(nu))
            terms[w] = terms.get(w, 0) + c
        top = max([i for w in list(x.terms) + list(terms) for i, _ in w] + [0]) + 1
        depth = max(len(w) for w in x.terms) if x.terms else 1
        for col in oracles.naive_tuples("N", 1, top, depth):
            if apply_exact("N", x.unit, x.terms, col) != apply_exact("N", nf.unit, terms, col):
                return f"normal form differs from the input on column {col}"
        return None
    return check


def dense_matrix(basis, act) -> np.ndarray:
    """Dense matrix of a map given on basis tuples as act(t) -> {image: coeff}."""
    pos = {t: k for k, t in enumerate(basis)}
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    for t in basis:
        for img, c in act(t).items():
            m[pos[img], pos[t]] += oracles.scalar_value(c)
    return m.real if not m.imag.any() else m


def dense_commutant_dim(mats: List[np.ndarray]) -> int:
    """n^2 minus the float rank of the commutation equations TM = MT, TM* = M*T."""
    n = mats[0].shape[0]
    eye = np.eye(n)
    ops = []
    for m in mats:
        ops.append(m)
        if not np.array_equal(m, m.conj().T):
            ops.append(m.conj().T)
    return n * n - oracles.float_rank(np.vstack([np.kron(eye, m) - np.kron(m.T, eye)
                                                  for m in ops]))


def position_matrices(lo: int, hi: int, particles: int) -> List[np.ndarray]:
    """x(i) = a(i) + c(i) for i in lo..hi on the N-case space, by the oracle action."""
    basis = oracles.naive_tuples("N", lo, hi, particles)

    def x(i):
        def act(t):
            out: Dict = {}
            for dag in (False, True):
                img = oracles.act_word("N", ((i, dag),), t, particles)
                if img is not None:
                    out[img] = out.get(img, 0) + 1
            return out
        return act

    return [dense_matrix(basis, x(i)) for i in range(lo, hi + 1)]


def level_zero_matrices(phase, hi: int, particles: int) -> List[np.ndarray]:
    """Generators 0..hi of the level-0 representation: phase times the vacuum
    projection, then the creators, by the oracle action."""
    basis = oracles.naive_tuples("N", 1, hi, particles)

    def creator(i):
        def act(t):
            img = oracles.act_word("N", ((i, True),), t, particles)
            return {} if img is None else {img: 1}
        return act

    vacuum = dense_matrix(basis, lambda t: {t: phase} if t == () else {})
    return [vacuum] + [dense_matrix(basis, creator(i)) for i in range(1, hi + 1)]


def hamel_rank(words, lo: int, hi: int, particles: int) -> int:
    space = fock.TruncSpace(Case.Z, lo, hi, particles)
    interior = list(fock.interior_tuples(space, 1))
    rows = []
    for w in words:
        row = {}
        for t in interior:
            img = fock.word_image(space, w, t)
            if img is not None:
                row[(t, img)] = 1
        rows.append(row)
    return exactla.rank_of(rows)


def check_hamel_rank(words, lo: int, hi: int, particles: int):
    """Hamel independence gives full rank; the oracle's float rank must agree."""
    def check(rank) -> Optional[str]:
        cols: Dict = {}
        entries = []
        for r, w in enumerate(words):
            for t in oracles.naive_tuples("Z", lo, hi, particles - 1):
                img = oracles.act_word("Z", w, t, particles)
                if img is not None:
                    entries.append((r, cols.setdefault((t, img), len(cols))))
        dense = np.zeros((len(words), len(cols)))
        for r, c in entries:
            dense[r, c] = 1
        want = oracles.float_rank(dense)
        if rank != want or want != len(words):
            return f"rank {rank}, float rank {want}, {len(words)} words"
        return None
    return check


def rep_commutant(phase, hi: int, particles: int) -> int:
    spec = spectral.RepSpec(0, phase, fock.TruncSpace(Case.N, 1, hi, particles))
    return spectral.commutant_dim([spectral.rep_matrix(spec, i)
                                   for i in range(hi + 1)])[0]


def position_commutant(xs, hi: int, particles: int) -> int:
    space = fock.TruncSpace(Case.N, 1, hi, particles)
    return spectral.commutant_dim([fock.evaluate(space, x) for x in xs])[0]


def equals(want):
    return lambda got: None if got == want else f"got {got!r}, want {want!r}"


def algebra(seed: int) -> List[Job]:
    """Seeded library calls where rewriting, elimination and non-int scalars work."""
    rng = Random(seed)
    zs = [random_element(rng, Case.Z, -3, 3) for _ in range(10_000)]
    ns = [random_element(rng, Case.N, 1, 3) for _ in range(2_000)]
    words = set()
    while len(words) < 150:
        words.add(random_hamel_word(rng))
    words = sorted(words)
    # equal_n pairs (x, nf(x)); every other right side is moved off by p(1)
    p1 = Element.word(Case.N, ((1, True), (1, False)))
    pairs = []
    for k, x in enumerate(ns[:60]):
        y = rewrite.normalize_n(x).to_element()
        pairs.append((x, y + p1 if k % 2 else y, k % 2 == 0))
    phase = scalars.gaussian(Fraction(3, 5), Fraction(4, 5))
    xs = [parse(f"x({i})", "N") for i in (1, 2, 3)]

    jobs = [Job(f"normalize_z #{k}", lambda x=x: rewrite.normalize_z(x), check_normal_z(x))
            for k, x in enumerate(zs)]
    jobs += [Job(f"normalize_n #{k}", lambda x=x: rewrite.normalize_n(x), check_normal_n(x))
             for k, x in enumerate(ns)]
    jobs += [Job(f"equal_n #{k}", lambda x=x, y=y: rewrite.equal_n(x, y), equals(want))
             for k, (x, y, want) in enumerate(pairs)]
    jobs.append(Job("rank_of Hamel rows, 150 words, Z -7..7 x5",
                    lambda: hamel_rank(words, -7, 7, 5),
                    check_hamel_rank(words, -7, 7, 5)))
    jobs.append(Job("commutant_dim level-0 rep, Gaussian phase, n=20",
                    lambda: rep_commutant(phase, 3, 3),
                    lambda dim: equals(dense_commutant_dim(
                        level_zero_matrices(phase, 3, 3)))(dim)))
    jobs.append(Job("commutant_dim x(1..3), N 1..3 x4, n=35",
                    lambda: position_commutant(xs, 3, 4),
                    lambda dim: equals(dense_commutant_dim(
                        position_matrices(1, 3, 4)))(dim)))
    return jobs


WORKLOADS = {"exel-laca": exel_laca, "algebra": algebra, "cli-mix": cli_mix}
