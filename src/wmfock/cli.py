"""Command-line interface: rewriting, verification suites, numeric reports.

Every subcommand prints one JSON report to stdout (or CSV where a sweep is
more natural).  Exit codes: 0 all checks passed, 1 a verification failed,
2 usage or input error (one ``error:`` line on stderr), 3 internal error:
a cross-check disagreement, or an unexpected exception, whose traceback
goes to stderr.

A ``_cmd_*`` function returns its result (a Report, the JSON-ready dict of
``rewrite`` and ``moments``, or a Csv table) and neither reads the clock nor
prints; ``main`` alone times it, renders it, prints once and picks the exit
code.  ``_load_json_arg`` reads and checks every JSON spec.

``main`` can be called again in the same process: every call shares one
argument parser, built on the first call.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import reprlib
import sys
import time
import traceback
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import scalars
from .errors import FuelError, InternalConsistencyError, SizeLimitError
from .ergodic import (
    NONCONVERGENCE_MAX_EVALS,
    check_cesaro_bound,
    check_nonconvergence,
    fixed_point_check,
    omega_t,
    vacuum_certificate,
)
from .exel_laca import check_el_size, verify_el_suite
from .expr import Case, parse, word_str
from .fock import TruncSpace, evaluate
from .reports import EXACT_ZERO, Instance, Report, csv_render, jsonify
from .rewrite import normalize_n, normalize_z
from .spectral import (
    COMMUTANT_MAX_DIM,
    LIMIT_MAX_WIDTH,
    build_direct_sum,
    check_decompose_size,
    check_rep_size,
    check_rep_window,
    commutant_dim,
    decompose,
    limit_residual,
    moment_sequence,
    verify_rep,
)
from .suites import anti_suite, relations_z_suite

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERNAL_ERROR = 3

# a number in an error line, plain or in groups of three digits
_NUMBER = re.compile(r"\d{1,3}(?:,\d{3})+(?!\d)|\d+")


def _short_numbers(text: str) -> str:
    """text with each number of more than 20 digits cut to its first six
    digits and its digit count, so that an error line stays short whatever
    the input.  Shorter numbers, such as 20,000,000 or a 20-digit window
    end, read in full."""
    def shorten(m: re.Match) -> str:
        digits = m[0].replace(",", "")
        return m[0] if len(digits) <= 20 else f"{digits[:6]}...({len(digits)} digits)"
    return _NUMBER.sub(shorten, text)


def _parse_ints(flag: str, text: str, sep: str = ",") -> Tuple[int, ...]:
    """The integers of flag's sep-separated value, parentheses ignored; a
    ValueError naming flag and the first entry that is no integer."""
    out = []
    for v in text.replace("(", "").replace(")", "").split(sep):
        try:
            out.append(int(v))
        except ValueError:
            raise ValueError(f"{flag} takes integers, got {reprlib.repr(v)}") from None
    return tuple(out)


def _parse_window(text: str) -> Tuple[int, int]:
    ends = _parse_ints("--window", text, "..") if ".." in text else ()
    if len(ends) != 2:
        raise ValueError(f"window must look like a..b, got {reprlib.repr(text)}")
    return ends


def _parse_scalar(text: str):
    """The --t of states: an int, a p/q rational or a finite float."""
    try:
        if "/" in text:
            return Fraction(text)
        try:
            return int(text)
        except ValueError:
            value = float(text)
        if math.isfinite(value):
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"--t must be an integer, p/q or a finite number, got {text!r}")


class Csv(NamedTuple):
    """A command's CSV table, with the pass flag that picks the exit code."""
    headers: List[str]
    rows: List[List[object]]
    passed: bool = True


def _cmd_rewrite(args) -> dict:
    case = Case.coerce(args.case)
    x = parse(args.expr, case)
    log: Optional[list] = [] if args.show_steps else None
    # the parser admits only the z and n cases
    nf = (normalize_z if case is Case.Z else normalize_n)(x, log=log)
    out = {"case": case.value, "input": args.expr,
           "normalForm": str(nf.to_element()), "unit": jsonify(nf.unit)}
    if case is Case.Z:
        out["lambdaTerms"] = {word_str(w): jsonify(c)
                              for w, c in sorted(nf.lam.items(), key=lambda kv: (len(kv[0]), kv[0]))}
        out["pairTerms"] = {str(i): jsonify(c) for i, c in sorted(nf.pairs.items())}
    else:
        out["pathTerms"] = {_path_label(mu, nu): jsonify(c)
                            for (mu, nu), c in sorted(nf.paths.items())}
    if log is not None:
        out["steps"] = log
    return out


def _path_label(mu, nu) -> str:
    parts = [f"c({i})" for i in mu] + [f"a({i})" for i in reversed(nu)]
    return "".join(parts) if parts else "I"


def _count(flag: str, value, least: int = 0):
    """value, or a ValueError naming flag when it is a count below least."""
    if value is not None and value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")
    return value


def _cmd_verify(args) -> Report:
    _count("--depth", args.depth)
    _count("--max-size", args.max_size)
    _count("--max-index", args.max_index)
    lo, hi = _parse_window(args.window)
    if args.suite == "relations-z":
        return relations_z_suite(TruncSpace(Case.Z, lo, hi, args.particles), depth=args.depth)
    if args.suite == "anti":
        return anti_suite(TruncSpace(Case.ANTI, lo, hi, args.particles))
    if args.suite == "exel-laca":
        space = TruncSpace(Case.Z if lo < 1 else Case.N, lo, hi, args.particles)
        pairs = _family_pairs(args.family) if args.family else None
        first, last = lo + args.depth, hi - args.depth
        if first > last:
            raise ValueError("window too small for the requested depth")
        # sized from its ends: a window of 10**20 indices is refused before it is listed
        check_el_size(space, last - first + 1, first, last, args.max_size, pairs)
        return verify_el_suite(space, range(first, last + 1), max_size=args.max_size,
                               pairs=pairs)
    # rep-n, the last suite the parser admits
    if lo != 1:
        raise ValueError("rep-n windows start at 1")
    space = TruncSpace(Case.N, 1, hi, args.particles)
    max_index = hi if args.max_index is None else args.max_index
    report = Report(suite="rep-n", config={"window": [1, hi],
                                           "particles": args.particles,
                                           "levels": args.levels,
                                           "maxIndex": max_index})
    levels = _parse_ints("--levels", args.levels)
    check_rep_size(space, len(levels), max_index)
    # every level is refused or admitted before the first is verified
    check_rep_window(space, levels, max_index)
    for level in levels:
        sub = verify_rep(space, level, max_index)
        for inst in sub.instances:
            report.add(Instance(f"level{level}:{inst.id}", inst.passed,
                                inst.discrepancy, inst.details))
    return report


def _family_pairs(text: str) -> List[Tuple[List[int], List[int]]]:
    """The (X, Y) pairs of an exel-laca --family spec."""
    pairs = _load_json_arg(text, "family spec", ("pairs",))["pairs"]
    if not (isinstance(pairs, list) and all(
            isinstance(p, dict) and all(isinstance(p.get(k), list) and all(map(_is_int, p[k]))
                                        for k in ("X", "Y"))
            for p in pairs)):
        raise ValueError("family spec: 'pairs' must be a list of objects whose 'X' and 'Y' "
                         f"are lists of ints, got {pairs!r}")
    return [(p["X"], p["Y"]) for p in pairs]


def _cmd_moments(args):
    _count("--max-order", args.max_order)
    x = parse(args.expr, Case.coerce(args.case))
    seq = moment_sequence(x, args.max_order)
    for k, v in enumerate(seq):
        if isinstance(v, (float, complex)) and not cmath.isfinite(v):
            raise ValueError(f"the moment of order {k} is {v}, past float range; "
                             "lower --max-order or the coefficients")
    if args.csv:
        return Csv(["order", "moment"],
                   [[k, scalars.to_text(v) if not isinstance(v, int) else v]
                    for k, v in enumerate(seq)])
    return {
        "suite": "moments",
        "config": {"expr": args.expr, "maxOrder": args.max_order},
        "moments": [jsonify(v) for v in seq],
    }


def _cmd_cesaro(args) -> Report:
    _count("--n", args.n, 1)
    x = parse(args.word, Case.Z)
    idx = x.indices()
    if not idx:
        raise ValueError("the averaged word must contain at least one letter")
    space = TruncSpace(Case.Z, min(idx), max(idx) + args.n - 1, x.max_word_len() + 1)
    chk = check_cesaro_bound(space, x, args.n)
    report = Report(suite="cesaro",
                    config={"word": args.word, "n": args.n,
                            "window": [space.lo, space.hi],
                            "particles": space.trunc})
    report.add(Instance(f"bound[n={args.n}]", chk.passed, chk.norm_lower,
                        {"bound": chk.bound, "columns": chk.columns}))
    return report


def _cmd_limit(args):
    xi = _parse_ints("--vector", args.vector) if args.vector.strip() else ()
    ns = [_count("--N", n) for n in _parse_ints("--N", args.N)]
    if 2 * max(ns) + 1 > LIMIT_MAX_WIDTH:
        raise SizeLimitError(f"limit --N {max(ns)} averages over {2 * max(ns) + 1} indices, "
                             f"above the bound of {LIMIT_MAX_WIDTH:,}")
    rows: List[List[object]] = []
    report = Report(suite="limit", config={"vector": list(xi), "N": ns})
    for n in ns:
        lo = min(-n, *(xi or (0,)))
        hi = max(n, *(xi or (0,)))
        space = TruncSpace(Case.Z, lo, hi, len(xi) + 2)
        resid = limit_residual(space, n, xi)
        details = {"residual": resid}
        if xi == ():
            want = 1.0 / math.sqrt(2 * n + 1)
            ok = abs(resid - want) <= 1e-12
            details["closedForm"] = want
        else:
            ok = True
        rows.append([n, resid])
        report.add(Instance(f"residual[N={n}]", ok, resid, details))
    return Csv(["N", "residual"], rows, report.passed) if args.csv else report


def _cmd_states(args) -> Report:
    x = parse(args.expr, Case.Z)
    t = _parse_scalar(args.t)
    value = omega_t(x, t)
    fp = fixed_point_check(x)
    report = Report(suite="states", config={"expr": args.expr, "t": jsonify(t)})
    report.add(Instance("omega-t", True, None, {"value": jsonify(value)}))
    report.add(Instance("fixed-point", True, None,
                        {"fixed": fp.fixed,
                         "scalar": jsonify(fp.scalar) if fp.fixed else None,
                         "witness": fp.witness}))
    return report


def _cmd_certificate(args) -> Report:
    case = Case.coerce(args.case)
    x = parse(args.expr, case)
    value = vacuum_certificate(x)
    threshold = 0.5 - 1e-12
    report = Report(suite="certificate", config={"expr": args.expr, "case": case.value})
    report.add(Instance("vacuum-distance", value >= threshold, value,
                        {"threshold": threshold}))
    return report


def _cmd_nonconvergence(args) -> Report:
    _count("--n", args.n, 1)
    space = TruncSpace(Case.Z, -args.n, 0, 2)
    chk = check_nonconvergence(space, args.n)
    report = Report(suite="nonconvergence", config={"n": args.n})
    report.add(Instance(f"norm-one[n={args.n}]", chk.passed,
                        EXACT_ZERO if chk.passed else None,
                        {"diagonal": chk.diagonal,
                         "witnessEntry": jsonify(chk.witness_entry),
                         "strongResidual": jsonify(chk.strong_residual)}))
    return report


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _commutant_window(spec: dict) -> Tuple[int, int]:
    """The window of a commutant spec: a pair of ints or an 'a..b' string."""
    window = spec["window"]
    if isinstance(window, list) and len(window) == 2 and all(map(_is_int, window)):
        return window[0], window[1]
    if isinstance(window, str):
        try:
            return _parse_window(window)
        except ValueError:
            pass
    raise ValueError(f"commutant spec: 'window' must be a pair of ints or 'a..b', got {window!r}")


def _cmd_commutant(args) -> Report:
    spec = _load_json_arg(args.gens, "commutant spec", ("window", "particles", "exprs"),
                          ints=("particles",))
    case = Case.coerce(str(spec.get("case", "N")).upper())
    lo, hi = _commutant_window(spec)
    exprs = spec["exprs"]
    if not (isinstance(exprs, list) and exprs and all(isinstance(e, str) for e in exprs)):
        raise ValueError(f"commutant spec: 'exprs' must be a non-empty list of strings, got {exprs!r}")
    expect = spec.get("expect")
    if expect is not None and not _is_int(expect):
        raise ValueError(f"commutant spec: 'expect' must be an int, got {expect!r}")
    elements = [parse(e, case) for e in exprs]
    for e, x in zip(exprs, elements):
        if not x.is_exact():
            raise ValueError(f"commutant spec: 'exprs' entry {e!r} has an inexact coefficient; "
                             "the commutant needs exact entries")
    space = TruncSpace(case, lo, hi, spec["particles"])
    if space.dimension_exceeds(COMMUTANT_MAX_DIM):
        raise SizeLimitError("commutant spec: the space's dimension exceeds the commutant "
                             f"bound of {COMMUTANT_MAX_DIM}")
    mats = [evaluate(space, x) for x in elements]
    dim, _basis = commutant_dim(mats)
    report = Report(suite="commutant",
                    config={"case": case.value, "window": [lo, hi],
                            "particles": spec["particles"], "exprs": exprs})
    ok = True if expect is None else dim == expect
    report.add(Instance("dimension", ok, EXACT_ZERO if ok else abs(dim - (expect or 0)),
                        {"dim": dim, "expect": expect}))
    return report


def _parse_phase(v):
    """A component phase: a number, a 'p/q' string or an object {"re", "im"}."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return v
    try:
        if isinstance(v, dict):
            return scalars.gaussian(Fraction(str(v.get("re", 0))), Fraction(str(v.get("im", 0))))
        if isinstance(v, str):
            return Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError("reps spec: 'phase' must be a number, a 'p/q' string or an object "
                     f"with 're' and 'im', got {v!r}")


def _reps_components(spec: dict) -> List[Tuple[int, object, int]]:
    """The (level, phase, mult) triples of a reps spec, after checking its shape."""
    if spec.get("zeroDim", 0) < 0:
        raise ValueError(f"reps spec: 'zeroDim' must be >= 0, got {spec['zeroDim']}")
    comps = spec["components"]
    if not (isinstance(comps, list)
            and all(isinstance(c, dict) and "level" in c and "phase" in c for c in comps)):
        raise ValueError("reps spec: 'components' must be a list of objects with 'level' "
                         f"and 'phase', got {comps!r}")
    for c in comps:
        for field in ("level", "mult"):
            if not _is_int(c.get(field, 1)):
                raise ValueError(f"reps spec: component {field!r} must be an int, got {c[field]!r}")
    return [(c["level"], _parse_phase(c["phase"]), c.get("mult", 1)) for c in comps]


def _cmd_reps(args) -> Report:
    # decompose, the one action the parser admits
    spec = _load_json_arg(args.spec, "reps spec", ("d", "particles", "components"),
                          ints=("d", "particles", "zeroDim"))
    comps = _reps_components(spec)
    zero = spec.get("zeroDim", 0)
    check_decompose_size(spec["d"], spec["particles"], comps, zero)
    gens, meta = build_direct_sum(spec["d"], spec["particles"], comps, zero_dim=zero)
    result = decompose(gens)
    report = Report(suite="reps-decompose",
                    config={"d": spec["d"], "particles": spec["particles"],
                            "declared": [{"level": l, "phase": scalars.to_text(p),
                                          "mult": m} for l, p, m in comps],
                            "zeroDim": zero, "dim": meta["dim"]})
    declared = sorted(
        ((l, scalars.to_complex(p), m) for l, p, m in comps),
        key=lambda t: (t[0], t[1].real, t[1].imag))
    found = sorted(((c.level, c.phase, c.multiplicity) for c in result.components),
                   key=lambda t: (t[0], t[1].real, t[1].imag))
    ok_shape = len(found) == len(declared) and \
        all(f[0] == d[0] and f[2] == d[2] for f, d in zip(found, declared))
    worst = max((abs(f[1] - d[1]) for f, d in zip(found, declared)), default=0.0) \
        if ok_shape else None
    report.add(Instance("components", ok_shape and (worst is not None and worst <= 1e-9),
                        worst,
                        {"found": [{"level": l, "phase": {"re": p.real, "im": p.imag},
                                    "mult": m} for l, p, m in found]}))
    report.add(Instance("residual", result.residual_dim == zero, None,
                        {"residualDim": result.residual_dim, "expected": zero}))
    return report


def _load_json_arg(text: str, what: str, required: Sequence[str],
                   ints: Sequence[str] = ()) -> dict:
    """A JSON spec, inline (starting with '{') or from a file, checked to be an
    object holding every required field, with an int in each int field present."""
    text = text.strip()
    if text.startswith("{"):
        spec = json.loads(text)
    else:
        with open(text, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be a JSON object")
    for field in required:
        if field not in spec:
            raise ValueError(f"{what}: missing field {field!r}")
    for field in ints:
        if field in spec and not _is_int(spec[field]):
            raise ValueError(f"{what}: {field!r} must be an int, got {spec[field]!r}")
    return spec


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``main``, built once per process.

    Callers share the returned parser and must not change it.
    """
    p = argparse.ArgumentParser(prog="wmfock",
                                description="symbolic and numeric workbench "
                                            "for weakly monotone operator families")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("rewrite", help="normal form of an expression")
    q.add_argument("--case", choices=["z", "n"], required=True)
    q.add_argument("--expr", required=True)
    q.add_argument("--show-steps", action="store_true")

    q = sub.add_parser("verify", help="run a verification suite")
    q.add_argument("--suite", required=True,
                   choices=["relations-z", "exel-laca", "rep-n", "anti"])
    q.add_argument("--window", required=True, help="index window a..b")
    q.add_argument("--particles", type=int, required=True)
    q.add_argument("--depth", type=int, default=2,
                   help="letter margin inside the window")
    q.add_argument("--max-size", type=int, default=2,
                   help="largest constraint-set size for exel-laca")
    q.add_argument("--family", help="JSON file or inline JSON with explicit X/Y pairs")
    q.add_argument("--levels", default="0,1,2", help="rep levels, comma separated")
    q.add_argument("--max-index", type=int, default=None)

    q = sub.add_parser("moments", help="vacuum moments of an expression")
    q.add_argument("--expr", required=True)
    q.add_argument("--case", default="z", choices=["z", "n", "anti"])
    q.add_argument("--max-order", type=int, required=True)
    q.add_argument("--csv", action="store_true")

    q = sub.add_parser("cesaro", help="Cesaro average contraction bound")
    q.add_argument("--word", required=True)
    q.add_argument("--n", type=int, required=True)

    q = sub.add_parser("limit", help="averaged squared-position residual")
    q.add_argument("--N", required=True, help="half-width, or comma list")
    q.add_argument("--vector", default="", help="basis tuple i1,i2,...")
    q.add_argument("--csv", action="store_true")

    q = sub.add_parser("states", help="omega_t value and fixed-point check")
    q.add_argument("--expr", required=True)
    q.add_argument("--t", required=True)

    q = sub.add_parser("certificate", help="vacuum-distance certificate")
    q.add_argument("--expr", required=True)
    q.add_argument("--case", default="z", choices=["z", "anti"])

    q = sub.add_parser("nonconvergence", help="norm-one witness for shifted averages")
    q.add_argument("--n", type=int, required=True,
                   help="average length; n times the basis dimension (n + 1 indices, "
                        f"2 particles) must stay within {NONCONVERGENCE_MAX_EVALS:,} "
                        "word evaluations, so n <= 157")

    q = sub.add_parser("commutant", help="exact commutant dimension")
    q.add_argument("--gens", required=True, help="JSON file or inline JSON")

    q = sub.add_parser("reps", help="representation tooling")
    q.add_argument("action", choices=["decompose"])
    q.add_argument("--spec", required=True, help="JSON file or inline JSON")

    return p


def _join_window_values(argv: List[str]) -> List[str]:
    # argparse reads "-6..6" as an option; fold it into "--window=-6..6"
    out: List[str] = []
    for tok in argv:
        if out and out[-1] == "--window" and re.fullmatch(r"-?\d+\.\.-?\d+", tok):
            out[-1] = f"--window={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_window_values(list(argv)))
    started = time.monotonic()
    # looked up per call, so the shared parser holds no command functions
    command = globals()[f"_cmd_{args.command}"]
    try:
        result = command(args)
        millis = int((time.monotonic() - started) * 1000)
        if isinstance(result, Report):
            result.runtime_millis = millis
            text, passed = result.render() + "\n", result.passed
        elif isinstance(result, Csv):
            text, passed = csv_render(result.headers, result.rows), result.passed
        else:
            result["runtimeMillis"] = millis
            text, passed = json.dumps(result, indent=2, allow_nan=False) + "\n", True
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    # ParseError, SizeLimitError, WindowError and FinitenessError are ValueErrors
    except (ValueError, FuelError, OSError, KeyError) as exc:
        print(f"error: {_short_numbers(str(exc))}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:  # a fault in the program, not a failed check
        traceback.print_exc()
        return INTERNAL_ERROR
    print(text, end="")
    return 0 if passed else CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
