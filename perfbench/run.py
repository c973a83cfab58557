"""Benchmark of wmfock: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of a checkout that holds ``src/wmfock`` and ``tests/oracles.py``:

    python3 perfbench/run.py --workload exel-laca --seed 1 --seconds 30 --trace 0

One client in one process calls ``wmfock.cli.main`` or the library in a closed
loop, each call after the previous one returns, with BLAS pinned to one
thread.  A pass runs the workload's job list once; passes repeat until
``--seconds`` have gone by.  After timing, every job's result is checked
against an answer from an independent route (see workloads.py).

``--trace 0`` reports the end-to-end metrics:

    setup_s      worker start to ready (interpreter, imports, seeded inputs),
                 median over fresh worker processes (at least five, and
                 at least two seconds of them)
    verdict_s    wall time of one pass, median over the passes
    call_p50_ms  median latency of one job
    peak_rss_mb  peak resident set of the worker at the end of the passes

and prints beside them, not in the result line, the tail latency (the
highest percentile with at least ten samples beyond it, omitted when the run
has too few calls) and the share of jobs failed.

``--trace 1`` runs untraced passes as above, then one pass with the
tracer of tracing.py installed, and reports the per-layer metrics, the
tracing overhead (traced minus untraced verdict_s) and, for jobs that pin
their work counts, whether the counts match.  Spans go to
``perfbench/out/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is timed in at least this many fresh workers, and for at least this long
SETUP_PROBES = 5
SETUP_PROBE_SECONDS = 2.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WORKLOAD_NAMES = ("exel-laca", "algebra", "cli-mix")
MAX_FAILURES_SHOWN = 20


def load_program():
    """Put the checkout's package and oracles on the path; fail if they are absent."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "wmfock" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        raise SystemExit(f"perfbench: {ROOT} holds no src/wmfock and tests/oracles.py")
    sys.path[:0] = [str(src), str(tests)]
    import wmfock
    if Path(wmfock.__file__).resolve().parent != src / "wmfock":
        raise SystemExit(f"perfbench: imported wmfock from {wmfock.__file__}, not {src}")
    import workloads
    return workloads


def probe_setup(args) -> float:
    """Seconds from starting a fresh worker process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SystemExit("perfbench: setup probe did not exit") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: setup probe failed: {err.strip()[-500:]}")
    return elapsed


class Pass:
    """One run of the job list: wall time, per-job latency, results and errors."""

    def __init__(self, jobs, tracer=None):
        self.latencies = []
        self.records = []        # (job index, result, error)
        self.counts = []         # per-job counter deltas when traced
        start, cpu = time.perf_counter(), time.process_time()
        for i, job in enumerate(jobs):
            if tracer is not None:
                before = tracer.snapshot()
                tracer.begin_job(job.label)
            t0 = time.perf_counter()
            try:
                result, error = job.call(), None
            except Exception as exc:  # a job that raises is a failed job
                result, error = None, f"{type(exc).__name__}: {exc}"
            self.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_job()
                after = tracer.snapshot()
                after = {k: v - before[k] for k, v in after.items() if k != "cache_peak"}
                after["cache_peak"] = tracer.cache_peak
                self.counts.append(after)
            self.records.append((i, result, error))
        self.wall = time.perf_counter() - start
        self.cpu = time.process_time() - cpu


class Verdicts:
    """Every job result of a run, checked after timing.

    Results that print alike are checked once: a pass that repeats an
    earlier pass's result shares that result's verdict.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.errors = []
        self.results = {}        # (job index, repr) -> [result, occurrences]

    def add(self, p: Pass) -> None:
        for i, result, error in p.records:
            self.attempted += 1
            if error is not None:
                self.errors.append((self.jobs[i].label, error))
                continue
            self.results.setdefault((i, repr(result)), [result, 0])[1] += 1
        p.records = None

    def failures(self):
        out = list(self.errors)
        for (i, _), (result, times) in self.results.items():
            try:
                reason = self.jobs[i].check(result)
            except Exception as exc:  # a malformed result is a wrong verdict
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                out.extend([(self.jobs[i].label, reason)] * times)
        return out


def run_passes(jobs, seconds: float, verdicts: Verdicts):
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        p = Pass(jobs)
        verdicts.add(p)
        passes.append(p)
        if time.perf_counter() >= deadline:
            return passes


def tail_latency(latencies):
    """(percentile, value) of the highest listed percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu_model(), "seed": seed,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREADS}}


def report(verdicts: Verdicts, metrics: dict) -> None:
    failures = verdicts.failures()
    failing = list(dict.fromkeys(label for label, _ in failures))
    for label in failing[:MAX_FAILURES_SHOWN]:
        reasons = [r for l, r in failures if l == label]
        print(f"FAILED {label}: {reasons[0]} ({len(reasons)} times)")
    if len(failing) > MAX_FAILURES_SHOWN:
        print(f"FAILED {len(failing) - MAX_FAILURES_SHOWN} more jobs")
    print(f"fail_ratio {len(failures) / verdicts.attempted} "
          f"({len(failures)} of {verdicts.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({"correct": not failures, "attempted": verdicts.attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def end_to_end(args, jobs, verdicts: Verdicts, setup: list) -> dict:
    passes = run_passes(jobs, args.seconds, verdicts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [t for p in passes for t in p.latencies]
    tail = tail_latency(latencies)
    print(f"{len(passes)} passes of {len(latencies)} calls; wall s "
          + " ".join(f"{p.wall:.4f}" for p in passes) + "; cpu s "
          + " ".join(f"{p.cpu:.4f}" for p in passes))
    print("setup samples s " + " ".join(f"{s:.4f}" for s in setup))
    if tail is None:
        print(f"call_tail_ms omitted: {len(latencies)} calls leave no percentile "
              "with 10 samples beyond it")
    else:
        print(f"call_tail_ms {tail[1] * 1e3} ms (p{tail[0]} of {len(latencies)} calls)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s": (statistics.median(p.wall for p in passes), "s"),
        "call_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(args, jobs, verdicts: Verdicts) -> dict:
    from tracing import Tracer

    untraced = statistics.median(p.wall for p in run_passes(jobs, args.seconds, verdicts))
    tracer = Tracer()
    with tracer.installed():
        traced = Pass(jobs, tracer)
    for job, counts in zip(jobs, traced.counts):
        if job.pin is not None:
            got = {k: counts[k] for k in job.pin}
            verdict = "matches" if got == job.pin else f"differs from the pin {job.pin}"
            print(f"counts of {job.label}: {got} {verdict}")
    verdicts.add(traced)
    for name, calls, seconds in tracer.hottest_leaves():
        print(f"leaf {name}: {calls} calls, {seconds:.3f} s")
    path = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    print(f"{tracer.write_spans(path)} spans written to {path.relative_to(ROOT)}")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced.wall - untraced, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    for var in BLAS_THREADS:
        os.environ[var] = "1"

    if args.setup_probe:
        load_program().WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    workloads = load_program()  # fails before probing when the checkout holds no program
    setup = []
    while not args.trace and (len(setup) < SETUP_PROBES or sum(setup) < SETUP_PROBE_SECONDS):
        setup.append(probe_setup(args))
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}, {len(jobs)} jobs per pass, trace {args.trace}")
    print("env " + json.dumps(environment(args.seed)))
    verdicts = Verdicts(jobs)
    if args.trace:
        metrics = per_layer(args, jobs, verdicts)
    else:
        metrics = end_to_end(args, jobs, verdicts, setup)
    report(verdicts, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
