"""Per-layer tracing of wmfock, installed at runtime from outside the package.

A layer is one module of the package.  Tracer.installed() replaces every
public function and method of those modules with a wrapper, in every module
namespace that holds a reference to it (``exel_laca.verify_identity`` is the
same wrapper as ``fock.verify_identity``), and puts the originals back on
exit.  Nothing under ``src/`` changes.

A call is accounted where it crosses a layer boundary, that is when the
caller belongs to another layer.  Calls inside one layer run through
unaccounted, so the cost of tracing stays on the boundaries.  Each boundary
call records its duration; a layer's self time is that duration minus the
part covered by calls into other layers.  Boundary calls into the hot leaf
layers (every ``scalars`` function, and the tuple actions of ``fock``) are
aggregated as a count plus time per function; every other boundary call, and
each job, is kept as a span with its parent's id.

Work counters are hooked on named functions and run on every call, boundary
or not: word evaluations and the ``(word, tuple)`` cache, identity columns,
Element products, rewrite steps, elimination rows and pivots, Exel-Laca
instances, rendered report bytes, CLI calls, ``Fraction`` constructions and
numpy.linalg calls.
"""

from __future__ import annotations

import contextlib
import enum
import fractions
import functools
import importlib
import itertools
import json
import time
import types
from typing import Dict, List, Tuple

import numpy

LAYERS = ("cli", "suites", "exel_laca", "ergodic", "spectral", "rewrite",
          "exactla", "fock", "expr", "reports", "scalars")
JOB_LAYER = "bench"
LEAF_FUNCTIONS = {"fock.word_image", "fock.creator_tuple", "fock.annihilator_tuple"}
# methods with these names are traced besides the public ones
DUNDERS = {"__init__", "__post_init__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__mul__", "__rmul__", "__matmul__", "__neg__", "__eq__", "__complex__"}
LINALG = ("svd", "eig", "norm", "matrix_power")
COUNTERS = ("word_evals", "cache_hits", "cache_misses", "columns", "products",
            "normalize_calls", "rewrite_steps", "rows", "pivots", "instances",
            "report_bytes", "cli_calls", "fraction_allocs")


class Tracer:
    """Spans, per-layer self time and work counters for traced passes."""

    def __init__(self):
        self.stack: List[list] = []          # frames: [layer, child seconds, span id]
        self.layers: Dict[str, List[float]] = {l: [0.0, 0] for l in LAYERS + (JOB_LAYER,)}
        self.functions: Dict[str, List[float]] = {}   # name -> [boundary calls, seconds]
        self.linalg: Dict[str, List[float]] = {}      # calling layer -> [calls, seconds]
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.cache_peak = 0                 # largest word cache of the current job
        self.cache_peak_all = 0
        self.spans: List[Tuple] = []
        self.job = None
        self._ids = itertools.count(1)
        self._job_start = 0.0

    # --- jobs ---------------------------------------------------------------

    def begin_job(self, label: str) -> None:
        self.job = label
        self.cache_peak_all = max(self.cache_peak_all, self.cache_peak)
        self.cache_peak = 0
        self.stack.append([JOB_LAYER, 0.0, next(self._ids)])
        self._job_start = time.perf_counter()

    def end_job(self) -> None:
        dt = time.perf_counter() - self._job_start
        frame = self.stack.pop()
        stat = self.layers[JOB_LAYER]
        stat[0] += dt - frame[1]
        stat[1] += 1
        self.spans.append((frame[2], None, self.job, "job", self._job_start,
                           self._job_start + dt))

    def snapshot(self) -> Dict[str, int]:
        out = dict(self.counts)
        out["cache_peak"] = self.cache_peak
        return out

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, f, layer: str, name: str):
        stack = self.stack
        lstat = self.layers[layer]
        fstat = self.functions.setdefault(name, [0, 0.0])
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self
        leaf = layer == "scalars" or name in LEAF_FUNCTIONS

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return f(*args, **kwargs)
            sid = None if leaf else next(ids)
            frame = [layer, 0.0, sid]
            parent = stack[-1][2] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                return f(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                lstat[0] += dt - frame[1]
                lstat[1] += 1
                fstat[0] += 1
                fstat[1] += dt
                if stack:
                    stack[-1][1] += dt
                if not leaf:
                    spans.append((sid, parent, tracer.job, name, t0, t0 + dt))

        return wrapper

    def _hook(self, name: str, f):
        """Counting wrapper for the functions whose work is counted."""
        counts = self.counts
        tracer = self
        if name == "fock.word_image":
            @functools.wraps(f)
            def hooked(space, w, t, cache=None):
                counts["word_evals"] += 1
                if cache is None:
                    return f(space, w, t)
                if (w, t) in cache:
                    counts["cache_hits"] += 1
                    return f(space, w, t, cache)
                counts["cache_misses"] += 1
                out = f(space, w, t, cache)
                if len(cache) > tracer.cache_peak:
                    tracer.cache_peak = len(cache)
                return out
            return hooked

        def after(counter, amount):
            @functools.wraps(f)
            def hooked(*args, **kwargs):
                out = f(*args, **kwargs)
                counts[counter] += amount(args, out)
                return out
            return hooked

        if name == "fock.verify_identity":
            return after("columns", lambda a, out: out.columns_checked)
        if name == "expr.Element.__mul__":
            from wmfock.expr import Element
            return after("products", lambda a, out: isinstance(a[1], Element))
        if name in ("rewrite.normalize_z", "rewrite.normalize_n"):
            return after("normalize_calls", lambda a, out: 1)
        if name == "exactla.Eliminator.add_row":
            def count_pivot(a, out):
                counts["rows"] += 1
                return bool(out)
            return after("pivots", count_pivot)
        if name == "exel_laca.verify_el_suite":
            return after("instances", lambda a, out: len(out.instances))
        if name in ("reports.Report.render", "reports.csv_render"):
            return after("report_bytes", lambda a, out: len(out))
        if name == "cli.main":
            return after("cli_calls", lambda a, out: 1)
        return f

    def _traced(self, f, layer: str, name: str):
        return self._wrap(self._hook(name, f), layer, name)

    def _linalg_wrapper(self, f):
        stack = self.stack
        linalg = self.linalg
        clock = time.perf_counter

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return f(*args, **kwargs)
            finally:
                stat = linalg.setdefault(stack[-1][0] if stack else JOB_LAYER, [0, 0.0])
                stat[0] += 1
                stat[1] += clock() - t0
        return wrapper

    # --- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        undo: List[Tuple[object, str, object]] = []

        def put(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            package = importlib.import_module("wmfock")
            modules = {l: importlib.import_module(f"wmfock.{l}") for l in LAYERS}
            for layer, mod in modules.items():
                for obj in list(vars(mod).values()):
                    if (isinstance(obj, type) and obj.__module__ == mod.__name__
                            and not issubclass(obj, (enum.Enum, BaseException))):
                        self._install_class(obj, layer, put)
            functions: Dict[int, object] = {}
            for mod in list(modules.values()) + [package]:
                for attr, obj in list(vars(mod).items()):
                    if not isinstance(obj, types.FunctionType) or obj.__name__.startswith("_"):
                        continue
                    layer = obj.__module__.rpartition(".")[2]
                    if not obj.__module__.startswith("wmfock.") or layer not in modules:
                        continue
                    if id(obj) not in functions:
                        functions[id(obj)] = self._traced(obj, layer, f"{layer}.{obj.__name__}")
                    put(mod, attr, functions[id(obj)])
            # the rewrite fold spends one unit of its step budget per step
            budget = modules["rewrite"]._Budget
            spend = budget.spend
            counts = self.counts

            def counted_spend(b):
                counts["rewrite_steps"] += 1
                return spend(b)
            put(budget, "spend", counted_spend)
            new = fractions.Fraction.__new__

            def counted_new(cls, *args, **kwargs):
                counts["fraction_allocs"] += 1
                return new(cls, *args, **kwargs)
            put(fractions.Fraction, "__new__", staticmethod(counted_new))
            for attr in LINALG:
                put(numpy.linalg, attr, self._linalg_wrapper(getattr(numpy.linalg, attr)))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def _install_class(self, cls, layer: str, put) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                put(cls, attr, type(raw)(self._traced(raw.__func__, layer, name)))
            elif isinstance(raw, types.FunctionType):
                put(cls, attr, self._traced(raw, layer, name))

    # --- results --------------------------------------------------------------

    def _seconds(self, prefix: str) -> float:
        return sum(s for name, (_, s) in self.functions.items() if name.startswith(prefix))

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics of everything traced so far, as name -> (value, unit)."""
        c = self.counts
        lookups = c["cache_hits"] + c["cache_misses"]
        spectral_linalg = self.linalg.get("spectral", [0, 0.0])
        m = {
            "scalars.calls": (self.layers["scalars"][1], "count"),
            "scalars.fraction_allocs": (c["fraction_allocs"], "count"),
            "fock.word_evals": (c["word_evals"], "count"),
            "fock.word_cache_hits": (c["cache_hits"], "count"),
            "fock.word_cache_misses": (c["cache_misses"], "count"),
            "fock.word_cache_hit_ratio": (c["cache_hits"] / lookups if lookups else 0.0, "ratio"),
            "fock.word_cache_peak_entries": (max(self.cache_peak_all, self.cache_peak),
                                             "count"),
            "fock.columns": (c["columns"], "count"),
            "fock.verify_identity_s": (self._seconds("fock.verify_identity"), "s"),
            "fock.sparsemat_s": (self._seconds("fock.SparseMat."), "s"),
            "expr.products": (c["products"], "count"),
            "rewrite.normalize_calls": (c["normalize_calls"], "count"),
            "rewrite.steps": (c["rewrite_steps"], "count"),
            "exactla.rows": (c["rows"], "count"),
            "exactla.pivots": (c["pivots"], "count"),
            "exel_laca.instances": (c["instances"], "count"),
            "spectral.linalg_calls": (spectral_linalg[0], "count"),
            "spectral.linalg_s": (spectral_linalg[1], "s"),
            "reports.render_s": (self._seconds("reports.Report.render")
                                 + self._seconds("reports.csv_render"), "s"),
            "reports.bytes": (c["report_bytes"], "count"),
            "cli.calls": (c["cli_calls"], "count"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.layers[layer][0], "s")
        return m

    def hottest_leaves(self, n: int = 8) -> List[Tuple[str, int, float]]:
        """The leaf functions with the most boundary time: (name, calls, seconds)."""
        leaves = [(name, int(k), s) for name, (k, s) in self.functions.items()
                  if k and (name.startswith("scalars.") or name in LEAF_FUNCTIONS)]
        return sorted(leaves, key=lambda t: -t[2])[:n]

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines; returns how many were written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                     "start": round(start, 7), "end": round(end, 7)}) + "\n")
        return len(self.spans)
