"""Outside-in tracing for the benchmark's traced run.

Spans are recorded by wrapping bellgate's public names from here, not by
code inside the program.  A name is patched in every loaded bellgate module
that holds it, because ``bellgate.cli`` and ``bellgate.feasibility`` import
solver and LP-construction names directly.  Spans stay in memory; self time
is a span's duration minus its child spans.

Counting ExactScalar operations costs about a fifth of the wall time, so it
runs in its own pass (OpCounter) and never distorts the span self times.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

#: span name -> (module, attribute) of the public functions wrapped
FUNCTIONS = (
    ("qubit.build_scenario", "bellgate.qubit", "build_scenario"),
    ("ontology.all_strategies", "bellgate.ontology", "all_strategies"),
    ("ontology.validate", "bellgate.ontology", "validate"),
    ("ontology.json", "bellgate.ontology", "model_to_json"),
    ("ontology.json", "bellgate.ontology", "model_from_json"),
    ("ontology.json", "bellgate.ontology", "lhv_to_json"),
    ("ontology.json", "bellgate.ontology", "lhv_from_json"),
    ("feasibility.build", "bellgate.feasibility", "build_prop1"),
    ("feasibility.build", "bellgate.feasibility", "build_prop2"),
    ("feasibility.min_slack", "bellgate.feasibility", "min_slack"),
    ("feasibility.extract_inequality", "bellgate.feasibility",
     "extract_inequality"),
    ("simplex.solve_feasibility", "bellgate.simplex", "solve_feasibility"),
    ("simplex.solve_min", "bellgate.simplex", "solve_min"),
    ("simplex.verify_solution", "bellgate.simplex", "verify_solution"),
    ("simplex.verify_certificate", "bellgate.simplex", "verify_certificate"),
    ("transform.forward", "bellgate.transform", "forward_charlie"),
    ("transform.reverse", "bellgate.transform", "reverse_group"),
    ("transform.independence", "bellgate.transform",
     "decomposition_independence_check"),
    ("cli.main", "bellgate.cli", "main"),
)
#: span name -> (module, class, method)
METHODS = (
    ("simplex.run", "bellgate.simplex", "Tableau", "run"),
    ("simplex.pivot", "bellgate.simplex", "Tableau", "pivot"),
    ("feasibility.strategy_enum", "bellgate.feasibility", "BellInequality",
     "max_strategy_value"),
)
_SOLVES = ("simplex.solve_feasibility", "simplex.solve_min")

#: ExactScalar methods counted as one scalar op each (nested calls too)
OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
       "__rmul__", "__truediv__", "__rtruediv__", "inverse", "sign")
#: micro-op kind -> ExactScalar method replayed
MICRO = (("add", "__add__"), ("mul", "__mul__"), ("div", "__truediv__"),
         ("sign", "sign"))


class Patcher:
    """Installs wrappers on entering a `with` block and restores the
    original attributes on leaving it."""

    def __enter__(self):
        self._saved = []
        self._install()
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapped):
        """Swap `original` for `wrapped` in every loaded bellgate module."""
        for name, module in list(sys.modules.items()):
            if name != "bellgate" and not name.startswith("bellgate."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)


class Tracer(Patcher):
    """In-memory spans: [name, start, end, parent index, request id].

    Pivots are counted per phase: inside a solve, the first Tableau.run is
    Phase I and the second Phase II; a pivot outside any run is cleanup.
    """

    def __init__(self):
        self.spans = []
        self.request = None
        self.pivots = Counter()
        self._stack = []
        self._runs = []      # per open solve: runs entered so far
        self._phase = []     # per open run: its phase name

    def _install(self):
        for name, module, attr in FUNCTIONS:
            if module in sys.modules:
                original = getattr(sys.modules[module], attr)
                self._replace_everywhere(original, self._wrap(name, original))
        for name, module, cls, attr in METHODS:
            owner = getattr(sys.modules[module], cls)
            self._set(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)
        return traced

    def _call(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if name in _SOLVES:
            self._runs.append(0)
        elif name == "simplex.run":
            if self._runs:
                self._runs[-1] += 1
            self._phase.append("phase1" if not self._runs or
                               self._runs[-1] == 1 else "phase2")
        elif name == "simplex.pivot":
            self.pivots[(self.request,
                         self._phase[-1] if self._phase else "cleanup")] += 1
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if name in _SOLVES:
                self._runs.pop()
            elif name == "simplex.run":
                self._phase.pop()

    def absorb(self, blob, request):
        """Add a child process's spans and pivots under a request id."""
        base = len(self.spans)
        for name, start, end, parent, _ in blob["spans"]:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, request])
        for phase, count in blob["pivots"].items():
            self.pivots[(request, phase)] += count

    def dump(self):
        return {"spans": self.spans,
                "pivots": {phase: n for (_, phase), n in self.pivots.items()}}

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            duration = end - start
            out[name] = (calls + 1, total + duration,
                         own + duration - child[i])
        return out


class OpCounter(Patcher):
    """Counts ExactScalar operations per request and tracks the largest
    numerator or denominator bit length among their results."""

    def __init__(self, cls):
        self.cls = cls
        self.request = None
        self.ops = Counter()
        self.max_bits = 0

    def _install(self):
        for attr in OPS:
            self._set(self.cls, attr, self._wrap(getattr(self.cls, attr)))

    def _wrap(self, fn):
        counter = self
        cls = self.cls

        def counted(*args):
            result = fn(*args)
            counter.ops[counter.request] += 1
            if type(result) is cls:
                a, b = result.a, result.b
                bits = max(a.numerator.bit_length(),
                           a.denominator.bit_length(),
                           b.numerator.bit_length(),
                           b.denominator.bit_length())
                if bits > counter.max_bits:
                    counter.max_bits = bits
            return result
        return counted


class OpRecorder(Patcher):
    """Records the operands of ExactScalar operations, for replay."""

    def __init__(self, cls):
        self.cls = cls
        self.samples = {kind: [] for kind, _ in MICRO}

    def _install(self):
        for kind, attr in MICRO:
            self._set(self.cls, attr, self._wrap(getattr(self.cls, attr),
                                                 self.samples[kind]))

    @staticmethod
    def _wrap(fn, store):
        def recorded(*args):
            store.append(args)
            return fn(*args)
        return recorded


def replay_ns(cls, samples, repeats=5, limit=4000):
    """Median ns per call of each ExactScalar operation over recorded
    operands (evenly thinned to `limit`), timed on the current class."""
    out = {}
    for kind, attr in MICRO:
        calls = samples[kind]
        if len(calls) > limit:
            step = len(calls) / limit
            calls = [calls[int(i * step)] for i in range(limit)]
        fn = getattr(cls, attr)
        timings = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for args in calls:
                fn(*args)
            timings.append((time.perf_counter_ns() - start) / len(calls))
        out[kind] = statistics.median(timings)
    return out
