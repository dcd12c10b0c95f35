"""bellgate benchmark: closed loop, one client, three seeded workloads.

    python3 bench/run.py --workload cli-exact|exact-heavy|float-sweep \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.
Requests run in whole cycles (the same request kinds every cycle) until
--seconds have passed.  Every output is checked by bench/check.py; a
request fails if it raises, exits non-zero or fails the check.  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).

`correct` is false when a request outside the known float-defect class
(float rows with theta < 1e-4, see workloads.is_known_float_defect) fails;
those defects still count in `failed` and in fail_rate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 15
#: fresh `import bellgate.cli` runs per traced cli-exact run
STARTUP_PROBES = 5
SCRATCH = ROOT / ".bench_build" / "bellgate-bench"


def machine() -> str:
    return (f"Python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"{platform.machine()}")


# -------------------------------------------------------------------- set-up

def setup_probe(workload, seed: int):
    """Child side of a set-up measurement: import plus input generation."""
    start = time.perf_counter()
    if workload.cli:
        import bellgate.cli  # noqa: F401
    bg = workloads.Library()
    workloads.build_scenarios(bg, workloads.make_cycle(workload, seed, 0))
    print(repr(time.perf_counter() - start))


def measure_setup(workload, seed: int) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, env=workloads.cli_env(), capture_output=True,
            text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# ------------------------------------------------------------------ requests

class Outcome:
    __slots__ = ("request", "latency", "failure")

    def __init__(self, request, latency, failure):
        self.request = request
        self.latency = latency
        self.failure = failure


class Runner:
    """Executes and checks requests; one instance per pass."""

    def __init__(self, workload, bg, cli_prefix=None):
        self.workload = workload
        self.bg = bg
        self.cli_prefix = cli_prefix
        self.outcomes = []

    def execute(self, request):
        if self.workload.cli:
            return workloads.run_cli(request, self.cli_prefix(request)
                                     if self.cli_prefix else None)
        return workloads.run_library(self.bg, request)

    def run(self, request):
        start = time.perf_counter()
        try:
            output = self.execute(request)
        except Exception as exc:  # a failed request, reported below
            failure = f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        else:
            latency = time.perf_counter() - start
            failure = None
            try:
                if self.workload.cli:
                    workloads.check_cli(request, output)
                else:
                    workloads.check_library(request, output)
            except check.CheckFailed as exc:
                failure = str(exc)
            except Exception as exc:  # malformed output broke the checker
                failure = f"check error {type(exc).__name__}: {exc}"
        self.outcomes.append(Outcome(request, latency, failure))

    def cycle(self, requests):
        for request in requests:
            self.run(request)


def percentile(outcomes, q: float):
    """Linear-interpolated percentile of latency; failed requests rank
    behind every success, as if they missed any latency limit."""
    ranked = sorted(outcomes, key=lambda o: (o.failure is not None,
                                             o.latency))
    position = q * (len(ranked) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ranked) - 1)
    frac = position - low
    value = ranked[low].latency * (1 - frac) + ranked[high].latency * frac
    return value, len(ranked) - 1 - low


def summarize_failures(outcomes):
    failed = [o for o in outcomes if o.failure is not None]
    reasons = Counter((o.request.kind, re.sub(r"-?\d[\w.+-]*", "#",
                                              o.failure)[:90])
                      for o in failed)
    for (kind, reason), count in sorted(reasons.items()):
        print(f"# failed x{count}: {kind}: {reason}")
    for o in failed[:5]:
        print(f"#   e.g. {o.request.describe()}"
              + (f" theta={o.request.theta!r}" if o.request.theta else "")
              + f": {o.failure}")
    unexpected = [o for o in failed
                  if not workloads.is_known_float_defect(o.request)]
    return len(failed), not unexpected


def emit(correct: bool, attempted: int, failed: int, metrics: dict):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


# ------------------------------------------------------------ untraced run

def measured_run(workload, seed: int, seconds: float):
    setup_s = measure_setup(workload, seed)
    bg = None if workload.cli else workloads.Library()
    runner = Runner(workload, bg)
    rates = []      # per cycle: successful requests per second in requests
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        requests = workloads.make_cycle(workload, seed, index)
        if bg is not None:
            workloads.build_scenarios(bg, requests)
        runner.cycle(requests)
        done = runner.outcomes[-len(requests):]
        rates.append(sum(o.failure is None for o in done)
                     / sum(o.latency for o in done))
        index += 1
    wall = time.perf_counter() - start
    outcomes = runner.outcomes
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.cli
                               else resource.RUSAGE_SELF)
    busy = sum(o.latency for o in outcomes)
    failed, correct = summarize_failures(outcomes)
    n = len(outcomes)
    p50, _ = percentile(outcomes, 0.5)
    p90, above = percentile(outcomes, 0.9)
    metrics = {
        "latency_p50_ms": (p50 * 1000, "ms"),
        "throughput_rps": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"# {index} cycles, {n} requests, {wall:.1f} s wall, "
          f"{busy:.1f} s in requests")
    print(f"# {'metric':<16} {'value':>12} {'unit':<6} samples")
    for name, (value, unit) in metrics.items():
        count = {"setup_s": f"{SETUP_PROBES} fresh set-ups",
                 "throughput_rps": f"median of {index} cycles",
                 "peak_rss_mb": "children's peak" if workload.cli
                 else "this process"}.get(name, f"{n} requests")
        print(f"# {name:<16} {value:>12.4f} {unit:<6} {count}")
    if above >= 10:
        print(f"# {'latency_p90_ms':<16} {p90 * 1000:>12.4f} {'ms':<6} "
              f"{n} requests, {above} above p90")
    else:
        print(f"# {'latency_p90_ms':<16} {'n/a':>12} {'ms':<6} "
              f"{n} requests, only {above} above p90 (need 10)")
    print(f"# {'fail_rate':<16} {failed / n:>12.4f} {'1':<6} "
          f"{failed}/{n} requests")
    emit(correct, n, failed, metrics)


# -------------------------------------------------------------- traced run

def _child_prefix(mode, files):
    def prefix(request):
        handle, path = tempfile.mkstemp(dir=SCRATCH, suffix=".json")
        os.close(handle)
        files.append(path)
        return [sys.executable, str(HERE / "cli_child.py"), mode, path, "--"]
    return prefix


def _read_child(path):
    """What a traced CLI child recorded; empty if it died before writing."""
    with open(path) as handle:
        text = handle.read()
    os.unlink(path)
    return json.loads(text) if text else {"spans": [], "pivots": {},
                                          "ops": 0, "max_bits": 0,
                                          "report_bytes": 0}


def cli_startup_ms() -> float:
    samples = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bellgate.cli"],
                       cwd=ROOT, env=workloads.cli_env(), check=True,
                       timeout=120)
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def micro_ops(bg):
    """scalar.*_ns: replay operands recorded from a canonical exact solve."""
    cls = bg.scalar.ExactScalar
    scenario = bg.qubit.canonical_scenario()
    problem = bg.feasibility.build_prop2(scenario)
    with tracing.OpRecorder(cls) as recorder:
        bg.feasibility.solve_problem(problem)
    return tracing.replay_ns(cls, recorder.samples)


def traced_run(workload, seed: int):
    """The first cycle three times: untraced, with spans, with op counting.

    --seconds does not apply: per-layer totals always cover the same work,
    so they compare across commits whatever the speed.
    """
    if workload.cli:
        import bellgate.cli  # noqa: F401
        import bellgate.transform  # noqa: F401
    bg = workloads.Library()
    SCRATCH.mkdir(parents=True, exist_ok=True)

    def fresh_cycle():
        requests = workloads.make_cycle(workload, seed, 0)
        workloads.build_scenarios(bg, requests)
        return requests

    span_files, op_files = [], []
    plain = Runner(workload, bg)
    spans = Runner(workload, bg, _child_prefix("spans", span_files))
    ops = Runner(workload, bg, _child_prefix("ops", op_files))
    tracer = tracing.Tracer()
    counter = tracing.OpCounter(bg.scalar.ExactScalar)
    requests = fresh_cycle()
    with tracer:
        tracer.request = "setup"
        traced_requests = fresh_cycle()
    counted_requests = fresh_cycle()
    max_bits = report_bytes = 0
    # each request runs untraced, with spans and with op counting back to
    # back, so drift in machine speed hits the three passes alike
    for index, request in enumerate(requests):
        plain.run(request)
        tracer.request = counter.request = index
        with tracer:
            spans.run(traced_requests[index])
        with counter:
            ops.run(counted_requests[index])
        if workload.cli:
            tracer.absorb(_read_child(span_files.pop()), index)
            blob = _read_child(op_files.pop())
            counter.ops[index] += blob["ops"]
            max_bits = max(max_bits, blob["max_bits"])
            report_bytes += blob["report_bytes"]
    max_bits = max(max_bits, counter.max_bits)

    micro = micro_ops(bg)
    startup = cli_startup_ms() if workload.cli else 0.0
    with open(SCRATCH / f"spans-{workload.name}-seed{seed}.json", "w") as f:
        json.dump(tracer.dump(), f)

    totals = tracer.totals()

    def ms(name, own=False):
        _, total, self_time = totals.get(name, (0, 0.0, 0.0))
        return (self_time if own else total) * 1000

    pivots = Counter()
    for (_, phase), count in tracer.pivots.items():
        pivots[phase] += count
    pivot_calls = totals.get("simplex.pivot", (0, 0.0, 0.0))
    overhead = sum(o.latency for o in spans.outcomes) - \
        sum(o.latency for o in plain.outcomes)
    metrics = {
        "scalar.ops": (sum(counter.ops.values()), "count"),
        "scalar.max_bits": (max_bits, "bits"),
        "scalar.add_ns": (micro["add"], "ns"),
        "scalar.mul_ns": (micro["mul"], "ns"),
        "scalar.div_ns": (micro["div"], "ns"),
        "scalar.sign_ns": (micro["sign"], "ns"),
        "simplex.pivots.phase1": (pivots["phase1"], "count"),
        "simplex.pivots.phase2": (pivots["phase2"], "count"),
        "simplex.pivots.cleanup": (pivots["cleanup"], "count"),
        "simplex.pivot_us": (pivot_calls[1] / pivot_calls[0] * 1e6
                             if pivot_calls[0] else 0.0, "us"),
        "simplex.run.self_ms": (ms("simplex.run", own=True), "ms"),
        "simplex.solve_feasibility.self_ms":
            (ms("simplex.solve_feasibility", own=True), "ms"),
        "simplex.solve_min.self_ms": (ms("simplex.solve_min", own=True),
                                      "ms"),
        "simplex.verify_solution_ms": (ms("simplex.verify_solution"), "ms"),
        "simplex.verify_certificate_ms":
            (ms("simplex.verify_certificate"), "ms"),
        "feasibility.build_ms": (ms("feasibility.build"), "ms"),
        "feasibility.min_slack.self_ms":
            (ms("feasibility.min_slack", own=True), "ms"),
        "feasibility.extract_inequality.self_ms":
            (ms("feasibility.extract_inequality", own=True), "ms"),
        "feasibility.strategy_enum_ms":
            (ms("feasibility.strategy_enum"), "ms"),
        "ontology.all_strategies_ms": (ms("ontology.all_strategies"), "ms"),
        "ontology.validate_ms": (ms("ontology.validate"), "ms"),
        "ontology.json_ms": (ms("ontology.json"), "ms"),
        "qubit.build_scenario_ms": (ms("qubit.build_scenario"), "ms"),
        "transform.forward_ms": (ms("transform.forward"), "ms"),
        "transform.reverse_ms": (ms("transform.reverse"), "ms"),
        "transform.independence_ms": (ms("transform.independence"), "ms"),
        "cli.startup_ms": (startup, "ms"),
        "cli.main.self_ms": (ms("cli.main", own=True), "ms"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "trace.overhead_s": (overhead, "s"),
    }

    print(f"# traced one cycle of {len(requests)} requests; times are "
          f"totals over the cycle, 0 means the cycle never calls that layer")
    print(f"# {'req':>3} {'phase1':>6} {'phase2':>6} {'cleanup':>7} "
          f"{'scalar ops':>10} {'plain s':>8} {'spans s':>8}  request")
    for index, request in enumerate(requests):
        print(f"# {index:>3} "
              + " ".join(f"{tracer.pivots[(index, p)]:>{w}}" for p, w in
                         (("phase1", 6), ("phase2", 6), ("cleanup", 7)))
              + f" {counter.ops[index]:>10} "
              f"{plain.outcomes[index].latency:>8.3f} "
              f"{spans.outcomes[index].latency:>8.3f}  {request.describe()}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<40} {value:>14.4f} {unit}")
    outcomes = plain.outcomes + spans.outcomes + ops.outcomes
    failed, correct = summarize_failures(outcomes)
    emit(correct, len(outcomes), failed, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "bellgate" / "__init__.py").is_file():
        print(f"error: no bellgate sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0
    print(f"# bellgate benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}; closed loop, "
          f"one client")
    print(f"# {machine()}")
    if args.trace:
        traced_run(workload, args.seed)
    else:
        measured_run(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
