"""Benchmark of the qnets kernel.

    python3 qnetbench/run.py --workload generate --seed 0 --seconds 55 --trace 0

Runs one workload (sequence, generate or verify) in this process and in one
thread against the sources under ``src/`` next to this directory.  With
``--trace 0`` it times set-up and whole passes and prints the end-to-end
metrics; with ``--trace 1`` it records a span for every call into a public
function of each ``qnets`` layer and prints the per-layer metrics.  Either
way every output is checked exactly (see ``oracle.py``), and a wrong output
makes the command exit with 1 after printing its result.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".qnetbench_out"


@dataclass
class Pass:
    wall: float
    cpu: float
    items: list


@dataclass
class Run:
    metrics: dict
    passes: list
    checks: "Checks"
    notes: list[str]
    problems: list[str]


def fresh_import():
    """Import every layer of qnets anew, so that each set-up pays for it."""
    for name in [m for m in sys.modules if m == "qnets" or m.startswith("qnets.")]:
        del sys.modules[name]
    package = importlib.import_module("qnets")
    modules = {layer: importlib.import_module("qnets." + layer) for layer in tracing.LAYERS}
    modules["errors"] = importlib.import_module("qnets.errors")
    modules["package"] = package
    return argparse.Namespace(**modules)


def layer_modules(q) -> dict:
    return {name: getattr(q, name) for name in tracing.LAYERS + ("package",)}


def timed_passes(seconds: float, one_round, checks) -> list:
    """Run ``one_round(k)`` for k = 0, 1, ... while the next round is
    expected to keep the timed part within ``seconds`` (at least one round),
    and check the passes of each round after it ends, outside the timer.
    The run length is fixed and the number of rounds follows the speed of
    the code and the machine; pass k always does the same work, and every
    metric is a median over passes, so the count does not bias it."""
    passes, timed, rounds = [], 0.0, 0
    while True:
        start = perf_counter()
        new = one_round(rounds)
        timed += perf_counter() - start
        rounds += 1
        checks.add(new)
        passes += new
        if timed * (rounds + 1) / rounds > seconds:
            return passes


def timed_pass(workload, q, state, k: int, tracer=None) -> Pass:
    wall, cpu = perf_counter(), process_time()
    items = workload.run_pass(q, state, k, tracer)
    return Pass(perf_counter() - wall, process_time() - cpu, items)


class Checks:
    """Oracle checks on every output seen for the first time, digest
    comparison on every repeat.  The outputs of a pass are dropped once it
    is checked, so that the run's memory does not grow with its passes."""

    def __init__(self, workload, q, state):
        self.workload, self.q, self.state = workload, q, state
        self.seen: dict = {}
        self.problems: list[str] = []
        self.failed = 0
        self.first: list | None = None

    def add(self, passes: list) -> None:
        for p in passes:
            for item in p.items:
                found = workloads.digest(self.workload.material(self.q, item))
                if item.key in self.seen:
                    bad = [] if self.seen[item.key] == found else ["%s: output differs from an earlier pass" % (item.key,)]
                else:
                    self.seen[item.key] = found
                    bad = self.workload.check(self.q, item)
                self.problems += bad
                self.failed += 1 if bad or item.error is not None else 0
                item.output = None
            if self.first is None:
                self.first = [self.seen[item.key] for item in p.items]

    def result(self) -> tuple[list[str], int, str]:
        """Set-up checks first, then the passes.  Returns (problems, failed
        items, digest of the inputs and the first pass)."""
        setup_bad = self.workload.check_setup(self.q, self.state)
        problems = [p for bad in setup_bad.values() for p in bad] + self.problems
        digest = workloads.digest([self.state["material"], self.first])
        return problems, len(setup_bad) + self.failed, digest


def reference_problems(workload, seed: int, run_digest: str) -> list[str]:
    """Compare with the stored digest of the default seed (every seed for
    verify, which the workload seed does not reach)."""
    if seed != workloads.DEFAULT_SEED and workload.name != "verify":
        return []
    stored = json.loads((Path(__file__).parent / "reference.json").read_text()).get(workload.name)
    if stored is None or stored == run_digest:
        return []
    return ["digest %s differs from the stored reference %s" % (run_digest, stored)]


def typical_pass(passes: list[Pass]) -> tuple[list[float], list[float]]:
    """Wall and CPU times of the items of a typical pass: at each item
    position, the median over the passes that reached it.  A few slow
    rejection-sampling draws then move its total no more than they move a
    median."""
    walls: dict = {}
    cpus: dict = {}
    for p in passes:
        for item in p.items:
            walls.setdefault(item.position, []).append(item.seconds)
            cpus.setdefault(item.position, []).append(item.cpu)
    return [statistics.median(v) for v in walls.values()], [statistics.median(v) for v in cpus.values()]


def harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted by
    the Beta((n+1)/2, (n+1)/2) mass of their rank interval.  Item costs
    cluster at a few levels (one per step of a sequence, one per generator),
    and the sample median jumps between them; this estimate moves smoothly."""
    x = sorted(values)
    n = len(x)
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)
    steps = 64
    weights = []
    for i in range(n):
        total = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            total += math.exp((a - 1) * (math.log(t) + math.log1p(-t)) - log_beta)
        weights.append(total)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_plain(workload, seed: int, seconds: float) -> Run:
    setup_times = []
    state = workload.new_state(seed)
    for batch in range(workload.SETUPS):
        start = perf_counter()
        q = fresh_import()
        workload.setup(q, state, batch)
        workload.warm_up(q, state)
        setup_times.append(perf_counter() - start)
    checks = Checks(workload, q, state)
    passes = timed_passes(seconds, lambda k: [timed_pass(workload, q, state, k)], checks)
    item_times = [item.seconds for p in passes for item in p.items]
    walls, cpus = typical_pass(passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "item_s.p50": harrell_davis_median(item_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # A percentile is reported only with at least ten items beyond it.
    if len(item_times) >= 100:
        p90 = "item_s.p90 %s s" % quantile(item_times, 90)
    else:
        p90 = "item_s.p90 not reported: %d items, fewer than 100" % len(item_times)
    return Run(metrics, passes, checks, [p90], [])


def run_traced(workload, seed: int, seconds: float) -> Run:
    q = fresh_import()
    tracer = tracing.Tracer(layer_modules(q))
    tracer.install()
    try:
        state = workload.new_state(seed)
        for batch in range(workload.SETUPS):
            workload.setup(q, state, batch)
    finally:
        tracer.uninstall()
    workload.warm_up(q, state)
    setup_spans = list(tracer.spans)
    setup_attempts = tracer.counts["construct.attempts"]
    ratios, per_pass, first_spans = [], [], None

    def one_round(_):
        nonlocal first_spans
        plain = timed_pass(workload, q, state, 0)
        tracer.reset()
        tracer.install()
        try:
            traced = timed_pass(workload, q, state, 0, tracer)
        finally:
            tracer.uninstall()
        ratios.append(traced.wall / plain.wall)
        per_pass.append(tracing.layer_metrics(tracer.spans, setup_spans, setup_attempts, tracer))
        if first_spans is None:
            first_spans = list(tracer.spans)
        return [plain, traced]

    checks = Checks(workload, q, state)
    passes = timed_passes(seconds, one_round, checks)
    metrics, counts_differ = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                counts_differ.append("%s differs between traced passes of the same work: %s" % (name, values))
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    OUT_DIR.mkdir(exist_ok=True)
    # Of the set-up only the generator spans are written; they are what
    # construct.* report, and the rest would multiply the file size.
    tracing.write_spans(
        OUT_DIR / ("spans-%s-seed%d.tsv.gz" % (workload.name, seed)),
        {"setup": tracing.layer_spans(setup_spans, "construct."), "pass": first_spans},
    )
    return Run(metrics, passes, checks, [], counts_differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qnets" / "__init__.py").is_file():
        print("qnetbench: no qnets sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, str(ROOT / "src"))

    workload = workloads.WORKLOADS[args.workload]
    run = run_traced if args.trace else run_plain
    r = run(workload, args.seed, args.seconds)

    problems, failed, run_digest = r.checks.result()
    problems += r.problems + reference_problems(workload, args.seed, run_digest)
    setup_failed = [(label, exc) for label, exc in r.checks.state["setup_items"] if exc is not None]
    attempted = len(r.checks.state["setup_items"]) + sum(len(p.items) for p in r.passes)
    failed += len(setup_failed)

    print("qnetbench %s seed=%d trace=%d passes=%d items=%d" % (workload.name, args.seed, args.trace, len(r.passes), attempted))
    print("digest %s" % run_digest)
    print("pass_wall_s %s" % " ".join("%.4f" % p.wall for p in r.passes))
    for label, exc in setup_failed:
        print("set-up failure: %s: %s: %s" % (label, type(exc).__name__, exc))
    for p in r.passes:
        for item in p.items:
            if item.error is not None:
                print("item failure: %s: %s: %s" % (item.key, type(item.error).__name__, item.error))
    for problem in problems:
        print("WRONG OUTPUT: %s" % problem)
    for name, value in r.metrics.items():
        print("%s %s %s" % (name, value, units[name]))
    for note in r.notes:
        print(note)
    print("fail_ratio %s (%d of %d items)" % (failed / attempted, failed, attempted))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in r.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
