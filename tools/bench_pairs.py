"""Alternating benchmark pairs between two checkouts, written to one JSON file.

    python3 tools/bench_pairs.py --base ../base-checkout --change . \
        --workload verify --pairs 10 --seconds 55 --out BENCH_verify.json

Each pair runs ``qnetbench/run.py`` once in each checkout, each run in a
fresh process, the base first in even pairs and the change first in odd
ones.  The file records per run the end-to-end metrics, the number of
passes (rounds) and the failed and attempted items, and per metric the
medians, quartiles and wins of the change over the complete pairs, with
the acceptance rule for a claimed gain: ``met`` when the change is lower
in at least 9 of 10 pairs and its median is lower than the base's by more
than the base's interquartile range.  With ``--trace 1`` one traced run
per checkout adds its per-layer metrics.  A run that prints no result
line stops the pairs: the file keeps the runs done so far and names the
failing side and pair.  The script exits 1 when a run fails or reports a
wrong output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path


class RunFailed(Exception):
    """A run that printed no JSON result line."""


def run_once(checkout: Path, workload: str, seconds: float, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(checkout / "qnetbench" / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    out = proc.stdout.splitlines()
    try:
        result = json.loads(out[-1])
        passes = next(int(m.group(1)) for line in out if (m := re.search(r" passes=(\d+) ", line)))
    except (IndexError, ValueError, StopIteration) as exc:
        raise RunFailed("exit code %d, no result line (%s); stderr ends: %s"
                        % (proc.returncode, type(exc).__name__, proc.stderr[-500:])) from exc
    return {
        "passes": passes,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(runs: list[dict], name: str) -> dict:
    values = sorted(r["metrics"][name] for r in runs)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def claim(pairs: list[dict], name: str) -> dict:
    """The acceptance rule for a lower-is-better metric over complete pairs."""
    base = summary([p["base"] for p in pairs], name)
    change = summary([p["change"] for p in pairs], name)
    wins = sum(p["change"]["metrics"][name] < p["base"]["metrics"][name] for p in pairs)
    gap = base["median"] - change["median"]
    iqr = base["q3"] - base["q1"]
    return {
        "base": base,
        "change": change,
        "change_lower": wins,
        "pairs": len(pairs),
        "median_gap": gap,
        "base_iqr": iqr,
        "met": wins >= math.ceil(0.9 * len(pairs)) and gap > iqr,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    pairs: list[dict] = []
    failure = None
    for k in range(args.pairs):
        pair: dict = {}
        for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
            try:
                pair[side] = run_once(sides[side], args.workload, args.seconds, args.seed, 0)
            except RunFailed as exc:
                failure = {"pair": k, "side": side, "error": str(exc)}
                print("pair %d %s failed: %s" % (k, side, exc), file=sys.stderr)
                break
            print("pair %d %s %s" % (k, side, pair[side]["metrics"]), file=sys.stderr)
        if failure is not None:
            if pair:
                failure["done"] = pair
            break
        pairs.append(pair)
    doc = {"workload": args.workload, "seconds": args.seconds, "seed": args.seed, "pairs": pairs}
    if pairs:
        doc["summary"] = {name: claim(pairs, name) for name in pairs[0]["base"]["metrics"]}
    if failure is not None:
        doc["failure"] = failure
    elif args.trace:
        doc["traced"] = {}
        for side, path in sides.items():
            try:
                doc["traced"][side] = run_once(path, args.workload, 5.0, args.seed, 1)
            except RunFailed as exc:
                doc["failure"] = {"pair": "traced", "side": side, "error": str(exc)}
                break
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    wrong = [run for pair in pairs for run in pair.values() if not run["correct"]]
    return 1 if wrong or "failure" in doc else 0


if __name__ == "__main__":
    sys.exit(main())
