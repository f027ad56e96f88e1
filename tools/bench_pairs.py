"""Alternating benchmark pairs between two checkouts, written to one JSON file.

    python3 tools/bench_pairs.py --base ../base-checkout --change . \
        --workload verify --pairs 10 --seconds 55 --out BENCH_verify.json

Each pair runs ``qnetbench/run.py`` once in each checkout, each run in a
fresh process, the base first in even pairs and the change first in odd
ones.  The file records per run the end-to-end metrics, the number of
passes (rounds) and the failed and attempted items, and per workload the
medians, quartiles and wins of the change.  With ``--trace 1`` one traced
run per checkout adds its per-layer metrics.  The script exits 1 when a run
reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seconds: float, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(checkout / "qnetbench" / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout).stdout.splitlines()
    result = json.loads(out[-1])
    passes = next(int(m.group(1)) for line in out if (m := re.search(r" passes=(\d+) ", line)))
    return {
        "passes": passes,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(runs: list[dict], name: str) -> dict:
    values = sorted(r["metrics"][name] for r in runs)
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


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
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for k in range(args.pairs):
        for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
            runs[side].append(run_once(sides[side], args.workload, args.seconds, args.seed, 0))
            print("pair %d %s %s" % (k, side, runs[side][-1]["metrics"]), file=sys.stderr)
    metrics = list(runs["base"][0]["metrics"])
    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seed": args.seed,
        "pairs": [{"base": b, "change": c} for b, c in zip(runs["base"], runs["change"])],
        "summary": {
            name: {
                "base": summary(runs["base"], name),
                "change": summary(runs["change"], name),
                "change_lower": sum(c["metrics"][name] < b["metrics"][name] for b, c in zip(runs["base"], runs["change"])),
            }
            for name in metrics
        },
    }
    if args.trace:
        doc["traced"] = {side: run_once(path, args.workload, 5.0, args.seed, 1) for side, path in sides.items()}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    wrong = [r for side in runs.values() for r in side if not r["correct"]]
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
