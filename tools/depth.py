"""Timings and digests of the deep unique completion on two checkouts.

    python3 tools/depth.py ../parent-checkout . --m 4-6 --seeds 0-1 --out BENCH_depth.json

For each m and seed s the instance is
``extend_laplace_degenerate(laplace_degenerate_boundary(m, m+1, m+2, 3, s), m)``.
Each instance runs in one fresh process per checkout, against that
checkout's ``src/qnets``, the base first for even instances and the
change first for odd ones.  A run reports the process time of the
boundary and of the completion, and the outcome as ``tools/parity.py``
defines it: the SHA-256 digest of the completed net's document, or the
error's type, message and site.  With --out the runs and, per m, the
summed completion times of both sides and their ratio are written as
JSON.  Exits 1 when an outcome differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))
from parity import outcome, seed_range  # noqa: E402


def run_side(checkout: Path, m: int, seed: int) -> None:
    """Print the times and the outcome of one instance as one JSON line."""
    sys.path.insert(0, str(checkout / "src"))
    import qnets.construct
    import qnets.errors
    import qnets.netfile

    times = {"boundary_s": None, "completion_s": None}

    def call(C):
        t = process_time()
        boundary = C.laplace_degenerate_boundary(m, m + 1, m + 2, 3, seed)
        times["boundary_s"] = process_time() - t
        t = process_time()
        try:
            return C.extend_laplace_degenerate(boundary, m)
        finally:
            times["completion_s"] = process_time() - t

    result = outcome(call, qnets)
    print(json.dumps(dict(times, outcome=result)))


def run_once(checkout: Path, m: int, seed: int) -> dict | None:
    cmd = [sys.executable, __file__, "--side", str(checkout), "--m", str(m), "--seeds", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode:
        print("%s failed at m=%d seed %d: %s" % (checkout, m, seed, proc.stderr[-500:]))
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--m", default="4-6", help="depths A-B")
    parser.add_argument("--seeds", default="0-1", help="boundary seeds A-B")
    parser.add_argument("--out", type=Path, help="write the runs and the per-m ratios here")
    parser.add_argument("--side", type=Path, help="run one instance of one checkout instead")
    args = parser.parse_args(argv)
    if args.side is not None:
        run_side(args.side, int(args.m), int(args.seeds))
        return 0
    if args.change is None:
        parser.error("give the base and the change checkout")

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs, differ = [], 0
    for m in seed_range(args.m):
        for seed in seed_range(args.seeds):
            order = ("base", "change") if len(runs) % 2 == 0 else ("change", "base")
            run = {"m": m, "seed": seed, "order": list(order)}
            for side in order:
                run[side] = run_once(sides[side], m, seed)
                if run[side] is None:
                    return 1
            same = run["base"]["outcome"] == run["change"]["outcome"]
            differ += not same
            runs.append(run)
            print("m=%d seed %d: base %.3f s, change %.3f s, %s" % (
                m, seed, run["base"]["completion_s"] or 0, run["change"]["completion_s"] or 0,
                "same outcome" if same else "%s -> %s" % (run["base"]["outcome"], run["change"]["outcome"])))
    print("%d instances, %d differ" % (len(runs), differ))
    if args.out is not None:
        summary = {}
        for m in seed_range(args.m):
            total = {side: sum(r[side]["completion_s"] or 0 for r in runs if r["m"] == m) for side in sides}
            summary[str(m)] = dict(total, ratio=total["change"] / total["base"] if total["base"] else None)
        doc = {"m": args.m, "seeds": args.seeds, "runs": runs, "summary": summary, "differ": differ}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
