"""Output parity of two checkouts over the seeded generators.

    python3 tools/parity.py ../parent-checkout . --seeds 0-20 --rounds 0-559 --m1-seeds 0-299

Runs, in one fresh process per checkout against that checkout's
``src/qnets``, the same list of items and compares their outcomes:

* every item of the ``generate`` workload: each generator of
  ``qnetbench/workloads.GENERATORS`` once per workload seed in --seeds and
  round in --rounds, with the seed ``derive(seed, "generate", round,
  index)`` the workload gives it;
* for each seed s in --m1-seeds (default: --seeds),
  ``bs_laplace_degenerate_m1`` at sizes (3, 3, 3) and (4, 3, 3) and
  ``construct_double_degenerate(double_degenerate_boundary(1, 3, 3, 3, s), 1)``.

An outcome is the SHA-256 digest of ``net_to_dict`` of the item's net, or
the type, message and site of the ``QnetsError`` it raised.  The item list
comes from this repository's ``qnetbench`` for both checkouts.  Prints each
differing item (the first 20) and a summary line with the number of
items, of differing ones and of errors at the base; exits 1 when an outcome
differs or a side fails to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHOWN = 20


def seed_range(text: str) -> range:
    """``"A-B"`` as range(A, B + 1), ``"A"`` as range(A, A + 1)."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def items(seeds: range, rounds: range, m1_seeds: range):
    """(label, call) per item, in a fixed order; ``call`` takes the
    ``construct`` module."""
    sys.path.insert(0, str(ROOT / "qnetbench"))
    import workloads

    for seed in seeds:
        for k in rounds:
            for g, (label, call, _) in enumerate(workloads.GENERATORS):
                s = workloads.derive(seed, "generate", k, g)
                yield "seed %d round %d %s(%d)" % (seed, k, label, s), lambda C, call=call, s=s: call(C, s)
    for s in m1_seeds:
        for a in (3, 4):
            label = "bs_laplace_degenerate_m1(%d, 3, 3, %d)" % (a, s)
            yield label, lambda C, a=a, s=s: C.bs_laplace_degenerate_m1(a, 3, 3, s)
        label = "construct_double_degenerate.m1(%d)" % s
        yield label, lambda C, s=s: C.construct_double_degenerate(C.double_degenerate_boundary(1, 3, 3, 3, s), 1)


def outcome(call, qnets) -> str:
    """The digest of the net's document, or the error's type, message and site."""
    try:
        net = call(qnets.construct)
    except qnets.errors.QnetsError as exc:
        return "%s: %s (site %r)" % (type(exc).__name__, exc, getattr(exc, "site", None))
    doc = json.dumps(qnets.netfile.net_to_dict(net), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def run_side(checkout: Path, seeds: range, rounds: range, m1_seeds: range) -> None:
    """Print one JSON line [label, outcome] per item, against the checkout's sources."""
    sys.path.insert(0, str(checkout / "src"))
    import qnets.construct
    import qnets.errors
    import qnets.netfile

    for label, call in items(seeds, rounds, m1_seeds):
        print(json.dumps([label, outcome(call, qnets)]))


def compare(base: list[str], change: list[str]) -> list[str]:
    """One line per item whose outcome differs, and per item only one side ran."""
    diffs = []
    for k in range(max(len(base), len(change))):
        a = json.loads(base[k]) if k < len(base) else None
        b = json.loads(change[k]) if k < len(change) else None
        if a != b:
            label = (a or b)[0]
            diffs.append("%s: %s -> %s" % (label, a and a[1], b and b[1]))
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--seeds", required=True, help="workload seeds A-B")
    parser.add_argument("--rounds", required=True, help="rounds A-B")
    parser.add_argument("--m1-seeds", help="seeds A-B of the m = 1 items (default: --seeds)")
    parser.add_argument("--side", type=Path, help="print the outcomes of one checkout instead")
    args = parser.parse_args(argv)
    ranges = ["--seeds", args.seeds, "--rounds", args.rounds, "--m1-seeds", args.m1_seeds or args.seeds]
    if args.side is not None:
        run_side(args.side, *map(seed_range, ranges[1::2]))
        return 0
    if args.change is None:
        parser.error("give the base and the change checkout")

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    lines = {}
    with tempfile.TemporaryDirectory() as tmp:
        procs = {}
        for side, checkout in sides.items():
            with open(Path(tmp) / side, "w") as out:
                cmd = [sys.executable, __file__, "--side", str(checkout)] + ranges
                procs[side] = subprocess.Popen(cmd, stdout=out)
        codes = {side: proc.wait() for side, proc in procs.items()}
        for side, code in codes.items():
            if code:
                print("%s side (%s) exited with %d" % (side, sides[side], code))
                return 1
            lines[side] = (Path(tmp) / side).read_text().splitlines()
    diffs = compare(lines["base"], lines["change"])
    for line in diffs[:SHOWN]:
        print(line)
    raised = sum(len(json.loads(line)[1]) != 64 for line in lines["base"])
    print("%d items, %d differ, %d raise at the base" % (max(map(len, lines.values())), len(diffs), raised))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
