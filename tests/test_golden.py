"""Golden outputs: documents written by the generators, one Laplace step
each way, invariant tables, the defect lists of a degenerating sequence,
a diagonal net and an extensive lift, compared byte for byte with fixtures
under ``tests/golden``.

Every seeded construction draws random combinations of subspace basis rows
and canonical point coordinates, so any change to the kernel's canonical
forms or arithmetic shows up here as a changed document.  The fixtures were
written by the kernel before the integer rewrite; regenerate them only on
purpose, with ``PYTHONPATH=src python tests/test_golden.py --write``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from qnets import construct
from qnets.invariants import laplace_invariants
from qnets.lifts import embed_and_lift
from qnets.netfile import invariants_to_csv, net_to_dict
from qnets.qnet import (
    TerminationReport,
    check_nondegenerate,
    diagonal_intersection_net,
    laplace_iterate,
    validate_qnet,
)

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (0, 1)

# The generator families behind `qnets generate` and `qnets construct`, at
# the sizes the verify suites use.
FAMILIES = {
    "random_qnet.rp3": lambda s: construct.random_qnet(4, 4, 3, s),
    "random_qnet.rp8": lambda s: construct.random_qnet(3, 3, 8, s),
    "random_laplace_degenerate_net": lambda s: construct.random_laplace_degenerate_net(3, 3, 3, s),
    "random_goursat_net": lambda s: construct.random_goursat_net(3, 3, 3, s),
    "random_bs_koenigs": lambda s: construct.random_bs_koenigs(4, 4, 3, s),
    "bs_laplace_degenerate_m1": lambda s: construct.bs_laplace_degenerate_m1(3, 3, 3, s),
    "extend_laplace_degenerate.m2": lambda s: construct.extend_laplace_degenerate(
        construct.laplace_degenerate_boundary(2, 3, 4, 3, s), 2
    ),
    "extend_laplace_degenerate.m3": lambda s: construct.extend_laplace_degenerate(
        construct.laplace_degenerate_boundary(3, 4, 5, 3, s), 3
    ),
    "construct_double_degenerate.m1": lambda s: construct.construct_double_degenerate(
        construct.double_degenerate_boundary(1, 3, 3, 3, s), 1
    ),
    "construct_double_degenerate.m2": lambda s: construct.construct_double_degenerate(
        construct.double_degenerate_boundary(2, 3, 3, 3, s), 2
    ),
    "bs_goursat_net.m1": lambda s: construct.bs_goursat_net(1, 3, 4, s),
    "bs_goursat_net.m2": lambda s: construct.bs_goursat_net(2, 4, 5, s),
}


def _generated(name: str) -> str:
    docs = {str(s): net_to_dict(FAMILIES[name](s)) for s in SEEDS}
    return json.dumps(docs, indent=1, sort_keys=True) + "\n"


def _laplace(seed: int) -> str:
    net = construct.random_qnet(4, 4, 3, seed)
    docs = {}
    for m in (1, -1):
        step = laplace_iterate(net, m)
        assert not isinstance(step, TerminationReport)
        docs[str(m)] = net_to_dict(step)
    return json.dumps(docs, indent=1, sort_keys=True) + "\n"


def _invariants(seed: int) -> str:
    return invariants_to_csv(laplace_invariants(construct.random_qnet(4, 4, 3, seed)))


def _koenigs_invariants(seed: int) -> str:
    return invariants_to_csv(laplace_invariants(construct.random_bs_koenigs(4, 4, 3, seed)))


def _defects(seed: int) -> str:
    """``check_nondegenerate`` and ``validate_qnet`` of every forward layer
    of the m=2 unique completion, down to its Laplace-degenerate layer 2,
    whose coincident points give edge and triple defects."""
    cur = construct.extend_laplace_degenerate(construct.laplace_degenerate_boundary(2, 3, 4, 3, seed), 2)
    docs = {}
    for k in range(3):
        docs[str(k)] = {"nondegenerate": check_nondegenerate(cur), "nonplanar": validate_qnet(cur)}
        if k < 2:
            cur = laplace_iterate(cur, 1)
            assert not isinstance(cur, TerminationReport)
    return json.dumps(docs, indent=1, sort_keys=True) + "\n"


def _diagonal() -> str:
    net = diagonal_intersection_net(construct.random_bs_koenigs(3, 3, 3, 0))
    return json.dumps(net_to_dict(net), indent=1, sort_keys=True) + "\n"


def _lift(seed: int) -> str:
    result = embed_and_lift(construct.random_bs_koenigs(2, 3, 3, seed), seed)
    doc = {
        "lifted": net_to_dict(result.lifted),
        "center_basis": [[str(c) for c in row] for row in result.center.basis],
        "screen_basis": [[str(c) for c in row] for row in result.screen.basis],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


CASES = {"generate.%s.json" % name: (lambda name=name: _generated(name)) for name in FAMILIES}
for _s in SEEDS:
    CASES["laplace.random_qnet_4_4_3.s%d.json" % _s] = lambda s=_s: _laplace(s)
    CASES["invariants.random_qnet_4_4_3.s%d.csv" % _s] = lambda s=_s: _invariants(s)
    CASES["lift.random_bs_koenigs_2_3_3.s%d.json" % _s] = lambda s=_s: _lift(s)
    CASES["invariants.random_bs_koenigs_4_4_3.s%d.csv" % _s] = lambda s=_s: _koenigs_invariants(s)
    CASES["defects.extend_laplace_degenerate_m2.s%d.json" % _s] = lambda s=_s: _defects(s)
CASES["diagonal.random_bs_koenigs_3_3_3.s0.json"] = _diagonal


@pytest.mark.parametrize("fixture", sorted(CASES))
def test_golden_output(fixture):
    assert CASES[fixture]() == (GOLDEN / fixture).read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for fixture, build in sorted(CASES.items()):
        (GOLDEN / fixture).write_text(build())
        print("wrote", fixture)
