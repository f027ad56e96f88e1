"""Tests of the benchmark itself.

Two traced runs of the same workload and seed must give the same output
digest and exactly the same counts, and so must a run under another
PYTHONHASHSEED; and the rank oracle must reject a transform point that is
off its edge lines.  Run with

    python3 -m pytest qnetbench/test_qnetbench.py

The determinism test takes a few minutes (three traced runs per workload).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
sys.path[:0] = [str(RUN.parent), str(RUN.parent.parent / "src")]

import oracle  # noqa: E402


def traced_run(workload: str, hash_seed: int) -> tuple[str, dict]:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    result = json.loads(lines[-1])
    assert result["correct"]
    # Every metric that is not a time or the tracing overhead is a count.
    counts = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] != "s" and name != "trace.overhead_ratio"
    }
    return digest, counts


@pytest.mark.parametrize("workload", ["sequence", "generate", "verify"])
def test_digest_and_counts_repeat(workload):
    first = traced_run(workload, 0)
    assert traced_run(workload, 0) == first
    assert traced_run(workload, 1) == first


def test_oracle_rejects_a_moved_transform_point():
    from qnets import construct, qnet

    net = construct.random_qnet(3, 3, 3, 0)
    before = oracle.net_coords(net)
    layer = oracle.net_coords(qnet.laplace_forward(net))
    assert oracle.transform_problems(before, layer, "forward") == []
    assert oracle.transform_problems(before, layer, "backward") != []
    x = layer[(1, 1)]
    layer[(1, 1)] = (x[0] + 1,) + x[1:]
    assert len(oracle.transform_problems(before, layer, "forward")) == 1
