"""tools/bench_pairs.py: summaries of any number of pairs, the acceptance
rule of a claimed gain, and a run without a result line, which must keep
the runs done before it and name its side and pair."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _fake_runs(values, fail=None):
    """A stand-in for ``run_once`` returning cpu_s values in call order, and
    raising ``RunFailed`` at call number ``fail``."""
    calls = []

    def run_once(checkout, workload, seconds, seed, trace):
        calls.append(checkout.name)
        if len(calls) - 1 == fail:
            raise bench_pairs.RunFailed("exit code 1, no result line")
        value = values[len(calls) - 1]
        return {"passes": 3, "correct": True, "failed": 0, "attempted": 3, "metrics": {"cpu_s": value}}

    return run_once, calls


def _main(tmp_path, monkeypatch, values, pairs, fail=None):
    run_once, calls = _fake_runs(values, fail)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    for side in ("base", "change"):
        (tmp_path / side).mkdir(exist_ok=True)
    out = tmp_path / "out.json"
    code = bench_pairs.main(["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
                             "--workload", "verify", "--pairs", str(pairs), "--out", str(out)])
    return code, json.loads(out.read_text()), calls


def test_one_pair(tmp_path, monkeypatch):
    code, doc, calls = _main(tmp_path, monkeypatch, [2.0, 1.0], 1)
    assert code == 0 and calls == ["base", "change"]
    s = doc["summary"]["cpu_s"]
    assert s["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert (s["change_lower"], s["pairs"], s["median_gap"], s["base_iqr"], s["met"]) == (1, 1, 1.0, 0.0, True)


def test_acceptance_rule(tmp_path, monkeypatch):
    # Pairs alternate the order: base, change, then change, base.
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    for change, met in ((0.5, True), (1.3, False)):
        values = []
        for k, b in enumerate(base):
            c = b if k == 0 else change
            values += [b, c] if k % 2 == 0 else [c, b]
        code, doc, _ = _main(tmp_path, monkeypatch, values, 10)
        s = doc["summary"]["cpu_s"]
        assert s["change_lower"] == (9 if met else 6) and s["met"] is met
        assert s["base_iqr"] == pytest.approx(1.675 - 1.225)


def test_run_without_result_line_keeps_earlier_runs(tmp_path, monkeypatch):
    code, doc, calls = _main(tmp_path, monkeypatch, [2.0, 1.0, 1.5, 2.5], 3, fail=3)
    assert code == 1 and calls == ["base", "change", "change", "base"]
    assert len(doc["pairs"]) == 1 and doc["summary"]["cpu_s"]["pairs"] == 1
    assert doc["failure"]["pair"] == 1 and doc["failure"]["side"] == "base"
    assert doc["failure"]["done"]["change"]["metrics"] == {"cpu_s": 1.5}


def test_run_once_reports_a_silent_run(tmp_path):
    bench = tmp_path / "qnetbench"
    bench.mkdir()
    (bench / "run.py").write_text("import sys\nsys.exit(3)\n")
    with pytest.raises(bench_pairs.RunFailed, match="exit code 3"):
        bench_pairs.run_once(tmp_path, "verify", 1.0, 0, 0)
