"""tools/depth.py: one checkout against itself agrees and writes its runs,
and a changed completion is reported and fails the run."""

import importlib.util
import json
import shutil
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("depth", _ROOT / "tools" / "depth.py")
depth = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(depth)


def test_a_checkout_agrees_with_itself(tmp_path, capsys):
    out = tmp_path / "depth.json"
    assert depth.main([str(_ROOT), str(_ROOT), "--m", "2-3", "--seeds", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 instances, 0 differ"
    doc = json.loads(out.read_text())
    assert [(r["m"], r["seed"], r["order"]) for r in doc["runs"]] == [
        (2, 0, ["base", "change"]),
        (3, 0, ["change", "base"]),
    ]
    for run in doc["runs"]:
        assert run["base"]["outcome"] == run["change"]["outcome"] and len(run["base"]["outcome"]) == 64
    assert sorted(doc["summary"]) == ["2", "3"] and doc["differ"] == 0


def test_a_changed_completion_is_reported(tmp_path, capsys):
    shutil.copytree(_ROOT / "src" / "qnets", tmp_path / "src" / "qnets")
    with open(tmp_path / "src" / "qnets" / "construct.py", "a") as fh:
        fh.write("\n\ndef extend_laplace_degenerate(boundary, m):\n    raise ConstructionError('changed', (3, 2))\n")
    assert depth.main([str(_ROOT), str(tmp_path), "--m", "2", "--seeds", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "1 instances, 1 differ"
    assert lines[0].endswith("-> ConstructionError: changed (site (3, 2))")
