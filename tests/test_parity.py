"""tools/parity.py: one checkout against itself agrees on every item, a
changed generator is reported per item, and an outcome names the error's
type, message and site."""

import importlib.util
import shutil
from pathlib import Path

from qnets import construct, errors, netfile
from qnets.errors import ConstructionError

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("parity", _ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


class _Qnets:
    construct, errors, netfile = construct, errors, netfile


def test_seed_range():
    assert parity.seed_range("3") == range(3, 4)
    assert parity.seed_range("0-20") == range(0, 21)


def test_a_checkout_agrees_with_itself(capsys):
    assert parity.main([str(_ROOT), str(_ROOT), "--seeds", "0", "--rounds", "0-1", "--m1-seeds", "0-1"]) == 0
    # 12 generators in each of 2 rounds, 4 m = 1 items for each of 2 seeds.
    assert capsys.readouterr().out.splitlines() == ["32 items, 0 differ, 0 raise at the base"]


def test_a_changed_generator_is_reported(tmp_path, capsys):
    shutil.copytree(_ROOT / "src" / "qnets", tmp_path / "src" / "qnets")
    with open(tmp_path / "src" / "qnets" / "construct.py", "a") as fh:
        fh.write("\n\ndef random_qnet(a, b, n, seed):\n    raise ConstructionError('changed', (0, 1))\n")
    assert parity.main([str(_ROOT), str(tmp_path), "--seeds", "0", "--rounds", "0", "--m1-seeds", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "16 items, 3 differ, 0 raise at the base"
    diffs = out[:-1]
    assert [line.split()[4].split("(")[0] for line in diffs] == ["random_qnet.rp3", "random_qnet.rp8", "random_qnet.rp12"]
    assert all(line.endswith("-> ConstructionError: changed (site (0, 1))") for line in diffs)


def test_outcome_of_a_net_and_of_an_error():
    digest = parity.outcome(lambda C: C.random_qnet(2, 2, 3, 0), _Qnets)
    assert len(digest) == 64 and digest == parity.outcome(lambda C: C.random_qnet(2, 2, 3, 0), _Qnets)

    def fails(C):
        raise ConstructionError("no unique completion at (2, 3)", (2, 3))

    assert parity.outcome(fails, _Qnets) == "ConstructionError: no unique completion at (2, 3) (site (2, 3))"


def test_compare_names_each_differing_item():
    base = ['["a", "x"]', '["b", "y"]']
    assert parity.compare(base, base) == []
    assert parity.compare(base, ['["a", "x"]', '["b", "z"]']) == ["b: y -> z"]
    assert parity.compare(base, base[:1]) == ["b: y -> None"]
