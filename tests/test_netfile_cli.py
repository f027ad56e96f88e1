import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnets import GridDomain, HPoint, PartialNet, QNet, affine_grid, random_bs_koenigs, random_qnet
from qnets.cli import main
from qnets.errors import NetFileError
from qnets.netfile import (
    format_scalar,
    invariants_to_csv,
    net_from_dict,
    net_to_dict,
    parse_scalar,
    read_net,
    write_net,
)
from qnets.invariants import laplace_invariants

F = Fraction


class TestScalars:
    def test_rational_strings(self):
        assert parse_scalar("3/4") == F(3, 4)
        assert parse_scalar("-7") == -7
        assert parse_scalar(5) == 5

    def test_decimals_rationalize_exactly(self):
        assert parse_scalar("0.125") == F(1, 8)
        assert parse_scalar("-2.5") == F(-5, 2)

    def test_garbage_rejected(self):
        with pytest.raises(NetFileError):
            parse_scalar("one half")
        with pytest.raises(NetFileError):
            parse_scalar("1/0")

    def test_format_round_trip(self):
        for v in (F(3, 4), F(-7), F(0), F(22, 7)):
            assert parse_scalar(format_scalar(v)) == v


class TestNetFiles:
    def test_write_read_round_trip(self, tmp_path):
        for seed in range(5):
            net = random_qnet(2, 3, 3, seed)
            path = tmp_path / ("net%d.json" % seed)
            write_net(str(path), net)
            assert read_net(str(path)) == net

    def test_partial_boundary_round_trip(self, tmp_path):
        from qnets import random_bs_strips

        strips = random_bs_strips(3, 3, 3, 1)
        path = tmp_path / "strips.json"
        write_net(str(path), strips)
        loaded = read_net(str(path))
        assert isinstance(loaded, PartialNet)
        assert loaded.points == strips.points

    def test_shape_mismatch_rejected(self):
        doc = {"ambient_dim": 2, "i_range": [0, 1], "j_range": [0, 1], "points": [[["1", "0", "0"]]]}
        with pytest.raises(NetFileError):
            net_from_dict(doc)

    def test_zero_point_rejected(self):
        doc = net_to_dict(affine_grid(1, 1))
        doc["points"][0][0] = ["0", "0", "0"]
        with pytest.raises(NetFileError):
            net_from_dict(doc)

    def test_invariant_csv_format(self):
        csv = invariants_to_csv(laplace_invariants(affine_grid(2, 2)))
        lines = csv.strip().splitlines()
        assert lines[0] == "i,j,edge,value"
        assert any(",H," in line for line in lines[1:])
        assert any(",K," in line for line in lines[1:])


def _grid_doc(**changes):
    doc = net_to_dict(affine_grid(1, 1))
    doc.update(changes)
    return doc


def _with_point(entry):
    doc = _grid_doc()
    doc["points"][0][0] = entry
    return doc


def _with_row(row):
    doc = _grid_doc()
    doc["points"][0] = row
    return doc


HOSTILE_DOCUMENTS = {
    "string entry": _with_point("123"),
    "number entry": _with_point(5),
    "number row": _with_row(5),
    "row of numbers": _with_row([7, 7]),
    "fractional ambient_dim": _grid_doc(ambient_dim=1.5),
    "boolean ambient_dim": _grid_doc(ambient_dim=True),
    "string range": _grid_doc(i_range=["0", "1"]),
    "short range": _grid_doc(j_range=[0]),
    "points not a list": _grid_doc(points={"0": []}),
    "huge exponent": _with_point(["1e999999999", "0", "1"]),
    "huge exponent with underscores": _with_point(["1e9_999_999", "0", "1"]),
    "overlong coordinate": _with_point(["1" * 5000, "0", "1"]),
    "document not an object": [1, 2],
}


class TestHostileInput:
    @pytest.mark.parametrize("case", sorted(HOSTILE_DOCUMENTS))
    def test_rejected_with_net_file_error(self, case):
        with pytest.raises(NetFileError):
            net_from_dict(HOSTILE_DOCUMENTS[case])

    @pytest.mark.parametrize("case", sorted(HOSTILE_DOCUMENTS))
    def test_check_command_exits_with_2(self, case, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(HOSTILE_DOCUMENTS[case]))
        assert main(["check", "-i", str(path), "--json"]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "NetFileError"

    def test_bounded_exponent_still_parses(self):
        assert parse_scalar("25e-2") == F(1, 4)
        assert parse_scalar("1E3") == 1000

    def test_oversized_json_integer_is_a_net_file_error(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"ambient_dim": %s}' % ("9" * 5000))
        with pytest.raises(NetFileError):
            read_net(str(path))


def run(args):
    return main([str(a) for a in args])


class TestCli:
    def test_generate_and_roundtrip(self, tmp_path):
        out = tmp_path / "net.json"
        assert run(["generate", "--rows", 2, "--cols", 2, "--dim", 3, "--seed", 1, "-o", out]) == 0
        net = read_net(str(out))
        assert isinstance(net, QNet)
        write_net(str(tmp_path / "copy.json"), net)
        assert read_net(str(tmp_path / "copy.json")) == net

    def test_generate_koenigs(self, tmp_path):
        out = tmp_path / "bs.json"
        assert run(["generate", "--rows", 3, "--cols", 3, "--dim", 3, "--seed", 2, "--koenigs", "bs", "-o", out]) == 0
        from qnets import is_bs_koenigs

        assert is_bs_koenigs(read_net(str(out)))

    def test_laplace_step_and_termination(self, tmp_path):
        grid = tmp_path / "grid.json"
        write_net(str(grid), affine_grid(3, 3))
        one = tmp_path / "one.json"
        assert run(["laplace", "--steps", 1, "-i", grid, "-o", one]) == 0
        first = read_net(str(one))
        assert isinstance(first, QNet)
        assert first[(0, 0)] == HPoint((0, 1, 0))
        two = tmp_path / "two.json"
        assert run(["laplace", "--steps", 2, "-i", grid, "-o", two]) == 0
        doc = json.loads((tmp_path / "two.json").read_text())
        assert doc == {"terminated_at": 1, "kind": "laplace", "direction": "forward"}

    def test_check_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        write_net(str(good), random_qnet(2, 2, 3, 3))
        assert run(["check", "-i", good]) == 0
        assert run(["check", "-i", good, "--koenigs", "bs"]) == 1  # generic net
        bs = tmp_path / "bs.json"
        write_net(str(bs), random_bs_koenigs(3, 3, 3, 4))
        assert run(["check", "-i", bs, "--koenigs", "bs"]) == 0

    def test_diagonal_command(self, tmp_path):
        grid = tmp_path / "grid.json"
        write_net(str(grid), affine_grid(2, 2))
        out = tmp_path / "d.json"
        assert run(["diagonal", "-i", grid, "-o", out]) == 0
        d = read_net(str(out))
        assert d[(0, 0)] == HPoint((1, 1, 2))

    def test_lift_command(self, tmp_path):
        src = tmp_path / "net.json"
        write_net(str(src), random_qnet(2, 1, 2, 5))
        out = tmp_path / "lift.json"
        center = tmp_path / "center.json"
        assert run(["lift", "-i", src, "--seed", 5, "-o", out, "--emit-center", center]) == 0
        lifted = read_net(str(out))
        assert lifted.ambient_dim == 3
        doc = json.loads(center.read_text())
        assert doc["center_basis"]

    def test_construct_modes(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["construct", "--mode", "laplace", "--m", 2, "--seed", 1, "-o", out]) == 0
        from qnets import classify_degeneracy, laplace_iterate

        net = read_net(str(out))
        assert classify_degeneracy(laplace_iterate(net, 2), "forward").kind == "laplace"
        out2 = tmp_path / "d.json"
        assert run(["construct", "--mode", "double", "--m", 2, "--seed", 1, "-o", out2]) == 0
        net2 = read_net(str(out2))
        assert classify_degeneracy(laplace_iterate(net2, -2), "backward").kind == "laplace"

    def test_construct_from_boundary_file(self, tmp_path):
        from qnets import laplace_degenerate_boundary

        boundary = laplace_degenerate_boundary(2, 3, 3, 3, 6)
        bpath = tmp_path / "b.json"
        write_net(str(bpath), boundary)
        out = tmp_path / "net.json"
        assert run(["construct", "--mode", "laplace", "--m", 2, "--seed", 0, "-b", bpath, "-o", out]) == 0

    def test_construct_double_m1_on_a_one_site_window(self, tmp_path, capsys):
        bpath = tmp_path / "b.json"
        write_net(str(bpath), PartialNet(GridDomain(0, 0, 0, 0), 3, {(0, 0): HPoint((1, 2, 3, 4))}))
        args = ["construct", "--mode", "double", "--m", 1, "-b", bpath, "-o", tmp_path / "net.json", "--json"]
        assert run(args) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc == {"error": "ConstructionError", "message": "window too small for a double m=1 completion"}

    def test_invariants_command(self, tmp_path):
        src = tmp_path / "net.json"
        write_net(str(src), random_qnet(3, 3, 3, 7))
        out = tmp_path / "inv.csv"
        assert run(["invariants", "-i", src, "-o", out]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "i,j,edge,value"

    def test_export_obj_counts(self, tmp_path):
        src = tmp_path / "net.json"
        write_net(str(src), affine_grid(2, 3))
        out = tmp_path / "net.obj"
        assert run(["export", "--format", "obj", "-i", src, "-o", out]) == 0
        lines = out.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 3 * 4
        assert sum(1 for l in lines if l.startswith("f ")) == 2 * 3

    def test_export_obj_high_dimension_projects(self, tmp_path):
        from qnets import embed_and_lift

        lifted = embed_and_lift(random_qnet(2, 2, 2, 9), 9).lifted
        src = tmp_path / "lift.json"
        write_net(str(src), lifted)
        out = tmp_path / "lift.obj"
        assert run(["export", "--format", "obj", "-i", src, "-o", out, "--seed", 3]) == 0
        lines = out.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 9

    def test_export_obj_rejects_ideal_points(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        write_net(str(grid), affine_grid(2, 2))
        fwd = tmp_path / "fwd.json"
        run(["laplace", "--steps", 1, "-i", grid, "-o", fwd])
        code = run(["export", "--format", "obj", "-i", fwd, "-o", tmp_path / "x.obj", "--json"])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip().splitlines()[-1])["error"]

    def test_export_obj_rejects_coordinates_beyond_floats(self, tmp_path, capsys):
        doc = {
            "ambient_dim": 3,
            "i_range": [0, 1],
            "j_range": [0, 1],
            "points": [
                [["1" + "0" * 400, "0", "0", "1"], ["0", "1", "0", "1"]],
                [["1", "0", "0", "1"], ["1", "1", "0", "1"]],
            ],
        }
        src = tmp_path / "far.json"
        src.write_text(json.dumps(doc))
        code = run(["export", "--format", "obj", "-i", src, "-o", tmp_path / "x.obj", "--json"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {
            "error": "NetFileError",
            "message": "site (0,0) has an affine coordinate beyond the float range",
        }

    def test_export_csv(self, tmp_path):
        src = tmp_path / "net.json"
        write_net(str(src), affine_grid(1, 1))
        out = tmp_path / "net.csv"
        assert run(["export", "--format", "csv", "-i", src, "-o", out]) == 0
        assert out.read_text().splitlines()[0] == "i,j,x0,x1,x2"

    def test_verify_small(self, capsys):
        assert run(["verify", "--suite", "recurrence", "--seeds", 2]) == 0
        out = capsys.readouterr().out
        assert "recurrence/matches-geometric-field: 2/2" in out

    def test_verify_json_output(self, capsys):
        assert run(["verify", "--suite", "recurrence", "--seeds", 1, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(entry["passed"] == entry["total"] for entry in doc)

    def test_missing_file_is_usage_error(self, capsys):
        assert run(["check", "-i", "/nonexistent/net.json"]) == 2

    def test_qnet_seed_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNET_SEED", "9")
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(["generate", "--rows", 2, "--cols", 2, "--dim", 3, "-o", out1]) == 0
        assert run(["generate", "--rows", 2, "--cols", 2, "--dim", 3, "--seed", 9, "-o", out2]) == 0
        assert out1.read_text() == out2.read_text()

    def test_determinism_of_flags(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["generate", "--rows", 3, "--cols", 2, "--dim", 4, "--seed", 11, "-o", a])
        run(["generate", "--rows", 3, "--cols", 2, "--dim", 4, "--seed", 11, "-o", b])
        assert a.read_text() == b.read_text()


USAGE_ERRORS = {
    "generate in RP^1": ["generate", "--rows", 2, "--cols", 2, "--dim", 1, "-o", "{out}"],
    "generate negative rows": ["generate", "--rows", -1, "--cols", 2, "--dim", 3, "-o", "{out}"],
    "laplace beyond the window": ["laplace", "--steps", 9, "-i", "{net}", "-o", "{out}"],
    "construct with m 0": ["construct", "--mode", "laplace", "--m", 0, "-o", "{out}"],
    "verify negative seeds": ["verify", "--suite", "recurrence", "--seeds", -3],
    "verify zero seeds": ["verify", "--suite", "recurrence", "--seeds", 0],
}


class TestCliContract:
    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_usage_error_exits_2_with_one_json_object(self, case, tmp_path, capsys):
        net = tmp_path / "net.json"
        write_net(str(net), random_qnet(2, 2, 3, 0))
        args = [str(a).format(net=net, out=tmp_path / "out.json") for a in USAGE_ERRORS[case]]
        assert main(args + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert set(doc) >= {"error", "message"}

    @pytest.mark.parametrize("case", ["verify negative seeds", "verify zero seeds"])
    def test_cli_usage_errors_have_a_public_kind(self, case, capsys):
        assert main([str(a) for a in USAGE_ERRORS[case]] + ["--json"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"

    def test_bad_seed_variable_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QNET_SEED", "seven")
        out = tmp_path / "net.json"
        assert main(["generate", "--rows", "2", "--cols", "2", "--dim", "3", "-o", str(out), "--json"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "UsageError" and "QNET_SEED" in doc["message"]

    def test_boundary_file_where_a_net_is_needed(self, tmp_path, capsys):
        path = tmp_path / "boundary.json"
        net = random_qnet(2, 2, 3, 0)
        write_net(str(path), PartialNet(net.domain, 3, {(0, 0): net[(0, 0)]}))
        assert main(["check", "-i", str(path), "--json"]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "UsageError" and "boundary data" in doc["message"]


ARGPARSE_ERRORS = {
    "bad int": ["generate", "--rows", "x", "--cols", "2", "--dim", "3", "-o", "x.json"],
    "missing required option": ["generate", "--cols", "2", "--dim", "3", "-o", "x.json"],
    "unknown choice": ["verify", "--suite", "everything"],
}


class TestArgparseErrors:
    @pytest.mark.parametrize("case", sorted(ARGPARSE_ERRORS))
    def test_one_json_object_under_json(self, case, capsys):
        assert main(ARGPARSE_ERRORS[case] + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "UsageError" and doc["message"]

    @pytest.mark.parametrize("case", sorted(ARGPARSE_ERRORS))
    def test_argparse_text_without_json(self, case, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(ARGPARSE_ERRORS[case])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qnets ") and "error: " in err

    def test_abbreviated_json_flag(self, capsys):
        assert main(ARGPARSE_ERRORS["unknown choice"] + ["--js"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"


_SCALARS = st.one_of(
    st.sampled_from([0, "0", 1, -2, "1/2", "2.5", "1e3", "1e99999", "x", "1/0", "", True, None]),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def _documents(draw):
    """Net documents of the right shape, with hostile entries, and at
    times one field replaced by arbitrary JSON."""
    n, i1, j1 = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    entry = st.one_of(
        st.none(),
        st.lists(_SCALARS, min_size=n + 1, max_size=n + 1),
        st.lists(st.sampled_from([0, "0", "0/3", 0.0, "-0e5"]), min_size=n + 1, max_size=n + 1),
        st.lists(_SCALARS, max_size=5),
        _JSON,
    )
    doc = {
        "ambient_dim": n,
        "i_range": [0, i1],
        "j_range": [0, j1],
        "points": [[draw(entry) for _ in range(j1 + 1)] for _ in range(i1 + 1)],
    }
    field = draw(st.sampled_from([None, "ambient_dim", "i_range", "j_range", "points"]))
    if field is not None:
        doc[field] = draw(_JSON)
    return doc


class TestNetFileFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(_documents(), _JSON))
    def test_net_or_net_file_error(self, doc):
        try:
            net = net_from_dict(doc)
        except NetFileError:
            return
        assert isinstance(net, (QNet, PartialNet))
