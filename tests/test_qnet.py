import random
from fractions import Fraction

import pytest

from qnets import (
    DegenerateIntersectionError,
    GeometryError,
    GridDomain,
    HPoint,
    QNet,
    TerminationReport,
    affine_grid,
    check_extensive,
    check_extensive_sub,
    check_nondegenerate,
    classify_degeneracy,
    column_space_meet,
    diagonal_intersection_net,
    embed_and_lift,
    explicit_laplace,
    join,
    laplace_backward,
    laplace_forward,
    laplace_iterate,
    parameter_space,
    random_bs_koenigs,
    random_goursat_net,
    random_qnet,
    validate_qnet,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qnets import QnetsError, laplace_invariants
from qnets.errors import DimensionMismatchError
from qnets.qnet import _face_transform_point, transform_net, transform_points
from helpers import (
    random_invertible,
    random_point,
    reference_check_nondegenerate,
    reference_diagonal_point,
    reference_face_transform,
    reference_invariants,
    reference_validate_qnet,
)


def unit_square():
    dom = GridDomain(0, 1, 0, 1)
    pts = {
        (0, 0): HPoint((0, 0, 1)),
        (1, 0): HPoint((1, 0, 1)),
        (0, 1): HPoint((0, 1, 1)),
        (1, 1): HPoint((1, 1, 1)),
    }
    return QNet(dom, 2, pts)


class TestValidation:
    def test_affine_grid_is_a_qnet(self):
        assert validate_qnet(affine_grid(3, 3)) == []

    def test_planar_ambient_always_valid(self):
        assert validate_qnet(random_qnet(2, 2, 2, 0)) == []

    def test_perturbed_point_off_its_face_plane_is_reported(self):
        net = random_qnet(2, 2, 3, 1)
        # push a corner point off the plane of its single face
        face_plane = join([net[(1, 1)], net[(2, 1)], net[(1, 2)]])
        rng = random.Random(2)
        while True:
            p = random_point(rng, 3)
            if not face_plane.contains_point(p):
                break
        bad = net.with_point((2, 2), p)
        assert (1, 1) in validate_qnet(bad)

    def test_nondegenerate_affine_grid(self):
        assert check_nondegenerate(affine_grid(2, 2)) == []

    def test_coincident_edge_detected(self):
        net = unit_square().with_point((1, 0), HPoint((0, 0, 1)))
        kinds = [v[0] for v in check_nondegenerate(net)]
        assert "edge" in kinds

    def test_collinear_triple_detected(self):
        net = unit_square().with_point((1, 1), HPoint((2, 0, 1)))
        violations = check_nondegenerate(net)
        assert any(v[0] == "triple" for v in violations)


class TestConstruction:
    def test_missing_points_are_named_first_four_in_site_order(self):
        dom = GridDomain(0, 2, 0, 2)
        pts = {s: HPoint((s[0], s[1], 1)) for s in dom.sites()}
        for s in ((1, 0), (2, 1), (0, 2), (1, 2), (2, 2)):
            del pts[s]
        with pytest.raises(ValueError, match=r"^missing net points at \[\(1, 0\), \(2, 1\), \(0, 2\), \(1, 2\)\]$"):
            QNet(dom, 2, pts)

    def test_wrong_ambient_dimension_is_named_at_the_first_site(self):
        dom = GridDomain(0, 1, 0, 1)
        pts = {s: HPoint((s[0], s[1], 1)) for s in dom.sites()}
        pts[(0, 1)] = HPoint((0, 1, 1, 1))
        pts[(1, 1)] = HPoint((1, 1))
        with pytest.raises(DimensionMismatchError, match=r"^point at \(0, 1\) has wrong ambient dimension$"):
            QNet(dom, 2, pts)
        with pytest.raises(DimensionMismatchError, match=r"^point at \(0, 0\) has wrong ambient dimension$"):
            QNet(dom, 3, pts)

    def test_missing_points_take_precedence_over_a_wrong_dimension(self):
        dom = GridDomain(0, 1, 0, 1)
        pts = {s: HPoint((s[0], s[1], 1)) for s in dom.sites()}
        pts[(1, 0)] = HPoint((1, 0, 1, 1))
        del pts[(1, 1)]
        with pytest.raises(ValueError, match=r"^missing net points at \[\(1, 1\)\]$"):
            QNet(dom, 2, pts)

    def test_extra_points_are_dropped(self):
        dom = GridDomain(0, 1, 0, 1)
        pts = {s: HPoint((s[0], s[1], 1)) for s in GridDomain(0, 2, 0, 1).sites()}
        net = QNet(dom, 2, pts)
        assert sorted(net.points()) == sorted(dom.sites())
        assert net == affine_grid(1, 1)


class TestExtensive:
    def test_lifted_net_is_extensive(self):
        net = random_qnet(2, 2, 2, 3)
        assert check_extensive(embed_and_lift(net, 3).lifted)

    def test_planar_net_is_not_extensive_beyond_two(self):
        assert not check_extensive(affine_grid(2, 1))

    def test_nondegenerate_nets_are_1_1_extensive(self):
        for seed in range(10):
            net = random_qnet(2, 2, 3, seed)
            assert check_extensive_sub(net, 1, 1)

    def test_restrictions_of_extensive_are_extensive(self):
        lifted = embed_and_lift(random_qnet(2, 2, 2, 4), 4).lifted
        assert check_extensive_sub(lifted, 1, 1)
        assert check_extensive_sub(lifted, 2, 1)
        assert check_extensive_sub(lifted, 1, 2)


class TestLaplaceTransforms:
    def test_unit_square_forward(self):
        assert laplace_forward(unit_square())[(0, 0)] == HPoint((0, 1, 0))

    def test_unit_square_backward(self):
        assert laplace_backward(unit_square())[(0, 0)] == HPoint((1, 0, 0))

    def test_affine_grid_forward_is_constant(self):
        fwd = laplace_forward(affine_grid(3, 2))
        assert all(fwd[s] == HPoint((0, 1, 0)) for s in fwd.domain.sites())

    def test_transforms_of_random_nets_are_qnets(self):
        # transform closure over both ambient dimensions
        for seed in range(250):
            net = random_qnet(2, 2, 3, seed)
            assert validate_qnet(laplace_forward(net)) == []
            assert validate_qnet(laplace_backward(net)) == []
        for seed in range(250):
            net = random_qnet(2, 2, 4, seed)
            assert validate_qnet(laplace_forward(net)) == []
            assert validate_qnet(laplace_backward(net)) == []

    def test_mutual_inverse_up_to_shift(self):
        for seed in range(20):
            net = random_qnet(2, 2, 3, seed)
            fb = laplace_backward(laplace_forward(net))
            bf = laplace_forward(laplace_backward(net))
            for (i, j) in fb.domain.sites():
                assert fb[(i, j)] == net[(i + 1, j + 1)]
                assert bf[(i, j)] == net[(i + 1, j + 1)]

    def test_degenerate_input_raises_naming_face(self):
        net = laplace_forward(affine_grid(2, 2))  # constant net
        with pytest.raises(GeometryError) as err:
            laplace_forward(net)
        assert "face" in str(err.value)


class TestIterate:
    def test_zero_steps_is_identity(self):
        net = random_qnet(2, 2, 3, 5)
        assert laplace_iterate(net, 0) == net

    def test_forward_then_backward_shifts(self):
        net = random_qnet(3, 3, 3, 6)
        fwd = laplace_iterate(net, 1)
        back = laplace_iterate(fwd, -1)
        for (i, j) in back.domain.sites():
            assert back[(i, j)] == net[(i + 1, j + 1)]

    def test_affine_grid_terminates_at_one(self):
        report = laplace_iterate(affine_grid(3, 3), 2)
        assert isinstance(report, TerminationReport)
        assert report.steps_completed == 1
        assert report.report.kind == "laplace"
        assert report.direction == "forward"

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            laplace_iterate(affine_grid(2, 2), 3)


class TestClassify:
    def _constant_rows_net(self, values):
        # column i constant equal to values[i]
        a = len(values) - 1
        dom = GridDomain(0, a, 0, 1)
        pts = {(i, j): values[i] for i in range(a + 1) for j in (0, 1)}
        return QNet(dom, 2, pts)

    def test_affine_transform_classifies_laplace(self):
        fwd = laplace_forward(affine_grid(3, 3))
        assert classify_degeneracy(fwd, "forward").kind == "laplace"

    def test_goursat_from_collinear_columns(self):
        net = random_goursat_net(3, 3, 3, 7)
        fwd = laplace_iterate(net, 1)
        report = classify_degeneracy(fwd, "forward")
        assert report.kind == "goursat"
        assert report.witness is not None

    def test_generic_net_classifies_none(self):
        for seed in range(10):
            fwd = laplace_forward(random_qnet(2, 2, 3, seed))
            assert classify_degeneracy(fwd, "forward").kind == "none"

    def test_mixed_type_detected(self):
        a, b, c = HPoint((1, 0, 1)), HPoint((0, 1, 1)), HPoint((1, 1, 1))
        net = self._constant_rows_net([a, a, b, c])
        report = classify_degeneracy(net, "forward")
        assert report.kind == "mixed"

    def test_laplace_dominates_goursat(self):
        # constant in both directions classifies as laplace
        p = HPoint((1, 2, 3))
        dom = GridDomain(0, 2, 0, 2)
        net = QNet(dom, 2, {s: p for s in dom.sites()})
        assert classify_degeneracy(net, "forward").kind == "laplace"
        assert classify_degeneracy(net, "backward").kind == "laplace"

    def test_backward_direction_swaps_roles(self):
        fwd = laplace_forward(affine_grid(3, 3))  # constant map
        assert classify_degeneracy(fwd, "backward").kind == "laplace"
        net = random_goursat_net(3, 3, 3, 8).transposed()
        bwd = laplace_iterate(net, -1)
        assert classify_degeneracy(bwd, "backward").kind == "goursat"


class TestParameterSpaces:
    def test_affine_grid_columns_are_lines(self):
        g = affine_grid(2, 2)
        col = parameter_space(g, "column", 1)
        assert col.projective_dim == 1
        assert col.contains_point(HPoint((1, 0, 1)))
        assert col.contains_point(HPoint((1, 5, 1)))

    def test_extensive_net_has_full_columns(self):
        lifted = embed_and_lift(random_qnet(2, 2, 2, 9), 9).lifted
        for i in range(3):
            assert parameter_space(lifted, "column", i).projective_dim == 2

    def test_goursat_net_columns_have_dimension_one(self):
        net = random_goursat_net(3, 3, 3, 10)
        for i in range(4):
            assert parameter_space(net, "column", i).projective_dim == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            parameter_space(affine_grid(1, 1), "row", 5)


class TestExplicitTransform:
    def test_unit_square_base_case(self):
        assert explicit_laplace(unit_square(), 1) == HPoint((0, 1, 0))

    def test_matches_iterated_transform(self):
        for m, seed in ((2, 0), (2, 1), (3, 2)):
            base = random_qnet(m, m, 2, seed)
            lifted = embed_and_lift(base, seed).lifted
            it = laplace_iterate(lifted, m)
            assert not isinstance(it, TerminationReport)
            origin = (lifted.domain.i_min, lifted.domain.j_min)
            assert explicit_laplace(lifted, m) == it[origin]

    def test_degenerate_intersection_is_surfaced(self):
        # both column spans equal to one common line: the meet is that
        # line, reported with its dimension rather than erased
        dom = GridDomain(0, 1, 0, 1)
        pts = {
            (0, 0): HPoint((0, 0, 0, 1)),
            (0, 1): HPoint((1, 0, 0, 1)),
            (1, 0): HPoint((2, 0, 0, 1)),
            (1, 1): HPoint((3, 0, 0, 1)),
        }
        net = QNet(dom, 3, pts)
        with pytest.raises(DegenerateIntersectionError) as err:
            explicit_laplace(net, 1)
        assert err.value.dimension == 1
        assert err.value.subspace.projective_dim == 1

    def test_common_point_columns_meet_in_that_point(self):
        # every column of the affine grid passes through [0:1:0]; the meet
        # of the column spans is that point for every window
        g = affine_grid(3, 3)
        for i in range(2):
            window = g.restricted(GridDomain(i, i + 2, 0, 2))
            cap = column_space_meet(window)
            assert cap.projective_dim == 0
            assert cap.point() == HPoint((0, 1, 0))

    def test_wrong_window_shape_rejected(self):
        with pytest.raises(ValueError):
            explicit_laplace(affine_grid(2, 1), 2)


class TestDiagonalNet:
    def test_unit_square_diagonal_point(self):
        d = diagonal_intersection_net(unit_square())
        assert d[(0, 0)] == HPoint((1, 1, 2))

    def test_affine_grid_formula(self):
        d = diagonal_intersection_net(affine_grid(3, 3))
        for (i, j) in d.domain.sites():
            assert d[(i, j)] == HPoint((2 * i + 1, 2 * j + 1, 2))

    def test_transform_commutes_with_projective_maps(self):
        rng = random.Random(24)
        for seed in range(10):
            net = random_qnet(2, 2, 3, seed)
            m = random_invertible(rng, 4)
            lhs = laplace_forward(transform_net(m, net))
            rhs = transform_net(m, laplace_forward(net))
            assert lhs == rhs


class TestTranspositionDuality:
    def test_backward_transform_is_the_transposed_forward_transform(self):
        nets = [random_qnet(3, 3, 3, s) for s in range(4)] + [random_bs_koenigs(3, 3, 3, 0)]
        for net in nets:
            assert laplace_forward(net).transposed() == laplace_backward(net.transposed())


class TestTransformMemo:
    def test_returned_dicts_and_fields_are_fresh(self):
        from qnets import laplace_invariants
        from qnets.qnet import transform_points

        net = random_qnet(3, 3, 3, 8)
        twin = QNet(net.domain, net.ambient_dim, net.points())
        pts = transform_points(net, "forward")
        pts.clear()
        field = laplace_invariants(net)
        field.h.clear()
        field.k[(0, 1)] = 0
        assert transform_points(net, "forward") == transform_points(twin, "forward")
        again = laplace_invariants(net)
        fresh = laplace_invariants(twin)
        assert again.h == fresh.h and again.k == fresh.k and again.h
        assert laplace_forward(net) == laplace_forward(twin)
        assert laplace_forward(net) is laplace_forward(net)

    def test_cached_failure_is_raised_again(self):
        net = laplace_forward(affine_grid(2, 2))  # constant net
        raised = []
        for _ in range(3):
            with pytest.raises(GeometryError) as err:
                laplace_forward(net)
            raised.append(err.value)
        assert {type(e) for e in raised} == {GeometryError}
        assert len({str(e) for e in raised}) == 1 and "face" in str(raised[0])
        assert len({id(e) for e in raised}) == 3
        single = laplace_forward(laplace_forward(random_qnet(2, 2, 3, 1)))
        for _ in range(2):
            with pytest.raises(GeometryError, match="no faces"):
                laplace_backward(single)
        reports = [laplace_iterate(net, 1) for _ in range(2)]
        assert reports[0] == reports[1]
        assert isinstance(reports[0], TerminationReport)


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of the QnetsError it
    raises."""
    try:
        return fn(*args)
    except QnetsError as exc:
        return type(exc), str(exc)


def _face_configuration(rng, n, rank, zeros, flat, bits):
    """A 3x3-site net in RP^n whose points are small combinations of
    ``rank`` random vectors, so that every face has rank at most ``rank``.
    The first ``zeros`` columns vanish, column 2 repeats column 0 when
    ``flat`` (both make leading brackets zero on faces of rank 3), entries
    of the vectors have about ``bits`` bits, and coincident points and
    collinear triples are common."""
    base = []
    for _ in range(rank):
        vec = [0] * zeros + [rng.randint(-(2**bits), 2**bits) for _ in range(n + 1 - zeros)]
        if flat and n >= 2:
            vec[2] = vec[0]
        base.append(vec)
    dom = GridDomain(0, 2, 0, 2)
    pts = {}
    for site in dom.sites():
        done = list(pts.values())
        roll = rng.random()
        if done and roll < 0.15:
            pts[site] = rng.choice(done)
            continue
        if len(done) >= 2 and roll < 0.3:
            p, q = rng.sample(done, 2)
            al, be = rng.choice([(1, 1), (1, -1), (2, 3)])
            vec = [al * x + be * y for x, y in zip(p.coords, q.coords)]
        else:
            vec = [sum(rng.randint(-2, 2) * v[k] for v in base) for k in range(n + 1)]
        if not any(vec):
            vec = base[0] if any(base[0]) else [1] + [0] * n
        pts[site] = HPoint(vec)
    return QNet(dom, n, pts)


class TestBracketTable:
    """Every face predicate read off the bracket tables (transform and
    diagonal points, triples, planarity, invariants) agrees with the
    Bareiss-only references in value, error type, message and the order of
    ``check_nondegenerate``, on faces of every rank, with zero leading
    brackets, coincident edges and collinear triples, in RP^1 to RP^9 and
    with coordinates of 100 bits and more."""

    @staticmethod
    def _agree(net):
        pts = net.points()
        assert check_nondegenerate(net) == reference_check_nondegenerate(net)
        assert validate_qnet(net) == reference_validate_qnet(net)
        for direction in ("forward", "backward"):
            expected = {}
            for face in net.domain.faces():
                want = _outcome(reference_face_transform, pts, face, direction)
                assert _outcome(_face_transform_point, pts, face, direction) == want
                if isinstance(want, HPoint):
                    expected[face] = want
            assert transform_points(net, direction) == expected
        field = _outcome(laplace_invariants, net)
        got = field if isinstance(field, tuple) else (field.h, field.k)
        assert got == reference_invariants(net)
        try:
            want = {f: reference_diagonal_point(pts, f) for f in net.domain.faces()}
        except GeometryError as exc:
            want = (type(exc), str(exc))
        diagonal = _outcome(diagonal_intersection_net, net)
        assert (diagonal if isinstance(diagonal, tuple) else diagonal.points()) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_seeded_configurations(self, n):
        rng = random.Random(700 + n)
        for rank in range(1, 5):
            for zeros in range(min(3, n) + 1):
                for flat in (False, True):
                    for bits in (2, 110):
                        for _ in range(6):
                            self._agree(_face_configuration(rng, n, rank, zeros, flat, bits))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from([1, 2, 3, 9]),
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from([2, 110]),
        st.integers(0, 2**32),
    )
    def test_property(self, n, rank, flat, bits, seed):
        rng = random.Random(seed)
        for zeros in range(min(3, n) + 1):
            self._agree(_face_configuration(rng, n, rank, zeros, flat, bits))

    def test_named_faces(self):
        dom = GridDomain(0, 1, 0, 1)
        cases = [
            # planar, [012] = 0 and [013] != 0
            ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)),
            # rank 4 with [012] != 0: only the coplanarity test tells
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
            # rank 4 with every bracket in columns 0, 1, 2 zero
            ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
            # planar, every bracket in columns 0, 1, 2 zero
            ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 1, 0, 1, 1)),
            # coincident vertical edge, collinear triple
            ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0)),
            # parallel edge lines meeting at infinity in the affine chart
            ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)),
        ]
        for corners in cases:
            pts = dict(zip(((0, 0), (1, 0), (0, 1), (1, 1)), map(HPoint, corners)))
            self._agree(QNet(dom, len(corners[0]) - 1, pts))

    def test_generated_nets(self):
        nets = [random_qnet(3, 3, n, s) for n in (2, 3, 9) for s in range(3)]
        nets += [random_bs_koenigs(3, 3, 3, s) for s in range(3)] + [random_goursat_net(3, 3, 3, 0)]
        for net in nets:
            self._agree(net)
            step = laplace_iterate(net, 1)
            if not isinstance(step, TerminationReport):
                self._agree(step)
