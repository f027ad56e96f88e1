import hashlib
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from qnets import (
    ConstructionError,
    GridDomain,
    HPoint,
    PartialNet,
    QNet,
    affine_grid,
    bs_goursat_net,
    bs_laplace_degenerate_m1,
    check_nondegenerate,
    classify_degeneracy,
    construct_double_degenerate,
    diagonal_intersection_net,
    double_degenerate_boundary,
    extend_bs_koenigs,
    extend_laplace_degenerate,
    invariant_symmetry_check,
    is_bs_koenigs,
    is_d_koenigs,
    join,
    laplace_degenerate_boundary,
    laplace_invariants,
    laplace_iterate,
    parameter_space,
    random_bs_koenigs,
    random_bs_strips,
    random_goursat_net,
    random_laplace_degenerate_net,
    random_qnet,
    validate_qnet,
)
from qnets import construct
from qnets.construct import validate_boundary
from qnets.errors import GeneralPositionError
from qnets.netfile import net_to_dict
from qnets.projective import transform_point
from qnets.qnet import TerminationReport, column_space_meet

from helpers import (
    random_invertible,
    reference_bs_line,
    reference_face_defects,
    reference_invariants,
    reference_span_dim,
)

F = Fraction


class TestRandomQnet:
    def test_single_quad_in_the_plane(self):
        net = random_qnet(1, 1, 2, 0)
        assert validate_qnet(net) == []
        assert check_nondegenerate(net) == []

    def test_bitwise_reproducibility(self):
        assert random_qnet(3, 3, 3, 42) == random_qnet(3, 3, 3, 42)
        assert random_qnet(3, 3, 3, 42) != random_qnet(3, 3, 3, 43)

    def test_generator_self_check_over_seeds(self):
        for seed in range(100):
            net = random_qnet(3, 3, 3, seed)
            assert validate_qnet(net) == []
            assert check_nondegenerate(net) == []


class TestExtendBSKoenigs:
    def _strips(self, seed):
        return random_bs_strips(2, 2, 3, seed)

    def test_retries_draw_fresh_extension_seeds(self):
        # With the caller's seed as extension seed, all of the first eight
        # attempts at this seed give a forward transform with a collapsed
        # edge; the later attempts vary the extension seed and succeed.
        net = random_bs_koenigs(4, 4, 3, 1798700128)
        assert is_bs_koenigs(net) and not check_nondegenerate(laplace_iterate(net, 1))

    def test_admissible_locus_is_a_line_through_the_diagonal_neighbour(self):
        strips = self._strips(0)
        n1 = extend_bs_koenigs(strips, choices={(2, 2): F(0)})
        n2 = extend_bs_koenigs(strips, choices={(2, 2): F(1)})
        n3 = extend_bs_koenigs(strips, choices={(2, 2): F(-2, 3)})
        assert is_bs_koenigs(n1) and is_bs_koenigs(n2) and is_bs_koenigs(n3)
        locus = join([n1[(2, 2)], n2[(2, 2)]])
        assert locus.projective_dim == 1
        assert locus.contains_point(n3[(2, 2)])
        assert locus.contains_point(n1[(1, 1)])

    def test_off_line_choice_is_not_koenigs(self):
        strips = self._strips(1)
        n1 = extend_bs_koenigs(strips, choices={(2, 2): F(0)})
        n2 = extend_bs_koenigs(strips, choices={(2, 2): F(1)})
        locus = join([n1[(2, 2)], n2[(2, 2)]])
        face_plane = join([n1[(1, 1)], n1[(2, 1)], n1[(1, 2)]])
        rng = random.Random(2)
        while True:
            coeffs = [rng.randint(-9, 9) for _ in range(3)]
            coords = [
                sum(c * row[k] for c, row in zip(coeffs, face_plane.basis))
                for k in range(4)
            ]
            if not any(coords):
                continue
            cand = HPoint(coords)
            if not locus.contains_point(cand):
                break
        bad = n1.with_point((2, 2), cand)
        if not check_nondegenerate(bad):
            assert not is_bs_koenigs(bad)

    def test_seeded_extension_is_deterministic(self):
        strips = self._strips(3)
        assert extend_bs_koenigs(strips, seed=5) == extend_bs_koenigs(strips, seed=5)

    def test_missing_strip_site_rejected(self):
        strips = self._strips(4)
        del strips.points[(0, 0)]
        with pytest.raises(ConstructionError):
            extend_bs_koenigs(strips, seed=0)

    def test_inconsistent_boundary_rejected(self):
        # corrupt one interior strip point of wider boundary data
        boundary = laplace_degenerate_boundary(2, 3, 4, 3, 5)
        boundary.points[(1, 1)] = HPoint((17, -5, 3, 11))
        with pytest.raises(ConstructionError):
            validate_boundary(boundary)

    def test_random_outputs_are_koenigs(self):
        for seed in range(20):
            net = random_bs_koenigs(3, 3, 3, seed)
            assert is_bs_koenigs(net)
            assert validate_qnet(net) == []


def _bs_window(kind: str, seed: int, bits: int):
    """Lifted points of the 3x3 window ending at (2, 2) in RP^9: the face
    plane a = (1, 1), b = (2, 1), c = (1, 2) and the 3-space of a and
    (0, 0), (2, 0), (0, 2), with b and c placed for the case ``kind``."""
    rng = random.Random(seed)

    def rand():
        return [rng.randint(-(2**bits), 2**bits) for _ in range(10)]

    def comb(*vecs):
        coeffs = [rng.randint(1, 9) for _ in vecs]
        return [sum(f * v[k] for f, v in zip(coeffs, vecs)) for k in range(10)]

    a, v0, v2, v3 = rand(), rand(), rand(), rand()
    b, c = rand(), rand()
    if kind == "line":
        c = [x + 3 * y for x, y in zip(comb(v0, a, v2, v3), b)]
    elif kind == "b_in_space":
        b = comb(v0, a, v2, v3)
    elif kind == "c_in_space":
        c = comb(v0, a, v2, v3)
    elif kind == "plane_in_space":
        b, c = comb(v0, a, v2, v3), comb(v0, a, v2, v3)
    elif kind == "flat_plane":
        c = [2 * x - 5 * y for x, y in zip(a, b)]
    elif kind == "flat_space":
        v3 = [x + y for x, y in zip(v0, a)]
    pts = {(1, 1): a, (2, 1): b, (1, 2): c, (0, 0): v0, (2, 0): v2, (0, 2): v3}
    return {s: HPoint(v) for s, v in pts.items()}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConstructionError as exc:
        return (str(exc), exc.site)


class TestAdmissibleLine:
    """``construct._bs_line`` reduces the face plane by the forward-eliminated
    3-space instead of meeting two joined subspaces; its line and its
    errors must equal the meet of the joins."""

    KINDS = ("line", "b_in_space", "c_in_space", "plane_in_space", "point", "flat_plane", "flat_space")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bits", [3, 110])
    def test_matches_meet_of_joins(self, kind, bits):
        for seed in range(12):
            up = _bs_window(kind, seed, bits)
            got = _outcome(construct._bs_line, SimpleNamespace(up=up), 2, 2)
            assert got == _outcome(reference_bs_line, up, 2, 2)
            if kind in ("line", "b_in_space", "c_in_space"):
                assert got.projective_dim == 1 and got.contains_point(up[(1, 1)])
            else:
                assert isinstance(got, tuple)

    def test_extension_windows_match_meet_of_joins(self, monkeypatch):
        seen = []

        def checked(ctx, i, j):
            line = _outcome(bs_line, ctx, i, j)
            assert line == _outcome(reference_bs_line, dict(ctx.up), i, j)
            seen.append((i, j))
            return bs_line(ctx, i, j)

        bs_line = construct._bs_line
        monkeypatch.setattr(construct, "_bs_line", checked)
        random_bs_koenigs(4, 5, 3, 827307999)
        extend_laplace_degenerate(laplace_degenerate_boundary(3, 4, 5, 3, 0), 3)
        assert len(seen) > 20


class TestLaplaceDegenerateExtension:
    def test_m1_is_rejected(self):
        boundary = laplace_degenerate_boundary(2, 3, 4, 3, 0)
        with pytest.raises(ValueError):
            extend_laplace_degenerate(boundary, 1)

    def test_minimal_window_forward_collapse(self):
        net = extend_laplace_degenerate(laplace_degenerate_boundary(2, 3, 3, 3, 1), 2)
        fwd = laplace_iterate(net, 2)
        assert classify_degeneracy(fwd, "forward").kind == "laplace"
        assert is_bs_koenigs(net)

    def test_unique_completion_is_bitwise_reproducible(self):
        boundary = laplace_degenerate_boundary(2, 3, 4, 3, 2)
        assert extend_laplace_degenerate(boundary, 2) == extend_laplace_degenerate(boundary, 2)

    def test_backward_collapse_one_step_later(self):
        for seed in range(5):
            net = extend_laplace_degenerate(laplace_degenerate_boundary(2, 3, 4, 3, seed), 2)
            back = laplace_iterate(net, -3)
            assert classify_degeneracy(back, "backward").kind == "laplace"

    def test_m3_window(self):
        net = extend_laplace_degenerate(laplace_degenerate_boundary(3, 4, 5, 3, 3), 3)
        assert classify_degeneracy(laplace_iterate(net, 3), "forward").kind == "laplace"
        assert classify_degeneracy(laplace_iterate(net, -4), "backward").kind == "laplace"

    def test_koenigs_consistency_of_completion(self):
        net = extend_laplace_degenerate(laplace_degenerate_boundary(2, 3, 4, 3, 4), 2)
        assert is_bs_koenigs(net)
        assert validate_qnet(net) == []
        assert check_nondegenerate(net) == []


class TestDoubleDegenerate:
    def test_m2_both_directions(self):
        net = construct_double_degenerate(double_degenerate_boundary(2, 3, 3, 3, 0), 2)
        assert classify_degeneracy(laplace_iterate(net, 2), "forward").kind == "laplace"
        assert classify_degeneracy(laplace_iterate(net, -2), "backward").kind == "laplace"
        assert is_bs_koenigs(net)

    def test_m3_both_directions(self):
        net = construct_double_degenerate(double_degenerate_boundary(3, 4, 4, 3, 1), 3)
        assert classify_degeneracy(laplace_iterate(net, 3), "forward").kind == "laplace"
        assert classify_degeneracy(laplace_iterate(net, -3), "backward").kind == "laplace"

    def test_m1_distinct_path(self):
        net = construct_double_degenerate(double_degenerate_boundary(1, 3, 3, 3, 2), 1)
        assert classify_degeneracy(laplace_iterate(net, 1), "forward").kind == "laplace"
        assert classify_degeneracy(laplace_iterate(net, -1), "backward").kind == "laplace"
        assert is_bs_koenigs(net)

    def test_m1_window_too_small(self):
        # The m = 1 path checks the window first, as the m >= 2 path does;
        # a window 0 quads wide used to fail in laplace_iterate.
        base = double_degenerate_boundary(1, 3, 3, 3, 2)
        for i_max, j_max in ((0, 0), (0, 3), (1, 3), (3, 1)):
            dom = GridDomain(0, i_max, 0, j_max)
            part = PartialNet(dom, 3, {s: p for s, p in base.points.items() if dom.contains(s)})
            with pytest.raises(ConstructionError, match=r"^window too small for a double m=1 completion$"):
                construct_double_degenerate(part, 1)

    @pytest.mark.parametrize(
        "shape, digest",
        [
            ((3, 3, 3), "d6953e75e6beea17e6c8835bdcae2608e17df3e0e1204432fd5d6aae7cecabf4"),
            ((2, 2, 5), "b4a8c4235d763a8f16c198f9e537b6171f7d02d191bfb30321032e8b761d8bd1"),
            ((2, 3, 6), "36e75277a406e8f6260b8cc1efe095993ee2f3b27584a3b2c9d384d57b691088"),
            ((3, 3, 7), "17028f72c53c3ecde3b5384215689e47e43c9dce6e1483d39153ea564c395852"),
        ],
    )
    def test_m1_digests(self, shape, digest):
        # SHA-256 of the documents of seeds 0-9, in RP^3 and past RP^{a+b}.
        docs = [
            net_to_dict(construct_double_degenerate(double_degenerate_boundary(1, *shape, seed), 1))
            for seed in range(10)
        ]
        text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_m1_beyond_the_joined_dimension(self):
        # The lift lives in RP^{a+b} = RP^4 and rejects the boundary in RP^5;
        # the completion runs in the chart of the boundary's span.
        for seed in range(10):
            boundary = double_degenerate_boundary(1, 2, 2, 5, seed)
            with pytest.raises(ConstructionError, match=r"^ambient RP\^5 exceeds the maximal joined dimension 4$"):
                construct._LiftContext(boundary)
            net = construct_double_degenerate(boundary, 1)
            assert net.ambient_dim == 5
            assert classify_degeneracy(laplace_iterate(net, 1), "forward").kind == "laplace"
            assert classify_degeneracy(laplace_iterate(net, -1), "backward").kind == "laplace"

    def test_backward_coincidence_propagates_to_all_columns(self):
        net = construct_double_degenerate(double_degenerate_boundary(2, 4, 3, 3, 3), 2)
        back = laplace_iterate(net, -2)
        d = back.domain
        for i in range(d.i_min, d.i_max + 1):
            for j in range(d.j_min, d.j_max):
                assert back[(i, j)] == back[(i, j + 1)]

    def test_generic_one_sided_is_not_doubly_degenerate(self):
        hits = 0
        for seed in range(10):
            net = extend_laplace_degenerate(laplace_degenerate_boundary(2, 3, 4, 3, seed), 2)
            back = laplace_iterate(net, -2)
            if isinstance(back, TerminationReport):
                continue
            if classify_degeneracy(back, "backward").kind != "laplace":
                hits += 1
        assert hits >= 9


class TestDegenerateGenerators:
    def test_laplace_degenerate_generator(self):
        for seed in range(5):
            net = random_laplace_degenerate_net(3, 3, 3, seed)
            fwd = laplace_iterate(net, 1)
            assert classify_degeneracy(fwd, "forward").kind == "laplace"

    def test_goursat_generator_columns(self):
        for seed in range(5):
            net = random_goursat_net(3, 3, 3, seed)
            assert classify_degeneracy(laplace_iterate(net, 1), "forward").kind == "goursat"
            for i in range(4):
                assert parameter_space(net, "column", i).projective_dim == 1

    def test_bs_laplace_m1(self):
        for seed in range(3):
            net = bs_laplace_degenerate_m1(3, 3, 3, seed)
            assert is_bs_koenigs(net)
            assert classify_degeneracy(laplace_iterate(net, 1), "forward").kind == "laplace"
            back = laplace_iterate(net, -2)
            assert classify_degeneracy(back, "backward").kind == "laplace"

    def test_row1_window_point_is_rejected_by_the_face_check(self, monkeypatch):
        # Each row-1 line of bs_laplace_degenerate_m1 holds the lifted window
        # point z, the forward transform of face (i-2, 0); z must never be
        # chosen, and the face check of the lift context is what rejects it.
        add_on_line = construct._add_on_line
        checked = []

        def spy(ctx, site, line, rng):
            i, j = site
            window = GridDomain(i - 2, i - 1, j - 1, j)
            big = ctx.domain.width_i + ctx.domain.width_j
            z = column_space_meet(QNet(window, big, {s: ctx.up[s] for s in window.sites()})).point()
            assert line.contains_point(z)
            assert any(ctx.projector.apply(z.coords))
            with pytest.raises(ConstructionError) as info:
                ctx.add(site, z)
            assert str(info.value) == "completion at %s is degenerate" % (site,)
            assert site not in ctx.down and site not in ctx.up
            checked.append(site)
            add_on_line(ctx, site, line, rng)

        monkeypatch.setattr(construct, "_add_on_line", spy)
        for shape in ((3, 3, 3), (4, 3, 3), (3, 4, 5)):
            for seed in range(40):
                bs_laplace_degenerate_m1(*shape, seed)
        assert len(checked) >= 240

    def test_bs_goursat(self):
        net = bs_goursat_net(1, 3, 4, 0)
        assert is_bs_koenigs(net)
        assert classify_degeneracy(laplace_iterate(net, 1), "forward").kind == "goursat"
        for i in range(4):
            assert parameter_space(net, "column", i).projective_dim == 1


class TestTheoremSuiteInterplay:
    def test_diagonal_nets_of_koenigs_outputs(self):
        for seed in range(3):
            net = random_bs_koenigs(4, 4, 3, seed)
            d = diagonal_intersection_net(net)
            assert validate_qnet(d) == []
            assert is_d_koenigs(d)
            assert invariant_symmetry_check(net, 0)

    def test_forward_backward_point_identity(self):
        # the collapsed backward transform coincides with the collapsed
        # backward transform of the diagonal net, pointwise
        for seed in range(3):
            net = extend_laplace_degenerate(laplace_degenerate_boundary(2, 3, 4, 3, seed), 2)
            p_b = laplace_iterate(net, -3)
            d_b = laplace_iterate(diagonal_intersection_net(net), -2)
            assert not isinstance(p_b, TerminationReport)
            assert not isinstance(d_b, TerminationReport)
            assert classify_degeneracy(d_b, "backward").kind == "laplace"
            dom = p_b.domain
            assert d_b.domain == dom
            for i in range(dom.i_min, dom.i_max + 1):
                assert p_b[(i, dom.j_min)] == d_b[(i, dom.j_min)]


# The unique completions: (completion, boundary maker, m, window a x b).
UNIQUE_COMPLETIONS = [
    (extend_laplace_degenerate, laplace_degenerate_boundary, 2, (3, 4)),
    (extend_laplace_degenerate, laplace_degenerate_boundary, 3, (4, 5)),
    (construct_double_degenerate, double_degenerate_boundary, 1, (2, 2)),
    (construct_double_degenerate, double_degenerate_boundary, 2, (3, 3)),
    (construct_double_degenerate, double_degenerate_boundary, 3, (4, 4)),
]


def _unique_cases():
    """(completion, boundary, m) for every unique completion at seeds 0..3,
    with the boundaries built once under the default lift seed."""
    return [
        (complete, make_boundary(m, a, b, 3, seed), m)
        for complete, make_boundary, m, (a, b) in UNIQUE_COMPLETIONS
        for seed in range(4)
    ]


class TestUniqueCompletionInvariance:
    def test_completions_do_not_depend_on_the_lift_seed(self, monkeypatch):
        cases = _unique_cases()
        expected = [complete(boundary, m) for complete, boundary, m in cases]
        for lift_seed in (1, 2, 12345):
            monkeypatch.setattr(construct, "_LIFT_SEED", lift_seed)
            assert [complete(boundary, m) for complete, boundary, m in cases] == expected

    def test_chart_center_agrees_with_sampled_centers(self, monkeypatch):
        # Sweeps that pin every site lift through the chart center; the
        # sampled center of the free sweeps gives the same nets under two seeds.
        cases = [
            (complete, make_boundary(m, a, b, 3, seed), m)
            for complete, make_boundary, m, (a, b) in UNIQUE_COMPLETIONS
            for seed in range(10)
        ]
        expected = [complete(boundary, m) for complete, boundary, m in cases]
        lift_context = construct._LiftContext
        requested = []

        def sampled(boundary, pinned=False):
            requested.append(pinned)
            return lift_context(boundary, False)

        monkeypatch.setattr(construct, "_LiftContext", sampled)
        for lift_seed in (1, 12345):
            monkeypatch.setattr(construct, "_LIFT_SEED", lift_seed)
            assert [complete(boundary, m) for complete, boundary, m in cases] == expected
        assert requested == [True] * (2 * len(cases))

    def test_free_extension_depends_on_the_staircase_seed(self, monkeypatch):
        # A free choice is a parameter on a line of the lift: shifting only
        # the staircase seed moves the point it names.
        boundaries = []
        for seed in range(6):
            strips = PartialNet(GridDomain(0, 4, 0, 5), 3)
            strips.restricted_from(random_bs_koenigs(4, 5, 3, seed), lambda s: min(s) <= 1)
            boundaries.append(strips)
        expected = [extend_bs_koenigs(strips, seed=seed) for seed, strips in enumerate(boundaries)]
        lift_partial = construct.lift_partial
        monkeypatch.setattr(construct, "lift_partial", lambda pts, dom, proj, seed: lift_partial(pts, dom, proj, seed + 1))
        for seed, strips in enumerate(boundaries):
            net = extend_bs_koenigs(strips, seed=seed)
            assert net != expected[seed]
            assert all(net[s] == expected[seed][s] for s in strips.points)

    def test_completions_are_projectively_natural(self):
        # Not asserted for extend_bs_koenigs or bs_laplace_degenerate_m1:
        # their seeded choices are parameters on lines of the lift, which
        # a projective map of the boundary does not carry along.  The
        # injective maps take the boundary into RP^{a+b+2}, past the lift.
        rng, embed_rng = random.Random(7), random.Random(8)
        for complete, boundary, m in _unique_cases():
            dom, n = boundary.domain, boundary.ambient_dim
            matrices = [random_invertible(rng, n + 1)]
            if m <= 2:
                rows = random_invertible(embed_rng, dom.width_i + dom.width_j + 3)
                matrices.append([row[: n + 1] for row in rows])
            net = complete(boundary, m)
            for matrix in matrices:
                image = lambda points: {s: transform_point(matrix, p) for s, p in points.items()}
                mapped = PartialNet(dom, len(matrix) - 1, image(boundary.points))
                assert complete(mapped, m) == QNet(dom, len(matrix) - 1, image(net.points()))


def _all_given(net: QNet) -> PartialNet:
    out = PartialNet(net.domain, net.ambient_dim)
    out.restricted_from(net, lambda s: True)
    return out


class TestGivenInteriorPoints:
    """Points given past the boundary: the free extension keeps them, the
    unique completions keep a given point that is their completion and
    reject one that is not."""

    @pytest.mark.parametrize("seed", range(3))
    def test_free_extension_returns_a_complete_net_unchanged(self, seed):
        net = random_bs_koenigs(4, 4, 3, seed)
        assert extend_bs_koenigs(_all_given(net)) == net

    @pytest.mark.parametrize("seed", range(3))
    def test_unique_completions_reproduce_their_output(self, seed):
        net = extend_laplace_degenerate(laplace_degenerate_boundary(2, 3, 4, 3, seed), 2)
        assert extend_laplace_degenerate(_all_given(net), 2) == net
        net = construct_double_degenerate(double_degenerate_boundary(2, 3, 3, 3, seed), 2)
        assert construct_double_degenerate(_all_given(net), 2) == net

    @pytest.mark.parametrize("seed", range(3))
    def test_unique_completion_replaces_given_pinned_points(self, seed):
        # A generic Koenigs net is not the completion past its strips: the
        # first pinned site whose given point differs raises, naming the site.
        cases = (
            (extend_laplace_degenerate, random_bs_koenigs(3, 4, 3, seed)),
            (construct_double_degenerate, random_bs_koenigs(3, 3, 3, seed)),
        )
        for complete, net in cases:
            with pytest.raises(ConstructionError) as info:
                complete(_all_given(net), 2)
            assert str(info.value) == "given point at (3, 2) is not the unique completion"
            assert info.value.site == (3, 2)


class TestWindowPoint:
    """``_constancy_space`` takes its window point from m steps of face
    transforms.  The lifted windows of the completions are extensive, and
    there that point is the meet of the window's column joins."""

    def test_iterated_transform_is_the_column_meet(self, monkeypatch):
        constancy_space = construct._constancy_space
        checked = []

        def spy(ctx, site, m, transposed=False):
            assert not transposed
            i, j = site
            window = GridDomain(i - m - 1, i - 1, j - m, j)
            big = ctx.domain.width_i + ctx.domain.width_j
            net = QNet(window, big, {s: ctx.up[s] for s in window.sites()})
            z = laplace_iterate(net, m)
            assert not isinstance(z, TerminationReport)
            assert column_space_meet(net) == join([z[(i - m - 1, j - m)]])
            checked.append(m)
            return constancy_space(ctx, site, m, transposed)

        monkeypatch.setattr(construct, "_constancy_space", spy)
        for seed in (0, 1):
            for m in range(2, 6):
                extend_laplace_degenerate(laplace_degenerate_boundary(m, m + 1, m + 2, 3, seed), m)
            for shape in ((3, 3, 3), (4, 3, 3)):
                bs_laplace_degenerate_m1(*shape, seed)
        assert sorted(set(checked)) == [1, 2, 3, 4, 5]
        # Three sites per completion, 6 and 9 per m = 1 net (more on a retry).
        assert len(checked) >= 2 * (4 * 3 + 6 + 9)


class TestStripPreRejection:
    """``random_bs_koenigs`` drops strips whose own faces fail the generic
    transform check before extending them.  That is sound: no rejected
    first attempt extends to a net that passes the check."""

    def test_rejected_strips_never_give_a_generic_net(self):
        rejected = 0
        for a, b in ((3, 3), (4, 4), (3, 4), (4, 5)):
            for seed in range(300):
                try:
                    strips = random_bs_strips(a, b, 3, construct._derive(seed, 0))
                except GeneralPositionError:
                    continue
                if construct._strips_generic(strips):
                    continue
                rejected += 1
                try:
                    net = extend_bs_koenigs(strips, seed=seed)
                except (ConstructionError, GeneralPositionError):
                    continue
                assert not construct._first_transforms_generic(net)
        assert rejected >= 50


class TestRareGeneratorFailures:
    """Two genuine degenerate unique completions that the ``generate``
    benchmark workload meets among seeds 0-20, rounds 0-559 (seed 9 round
    378 and seed 14 round 456), pinned by error type, message and site, so
    that a change in rare-failure behaviour shows up here."""

    @pytest.mark.parametrize(
        "complete, make_boundary, shape, seed, site",
        [
            (extend_laplace_degenerate, laplace_degenerate_boundary, (2, 3, 4, 3), 1784978974, (3, 2)),
            (construct_double_degenerate, double_degenerate_boundary, (2, 3, 3, 3), 630637764, (2, 3)),
        ],
    )
    def test_degenerate_completion(self, complete, make_boundary, shape, seed, site):
        boundary = make_boundary(*shape, seed)
        with pytest.raises(ConstructionError) as info:
            complete(boundary, shape[0])
        assert type(info.value) is ConstructionError
        assert str(info.value) == "completion at %s is degenerate" % (site,)
        assert info.value.site == site


class TestFaceChecksOnPartialData:
    """``_fill_ok`` and ``validate_boundary`` decide faces of partial data
    as the Bareiss-only references do: the same accept/reject decisions,
    and the same first error, with its message and site."""

    @staticmethod
    def _partial(rng, n, rank, zeros):
        base = [[0] * zeros + [rng.randint(-3, 3) for _ in range(n + 1 - zeros)] for _ in range(rank)]
        dom = GridDomain(0, 3, 0, 3)
        pts = {}
        for site in dom.sites():
            if rng.random() < 0.3:
                continue
            done = list(pts.values())
            if done and rng.random() < 0.2:
                pts[site] = rng.choice(done)
                continue
            vec = [sum(rng.randint(-2, 2) * v[k] for v in base) for k in range(n + 1)]
            if any(vec):
                pts[site] = HPoint(vec)
        return dom, pts

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_fill_ok(self, n):
        rng = random.Random(900 + n)
        decisions = set()
        for rank in range(1, 5):
            for zeros in range(min(3, n) + 1):
                for _ in range(40):
                    dom, pts = self._partial(rng, n, rank, zeros)
                    free = [s for s in dom.sites() if s not in pts]
                    if not free or not pts:
                        continue
                    site = rng.choice(free)
                    pool, roll = list(pts.values()), rng.random()
                    if roll < 0.3:  # a coincidence
                        cand = rng.choice(pool)
                    else:  # on the line of two points, or anywhere
                        p, q = rng.choice(pool), rng.choice(pool)
                        vec = [x + y for x, y in zip(p.coords, q.coords)]
                        if roll > 0.6 or not any(vec):
                            vec = [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(n)]
                        cand = HPoint(vec)
                    i, j = site
                    want = True
                    for face in ((i - 1, j - 1), (i, j - 1), (i - 1, j), (i, j)):
                        corners = {s: pts[s] for s in construct.face_sites(face) if s in pts and dom.contains(s)}
                        if corners:
                            corners[site] = cand
                            found = reference_face_defects(corners, face)
                            if any(site in (v[1:] if v[0] == "edge" else v[2]) for v in found):
                                want = False
                    assert construct._fill_ok(pts, dom, site, cand) == want
                    decisions.add(want)
        assert decisions == {True, False}

    @staticmethod
    def _reference_validate(boundary):
        pts, dom = boundary.points, boundary.domain
        for face in dom.faces():
            corners = [pts[s] for s in construct.face_sites(face) if s in pts]
            if len(corners) == 4 and reference_span_dim(corners) > 2:
                raise ConstructionError("boundary face %s is not planar" % (face,), face)
            for defect in reference_face_defects(pts, face):
                if defect[0] == "edge":
                    raise ConstructionError("boundary edge %s-%s collapses" % defect[1:], defect[1])
                raise ConstructionError("boundary triple %s is collinear" % (defect[2],), defect[2][0])
        for p in range(dom.i_min, dom.i_max - 1):
            for q in range(dom.j_min, dom.j_max - 1):
                window = [(p + di, q + dj) for dj in range(3) for di in range(3)]
                if all(s in pts for s in window):
                    sub = QNet(GridDomain(p, p + 2, q, q + 2), boundary.ambient_dim, {s: pts[s] for s in window})
                    field = reference_invariants(sub)
                    if isinstance(field[0], type):
                        raise field[0](field[1])
                    h, k = field
                    i, j = p + 1, q
                    if h[(i, j)] * h[(i, j + 1)] != k[(i, j + 1)] * k[(i - 1, j + 1)]:
                        raise ConstructionError(
                            "boundary window at (%d,%d) violates the Koenigs condition" % (p, q), (p, q)
                        )

    def test_validate_boundary(self):
        rng = random.Random(31)
        outcomes = set()
        for seed in range(4):
            boundary = laplace_degenerate_boundary(2, 3, 4, 3, seed)
            sites = sorted(boundary.points)
            for _ in range(25):
                pts = dict(boundary.points)
                site = rng.choice(sites)
                kind = rng.randrange(6)
                a, b, c = pts[(1, 3)].coords, pts[(2, 3)].coords, pts[(1, 4)].coords
                if kind == 3:  # (2, 4) elsewhere in the plane of its one face
                    k = [rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3)]
                    pts[(2, 4)] = HPoint([k[0] * x + k[1] * y + k[2] * z for x, y, z in zip(a, b, c)])
                elif kind == 4:  # (2, 4) on the line of (2, 3) and (1, 4)
                    pts[(2, 4)] = HPoint([x + 2 * y for x, y in zip(b, c)])
                elif kind == 0:  # a random point: faces leave their planes
                    pts[site] = HPoint([rng.randint(-9, 9) for _ in range(3)] + [1])
                elif kind == 1:  # a neighbour's point: an edge collapses
                    others = [s for s in sites if s != site and abs(s[0] - site[0]) + abs(s[1] - site[1]) == 1]
                    pts[site] = pts[rng.choice(others)]
                elif kind == 2:  # a point of the line of two others
                    p, q = rng.sample([pts[s] for s in sites if s != site], 2)
                    pts[site] = HPoint([x + y for x, y in zip(p.coords, q.coords)])
                got = want = None
                try:
                    validate_boundary(PartialNet(boundary.domain, 3, pts))
                except Exception as exc:
                    got = (type(exc), str(exc), getattr(exc, "site", None))
                try:
                    self._reference_validate(PartialNet(boundary.domain, 3, pts))
                except Exception as exc:
                    want = (type(exc), str(exc), getattr(exc, "site", None))
                assert got == want
                outcomes.add(got and got[1].split()[1])
        assert outcomes == {None, "edge", "face", "triple", "window"}
