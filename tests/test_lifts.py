import random
from fractions import Fraction

import pytest

from qnets import (
    GeometryError,
    HPoint,
    NotBSKoenigsError,
    Quadric,
    Subspace,
    check_extensive,
    check_nondegenerate,
    classify_degeneracy,
    diagonal_intersection_net,
    embed_and_lift,
    is_conjugate,
    join,
    koenigs_hyperplanes,
    laplace_invariants,
    laplace_iterate,
    lift,
    meet,
    quadric_conjugacy_check,
    random_bs_koenigs,
    random_goursat_net,
    random_qnet,
    singular_locus,
    singular_point_checks,
)
from qnets.construct import construct_double_degenerate, double_degenerate_boundary
from qnets.errors import DimensionMismatchError, GeneralPositionError
from qnets.construct import laplace_degenerate_boundary
from qnets.lifts import (
    RETRY_BUDGET,
    embed_net,
    has_koenigs_hyperplanes,
    hyperplane_pair_quadric,
    lift_partial,
    sample_supplementary,
    staircase_point,
)
from qnets.projective import Projector
from qnets.linalg import bareiss, kernel
from qnets.qnet import GridDomain, QNet, TerminationReport, net_span
from helpers import random_point

F = Fraction


class TestLift:
    def test_round_trip_projection(self):
        for seed in range(10):
            net = random_qnet(2, 1, 2, seed)
            res = embed_and_lift(net, seed)
            target = embed_net(net, res.lifted.ambient_dim)
            for s in net.domain.sites():
                assert res.project_point(res.lifted[s]) == target[s]

    def test_lift_is_extensive_and_nondegenerate(self):
        for seed in range(10):
            res = embed_and_lift(random_qnet(2, 2, 2, seed), seed)
            assert check_extensive(res.lifted)
            assert check_nondegenerate(res.lifted) == []

    def test_extensive_input_lifts_to_itself(self):
        base = embed_and_lift(random_qnet(2, 2, 2, 1), 1).lifted
        again = embed_and_lift(base, 99)
        assert again.lifted == base
        assert again.center.is_empty

    def test_wrong_ambient_rejected(self):
        net = random_qnet(2, 2, 3, 2)  # RP^3, needs RP^4 for a direct lift
        with pytest.raises(DimensionMismatchError):
            lift(net, Subspace.empty(3), 0)

    def test_center_in_the_wrong_space_rejected(self):
        # An extensive net is checked like any other: its lift result would
        # otherwise hold a center and a screen in different spaces.
        extensive = embed_and_lift(random_qnet(2, 2, 3, 0), 0).lifted
        planar = embed_net(random_qnet(2, 2, 2, 2), 4)
        for net in (extensive, planar):
            with pytest.raises(DimensionMismatchError, match="^center has wrong ambient dimension$"):
                lift(net, Subspace.empty(9), 0)

    def test_non_supplementary_center_rejected(self):
        net = embed_net(random_qnet(2, 2, 2, 2), 4)  # spans the plane x3 = x4 = 0
        e3, e4 = HPoint((0, 0, 0, 1, 0)), HPoint((0, 0, 0, 0, 1))
        assert lift(net, join([e3, e4]), 0).lifted.ambient_dim == 4
        inside = join([net[(0, 0)], net[(1, 0)]])
        meeting = join([net[(0, 0)], e3])
        for center in (Subspace.empty(4), inside, meeting, join([meeting, e4]), Subspace.full(4)):
            with pytest.raises(GeometryError, match="^center is not supplementary to the net's span$"):
                lift(net, center, 0)

    def test_invariants_preserved(self):
        for seed in range(10):
            net = random_qnet(2, 2, 3, seed)
            lifted = embed_and_lift(net, seed).lifted
            f, g = laplace_invariants(net), laplace_invariants(lifted)
            assert f.h == g.h and f.k == g.k

    def test_laplace_transform_of_lift_is_lift_of_transform(self):
        net = random_qnet(2, 2, 3, 3)
        res = embed_and_lift(net, 3)
        from qnets import laplace_forward

        down = laplace_forward(net)
        up = laplace_forward(res.lifted)
        target = embed_net(down, res.lifted.ambient_dim)
        for s in down.domain.sites():
            assert res.project_point(up[s]) == target[s]


def _meet_lift(points, domain, center, seed):
    """Reference lift: the same staircase, and each forced point as the meet
    of the line through its point and the center with the lifted
    predecessor plane."""
    rng = random.Random(seed)
    chosen, lifted = [], {}
    for site in sorted(points, key=lambda s: (s[1], s[0])):
        if site[0] == domain.i_min or site[1] == domain.j_min:
            lifted[site] = staircase_point(site, points[site], center, chosen, rng)
            continue
        i, j = site
        plane = join([lifted[p] for p in ((i - 1, j - 1), (i - 1, j), (i, j - 1))])
        x = meet(join([points[site], center]), plane)
        if x.projective_dim != 0:
            raise GeometryError("lift meet at %s is not a single point" % (site,))
        lifted[site] = x.point()
    return lifted


def _both_lifts(points, domain, center, screen, seed):
    """The outcomes of lift_partial and of the reference: the lifted points,
    or the type and message of the error."""
    out = []
    for run in (
        lambda: lift_partial(points, domain, Projector(center, screen), seed),
        lambda: _meet_lift(points, domain, center, seed),
    ):
        try:
            out.append(run())
        except GeometryError as exc:
            out.append((type(exc), str(exc)))
    return out


class TestForcedLift:
    def test_complete_nets_match_the_meet(self):
        for a, b, n in ((2, 2, 3), (3, 2, 2), (2, 3, 4), (3, 3, 3)):
            for seed in range(3):
                net = embed_net(random_qnet(a, b, n, seed), a + b)
                screen = net_span(net)
                center = sample_supplementary(screen, seed)
                got, want = _both_lifts(net.points(), net.domain, center, screen, seed)
                assert isinstance(got, dict) and got == want

    def test_boundary_data_matches_the_meet(self):
        for seed in range(3):
            boundary = laplace_degenerate_boundary(2, 3, 4, 3, seed)
            pad = (0,) * 4
            points = {s: HPoint(p.coords + pad) for s, p in boundary.points.items()}
            screen = join(list(points.values()))
            center = sample_supplementary(screen, seed)
            got, want = _both_lifts(points, boundary.domain, center, screen, seed)
            assert isinstance(got, dict) and got == want

    def test_zero_leading_columns_take_the_pivot_chart(self):
        # Three zero coordinates in front put every image of a forced point
        # (all on the screen) at zero in columns 0, 1, 2, so each of their
        # brackets there vanishes and the chart is the Bareiss pivots.
        pad = (0, 0, 0)
        for a, b, n in ((2, 2, 3), (3, 2, 2), (2, 3, 4), (3, 3, 3)):
            for seed in range(3):
                net = embed_net(random_qnet(a, b, n, seed), a + b)
                points = {s: HPoint(pad + p.coords) for s, p in net.points().items()}
                screen = join(list(points.values()))
                center = sample_supplementary(screen, seed)
                got, want = _both_lifts(points, net.domain, center, screen, seed)
                assert isinstance(got, dict) and got == want
        for seed in range(3):
            boundary = laplace_degenerate_boundary(2, 3, 4, 3, seed)
            points = {s: HPoint(pad + p.coords + (0,) * 4) for s, p in boundary.points.items()}
            screen = join(list(points.values()))
            center = sample_supplementary(screen, seed)
            got, want = _both_lifts(points, boundary.domain, center, screen, seed)
            assert isinstance(got, dict) and got == want
        net = embed_net(random_qnet(2, 2, 3, 4), 4)
        points = {s: HPoint(pad + p.coords) for s, p in net.points().items()}
        screen = join(list(points.values()))
        points[(1, 1)] = HPoint(pad + (1, 2, 3, 5, 0))
        center = sample_supplementary(screen, 4)
        got, want = _both_lifts(points, net.domain, center, screen, 4)
        assert got == want == (GeometryError, "lift meet at (1, 1) is not a single point")

    def test_face_off_its_plane_fails_like_the_meet(self):
        net = embed_net(random_qnet(2, 2, 3, 4), 4)
        points = net.points()
        points[(1, 1)] = HPoint((1, 2, 3, 5, 0))
        screen = net_span(net)
        center = sample_supplementary(screen, 4)
        got, want = _both_lifts(points, net.domain, center, screen, 4)
        assert got == want == (GeometryError, "lift meet at (1, 1) is not a single point")

    def test_plane_through_the_center_takes_the_meet(self):
        # (0,0), (1,0), (0,1) are collinear, so the lifted plane of the face
        # at (0,0) meets the center, and so does the next one.
        coords = {
            (0, 0): (1, 0, 0, 0),
            (1, 0): (0, 1, 0, 0),
            (2, 0): (1, 2, 1, 0),
            (0, 1): (1, 1, 0, 0),
            (1, 1): (0, 0, 1, 0),
            (2, 1): (2, 1, 0, 0),
        }
        points = {s: HPoint(c) for s, c in coords.items()}
        domain = GridDomain(0, 2, 0, 1)
        screen = join(list(points.values()))
        for seed in range(3):
            center = sample_supplementary(screen, seed)
            got, want = _both_lifts(points, domain, center, screen, seed)
            assert got == want
            assert got[(1, 1)] == got[(2, 1)] == center.point()
        points[(2, 1)] = HPoint((1, 0, 1, 0))
        got, want = _both_lifts(points, domain, center, screen, 0)
        assert got == want == (GeometryError, "lift meet at (2, 1) is not a single point")


def _bareiss_staircase(site, base, center, chosen, rng, attempts):
    """Reference free lift choice: the same candidates, accepted when the
    Bareiss rank of the points chosen so far and the candidate grows."""
    scale, steps = center.scaled_basis
    for _ in range(RETRY_BUDGET):
        attempts.append(site)
        vec = [scale * x for x in base.coords]
        for step in steps:
            lam = rng.randint(-9, 9)
            vec = [a + lam * b for a, b in zip(vec, step)]
        if len(bareiss(chosen + [vec], len(vec))[0]) == len(chosen) + 1:
            point = HPoint(vec)
            chosen.append(point.coords)
            return point
    raise GeneralPositionError("no spanning lift choice at %s" % (site,))


class TestStaircase:
    def test_accepts_and_rejects_like_bareiss(self):
        """Bases drawn from few points so that candidates often fall in the
        span chosen so far: a center point is redrawn when every weight is
        0, and a full span rejects every candidate."""
        attempts: list = []
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.choice([2, 3, 5])
            center = join([random_point(rng, n) for _ in range(rng.randint(1, 2))])
            pool = [random_point(rng, n) for _ in range(3)]
            bases = [rng.choice(pool) for _ in range(n + 3)]
            outcomes = []
            for run in (staircase_point, lambda *args: _bareiss_staircase(*args, attempts)):
                draws, chosen, got = random.Random(seed), [], []
                for k, base in enumerate(bases):
                    try:
                        got.append(run((k, seed), base, center, chosen, draws))
                    except GeneralPositionError as exc:
                        got.append(str(exc))
                outcomes.append((got, draws.getstate()))
            assert outcomes[0] == outcomes[1]
        # Both kinds of rejection occurred: a redraw before an acceptance,
        # and a full budget spent.
        assert len(attempts) > len(set(attempts))
        assert any(attempts.count(site) == RETRY_BUDGET for site in set(attempts))


class TestGoursatLift:
    def test_lift_of_goursat_net_has_nondegenerate_transform(self):
        for seed in range(5):
            net = random_goursat_net(3, 3, 3, seed)
            lifted = embed_and_lift(net, seed).lifted
            fwd = laplace_iterate(lifted, 1)
            assert not isinstance(fwd, TerminationReport)
            assert check_nondegenerate(fwd) == []

    def test_second_transform_of_lift_collapses(self):
        for seed in range(5):
            net = random_goursat_net(3, 3, 3, seed)
            lifted = embed_and_lift(net, seed).lifted
            second = laplace_iterate(lifted, 2)
            assert not isinstance(second, TerminationReport)
            report = classify_degeneracy(second, "forward")
            assert report.kind == "laplace"
            d = second.domain
            for i in range(d.i_min, d.i_max + 1):
                for j in range(d.j_min, d.j_max):
                    assert second[(i, j)] != second[(i, j + 1)]


class TestKoenigsHyperplanes:
    def test_parity_containment(self):
        net = random_bs_koenigs(2, 2, 3, 7)
        lifted = embed_and_lift(net, 7).lifted
        pair = koenigs_hyperplanes(lifted)
        d = lifted.domain
        for (i, j) in d.sites():
            target = pair.u1 if (i + j) % 2 == 0 else pair.u2
            assert target.contains_point(lifted[(i, j)])

    def test_diagonal_net_sits_in_the_intersection(self):
        net = random_bs_koenigs(2, 2, 3, 8)
        lifted = embed_and_lift(net, 8).lifted
        pair = koenigs_hyperplanes(lifted)
        core = meet(pair.u1, pair.u2)
        dnet = diagonal_intersection_net(lifted)
        assert all(core.contains_point(dnet[s]) for s in dnet.domain.sites())
        assert join([dnet[s] for s in dnet.domain.sites()]) == core

    def test_non_koenigs_net_has_no_pair(self):
        hits = 0
        for seed in range(5):
            lifted = embed_and_lift(random_qnet(2, 2, 3, seed), seed).lifted
            if not has_koenigs_hyperplanes(lifted):
                hits += 1
        assert hits == 5

    def test_quadric_is_the_hyperplane_union(self):
        u1 = Subspace.from_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
        u2 = Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1]], 3)
        q = hyperplane_pair_quadric(u1, u2)
        n1 = kernel(u1.rows, 4)[0][0]
        n2 = kernel(u2.rows, 4)[0][0]
        rng = random.Random(9)
        for _ in range(30):
            p = random_point(rng, 3)
            v1 = sum(a * b for a, b in zip(n1, p.coords))
            v2 = sum(a * b for a, b in zip(n2, p.coords))
            assert (q.evaluate(p) == 0) == (v1 == 0 or v2 == 0)
        assert singular_locus(q) == meet(u1, u2)


def conic_through(points):
    rows = []
    for p in points:
        u, v, w = p.coords
        rows.append((u * u, u * v, u * w, v * v, v * w, w * w))
    null = kernel(rows, 6)[0]
    if len(null) != 1:
        return None
    a, b, c, d, e, f = null[0]
    return Quadric(
        [
            [2 * a, b, c],
            [b, 2 * d, e],
            [c, e, 2 * f],
        ]
    )


class TestQuadricConjugacy:
    def test_lifted_koenigs_nets_agree(self):
        for m, seed in ((1, 0), (1, 1), (2, 2), (2, 3)):
            base = (
                random_qnet(1, 1, 2, seed) if m == 1 else random_bs_koenigs(2, 2, 3, seed)
            )
            lifted = embed_and_lift(base, seed).lifted
            quad = koenigs_hyperplanes(lifted).quadric
            assert quadric_conjugacy_check(lifted, quad)

    def test_inscribed_quads_on_random_conics(self):
        rng = random.Random(10)
        done = 0
        while done < 8:
            pts = [random_point(rng, 2) for _ in range(5)]
            quad = conic_through(pts)
            if quad is None:
                continue
            corners = pts[:4]
            dom = GridDomain(0, 1, 0, 1)
            net = QNet(
                dom,
                2,
                {(0, 0): corners[0], (1, 0): corners[1], (1, 1): corners[2], (0, 1): corners[3]},
            )
            if check_nondegenerate(net):
                continue
            assert quadric_conjugacy_check(net, quad)
            # move the far corner off the conic: conjugacy must fail too
            stray = next(p for p in (random_point(rng, 2) for _ in iter(int, 1)) if quad.evaluate(p) != 0)
            perturbed = net.with_point((1, 1), stray)
            if check_nondegenerate(perturbed):
                continue
            assert quadric_conjugacy_check(perturbed, quad)
            fwd = laplace_iterate(perturbed, 1)
            bwd = laplace_iterate(perturbed, -1)
            assert not is_conjugate(quad, fwd[(0, 0)], bwd[(0, 0)])
            done += 1

    def test_perturbed_corner_on_hyperplane_pair(self):
        base = random_bs_koenigs(2, 2, 3, 4)
        lifted = embed_and_lift(base, 4).lifted
        pair = koenigs_hyperplanes(lifted)
        face_plane = join([lifted[(1, 1)], lifted[(2, 1)], lifted[(1, 2)]])
        rng = random.Random(11)
        while True:
            a, b, c = (F(rng.randint(-9, 9)) for _ in range(3))
            coords = [
                a * x + b * y + c * z
                for x, y, z in zip(*(p.coords for p in face_plane.basis_points()))
            ]
            if not any(coords):
                continue
            cand = HPoint(coords)
            if pair.quadric.evaluate(cand) != 0:
                p = lifted.with_point((2, 2), cand)
                if not check_nondegenerate(p):
                    break
        assert quadric_conjugacy_check(p, pair.quadric)


class TestSingularPointChecks:
    def test_generic_instances(self):
        for m, a, b, n, seed in ((1, 1, 2, 2, 0), (1, 1, 2, 2, 1), (2, 2, 3, 3, 2)):
            base = random_qnet(a, b, n, seed) if m == 1 else random_bs_koenigs(a, b, n, seed)
            lifted = embed_and_lift(base, seed).lifted
            report = singular_point_checks(lifted, m)
            assert report.forward_nonsingular and report.backward_nonsingular
            assert report.line_checks and report.ok
            for check in report.line_checks:
                assert not check.line_hits_singular and not check.backward_coincide

    def test_doubly_degenerate_instance_has_true_sides(self):
        net = construct_double_degenerate(double_degenerate_boundary(2, 3, 3, 3, 1), 2)
        window = net.restricted(GridDomain(0, 2, 0, 3))
        lifted = embed_and_lift(window, 1).lifted
        report = singular_point_checks(lifted, 2)
        assert report.ok
        assert report.line_checks
        for check in report.line_checks:
            assert check.line_hits_singular and check.backward_coincide

    def test_skips_when_transforms_terminate(self):
        from qnets import affine_grid

        lifted = embed_and_lift(affine_grid(2, 2), 0).lifted
        report = singular_point_checks(lifted, 2)
        assert report.skipped
        assert report.forward_nonsingular is None
