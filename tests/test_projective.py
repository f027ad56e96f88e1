import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnets import (
    INFINITY,
    GeometryError,
    HPoint,
    Quadric,
    Subspace,
    UndefinedCrossRatioError,
    central_projection,
    cross_ratio,
    is_conjugate,
    join,
    meet,
    multi_ratio,
    polar,
    singular_locus,
    span,
)
from qnets.errors import DimensionMismatchError, ProjectionUndefinedError, QnetsError
from qnets.lifts import hyperplane_pair_quadric
from qnets.projective import Projector, _plane_brackets, line_meet, span_dim, supplementary, transform_point
from helpers import (
    oracle_rank,
    random_collinear,
    random_invertible,
    random_point,
    reference_line_meet,
    reference_nullspace,
    reference_projector_matrix,
    reference_ratio,
    reference_span_dim,
)

F = Fraction


def pt(*coords):
    return HPoint(coords)


class TestHPoint:
    def test_projective_equality(self):
        assert pt(2, 4, 6) == pt(1, 2, 3)
        assert pt(-1, -2, -3) == pt(1, 2, 3)
        assert pt(F(1, 2), F(1, 3), 0) == pt(3, 2, 0)
        assert pt(1, 0) != pt(0, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            pt(0, 0, 0)

    @given(st.fractions(min_value=-50, max_value=50), st.integers(0, 2))
    def test_scaling_is_identity(self, lam, idx):
        if lam == 0:
            return
        p = [pt(1, 2, 3), pt(0, 5, -1), pt(7, 0, 0)][idx]
        assert p.scaled(lam) == p


class TestJoinMeet:
    def test_join_of_axes_is_a_line(self):
        s = join([pt(1, 0, 0), pt(0, 1, 0)])
        assert s.projective_dim == 1

    def test_join_idempotent_on_a_point(self):
        p = pt(3, 1, 4)
        assert join([p, p]).projective_dim == 0
        assert join([p, p]).point() == p

    def test_join_dimension_agrees_with_rank_oracle(self):
        rng = random.Random(10)
        for _ in range(50):
            pts = [random_point(rng, 3) for _ in range(3)]
            expected = oracle_rank([p.coords for p in pts]) - 1
            assert join(pts).projective_dim == expected

    def test_meet_of_coordinate_planes(self):
        a = Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]], 3)
        b = Subspace.from_rows([[0, 1, 0, 0], [0, 0, 1, 0]], 3)
        m = meet(a, b)
        assert m.projective_dim == 0
        assert m.point() == pt(0, 1, 0, 0)

    def test_meet_idempotent(self):
        a = Subspace.from_rows([[1, 2, 3, 4], [0, 1, 1, 1]], 3)
        assert meet(a, a) == a

    def test_skew_lines_meet_empty(self):
        rng = random.Random(11)
        found = 0
        for _ in range(40):
            p1, p2, p3, p4 = (random_point(rng, 3) for _ in range(4))
            if oracle_rank([p.coords for p in (p1, p2, p3, p4)]) != 4:
                continue
            found += 1
            assert meet(join([p1, p2]), join([p3, p4])).is_empty
        assert found >= 20

    def test_dimension_formula_on_seeded_pairs(self):
        # rank(A u B) + dim(span A n span B) = rank A + rank B
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(2, 4)
            a = join([random_point(rng, n) for _ in range(rng.randint(1, n))])
            b = join([random_point(rng, n) for _ in range(rng.randint(1, n))])
            lhs = oracle_rank(list(a.basis) + list(b.basis)) + (meet(a, b).projective_dim + 1)
            assert lhs == len(a.basis) + len(b.basis)
            assert join([a, b]).projective_dim == oracle_rank(list(a.basis) + list(b.basis)) - 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            join([pt(1, 0), pt(1, 0, 0)])
        with pytest.raises(DimensionMismatchError):
            meet(Subspace.full(2), Subspace.full(3))


class TestCrossRatio:
    def test_reference_quadruple(self):
        assert cross_ratio(pt(1, 0), pt(1, 1), pt(0, 1), pt(1, -1)) == -1

    def test_repeated_fourth_point_gives_one(self):
        p1, p2, p3 = pt(1, 0), pt(1, 1), pt(0, 1)
        assert cross_ratio(p1, p2, p3, p2) == 1

    def test_scaling_invariance(self):
        rng = random.Random(13)
        for _ in range(30):
            pts = random_collinear(rng, 2, 4)
            base = cross_ratio(*pts)
            scaled = [p.scaled(F(rng.randint(1, 9), rng.randint(1, 9))) for p in pts]
            assert cross_ratio(*scaled) == base

    def test_not_collinear_raises(self):
        with pytest.raises(GeometryError):
            cross_ratio(pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1))

    def test_all_equal_raises(self):
        p = pt(1, 2)
        with pytest.raises(UndefinedCrossRatioError):
            cross_ratio(p, p, p, p)

    def test_infinity_value(self):
        # fourth point equal to the first makes only the denominator vanish
        p1, p2, p3 = pt(1, 0), pt(1, 1), pt(0, 1)
        assert cross_ratio(p1, p2, p3, p1) is INFINITY

    def test_permutation_orbit(self):
        from itertools import permutations

        rng = random.Random(14)
        for _ in range(10):
            pts = random_collinear(rng, 1, 4)
            lam = cross_ratio(*pts)
            orbit = {lam, 1 / lam, 1 - lam, 1 / (1 - lam), lam / (lam - 1), (lam - 1) / lam}
            values = {cross_ratio(*(pts[i] for i in perm)) for perm in permutations(range(4))}
            assert values == orbit

    def test_inverse_pairings(self):
        rng = random.Random(15)
        for _ in range(20):
            p1, p2, p3, p4 = random_collinear(rng, 2, 4)
            lam = cross_ratio(p1, p2, p3, p4)
            assert lam * cross_ratio(p1, p4, p3, p2) == 1
            assert cross_ratio(p2, p3, p4, p1) == 1 / lam

    def test_invariance_under_projective_maps(self):
        rng = random.Random(16)
        for _ in range(100):
            pts = random_collinear(rng, 2, 4)
            m = random_invertible(rng, 3)
            assert cross_ratio(*(transform_point(m, p) for p in pts)) == cross_ratio(*pts)

    def test_chart_independence_via_ambient_change(self):
        # same four points expressed in different coordinates give the same value
        rng = random.Random(17)
        for _ in range(25):
            pts = random_collinear(rng, 3, 4)
            m = random_invertible(rng, 4)
            assert cross_ratio(*(transform_point(m, p) for p in pts)) == cross_ratio(*pts)


class TestMultiRatio:
    def test_coincident_leading_pair_gives_zero(self):
        rng = random.Random(18)
        pts = random_collinear(rng, 1, 5)
        assert multi_ratio(pts[0], pts[0], pts[1], pts[2], pts[3], pts[4]) == 0

    def test_six_point_scaling_invariance(self):
        rng = random.Random(19)
        pts = random_collinear(rng, 2, 6)
        scaled = [p.scaled(F(3, 7)) for p in pts]
        assert multi_ratio(*scaled) == multi_ratio(*pts)


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of the QnetsError it
    raises."""
    try:
        return fn(*args)
    except QnetsError as exc:
        return type(exc), str(exc)


def _configuration(rng, n, rank, zeros):
    """Six points of RP^n spanning at most ``rank`` dimensions: small integer
    combinations of ``rank`` random vectors whose first ``zeros`` columns
    vanish, so coincident, collinear and coplanar subsets are common and
    zero leading columns force the fallback elimination."""
    base = [(0,) * zeros + random_point(rng, n - zeros, -3, 3).coords for _ in range(rank)]
    pts = []
    while len(pts) < 6:
        if len(pts) == 2 and rng.random() < 0.3:
            # c on the line ab
            al, be = rng.choice([(1, 0), (0, 1), (1, 1), (2, -3)])
            vec = [al * x + be * y for x, y in zip(pts[0].coords, pts[1].coords)]
        else:
            coeffs = [rng.randint(-2, 2) for _ in base]
            vec = [sum(k * v[i] for k, v in zip(coeffs, base)) for i in range(n + 1)]
        if any(vec):
            pts.append(HPoint(vec))
    return pts


class TestRankCertificates:
    """span_dim, line_meet and the ratio chart agree with the Bareiss-only
    references in value, error type and message, on both the certificate
    and the fallback route of the first two."""

    @staticmethod
    def _agree(pts):
        for k in (2, 3, 4):
            assert span_dim(pts[:k]) == reference_span_dim(pts[:k])
        assert line_meet(*pts[:4]) == reference_line_meet(*pts[:4])
        assert _outcome(cross_ratio, *pts[:4]) == _outcome(reference_ratio, *pts[:4])
        assert _outcome(multi_ratio, *pts) == _outcome(reference_ratio, *pts)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_seeded_configurations(self, n):
        rng = random.Random(600 + n)
        for rank in range(1, 5):
            for zeros in range(min(3, n) + 1):
                for _ in range(40):
                    self._agree(_configuration(rng, n, rank, zeros))

    def test_named_cases(self):
        a, b, c, d = pt(1, 0, 0, 0), pt(0, 1, 0, 0), pt(0, 0, 1, 0), pt(0, 0, 0, 1)
        ab = pt(1, 1, 0, 0)
        cases = [
            [a, a, a, a, a, a],  # coincident
            [a, b, ab, pt(1, 2, 0, 0), pt(2, 1, 0, 0), pt(1, -1, 0, 0)],  # collinear
            [a, b, ab, c, d, pt(1, 1, 1, 1)],  # c on line ab
            [a, b, c, pt(1, 1, 1, 0), ab, pt(0, 1, 1, 0)],  # coplanar
            [a, b, c, d, ab, pt(1, 1, 1, 1)],  # skew lines
            [a, b, pt(1, 1, 0, 1), c, d, ab],  # skew lines, [abc] = 0 in columns 0..2
            # zero columns 0..2: every certificate minor vanishes
            [pt(0, 0, 0, 1, 0), pt(0, 0, 0, 1, 2), pt(0, 0, 0, 2, 1), pt(0, 0, 0, 0, 1), pt(0, 0, 0, 1, 1), pt(0, 0, 0, 1, -1)],
        ]
        for pts in cases:
            self._agree(pts)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from([1, 2, 9]), st.integers(1, 4), st.integers(0, 2**32))
    def test_property(self, n, rank, seed):
        rng = random.Random(seed)
        for zeros in range(min(3, n) + 1):
            self._agree(_configuration(rng, n, rank, zeros))


class TestPlaneBrackets:
    """``_plane_brackets`` against the rank oracle: None exactly at rank 4,
    all zero exactly at rank 2 or less, and otherwise a table for which the
    Cramer identity holds in every coordinate and which is proportional to
    the table of the same vectors behind three zero columns (where every
    bracket in columns 0, 1, 2 vanishes and the pivot chart is taken)."""

    @staticmethod
    def _check(vecs):
        table = _plane_brackets(*vecs)
        rank = oracle_rank(vecs)
        assert (table is None) == (rank == 4)
        if table is None:
            return
        assert (not any(table)) == (rank <= 2)
        p, q, r, s = vecs
        for k in range(len(p)):
            assert table[3] * p[k] - table[2] * q[k] + table[1] * r[k] - table[0] * s[k] == 0
        padded = _plane_brackets(*((0, 0, 0) + tuple(v) for v in vecs))
        assert padded is not None
        for a in range(4):
            for b in range(4):
                assert table[a] * padded[b] == table[b] * padded[a]
        assert any(table) == any(padded)

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_seeded_configurations(self, n):
        rng = random.Random(700 + n)
        seen = set()
        for rank in range(1, 5):
            for zeros in range(min(3, n) + 1):
                for _ in range(40):
                    vecs = [p.coords for p in _configuration(rng, n, rank, zeros)[:4]]
                    self._check(vecs)
                    seen.add((oracle_rank(vecs), vecs[0][:3] == vecs[1][:3] == (0, 0, 0)))
        if n == 9:
            assert {(r, z) for r in (1, 2, 3, 4) for z in (False, True)} <= seen

    def test_named_cases(self):
        cases = [
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],  # rank 4
            [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)],  # rank 3, [pqr] = 0
            [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 1), (0, 0, 0, 1)],  # [pqr] = [pqs] = 0 in 0..2
            [(0, 0, 0, 1, 0), (0, 0, 0, 1, 2), (0, 0, 1, 2, 1), (0, 0, 0, 0, 1)],  # rank 3, zero 0..1
            [(1, 2), (2, 1), (1, 1), (3, -1)],  # RP^1
            [(1, 2, 3), (2, 4, 6), (1, 2, 3), (3, 6, 9)],  # one point
        ]
        for vecs in cases:
            self._check(vecs)
        assert _plane_brackets(*cases[0]) is None
        assert _plane_brackets(*cases[4]) == (0, 0, 0, 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3, 9]), st.integers(1, 4), st.integers(0, 2**32))
    def test_property(self, n, rank, seed):
        rng = random.Random(seed)
        for zeros in range(min(3, n) + 1):
            self._check([p.coords for p in _configuration(rng, n, rank, zeros)[:4]])


class TestMixedAmbientSpaces:
    """The rank predicates raise DimensionMismatchError, as join does, when
    their points live in projective spaces of different dimensions, on the
    certificate route and on the fallback route alike."""

    def test_span_dim(self):
        a, b, c = pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)
        for pts in ([pt(1, 0), a], [a, pt(1, 0)], [a, b, pt(0, 0, 1, 0)], [a, b, c, pt(1, 1, 1, 1)], [pt(0, 0, 1), pt(0, 0, 2, 1), c]):
            with pytest.raises(DimensionMismatchError):
                span_dim(pts)

    def test_line_meet(self):
        a, b, c = pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)
        for pts in ([a, b, pt(1, 1, 0, 0), pt(0, 0, 1, 0)], [a, b, c, pt(1, 1, 1, 1)], [pt(1, 0), pt(0, 1), a, b]):
            with pytest.raises(DimensionMismatchError):
                line_meet(*pts)

    def test_cross_ratio(self):
        for pts in ([pt(1, 0), pt(0, 1), pt(1, 1, 0), pt(1, 2, 0)], [pt(0, 0, 1), pt(0, 1, 1), pt(0, 1), pt(0, 1, 2)]):
            with pytest.raises(DimensionMismatchError):
                cross_ratio(*pts)

    def test_multi_ratio(self):
        line = [pt(1, k) for k in range(5)]
        for pts in (line + [pt(1, 5, 0)], [pt(1, 5, 0)] + line):
            with pytest.raises(DimensionMismatchError):
                multi_ratio(*pts)


class TestCentralProjection:
    def test_reference_projection(self):
        center = Subspace.from_points([pt(0, 0, 0, 1)])
        screen = Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 3)
        assert central_projection(pt(1, 1, 1, 1), center, screen) == pt(1, 1, 1, 0)

    def test_screen_points_are_fixed(self):
        center = Subspace.from_points([pt(0, 0, 0, 1)])
        screen = Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 3)
        p = pt(2, -3, 5, 0)
        assert central_projection(p, center, screen) == p

    def test_cross_ratio_preserved(self):
        rng = random.Random(20)
        center = Subspace.from_points([pt(1, 2, 3, 4)])
        screen = Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 3)
        for _ in range(25):
            pts = random_collinear(rng, 3, 4)
            if any(center.contains_point(p) for p in pts):
                continue
            images = [central_projection(p, center, screen) for p in pts]
            if join(images).projective_dim != 1:
                continue
            assert cross_ratio(*images) == cross_ratio(*pts)

    def test_point_in_center_rejected(self):
        center = Subspace.from_points([pt(0, 0, 1)])
        screen = Subspace.from_rows([[1, 0, 0], [0, 1, 0]], 2)
        with pytest.raises(ProjectionUndefinedError):
            central_projection(pt(0, 0, 5), center, screen)

    def test_non_supplementary_rejected(self):
        center = Subspace.from_points([pt(1, 0, 0)])
        screen = Subspace.from_rows([[1, 0, 0], [0, 1, 0]], 2)
        with pytest.raises(GeometryError):
            central_projection(pt(0, 0, 1), center, screen)


def _supplementary_pair(rng: random.Random, n: int) -> tuple[Subspace, Subspace]:
    while True:
        k = rng.randint(0, n)
        rows = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n + 1)]
        center = Subspace.from_rows(rows[:k], n)
        screen = Subspace.from_rows(rows[k:], n)
        if supplementary(center, screen):
            return center, screen


class TestSupplementary:
    """``supplementary`` (whether the pair's ``Projector`` builds) against
    the rank oracle of the stacked rows: supplementary exactly when the
    row counts sum to n + 1 and the stacked rows have rank n + 1."""

    def test_against_the_rank_oracle(self):
        rng = random.Random(2024)
        seen = set()
        for n in range(1, 7):
            for _ in range(40):
                ka, kb = rng.randint(0, n + 1), rng.randint(0, n + 1)
                lo = rng.choice((-9, -1))
                rows = [[rng.randint(lo, -lo) for _ in range(n + 1)] for _ in range(ka + kb)]
                if ka and kb and rng.random() < 0.3:
                    # A row of b in the span of a's rows.
                    rows[ka] = [x - 2 * y for x, y in zip(rows[0], rows[ka - 1])]
                a = Subspace.from_rows(rows[:ka], n)
                b = Subspace.from_rows(rows[ka:], n)
                counts = len(a.rows) + len(b.rows) == n + 1
                want = counts and oracle_rank(list(a.rows + b.rows)) == n + 1
                assert supplementary(a, b) == supplementary(b, a) == want
                seen.add((counts, want))
        assert seen == {(True, True), (True, False), (False, False)}

    def test_empty_and_full(self):
        for n in (1, 3):
            empty, full = Subspace.empty(n), Subspace.full(n)
            assert supplementary(empty, full) and supplementary(full, empty)
            assert not supplementary(full, full) and not supplementary(empty, empty)
            point = Subspace.from_points([HPoint((1,) + (0,) * n)])
            assert not supplementary(point, full) and not supplementary(full, point)

    def test_mismatched_ambient_spaces(self):
        a = Subspace.from_points([pt(1, 0, 0)])
        for b in (Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]], 3), Subspace.full(1), Subspace.empty(3)):
            with pytest.raises(DimensionMismatchError):
                supplementary(a, b)
            with pytest.raises(DimensionMismatchError):
                supplementary(b, a)


class TestProjector:
    def test_images_match_the_join_meet_projection(self):
        rng = random.Random(31)
        for n in range(3, 10):
            for _ in range(4):
                center, screen = _supplementary_pair(rng, n)
                project = Projector(center, screen)
                for _ in range(6):
                    p = random_point(rng, n)
                    if center.contains_point(p):
                        continue
                    image = project(p)
                    assert image == meet(join([p, center]), screen).point()
                    assert image == central_projection(p, center, screen)
                    assert project(image) == image

    def test_points_of_the_center_have_no_image(self):
        rng = random.Random(32)
        for n in range(3, 10):
            center, screen = _supplementary_pair(rng, n)
            if center.is_empty:
                continue
            _, rows = center.scaled_basis
            for _ in range(4):
                coeffs = [rng.randint(-5, 5) for _ in rows]
                if not any(coeffs):
                    continue
                p = HPoint([sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)])
                with pytest.raises(ProjectionUndefinedError):
                    Projector(center, screen)(p)

    def test_matrix_matches_the_inverse_over_q(self):
        # Random pairs, coordinate screens (the padded joins of the lift
        # constructions), screens with pivot entries other than 1, entries
        # of about 100 bits, and pairs that are not supplementary.
        rng = random.Random(33)
        outcomes = set()
        for n in range(1, 10):
            for case in range(12):
                k = rng.randint(0, n + 1)
                bits = 100 if case % 3 == 2 else 3
                rows = [[rng.randint(-(2**bits), 2**bits) for _ in range(n + 1)] for _ in range(n + 1)]
                if case % 3 == 1:
                    rows[k:] = [[int(c == j) for c in range(n + 1)] for j in rng.sample(range(n + 1), n + 1 - k)]
                if case % 4 == 3 and k and n + 1 - k:
                    rows[0] = rows[-1]
                center, screen = Subspace.from_rows(rows[:k], n), Subspace.from_rows(rows[k:], n)
                want = reference_projector_matrix(center, screen)
                if want is None:
                    with pytest.raises(GeometryError, match="not supplementary"):
                        Projector(center, screen)
                else:
                    assert Projector(center, screen).matrix == want
                outcomes.add((want is None, any(r[p] > 1 for r, p in zip(screen.rows, screen.pivots))))
        assert outcomes == {(True, False), (True, True), (False, False), (False, True)}

    def test_empty_center_and_empty_screen(self):
        full, empty = Subspace.full(3), Subspace.empty(3)
        p = pt(3, -1, 4, 1)
        assert Projector(empty, full)(p) == p
        with pytest.raises(ProjectionUndefinedError):
            Projector(full, empty)(p)

    def test_pair_checks(self):
        screen = Subspace.from_rows([[1, 0, 0], [0, 1, 0]], 2)
        with pytest.raises(GeometryError):
            Projector(Subspace.from_points([pt(1, 0, 0)]), screen)
        with pytest.raises(GeometryError):
            Projector(Subspace.empty(2), screen)
        with pytest.raises(DimensionMismatchError):
            Projector(Subspace.from_points([pt(0, 0, 0, 1)]), screen)
        with pytest.raises(DimensionMismatchError):
            Projector(Subspace.from_points([pt(0, 0, 1)]), screen)(pt(1, 1, 1, 1))


class TestQuadric:
    def sphere(self):
        return Quadric([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])

    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            Quadric([[0, 1], [2, 0]])

    def test_malformed_forms_are_rejected_by_name(self):
        for form in ([[1, 0], [0]], [[1, 0, 0], [0, 1, 0]], [[1, 2]]):
            with pytest.raises(ValueError, match="quadric form must be square"):
                Quadric(form)
        for form in ([[0, 0], [0, 0]], [[F(0), 0, 0], [0, 0, 0], [0, 0, F(0, 5)]]):
            with pytest.raises(ValueError, match="quadric form must be nonzero"):
                Quadric(form)
        for form in ([[0, 1], [2, 0]], [[1, F(1, 3)], [F(1, 3) + F(1, 10**12), 1]]):
            with pytest.raises(ValueError, match="quadric form must be exactly symmetric"):
                Quadric(form)

    def test_fraction_and_scaled_integer_forms_are_equal(self):
        rng = random.Random(24)
        for size in (2, 3, 5):
            for _ in range(10):
                form = [[F(0)] * size for _ in range(size)]
                for r in range(size):
                    for c in range(r, size):
                        form[r][c] = form[c][r] = F(rng.randint(-9, 9), rng.randint(1, 6))
                if not any(x for row in form for x in row):
                    continue
                den = 1
                for row in form:
                    for x in row:
                        den = den * x.denominator // math.gcd(den, x.denominator)
                for k in (1, 7, -3):
                    ints = [[int(x * den * k) for x in row] for row in form]
                    assert Quadric(ints) == Quadric(form)
                    assert hash(Quadric(ints)) == hash(Quadric(form))
                bumped = [row[:] for row in form]
                bumped[0][0] += 1
                assert Quadric(bumped) != Quadric(form)

    def _random_form(self, rng, size, rank):
        """A symmetric rational form of the given rank at most: a sum of
        rank-1 terms s v v^T with rational v."""
        form = [[F(0)] * size for _ in range(size)]
        for _ in range(rank):
            v = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]
            s = rng.choice((-1, 1))
            for r in range(size):
                for c in range(size):
                    form[r][c] += s * v[r] * v[c]
        return form

    def test_polar_and_singular_locus_match_the_rational_kernel(self):
        rng = random.Random(25)
        checked = 0
        for size in (2, 3, 4, 6):
            for rank in range(1, size + 1):
                for _ in range(4):
                    form = self._random_form(rng, size, rank)
                    if not any(x for row in form for x in row):
                        continue
                    q = Quadric(form)
                    n = size - 1
                    want = Subspace.from_rows(reference_nullspace(form, size), n)
                    assert singular_locus(q) == want
                    for _ in range(3):
                        p = random_point(rng, n)
                        w = [sum(a * b for a, b in zip(row, p.coords)) for row in form]
                        expect = (
                            Subspace.full(n)
                            if not any(w)
                            else Subspace.from_rows(reference_nullspace([w], size), n)
                        )
                        assert polar(q, p) == expect
                        checked += 1
                    if want.rows:
                        s = HPoint(want.rows[0])
                        assert polar(q, s).is_full
        assert checked > 100

    def test_hyperplane_pair_quadric_matches_the_rational_normals(self):
        rng = random.Random(26)
        for n in (2, 3, 5):
            done = 0
            while done < 8:
                u1 = join([random_point(rng, n) for _ in range(n)])
                u2 = join([random_point(rng, n) for _ in range(n)])
                if u1.projective_dim != n - 1 or u2.projective_dim != n - 1:
                    continue
                n1 = reference_nullspace(u1.rows, n + 1)[0]
                n2 = reference_nullspace(u2.rows, n + 1)[0]
                form = [[n1[r] * n2[c] + n2[r] * n1[c] for c in range(n + 1)] for r in range(n + 1)]
                assert hyperplane_pair_quadric(u1, u2) == Quadric(form)
                done += 1

    def test_equality_up_to_scale(self):
        q1 = Quadric([[2, 0], [0, -2]])
        q2 = Quadric([[1, 0], [0, -1]])
        assert q1 == q2

    def test_polar_of_sphere_point(self):
        h = polar(self.sphere(), pt(1, 0, 0, 0))
        assert h.projective_dim == 2
        assert h == Subspace.from_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)

    def test_polar_of_singular_point_is_everything(self):
        q = Quadric([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert polar(q, pt(0, 0, 1)).is_full

    def test_self_polar_iff_on_quadric(self):
        q = self.sphere()
        rng = random.Random(21)
        for _ in range(30):
            p = random_point(rng, 3)
            assert polar(q, p).contains_point(p) == q.contains_point(p)

    def test_singular_point_is_conjugate_to_everything(self):
        q = Quadric([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        s = pt(0, 0, 1)
        rng = random.Random(22)
        for _ in range(20):
            assert is_conjugate(q, s, random_point(rng, 2))

    def test_hyperplane_pair_singular_locus(self):
        u = (1, 0, 0, 0)
        v = (0, 1, 1, 0)
        form = [[u[r] * v[c] + v[r] * u[c] for c in range(4)] for r in range(4)]
        q = Quadric(form)
        u1 = Subspace.from_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
        u2 = Subspace.from_rows([[1, 0, 0, 0], [0, 1, -1, 0], [0, 0, 0, 1]], 3)
        assert singular_locus(q) == meet(u1, u2)

    def test_nondegenerate_has_empty_singular_locus(self):
        assert singular_locus(self.sphere()).is_empty

    def test_exactness_under_rescaled_representatives(self):
        rng = random.Random(23)
        q = self.sphere()
        for _ in range(20):
            p = random_point(rng, 3)
            r = random_point(rng, 3)
            s1, s2 = F(rng.randint(1, 9)), F(rng.randint(1, 9), rng.randint(1, 9))
            assert is_conjugate(q, p, r) == is_conjugate(q, p.scaled(s1), r.scaled(s2))
            assert polar(q, p) == polar(q, p.scaled(s2))


@settings(max_examples=40)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9), min_size=3, max_size=3),
    st.fractions(min_value=-9, max_value=9),
)
def test_span_membership_closed_under_scaling(coords, lam):
    if not any(coords) or lam == 0:
        return
    p = HPoint(coords)
    line = span(p, pt(1, 1, 1)) if p != pt(1, 1, 1) else span(p)
    assert line.contains_point(p.scaled(lam))


class TestTransformPoint:
    def test_fraction_matrix_matches_the_rational_product(self):
        rng = random.Random(27)
        for size in (2, 3, 5):
            for _ in range(20):
                m = [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(size)] for _ in range(size)]
                p = random_point(rng, size - 1)
                image = [sum(a * b for a, b in zip(row, p.coords)) for row in m]
                if not any(image):
                    continue
                assert transform_point(m, p) == HPoint(image)
                assert transform_point(m, p.scaled(F(-3, 7))) == HPoint(image)

    def test_zero_image_is_rejected(self):
        m = [[F(1, 2), F(-1, 2), 0], [1, -1, 0], [0, 0, 0]]
        with pytest.raises(GeometryError, match="matrix maps the point to zero"):
            transform_point(m, pt(3, 3, 5))
        assert transform_point(m, pt(1, 0, 5)) == pt(1, 2, 0)
