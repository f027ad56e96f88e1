"""Exact projective geometry over the rationals.

Points of RP^n are nonzero homogeneous vectors up to scale, stored as
primitive integer tuples; subspaces are row spaces stored as their
canonical integer echelon rows; quadrics are symmetric bilinear forms up to
scale.  Every operation is exact; all degeneracy predicates are decidable
equalities.

Conventions:

* the cross-ratio of four collinear points with 2-chart representatives
  p1..p4 is  det(p1,p2) det(p3,p4) / (det(p2,p3) det(p4,p1)),
* the multi-ratio of six collinear points is
  det(p1,p2)/det(p2,p3) * det(p3,p4)/det(p4,p5) * det(p5,p6)/det(p6,p1),
* both are chart-independent: the 2x2 minors of points of one line in two
  charts differ by one common nonzero factor, and both ratios have as many
  minors above the fraction bar as below.

One plane-bracket table.  Every question about four points of a face
(are they coplanar, where do two of their lines meet, which triples span
the plane, which ratios do they cut on an edge) is read off one table, the
brackets [pqr], [pqs], [prs], [qrs] of ``_plane_brackets`` in a chart of
their plane: columns 0, 1, 2 when a bracket is nonzero there, where a
coordinatewise Cramer identity decides coplanarity, and otherwise the
pivot columns of their fraction-free elimination (``linalg.bareiss``).
Brackets in two charts differ by one common nonzero factor, so points and
ratios do not depend on the chart.  Other rank questions take a
closed-form minor when it is nonzero and the Bareiss rank otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import (
    DimensionMismatchError,
    GeometryError,
    ProjectionUndefinedError,
    UndefinedCrossRatioError,
)
from .linalg import (
    IntRow,
    Matrix,
    bareiss,
    cross3,
    det3,
    echelon,
    kernel,
    primitive,
    reduce_row,
    unit_rows,
)

Scalar = Fraction


class _Infinity:
    """Projective infinity, the value of a ratio with vanishing denominator.

    Distinct from an error: 0/0 raises, x/0 with x != 0 returns this
    singleton.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infinity"


INFINITY = _Infinity()

RatioValue = Union[Fraction, _Infinity]


class HPoint:
    """A point of RP^n as a homogeneous coordinate vector.

    The stored representative is canonical: a tuple of ``int`` with content
    1 and positive first nonzero entry, so projective equality is plain
    tuple equality.  Any nonzero rational representative is accepted.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        vec = coords if isinstance(coords, (tuple, list)) else tuple(coords)
        if not any(vec):
            raise ValueError("a projective point needs a nonzero coordinate")
        object.__setattr__(self, "coords", primitive(vec))

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    def scaled(self, factor: Fraction) -> "HPoint":
        """The same point from a rescaled representative (a no-op

        projectively; exists so scaling invariance is directly testable)."""
        if factor == 0:
            raise ValueError("scale factor must be nonzero")
        return HPoint(tuple(c * factor for c in self.coords))

    def __eq__(self, other) -> bool:
        return isinstance(other, HPoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "HPoint(%s)" % (", ".join(str(c) for c in self.coords))

    def __setattr__(self, name, value):
        raise AttributeError("HPoint is immutable")


@dataclass(frozen=True)
class Subspace:
    """A projective subspace as the canonical echelon rows of its linear span.

    ``rows`` are the rows of the reduced row echelon form, each scaled to
    primitive integers with positive pivot (see ``linalg.echelon``), and
    ``pivots`` their pivot columns.  Zero rows encode the empty subspace
    (projective dimension -1); equality of subspaces is equality of rows.
    ``basis`` is the same form over Q with unit pivots.
    """

    ambient_dim: int
    rows: tuple[IntRow, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        ints = [primitive(r) for r in rows if any(x != 0 for x in r)]
        return cls(ambient_dim, *echelon(ints, ambient_dim + 1))

    @classmethod
    def from_points(cls, points: Sequence[HPoint]) -> "Subspace":
        if not points:
            raise ValueError("need at least one point")
        n = points[0].ambient_dim
        if any(p.ambient_dim != n for p in points):
            raise DimensionMismatchError("points in different ambient spaces")
        return cls(n, *echelon([p.coords for p in points], n + 1))

    @classmethod
    def empty(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        size = ambient_dim + 1
        rows = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
        return cls(ambient_dim, rows, tuple(range(size)))

    @cached_property
    def basis(self) -> Matrix:
        """The reduced row echelon basis over Q (unit pivots)."""
        return unit_rows(self.rows, self.pivots)

    @cached_property
    def scaled_basis(self) -> tuple[int, tuple[IntRow, ...]]:
        """``basis`` times the lcm of its denominators, with that factor:
        integer rows whose integer combinations give the same points as the
        same combinations of ``basis``."""
        scale = lcm(*(row[c] for row, c in zip(self.rows, self.pivots)))
        return scale, tuple(
            tuple(scale // row[c] * x for x in row) for row, c in zip(self.rows, self.pivots)
        )

    @property
    def projective_dim(self) -> int:
        return len(self.rows) - 1

    @property
    def is_empty(self) -> bool:
        return not self.rows

    @property
    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim + 1

    def _residual(self, vec: Sequence[int]) -> tuple[Sequence[int], int]:
        """Fraction-free reduction of an integer vector by the echelon rows:
        returns (m * vec - w, m) with w in the subspace and m > 0, the
        residual being zero exactly when vec lies in the subspace."""
        return reduce_row(vec, self.rows, self.pivots)

    def _reduces_to_zero(self, vec: Sequence[int]) -> bool:
        return not any(self._residual(vec)[0])

    def contains_point(self, p: HPoint) -> bool:
        if p.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("point and subspace dimensions differ")
        return self._reduces_to_zero(p.coords)

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("subspace dimensions differ")
        return all(self._reduces_to_zero(row) for row in other.rows)

    def point(self) -> HPoint:
        """The unique point of a 0-dimensional subspace."""
        if self.projective_dim != 0:
            raise GeometryError("subspace is not a single point")
        return HPoint(self.rows[0])

    def basis_points(self) -> list[HPoint]:
        return [HPoint(row) for row in self.rows]

    def point_coords(self, p: HPoint) -> IntRow:
        """Coordinates of a contained point in this basis (pivot chart)."""
        if not self.contains_point(p):
            raise GeometryError("point is not in the subspace")
        return tuple(p.coords[c] for c in self.pivots)


SubspaceLike = Union[Subspace, HPoint]


def join(items: Sequence[SubspaceLike], ambient_dim: int | None = None) -> Subspace:
    """Join (projectivized span) of subspaces and/or points."""
    if not items:
        if ambient_dim is None:
            raise ValueError("empty join needs an explicit ambient dimension")
        return Subspace.empty(ambient_dim)
    n = items[0].ambient_dim
    if any(p.ambient_dim != n for p in items):
        raise DimensionMismatchError("join of subspaces in different ambient spaces")
    if ambient_dim is not None and ambient_dim != n:
        raise DimensionMismatchError("ambient dimension does not match arguments")
    rows: list[IntRow] = []
    for p in items:
        if isinstance(p, HPoint):
            rows.append(p.coords)
        else:
            rows.extend(p.rows)
    return Subspace(n, *echelon(rows, n + 1))


def span(*points: HPoint) -> Subspace:
    return join(points)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces, possibly empty.

    Each row b_k of the smaller one is reduced by the echelon rows of the
    larger one to a residual m_k b_k - w_k.  A combination of the residuals
    vanishes exactly when the same combination of the m_k b_k lies in both
    subspaces, so eliminating the residual half of the rows
    [m_k b_k - w_k | m_k b_k] leaves a basis of the intersection in the
    other half of the rows whose residual half vanished.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("meet of subspaces in different ambient spaces")
    if len(b.rows) > len(a.rows):
        a, b = b, a
    ncols = a.ambient_dim + 1
    work = []
    for row in b.rows:
        residual, m = a._residual(row)
        work.append(list(residual) + [m * x for x in row])
    rank = len(bareiss(work, ncols)[0])
    return Subspace(a.ambient_dim, *echelon([row[ncols:] for row in work[rank:]], ncols))


def _same_space(coords: Sequence[IntRow], what: str) -> None:
    if len(set(map(len, coords))) > 1:
        raise DimensionMismatchError("%s of points in different ambient spaces" % what)


def _plane_brackets(
    p: Sequence[int], q: Sequence[int], r: Sequence[int], s: Sequence[int]
) -> tuple[int, int, int, int] | None:
    """The brackets ([pqr], [pqs], [prs], [qrs]) of four integer vectors of
    one length in a chart of their plane, or None when they are not
    coplanar; all zero when they span less than a plane.

    The identity [qrs] p - [prs] q + [pqs] r - [pqr] s = 0 holds in the
    chart's columns and is a 4x4 minor in every other one.  The chart is
    columns 0, 1, 2 when a bracket is nonzero there, and then the vectors
    are coplanar exactly when the identity holds in the later columns
    (Cramer's rule).  Otherwise it is the pivot columns of the Bareiss
    elimination of the four, which is also their rank.
    """
    if len(p) >= 3:
        pq, rs = cross3(p, q), cross3(r, s)
        b = (
            pq[0] * r[0] + pq[1] * r[1] + pq[2] * r[2],
            pq[0] * s[0] + pq[1] * s[1] + pq[2] * s[2],
            rs[0] * p[0] + rs[1] * p[1] + rs[2] * p[2],
            rs[0] * q[0] + rs[1] * q[1] + rs[2] * q[2],
        )
        if any(b):
            pqr, pqs, prs, qrs = b
            for k in range(3, len(p)):
                if qrs * p[k] - prs * q[k] + pqs * r[k] != pqr * s[k]:
                    return None
            return b
    pivots = bareiss([p, q, r, s], len(p))[0]
    if len(pivots) != 3:
        return None if len(pivots) == 4 else (0, 0, 0, 0)
    p, q, r, s = ([v[k] for k in pivots] for v in (p, q, r, s))
    return det3(p, q, r), det3(p, q, s), det3(p, r, s), det3(q, r, s)


def line_meet(a: HPoint, b: HPoint, c: HPoint, d: HPoint) -> HPoint | None:
    """The point where the line ab meets the line cd, or None when the four
    points do not span a plane (skew or coincident lines).

    Grassmann-Cayley: meet(ab, cd) = [abd] c - [abc] d, the brackets taken
    in a chart of the plane (``_plane_brackets``).  The two pairs must be
    distinct points.
    """
    _same_space((a.coords, b.coords, c.coords, d.coords), "meet of lines")
    t = _plane_brackets(a.coords, b.coords, c.coords, d.coords)
    if t is None:
        return None
    x = [t[1] * y - t[0] * z for y, z in zip(c.coords, d.coords)]
    return HPoint(x) if any(x) else None


def span_dim(points: Sequence[HPoint]) -> int:
    """Projective dimension of the join of points (cheaper than join when
    no canonical basis is needed).

    Three points with a nonzero minor in columns 0, 1, 2 span a plane;
    every other case is the Bareiss rank.
    """
    coords = [p.coords for p in points]
    _same_space(coords, "span")
    if len(coords) == 3 and len(coords[0]) >= 3 and det3(*coords):
        return 2
    return len(bareiss(coords, len(coords[0]))[0]) - 1


def _chart(points: Sequence[HPoint], expect: int) -> list[tuple[int, int]]:
    """Common 2-coordinate chart of collinear points: the pivot columns of
    the Bareiss elimination of all points, which are two exactly when the
    points are collinear and not all equal.  In any chart onto which the
    line projects isomorphically, the 2x2 minors of its points differ by one
    common nonzero factor, which cancels in the cross- and multi-ratio.
    """
    coords = [p.coords for p in points]
    _same_space(coords, "ratio")
    pivots = bareiss(list(coords), len(coords[0]))[0]
    if len(pivots) > 2:
        raise GeometryError("points are not collinear")
    if len(pivots) < 2:
        raise UndefinedCrossRatioError("all %d points coincide" % expect)
    c1, c2 = pivots
    return [(w[c1], w[c2]) for w in coords]


def _det2(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def cross_ratio(p1: HPoint, p2: HPoint, p3: HPoint, p4: HPoint) -> RatioValue:
    """Cross-ratio of four collinear points; scaling- and chart-invariant.

    Returns INFINITY when only the denominator vanishes; 0/0 raises.
    """
    q1, q2, q3, q4 = _chart([p1, p2, p3, p4], 4)
    num = _det2(q1, q2) * _det2(q3, q4)
    den = _det2(q2, q3) * _det2(q4, q1)
    if den == 0:
        if num == 0:
            raise UndefinedCrossRatioError("cross-ratio of the form 0/0")
        return INFINITY
    return Fraction(num, den)


def multi_ratio(
    p1: HPoint, p2: HPoint, p3: HPoint, p4: HPoint, p5: HPoint, p6: HPoint
) -> RatioValue:
    """Multi-ratio of six collinear points, the 3-factor analogue of the
    cross-ratio."""
    q = _chart([p1, p2, p3, p4, p5, p6], 6)
    num = _det2(q[0], q[1]) * _det2(q[2], q[3]) * _det2(q[4], q[5])
    den = _det2(q[1], q[2]) * _det2(q[3], q[4]) * _det2(q[5], q[0])
    if den == 0:
        if num == 0:
            raise UndefinedCrossRatioError("multi-ratio of the form 0/0")
        return INFINITY
    return Fraction(num, den)


class Projector:
    """Central projection through a fixed center onto a fixed screen, as one
    integer matrix: the same point as (p v C) ^ E, zero exactly on C.

    Reduced by the screen's echelon rows S_p (pivots s_p), v leaves r(v) =
    v - sum (v_p / s_p) S_p on the other columns F, and v - l C lies on the
    screen exactly when r(v) = l r(C).  So ``matrix``, scaled to primitive
    integers, maps v to v - r(v)_F r(C)_F^-1 C, read off the echelon form of
    [L r(C)_F | C] (L = lcm s_p), which is square and of full rank exactly
    when center and screen are supplementary.
    """

    __slots__ = ("center", "screen", "matrix", "_rows")

    def __init__(self, center: Subspace, screen: Subspace):
        if center.ambient_dim != screen.ambient_dim:
            raise DimensionMismatchError("projection operands in different ambient spaces")
        size = center.ambient_dim + 1
        screen_pivots = tuple(zip(screen.rows, screen.pivots))
        free = [c for c in range(size) if c not in screen.pivots]
        k, big = len(free), lcm(*(s[p] for s, p in screen_pivots))
        rows = [
            [big * r[c] - sum(big // s[p] * r[p] * s[c] for s, p in screen_pivots) for c in free] + list(r)
            for r in center.rows
        ]
        red = echelon(rows, k)[0] if len(rows) == k else ()
        if len(rows) != k or len(red) != k:
            raise GeometryError("center and screen are not supplementary")
        scale = lcm(*(row[i] for i, row in enumerate(red)))
        matrix = [[scale * (a == b) for b in range(size)] for a in range(size)]
        for i, (t, row) in enumerate(zip(free, red)):
            g = [big * (scale // row[i]) * x for x in row[k:]]
            terms = [(p, s[t] * (big // s[p])) for s, p in screen_pivots if s[t]]
            for a, x in enumerate(g):
                matrix[a][t] -= x
                for p, f in terms:
                    matrix[a][p] += x * f // big
        content = gcd(*(x for row in matrix for x in row)) or 1
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "screen", screen)
        object.__setattr__(self, "matrix", tuple(tuple(x // content for x in row) for row in matrix))
        # An all-zero row (a coordinate zero on the screen) is an empty sum.
        object.__setattr__(self, "_rows", tuple(row if any(row) else () for row in self.matrix))

    def apply(self, coords: Sequence[int]) -> list[int]:
        """The matrix times an integer vector (zero on the center)."""
        return [sum(map(mul, row, coords)) for row in self._rows]

    def __call__(self, p: HPoint) -> HPoint:
        if len(p.coords) != len(self.matrix):
            raise DimensionMismatchError("projection operands in different ambient spaces")
        image = self.apply(p.coords)
        if not any(image):
            raise ProjectionUndefinedError("point lies in the projection center")
        return HPoint(image)

    def __setattr__(self, name, value):
        raise AttributeError("Projector is immutable")


def supplementary(a: Subspace, b: Subspace) -> bool:
    """True when a and b are disjoint and join to the whole space, which is
    exactly when their ``Projector`` builds."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("subspaces in different ambient spaces")
    try:
        Projector(a, b)
    except GeometryError:
        return False
    return True


def central_projection(p: HPoint, center: Subspace, screen: Subspace) -> HPoint:
    """Projection with the given center onto the screen: (p v C) ^ E.

    Center and screen must be supplementary; points of the center have no
    image.  Callers projecting many points through one pair build its
    ``Projector`` once.
    """
    if p.ambient_dim != center.ambient_dim or center.ambient_dim != screen.ambient_dim:
        raise DimensionMismatchError("projection operands in different ambient spaces")
    return Projector(center, screen)(p)


class Quadric:
    """A quadric as a symmetric bilinear form up to scale.

    The stored matrix is canonical: the form scaled to primitive integers,
    first nonzero entry positive, making equality of quadrics bitwise.
    """

    __slots__ = ("form",)

    def __init__(self, form: Sequence[Sequence]):
        rows = [tuple(r) for r in form]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("quadric form must be square")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i + 1, n)):
            raise ValueError("quadric form must be exactly symmetric")
        flat = [x for r in rows for x in r]
        if not any(flat):
            raise ValueError("quadric form must be nonzero")
        flat = primitive(flat)
        object.__setattr__(self, "form", tuple(flat[k : k + n] for k in range(0, n * n, n)))

    @property
    def ambient_dim(self) -> int:
        return len(self.form) - 1

    def _image(self, p: HPoint) -> list[int]:
        """The form times a point's coordinates."""
        if p.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("point does not match quadric dimension")
        return [sum(map(mul, row, p.coords)) for row in self.form]

    def bilinear(self, p: HPoint, q: HPoint) -> int:
        if q.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("point does not match quadric dimension")
        return sum(map(mul, self._image(p), q.coords))

    def evaluate(self, p: HPoint) -> int:
        return self.bilinear(p, p)

    def contains_point(self, p: HPoint) -> bool:
        return self.evaluate(p) == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Quadric) and self.form == other.form

    def __hash__(self) -> int:
        return hash(self.form)

    def __repr__(self) -> str:
        return "Quadric(%r)" % (self.form,)

    def __setattr__(self, name, value):
        raise AttributeError("Quadric is immutable")


def polar(q: Quadric, p: HPoint) -> Subspace:
    """Polar subspace of a point: all x with b(p, x) = 0.

    A hyperplane for non-singular p, the whole space for singular p.
    """
    w = q._image(p)
    n = q.ambient_dim
    if not any(w):
        return Subspace.full(n)
    return Subspace(n, *kernel([w], n + 1))


def is_conjugate(q: Quadric, p1: HPoint, p2: HPoint) -> bool:
    """Exact conjugacy test b(p1, p2) = 0."""
    return q.bilinear(p1, p2) == 0


def singular_locus(q: Quadric) -> Subspace:
    """Projectivized kernel of the form matrix (empty iff non-degenerate)."""
    n = q.ambient_dim
    return Subspace(n, *kernel(q.form, n + 1))


def transform_point(matrix: Sequence[Sequence], p: HPoint) -> HPoint:
    """Image of a point under the projective map induced by a matrix."""
    image = [sum(map(mul, row, p.coords)) for row in matrix]
    if not any(image):
        raise GeometryError("matrix maps the point to zero")
    return HPoint(image)
