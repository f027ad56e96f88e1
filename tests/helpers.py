"""Shared test utilities.

oracle_pivots and oracle_rank are the independent elimination oracle:
fraction-free Bareiss over integers, sharing no code with the package's
RREF.  The reference_* functions answer the small rank questions of
``qnets.projective`` from that oracle alone, without certificate minors,
and ``reference_echelon`` gives the canonical echelon form by elimination
alone, without the closed forms of ``qnets.linalg.echelon``.
``reference_bs_line`` is the admissible line of ``construct._bs_line`` as
the meet of the joined face plane and 3-space.  The face references
(``reference_face_transform``, ``reference_face_defects``,
``reference_check_nondegenerate``, ``reference_validate_qnet``,
``reference_invariants`` and ``reference_diagonal_point``) decide every
face from those references alone, without bracket tables, and
``reference_projector_matrix`` inverts [center; screen] over Q, and
``reference_nullspace`` is the right kernel by Gauss-Jordan over Q.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from itertools import combinations

from qnets import (
    INFINITY,
    ConstructionError,
    GeometryError,
    HPoint,
    InvariantError,
    UndefinedCrossRatioError,
    join,
    meet,
)


def oracle_pivots(rows) -> list[int]:
    """Pivot columns of Bareiss fraction-free elimination with column
    pivoting (the columns not in the span of the columns before them)."""
    work = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        den = 1
        for x in fr:
            den = den * x.denominator // gcd(den, x.denominator)
        work.append([int(x * den) for x in fr])
    if not work:
        return []
    nrows, ncols = len(work), len(work[0])
    prev = 1
    r = 0
    pivots = []
    for c in range(ncols):
        pivot_row = None
        for k in range(r, nrows):
            if work[k][c] != 0:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        for k in range(r + 1, nrows):
            for cc in range(c + 1, ncols):
                work[k][cc] = (work[k][cc] * work[r][c] - work[k][c] * work[r][cc]) // prev
            work[k][c] = 0
        prev = work[r][c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def reference_echelon(rows, ncols: int):
    """Canonical echelon form by Gauss-Jordan elimination over Q, pivoting
    on the first nonzero entry of the first ``ncols`` columns (later
    columns are carried along): the unit-pivot rows, each scaled to
    primitive integers, and their pivot columns."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((k for k in range(r, len(work)) if work[k][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top = [x / work[r][c] for x in work[r]]
        work[r] = top
        for k in range(len(work)):
            if k != r and work[k][c] != 0:
                f = work[k][c]
                work[k] = [x - f * y for x, y in zip(work[k], top)]
        pivots.append(c)
    out = []
    for row in work[: len(pivots)]:
        den = lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row]
        g = gcd(*ints)
        out.append(tuple(v // g for v in ints))
    return tuple(out), tuple(pivots)


def oracle_rank(rows) -> int:
    """Rank by Bareiss fraction-free elimination with column pivoting."""
    return len(oracle_pivots(rows))


def oracle_det3(m) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def random_point(rng: random.Random, n: int, lo: int = -9, hi: int = 9) -> HPoint:
    while True:
        coords = [rng.randint(lo, hi) for _ in range(n + 1)]
        if any(coords):
            return HPoint(coords)


def random_invertible(rng: random.Random, size: int):
    """Random invertible rational matrix (checked by the Bareiss oracle)."""
    while True:
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(size)] for _ in range(size)]
        if oracle_rank(m) == size:
            return m


def random_collinear(rng: random.Random, n: int, count: int) -> list[HPoint]:
    """Distinct random points on a random line in RP^n."""
    while True:
        a = random_point(rng, n)
        b = random_point(rng, n)
        pts = []
        for _ in range(count * 4):
            al, be = rng.randint(-9, 9), rng.randint(-9, 9)
            coords = [al * x + be * y for x, y in zip(a.coords, b.coords)]
            if not any(coords):
                continue
            p = HPoint(coords)
            if p not in pts:
                pts.append(p)
            if len(pts) == count:
                return pts


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 12))


def oracle_det(matrix) -> Fraction:
    """Determinant by recursive cofactor expansion (small matrices only)."""
    n = len(matrix)
    if n == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for k in range(n):
        if matrix[0][k] == 0:
            continue
        minor = [row[:k] + row[k + 1 :] for row in matrix[1:]]
        total += (-1) ** k * Fraction(matrix[0][k]) * oracle_det(minor)
    return total


def reference_span_dim(points) -> int:
    """Projective dimension of the join of points, from the oracle rank."""
    return oracle_rank([p.coords for p in points]) - 1


def reference_line_meet(a, b, c, d):
    """The meet of lines ab and cd by Grassmann-Cayley in the oracle's pivot
    chart of the four points, or None when they do not span a plane."""
    pivots = oracle_pivots([a.coords, b.coords, c.coords, d.coords])
    if len(pivots) != 3:
        return None
    a3, b3, c3, d3 = ([p.coords[k] for k in pivots] for p in (a, b, c, d))
    abc, abd = oracle_det3([a3, b3, c3]), oracle_det3([a3, b3, d3])
    x = [abd * y - abc * z for y, z in zip(c.coords, d.coords)]
    return HPoint(x) if any(x) else None


def _corners(face):
    i, j = face
    return ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))


def reference_face_transform(points, face, direction):
    """The Laplace transform point of a face as the reference meet of its
    two edge lines, with the errors of ``qnet._face_transform_point``."""
    i, j = face
    if direction == "forward":
        e1, e2 = ((i, j), (i, j + 1)), ((i + 1, j), (i + 1, j + 1))
    else:
        e1, e2 = ((i, j), (i + 1, j)), ((i, j + 1), (i + 1, j + 1))
    for s, t in (e1, e2):
        if points[s] == points[t]:
            raise GeometryError(
                "Laplace %s transform undefined on face %s: edge %s-%s degenerates to a point"
                % (direction, face, s, t)
            )
    x = reference_line_meet(points[e1[0]], points[e1[1]], points[e2[0]], points[e2[1]])
    if x is None:
        raise GeometryError(
            "Laplace %s transform undefined on face %s: edge lines do not meet in a point"
            % (direction, face)
        )
    return x


def reference_diagonal_point(points, face):
    """The meet of the diagonals of a face, with the errors of
    ``diagonal_intersection_net``."""
    c0, c1, c2, c3 = _corners(face)
    for s, t in ((c0, c3), (c1, c2)):
        if points[s] == points[t]:
            raise GeometryError("edge %s-%s degenerates to a point" % (s, t))
    x = reference_line_meet(points[c0], points[c3], points[c1], points[c2])
    if x is None:
        raise GeometryError("diagonals of face %s do not meet in a point" % (face,))
    return x


def reference_face_defects(points, face):
    """Coincident edge ends, then corner triples of oracle rank below 3,
    among the corners of a face held in ``points``, in ``combinations``
    order of the corners."""
    corners = [s for s in _corners(face) if s in points]
    out = [
        ("edge", s, t)
        for s, t in combinations(corners, 2)
        if (s[0] == t[0] or s[1] == t[1]) and points[s] == points[t]
    ]
    return out + [
        ("triple", face, triple)
        for triple in combinations(corners, 3)
        if reference_span_dim([points[s] for s in triple]) != 2
    ]


def reference_check_nondegenerate(net):
    """``check_nondegenerate`` from the reference defects: edges site by
    site, then triples face by face omitting corner 0, 1, 2, 3 in turn."""
    pts = net.points()
    edges, triples = [], []
    for site in net.domain.sites():
        found = reference_face_defects(pts, site)
        edges += [v for v in found if v[0] == "edge" and v[1] == site]
        triples += reversed([v for v in found if v[0] == "triple"])
    return edges + triples


def reference_validate_qnet(net):
    return [
        face
        for face in net.domain.faces()
        if reference_span_dim([net[s] for s in _corners(face)]) > 2
    ]


def reference_invariants(net):
    """(h, k) of ``laplace_invariants`` from reference transform points and
    reference cross-ratios, or the type and message of its error."""
    pts = net.points()
    d = net.domain
    fields = {}
    for direction in ("forward", "backward"):
        found = {}
        for face in d.faces():
            try:
                found[face] = reference_face_transform(pts, face, direction)
            except GeometryError:
                pass
        fields[direction] = found
    h, k = {}, {}
    try:
        fwd, bwd = fields["forward"], fields["backward"]
        for i in range(d.i_min + 1, d.i_max):
            for j in range(d.j_min, d.j_max):
                if (i, j) in fwd and (i - 1, j) in fwd:
                    h[(i, j)] = _reference_invariant(
                        "H", (i, j), pts[(i, j)], fwd[(i, j)], pts[(i, j + 1)], fwd[(i - 1, j)]
                    )
        for i in range(d.i_min, d.i_max):
            for j in range(d.j_min + 1, d.j_max):
                if (i, j) in bwd and (i, j - 1) in bwd:
                    k[(i, j)] = _reference_invariant(
                        "K", (i, j), pts[(i, j)], bwd[(i, j)], pts[(i + 1, j)], bwd[(i, j - 1)]
                    )
    except InvariantError as exc:
        return type(exc), str(exc)
    return h, k


def _reference_invariant(kind, edge, *points):
    try:
        value = reference_ratio(*points)
    except (GeometryError, UndefinedCrossRatioError) as exc:
        raise InvariantError("%s%s undefined: %s" % (kind, edge, exc), edge)
    if value is INFINITY:
        raise InvariantError("%s%s is infinite (degenerate net)" % (kind, edge), edge)
    return value


def reference_projector_matrix(center, screen):
    """The matrix of the projection through ``center`` onto ``screen``
    (out = M v) as the screen part of v = (v A^-1) A, A the center's rows
    stacked on the screen's, inverted by Gauss-Jordan over Q, scaled to
    primitive integers by a positive factor; None when A is singular."""
    rows = list(center.rows) + list(screen.rows)
    size = center.ambient_dim + 1
    if len(rows) != size:
        return None
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(rows)]
    for c in range(size):
        r = next((k for k in range(c, size) if work[k][c] != 0), None)
        if r is None:
            return None
        work[c], work[r] = work[r], work[c]
        work[c] = [x / work[c][c] for x in work[c]]
        for k in range(size):
            if k != c and work[k][c] != 0:
                work[k] = [x - work[k][c] * y for x, y in zip(work[k], work[c])]
    inverse = [row[size:] for row in work]
    k = len(center.rows)
    matrix = [
        [sum(inverse[b][k + s] * screen.rows[s][a] for s in range(len(screen.rows))) for b in range(size)]
        for a in range(size)
    ]
    den = lcm(*(x.denominator for row in matrix for x in row))
    ints = [[int(x * den) for x in row] for row in matrix]
    g = gcd(*(x for row in ints for x in row)) or 1
    return tuple(tuple(x // g for x in row) for row in ints)


def reference_nullspace(rows, ncols: int):
    """A basis of {x : M x = 0} over Q by Gauss-Jordan elimination of
    ``Fraction`` rows: one vector per free column, 1 there."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((k for k in range(r, len(work)) if work[k][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for k in range(len(work)):
            if k != r and work[k][c] != 0:
                work[k] = [x - work[k][c] * y for x, y in zip(work[k], work[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(work, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def reference_ratio(*points):
    """Cross-ratio (four points) or multi-ratio (six points) in the oracle's
    pivot chart of the points, with the package's errors and messages."""
    pivots = oracle_pivots([p.coords for p in points])
    if len(pivots) > 2:
        raise GeometryError("points are not collinear")
    if len(pivots) < 2:
        raise UndefinedCrossRatioError("all %d points coincide" % len(points))
    q = [(p.coords[pivots[0]], p.coords[pivots[1]]) for p in points]
    k = len(q)
    num = den = 1
    for i in range(k):
        u, v = q[i], q[(i + 1) % k]
        if i % 2:
            den *= u[0] * v[1] - u[1] * v[0]
        else:
            num *= u[0] * v[1] - u[1] * v[0]
    if den == 0:
        if num == 0:
            raise UndefinedCrossRatioError(
                "%s of the form 0/0" % ("cross-ratio" if k == 4 else "multi-ratio")
            )
        return INFINITY
    return Fraction(num, den)


def reference_bs_line(up, i: int, j: int):
    """The admissible line of the window ending at (i, j) of lifted points
    ``up``: the meet of the face plane with the 3-space of the window's
    even-parity points, both joined, with the errors of
    ``construct._bs_line``."""
    site = (i, j)
    plane = join([up[(i - 1, j - 1)], up[(i, j - 1)], up[(i - 1, j)]])
    if plane.projective_dim != 2:
        raise ConstructionError("degenerate face plane at %s" % (site,), site)
    space = join([up[(i - 2, j - 2)], up[(i - 1, j - 1)], up[(i, j - 2)], up[(i - 2, j)]])
    if space.projective_dim != 3:
        raise ConstructionError("degenerate diagonal 3-space at %s" % (site,), site)
    line = meet(plane, space)
    if line.projective_dim != 1:
        raise ConstructionError("admissible set at %s is not a line" % (site,), site)
    return line
