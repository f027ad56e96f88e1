"""Q-net lattices, Laplace transformations, and degeneracy classification.

A Q-net is a map from a rectangular window of Z^2 into RP^n whose faces
are planar.  The forward Laplace transform intersects the two vertical
edge-lines of each face, the backward transform the two horizontal ones;
both shrink the window by one in each axis and keep the window origin, so
the mutual-inverse identity  L- L+ P (i,j) = P(i+1,j+1)  holds literally
on sites.

Every face predicate reads one bracket table per face: with corners
p0 = P(i,j), p1 = P(i+1,j), p2 = P(i,j+1), p3 = P(i+1,j+1), the table
([012], [013], [023], [123]) of ``projective._plane_brackets`` holds the
3x3 brackets [xyz] of px, py, pz in a chart of the face plane, and is
None when the face is not planar.  The forward point is [023] p1 +
[012] p3, the backward point [013] p2 - [012] p3, the diagonal point
[013] p2 - [023] p1, a triple spans a plane exactly when its bracket is
nonzero, and H and K are ratios of bracket products.  A face spanning
less than a plane has an all-zero table: no transform or diagonal point,
and every triple degenerate.  Canonical points do not depend on the scale
of their vectors and ratios are exact, so no output depends on the chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Literal, Mapping, Sequence

from .errors import DimensionMismatchError, DegenerateIntersectionError, GeometryError
from .linalg import det3
from .projective import HPoint, Subspace, _plane_brackets, join, meet, span_dim, transform_point

Direction = Literal["forward", "backward"]
Site = tuple[int, int]


@dataclass(frozen=True)
class GridDomain:
    """Inclusive index window [i_min..i_max] x [j_min..j_max]."""

    i_min: int
    i_max: int
    j_min: int
    j_max: int

    def __post_init__(self):
        if self.i_min > self.i_max or self.j_min > self.j_max:
            raise ValueError("empty grid domain")

    @property
    def width_i(self) -> int:
        """Number of quads along i (the a of a Sigma_{a,b} window)."""
        return self.i_max - self.i_min

    @property
    def width_j(self) -> int:
        return self.j_max - self.j_min

    def sites(self) -> Iterator[Site]:
        for j in range(self.j_min, self.j_max + 1):
            for i in range(self.i_min, self.i_max + 1):
                yield (i, j)

    def faces(self) -> Iterator[Site]:
        """Lower-left corners of the unit faces inside the window."""
        for j in range(self.j_min, self.j_max):
            for i in range(self.i_min, self.i_max):
                yield (i, j)

    def contains(self, site: Site) -> bool:
        i, j = site
        return self.i_min <= i <= self.i_max and self.j_min <= j <= self.j_max

    def shrunk(self) -> "GridDomain":
        """Window of a Laplace transform: one less quad in each axis,
        anchored at the same origin."""
        return GridDomain(self.i_min, self.i_max - 1, self.j_min, self.j_max - 1)

    def transposed(self) -> "GridDomain":
        return GridDomain(self.j_min, self.j_max, self.i_min, self.i_max)

    def sub(self, i_lo: int, i_hi: int, j_lo: int, j_hi: int) -> "GridDomain":
        if i_lo < self.i_min or i_hi > self.i_max or j_lo < self.j_min or j_hi > self.j_max:
            raise ValueError("subwindow leaves the domain")
        return GridDomain(i_lo, i_hi, j_lo, j_hi)


class QNet:
    """A finite window of projective points indexed by lattice sites.

    Construction checks shape and ambient dimension only; planarity and
    non-degeneracy are explicit predicates (validate_qnet,
    check_nondegenerate) so that defective nets can be represented and
    reported on.

    ``_memo`` holds what ``_face_transforms`` and ``_laplace`` computed
    from the points, per direction, and the bracket tables of the faces,
    for the life of the net.
    """

    __slots__ = ("domain", "ambient_dim", "_points", "_memo")

    def __init__(self, domain: GridDomain, ambient_dim: int, points: Mapping[Site, HPoint]):
        own: dict[Site, HPoint] = {}
        missing: list[Site] = []
        wrong = None
        size = ambient_dim + 1
        for site in domain.sites():
            p = points.get(site)
            if p is None:
                missing.append(site)
                continue
            if wrong is None and len(p.coords) != size:
                wrong = site
            own[site] = p
        if missing:
            raise ValueError("missing net points at %s" % (missing[:4],))
        if wrong is not None:
            raise DimensionMismatchError("point at %s has wrong ambient dimension" % (wrong,))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_points", own)
        object.__setattr__(self, "_memo", {"brackets": {}})

    def point(self, i: int, j: int) -> HPoint:
        return self._points[(i, j)]

    def __getitem__(self, site: Site) -> HPoint:
        return self._points[site]

    def points(self) -> dict[Site, HPoint]:
        return dict(self._points)

    def transposed(self) -> "QNet":
        pts = {(j, i): p for (i, j), p in self._points.items()}
        return QNet(self.domain.transposed(), self.ambient_dim, pts)

    def restricted(self, domain: GridDomain) -> "QNet":
        return QNet(domain, self.ambient_dim, self._points)

    def with_point(self, site: Site, p: HPoint) -> "QNet":
        pts = dict(self._points)
        pts[site] = p
        return QNet(self.domain, self.ambient_dim, pts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QNet)
            and self.domain == other.domain
            and self.ambient_dim == other.ambient_dim
            and self._points == other._points
        )

    def __repr__(self) -> str:
        d = self.domain
        return "QNet([%d..%d]x[%d..%d] in RP^%d)" % (
            d.i_min,
            d.i_max,
            d.j_min,
            d.j_max,
            self.ambient_dim,
        )

    def __setattr__(self, name, value):
        raise AttributeError("QNet is immutable")


@dataclass(frozen=True)
class DegeneracyReport:
    """Classification of a (possibly collapsed) iterated transform.

    kind 'laplace': constant across the transform direction's first index
    (a discrete curve); 'goursat': constant across the other index with no
    Laplace coincidence anywhere; 'mixed': Goursat-direction constancy
    with some Laplace coincidences; 'none' otherwise.  The witness is a
    pair of sites exhibiting the defining coincidence.
    """

    kind: Literal["none", "laplace", "goursat", "mixed"]
    direction: Direction
    witness: tuple[Site, Site] | None = None


@dataclass(frozen=True)
class TerminationReport:
    """Returned by laplace_iterate when the sequence stops early."""

    steps_completed: int
    requested: int
    direction: Direction
    report: DegeneracyReport
    last: QNet


def face_sites(face: Site) -> tuple[Site, Site, Site, Site]:
    i, j = face
    return ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))


def _brackets(points: Mapping[Site, HPoint], face: Site, cache: dict) -> tuple | None:
    """The bracket table ([012], [013], [023], [123]) of a face (see the
    module docstring), None also when its corners differ in length, kept in
    ``cache`` by face."""
    if face in cache:
        return cache[face]
    p0, p1, p2, p3 = (points[s].coords for s in face_sites(face))
    table = _plane_brackets(p0, p1, p2, p3) if len(p0) == len(p1) == len(p2) == len(p3) else None
    cache[face] = table
    return table


def _net_brackets(net: QNet, face: Site) -> tuple | None:
    return _brackets(net._points, face, net._memo["brackets"])


def _combine(u: int, p: HPoint, v: int, q: HPoint) -> HPoint | None:
    x = [u * y + v * z for y, z in zip(p.coords, q.coords)]
    return HPoint(x) if any(x) else None


def validate_qnet(net: QNet) -> list[Site]:
    """Faces whose four points do not lie in a plane (empty list = Q-net)."""
    return [face for face in net.domain.faces() if _net_brackets(net, face) is None]


def _spans_plane(a: HPoint, b: HPoint, c: HPoint) -> bool:
    p, q, r = a.coords, b.coords, c.coords
    return bool(3 <= len(p) == len(q) == len(r) and det3(p, q, r)) or span_dim([a, b, c]) == 2


def _face_defects(
    points: Mapping[Site, HPoint], face: Site, table: tuple | None = None
) -> Iterator[tuple]:
    """Non-degeneracy violations among the corners of a face held in ``points``.

    Yields ('edge', s, t) for the coincident ends of a face edge, then
    ('triple', face, (s, t, u)) for a vertex triple that does not span a
    plane, both in ``combinations`` order of the corners.  A triple is
    decided by the face's bracket table when given, else by its bracket
    and rank.
    """
    corners = [s for s in face_sites(face) if s in points]
    for s, t in combinations(corners, 2):
        if (s[0] == t[0] or s[1] == t[1]) and points[s] == points[t]:
            yield ("edge", s, t)
    for k, triple in enumerate(combinations(corners, 3)):
        if not (table[k] if table is not None else _spans_plane(*(points[s] for s in triple))):
            yield ("triple", face, triple)


def check_nondegenerate(net: QNet) -> list[tuple]:
    """Violations of non-degeneracy.

    Returns ('edge', s, t) for coincident edge endpoints, site by site with
    the edges to (i+1,j) and (i,j+1), then ('triple', face, (s, t, u)) for a
    face vertex triple that does not span a plane, face by face with the
    triples omitting corner 0, 1, 2, 3 of ``face_sites`` in turn.
    """
    edges: list[tuple] = []
    triples: list[tuple] = []
    pts, d = net._points, net.domain
    for site in d.sites():
        i, j = site
        for t in ((i + 1, j), (i, j + 1)):
            if t in pts and pts[site] == pts[t]:
                edges.append(("edge", site, t))
        if i < d.i_max and j < d.j_max:
            found = _face_defects(pts, site, _net_brackets(net, site))
            triples += reversed([v for v in found if v[0] == "triple"])
    return edges + triples


def net_span(net: QNet) -> Subspace:
    return join([net[s] for s in net.domain.sites()])


def check_extensive(net: QNet) -> bool:
    """True iff the net's points join an (a+b)-dimensional subspace."""
    target = net.domain.width_i + net.domain.width_j
    if net.ambient_dim < target:
        return False
    return span_dim([net[s] for s in net.domain.sites()]) == target


def check_extensive_sub(net: QNet, c: int, d: int) -> bool:
    """True iff every Sigma_{c,d} subwindow of the net is extensive."""
    dom = net.domain
    if c > dom.width_i or d > dom.width_j:
        raise ValueError("subwindow larger than the domain")
    if net.ambient_dim < c + d:
        return False
    for i in range(dom.i_min, dom.i_max - c + 1):
        for j in range(dom.j_min, dom.j_max - d + 1):
            sub = net.restricted(dom.sub(i, i + c, j, j + d))
            if span_dim([sub[s] for s in sub.domain.sites()]) != c + d:
                return False
    return True


def _check_edge(points: Mapping[Site, HPoint], s: Site, t: Site) -> None:
    if points[s] == points[t]:
        raise GeometryError("edge %s-%s degenerates to a point" % (s, t))


def _face_transform_point(
    points: Mapping[Site, HPoint], face: Site, direction: Direction, cache: dict | None = None
) -> HPoint:
    """Laplace transform point of one face of a net or of partial data,
    from the face's bracket table."""
    i, j = face
    if direction == "forward":
        e1, e2 = ((i, j), (i, j + 1)), ((i + 1, j), (i + 1, j + 1))
    else:
        e1, e2 = ((i, j), (i + 1, j)), ((i, j + 1), (i + 1, j + 1))
    try:
        _check_edge(points, *e1)
        _check_edge(points, *e2)
    except GeometryError as exc:
        raise GeometryError(
            "Laplace %s transform undefined on face %s: %s" % (direction, face, exc)
        ) from exc
    t = _brackets(points, face, {} if cache is None else cache)
    pt = None
    if t is not None:
        u, v = (t[2], t[0]) if direction == "forward" else (t[1], -t[0])
        pt = _combine(u, points[e2[0]], v, points[e2[1]])
    if pt is None:
        raise GeometryError(
            "Laplace %s transform undefined on face %s: edge lines do not meet in a point"
            % (direction, face)
        )
    return pt


def _face_transforms(net: QNet, direction: Direction) -> dict[Site, HPoint | GeometryError]:
    """Every face's transform point, or the GeometryError it raises,
    computed once per net and direction.  Callers must not mutate it.

    An error is kept as an unraised copy: the raised one's traceback would
    hold the frames of this call, and so the net, alive."""
    faces = net._memo.get(direction)
    if faces is None:
        faces = {}
        for face in net.domain.faces():
            try:
                faces[face] = _face_transform_point(net._points, face, direction, net._memo["brackets"])
            except GeometryError as exc:
                faces[face] = type(exc)(*exc.args)
        net._memo[direction] = faces
    return faces


def transform_points(net: QNet, direction: Direction) -> dict[Site, HPoint]:
    """Per-face transform points, skipping faces where the meet fails.

    Used by the invariants module so that one-sided degeneracies still
    yield the computable half of the invariant field.
    """
    return {f: p for f, p in _face_transforms(net, direction).items() if isinstance(p, HPoint)}


def _laplace(net: QNet, direction: Direction) -> QNet:
    """The single transform step, kept on the net; a failure is kept too and
    raised anew as the same type with the same message on every call."""
    key = ("step", direction)
    step = net._memo.get(key)
    if step is None:
        d = net.domain
        if d.width_i < 1 or d.width_j < 1:
            step = GeometryError("window has no faces to transform")
        else:
            faces = _face_transforms(net, direction)
            step = next((x for x in faces.values() if not isinstance(x, HPoint)), None)
            if step is None:
                step = QNet(d.shrunk(), net.ambient_dim, faces)
        net._memo[key] = step
    if isinstance(step, GeometryError):
        raise type(step)(*step.args)
    return step


def laplace_forward(net: QNet) -> QNet:
    """Forward Laplace transform: meet of the two vertical edge-lines of
    each face, on the window shrunk by one in each axis."""
    return _laplace(net, "forward")


def laplace_backward(net: QNet) -> QNet:
    """Backward Laplace transform: meet of the two horizontal edge-lines."""
    return _laplace(net, "backward")


def _coincidences(net: QNet, pairs: list) -> tuple[bool, tuple[Site, Site] | None]:
    """Whether the two points of every site pair coincide, and the first
    pair whose points do (None when none does)."""
    same = [(s, t) for s, t in pairs if net[s] == net[t]]
    return len(same) == len(pairs), next(iter(same), None)


def classify_degeneracy(net: QNet, direction: Direction) -> DegeneracyReport:
    """Classify a net reached by iterated transforms in the given direction.

    The direction is required input: constancy of the points alone cannot
    distinguish Laplace from Goursat degeneracy.  Laplace dominates: a net
    constant in both lattice directions is reported as 'laplace'.

    Backward is forward on the transposed net: the two pair lists and the
    two widths swap, and the witnesses are pairs of the net's own sites.
    """
    d = net.domain
    rows = [((i, j), (i + 1, j)) for j in range(d.j_min, d.j_max + 1) for i in range(d.i_min, d.i_max)]
    columns = [((i, j), (i, j + 1)) for i in range(d.i_min, d.i_max + 1) for j in range(d.j_min, d.j_max)]
    widths = (d.width_i, d.width_j)
    if direction == "backward":
        rows, columns, widths = columns, rows, widths[::-1]
    constant_in_i, laplace_witness = _coincidences(net, rows)
    if constant_in_i and widths[0] >= 1:
        return DegeneracyReport("laplace", direction, laplace_witness)
    constant_in_j, goursat_witness = _coincidences(net, columns)
    if constant_in_j and widths[1] >= 1:
        if laplace_witness is None:
            return DegeneracyReport("goursat", direction, goursat_witness)
        return DegeneracyReport("mixed", direction, laplace_witness)
    return DegeneracyReport("none", direction, None)


def laplace_iterate(net: QNet, m: int) -> QNet | TerminationReport:
    """m-fold Laplace transform (forward for m > 0, backward for m < 0).

    Returns the transformed net, or a TerminationReport if some
    intermediate net is degenerate so that the next step is undefined.
    """
    steps = abs(m)
    d = net.domain
    if steps > min(d.width_i, d.width_j):
        raise ValueError("window too small for %d transform steps" % steps)
    direction: Direction = "forward" if m >= 0 else "backward"
    cur = net
    for k in range(steps):
        try:
            cur = _laplace(cur, direction)
        except GeometryError:
            report = classify_degeneracy(cur, direction)
            if report.kind == "none":
                witness = _first_failing_face(cur, direction)
                report = DegeneracyReport("none", direction, witness)
            return TerminationReport(k, steps, direction, report, cur)
    return cur


def degenerate_transform(net: QNet, m: int, kind: str) -> QNet | None:
    """The m-fold transform (forward for m > 0, backward for m < 0) when the
    sequence reaches it and classify_degeneracy reports ``kind`` for it;
    None otherwise."""
    it = laplace_iterate(net, m)
    if isinstance(it, TerminationReport):
        return None
    return it if classify_degeneracy(it, "forward" if m >= 0 else "backward").kind == kind else None


def _first_failing_face(net: QNet, direction: Direction) -> tuple[Site, Site] | None:
    for (i, j), point in _face_transforms(net, direction).items():
        if not isinstance(point, HPoint):
            return ((i, j), (i + 1, j + 1))
    return None


def parameter_space(net: QNet, axis: Literal["row", "column"], index: int) -> Subspace:
    """Join of a full row (fixed j) or column (fixed i) of net points."""
    d = net.domain
    if axis == "column":
        if not d.i_min <= index <= d.i_max:
            raise ValueError("column index %d out of range" % index)
        return join([net[(index, j)] for j in range(d.j_min, d.j_max + 1)])
    if axis == "row":
        if not d.j_min <= index <= d.j_max:
            raise ValueError("row index %d out of range" % index)
        return join([net[(i, index)] for i in range(d.i_min, d.i_max + 1)])
    raise ValueError("axis must be 'row' or 'column'")


def column_space_meet(net: QNet) -> Subspace:
    """Intersection of all column parameter spaces of the window."""
    d = net.domain
    result = parameter_space(net, "column", d.i_min)
    for i in range(d.i_min + 1, d.i_max + 1):
        result = meet(result, parameter_space(net, "column", i))
    return result


def explicit_laplace(net: QNet, m: int) -> HPoint:
    """The m-th forward transform at the window origin, computed directly
    as the meet of the column joins of a Sigma_{m,m} window.

    For extensive windows this equals laplace_iterate(net, m) at the
    origin site.  A higher-dimensional intersection is surfaced as
    DegenerateIntersectionError carrying the subspace.
    """
    d = net.domain
    if d.width_i != m or d.width_j != m:
        raise ValueError("explicit transform needs a Sigma_{m,m} window")
    cap = column_space_meet(net)
    if cap.projective_dim != 0:
        raise DegenerateIntersectionError(
            "column spaces meet in dimension %d" % cap.projective_dim,
            cap,
            cap.projective_dim,
        )
    return cap.point()


def diagonal_intersection_net(net: QNet) -> QNet:
    """Net of per-face meets of the two diagonals (window shrinks by one)."""
    d = net.domain
    if d.width_i < 1 or d.width_j < 1:
        raise GeometryError("window has no faces")
    pts: dict[Site, HPoint] = {}
    for face in d.faces():
        i, j = face
        _check_edge(net, (i, j), (i + 1, j + 1))
        _check_edge(net, (i + 1, j), (i, j + 1))
        t = _net_brackets(net, face)
        x = None if t is None else _combine(t[1], net[(i, j + 1)], -t[2], net[(i + 1, j)])
        if x is None:
            raise GeometryError("diagonals of face %s do not meet in a point" % (face,))
        pts[face] = x
    return QNet(d.shrunk(), net.ambient_dim, pts)


def transform_net(matrix: Sequence[Sequence], net: QNet) -> QNet:
    """Apply a projective map (invertible matrix) to every net point."""
    pts = {s: transform_point(matrix, net[s]) for s in net.domain.sites()}
    return QNet(net.domain, net.ambient_dim, pts)
