"""Generators and boundary-data constructions.

Random non-degenerate Q-nets, nets with prescribed degenerations of the
first transform, BS-Koenigs extension from boundary strips, and the
unique completions with Laplace-degenerate m-fold transforms (one-sided
and symmetric).

All completions are computed in one extensive lift of the growing net:
admissible sets for a new corner point of a 3x3 window are generic only
upstairs (the face plane E meets the opposite-parity 3-space F in a line
there), and the completion subspaces all live inside the span of the
window's lifted points, where meets restrict exactly.  The boundary is
lifted by the same engine as complete nets (``lifts.lift_partial``, which
takes predecessor-closed partial data) through a center supplementary to
its span.  One ``Projector`` of that center and span, built with the
lift, forces the lifted points and projects each completed point back
down.

Every completion is one sweep, ``_complete``: a new point bound by both
the admissible line of the 3x3 window ending at its site and the
constancy space of its m-fold transform is pinned to their meet, using no
randomness; a point bound by one of them is a free choice on it.  Data
in RP^n with n > a+b complete in the pivot chart of their span.

Which lift is used depends on the sweep.  A pinned point is a meet of
subspaces defined projectively by the data below it, so a sweep that pins
every site (``extend_laplace_degenerate``, ``construct_double_degenerate``)
gives the same net under every lift; it lifts through the chart center,
the unit vectors at the non-pivot columns of the span's echelon form,
which is supplementary to the span by construction, needs no sampling
and projects by reading off the pivot coordinates.  A free
choice is a parameter on a line of the lift, and the same parameter names
different points under different lifts: the free sweeps
(``extend_bs_koenigs``, row 1 of ``bs_laplace_degenerate_m1``) change when
the sampled center or the staircase heights change.  They lift through a
center sampled by ``_sampled_projector`` with the fixed ``_LIFT_SEED``,
which the staircase heights use too, so that their seeded outputs are
reproducible.

A ``GeometryError`` of the lift engine surfaces here as
``ConstructionError``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Callable, Mapping

from .errors import ConstructionError, GeneralPositionError, GeometryError
from .invariants import _bs_koenigs_at, _ratio, is_bs_koenigs
from .lifts import RETRY_BUDGET, _sampled_projector, embed_and_lift, lift_partial
from .linalg import bareiss, reduce_row
from .projective import (
    HPoint,
    INFINITY,
    Projector,
    Subspace,
    join,
    meet,
    span_dim,
    transform_point,
)
from .qnet import (
    GridDomain,
    QNet,
    Site,
    TerminationReport,
    _brackets,
    _face_defects,
    _face_transform_point,
    _spans_plane,
    check_nondegenerate,
    column_space_meet,
    degenerate_transform,
    diagonal_intersection_net,
    face_sites,
    laplace_backward,
    laplace_forward,
    laplace_iterate,
    validate_qnet,
)

_LIFT_SEED = 0x51ED15


def _derive(seed: int, salt: int) -> int:
    """Deterministic child seed (tuple seeds would go through randomized
    hashing)."""
    return (int(seed) * 1000003 + salt) & 0x7FFFFFFFFFFFFFFF


def _retry(seed: int, tries: int, errors, message: str, attempt: Callable[[int, int], object]):
    """The result of the first ``attempt(_derive(seed, k), k)``, k = 0 ..
    tries - 1, that neither raises one of ``errors`` nor returns None;
    GeneralPositionError(message) when every attempt fails."""
    for k in range(tries):
        try:
            result = attempt(_derive(seed, k), k)
        except errors:
            continue
        if result is not None:
            return result
    raise GeneralPositionError(message)


@dataclass
class PartialNet:
    """Boundary data: a target window with points on part of its sites."""

    domain: GridDomain
    ambient_dim: int
    points: dict[Site, HPoint] = field(default_factory=dict)

    def is_complete(self) -> bool:
        return all(s in self.points for s in self.domain.sites())

    def to_qnet(self) -> QNet:
        return QNet(self.domain, self.ambient_dim, self.points)

    def restricted_from(self, net: QNet, keep: Callable[[Site], bool]) -> None:
        for s in net.domain.sites():
            if keep(s):
                self.points[s] = net[s]


def affine_grid(a: int, b: int) -> QNet:
    """The planar net [i : j : 1] on [0..a] x [0..b]."""
    dom = GridDomain(0, a, 0, b)
    pts = {(i, j): HPoint((i, j, 1)) for (i, j) in dom.sites()}
    return QNet(dom, 2, pts)


def _grid(dom: GridDomain, i_lo: int, j_lo: int) -> list[Site]:
    """The sites of ``dom`` from (i_lo, j_lo) on, row by row."""
    return [(i, j) for j in range(j_lo, dom.j_max + 1) for i in range(i_lo, dom.i_max + 1)]


def _rand_point(rng: random.Random, n: int) -> HPoint:
    while True:
        coords = [rng.randint(-9, 9) for _ in range(n + 1)]
        if any(coords):
            return HPoint(coords)


def _combination(rng: random.Random, rows) -> HPoint:
    """A nonzero combination of ``rows`` with seeded coefficients in -9..9."""
    while True:
        coords = [0] * len(rows[0])
        for row in rows:
            c = rng.randint(-9, 9)
            coords = [y + c * x for y, x in zip(coords, row)]
        if any(coords):
            return HPoint(coords)


def _fill_ok(points: Mapping[Site, HPoint], domain: GridDomain, site: Site, cand: HPoint) -> bool:
    """Non-degeneracy of every edge and face triple completed by `cand`:
    no defect of ``_face_defects`` involves the site."""
    i, j = site
    for face in ((i - 1, j - 1), (i, j - 1), (i - 1, j), (i, j)):
        others = [s for s in face_sites(face) if s != site and s in points and domain.contains(s)]
        for s in others:
            if (s[0] == i or s[1] == j) and points[s] == cand:
                return False
        for s, t in combinations(others, 2):
            if not _spans_plane(points[s], points[t], cand):
                return False
    return True


def _place(points: dict[Site, HPoint], domain: GridDomain, site: Site, draw: Callable, what: str) -> None:
    """Put at ``site`` the first of up to RETRY_BUDGET candidates from
    ``draw`` (None for one it rejects itself) that ``_fill_ok`` accepts."""
    for _ in range(RETRY_BUDGET):
        cand = draw()
        if cand is not None and _fill_ok(points, domain, site, cand):
            points[site] = cand
            return
    raise GeneralPositionError("no %s at %s" % (what, site))


def _fill_sites(
    points: dict[Site, HPoint],
    domain: GridDomain,
    sites: list[Site],
    rng: random.Random,
    n: int,
) -> None:
    """Fill the given sites in order: free random points where no filled
    face plane constrains them, in-plane random points otherwise."""
    for site in sites:
        i, j = site
        preds = ((i - 1, j - 1), (i - 1, j), (i, j - 1))
        if all(p in points for p in preds):
            plane = [points[p].coords for p in preds]
            _place(points, domain, site, lambda: _combination(rng, plane), "valid random point")
        else:
            _place(points, domain, site, lambda: _rand_point(rng, n), "valid random point")


def _toward(base: HPoint, apex: HPoint, num: int, den: int = 1) -> HPoint | None:
    """The point base + (num / den) apex, None when it is the apex."""
    cand = HPoint([den * x + num * z for x, z in zip(base.coords, apex.coords)])
    return None if cand == apex else cand


def _first_transforms_generic(net: QNet) -> bool:
    """Both single transforms exist and are non-degenerate nets, so that
    the composites and second transforms are defined too."""
    if net.domain.width_i < 1 or net.domain.width_j < 1:
        return True
    try:
        fwd = laplace_forward(net)
        bwd = laplace_backward(net)
    except GeometryError:
        return False
    return not check_nondegenerate(fwd) and not check_nondegenerate(bwd)


def random_qnet(a: int, b: int, n: int, seed: int) -> QNet:
    """Seeded random non-degenerate Q-net on [0..a] x [0..b] in RP^n.

    Small integer coordinates make exact local singularities of the first
    transforms possible, so seeds retry deterministically until both
    single transforms are themselves non-degenerate.
    """
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")

    def attempt(s: int, k: int) -> QNet | None:
        rng = random.Random(s)
        dom = GridDomain(0, a, 0, b)
        pts: dict[Site, HPoint] = {}
        _fill_sites(pts, dom, _grid(dom, 0, 0), rng, n)
        net = QNet(dom, n, pts)
        if validate_qnet(net) or check_nondegenerate(net) or not _first_transforms_generic(net):
            return None
        return net

    return _retry(seed, 16, GeneralPositionError, "random net failed validation", attempt)


def random_laplace_degenerate_net(a: int, b: int, n: int, seed: int) -> QNet:
    """Random non-degenerate net whose forward transform collapses:
    consecutive rows are perspective from a common point, so all vertical
    edge-lines of a row of faces are concurrent."""
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")

    def attempt(s: int, k: int) -> QNet | None:
        rng = random.Random(s)
        dom = GridDomain(0, a, 0, b)
        pts: dict[Site, HPoint] = {}
        _fill_sites(pts, dom, [(i, 0) for i in range(a + 1)], rng, n)
        for j in range(b):
            center = _rand_point(rng, n)
            for i in range(a + 1):
                base = pts[(i, j)]
                _place(pts, dom, (i, j + 1), lambda: _toward(base, center, rng.randint(1, 9)), "line point")
        net = QNet(dom, n, pts)
        if check_nondegenerate(net) or degenerate_transform(net, 1, "laplace") is None:
            return None
        return net

    return _retry(seed, 8, GeneralPositionError, "could not build a Laplace-degenerate instance", attempt)


def random_goursat_net(a: int, b: int, n: int, seed: int) -> QNet:
    """Random net whose first forward transform is Goursat degenerate.

    Columns lie on lines, consecutive lines intersect: every face is
    automatically planar, and the forward transform point of a face is the
    intersection of its two column lines, constant along the column.
    """
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")

    def attempt(s: int, k: int) -> QNet | None:
        rng = random.Random(s)
        dom = GridDomain(0, a, 0, b)
        pts: dict[Site, HPoint] = {}
        lines = [join([_rand_point(rng, n), _rand_point(rng, n)])]
        if lines[0].projective_dim != 1:
            return None
        for _ in range(a):
            apex = _combination(rng, lines[-1].scaled_basis[1])
            nxt = join([apex, _rand_point(rng, n)])
            if nxt.projective_dim != 1 or nxt == lines[-1]:
                return None
            lines.append(nxt)
        for i in range(a + 1):
            for j in range(b + 1):
                _place(pts, dom, (i, j), lambda: _combination(rng, lines[i].scaled_basis[1]), "column point")
        net = QNet(dom, n, pts)
        if check_nondegenerate(net) or degenerate_transform(net, 1, "goursat") is None:
            return None
        return net

    return _retry(seed, 8, GeneralPositionError, "could not build a Goursat-degenerate instance", attempt)


class _LiftContext:
    """A growing net kept together with an extensive lift of itself: ``down``
    holds the points in RP^n, ``up`` their lifts in RP^{a+b}.

    The center is the chart center when ``pinned`` (every site the sweep
    visits is pinned), the one sampled with ``_LIFT_SEED`` otherwise; see
    the module docstring."""

    def __init__(self, boundary: PartialNet, pinned: bool = False):
        dom = boundary.domain
        self.domain = dom
        self.n = boundary.ambient_dim
        big = dom.width_i + dom.width_j
        if self.n > big:
            raise ConstructionError(
                "ambient RP^%d exceeds the maximal joined dimension %d" % (self.n, big)
            )
        self.down: dict[Site, HPoint] = dict(boundary.points)
        pad = (0,) * (big - self.n)
        embedded = {s: HPoint(p.coords + pad) for s, p in self.down.items()}
        # n + 1 independent points already join all of RP^n.  Zero columns
        # leave the canonical echelon form of the join as it is.
        points = list(self.down.values())
        first = [p.coords for p in points[: self.n + 1]]
        if len(first) == self.n + 1 and len(bareiss(first, self.n + 1)[0]) == self.n + 1:
            down = Subspace.full(self.n)
        else:
            down = join(points)
        screen = Subspace(big, tuple(r + pad for r in down.rows), down.pivots)
        if pinned:
            free = [c for c in range(big + 1) if c not in down.pivots]
            units = tuple(tuple(int(c == t) for c in range(big + 1)) for t in free)
            self.projector = Projector(Subspace(big, units, tuple(free)), screen)
        else:
            self.projector = _sampled_projector(screen, _LIFT_SEED)
        try:
            self.up = lift_partial(embedded, dom, self.projector, _LIFT_SEED)
        except GeometryError as exc:
            raise ConstructionError(str(exc)) from exc

    def add(self, site: Site, up_pt: HPoint) -> HPoint:
        """Register a new lifted point; returns its downstairs projection.

        A point of the center or a non-degeneracy violation raises
        ConstructionError (``_add_on_line`` draws again).  Lifted points
        project to their points downstairs, and projecting never raises
        rank, so the test downstairs covers the lift too.
        """
        image = self.projector.apply(up_pt.coords)
        if not any(image):
            raise ConstructionError("lift point has no projection")
        down = HPoint(image[: self.n + 1])
        if not _fill_ok(self.down, self.domain, site, down):
            raise ConstructionError("completion at %s is degenerate" % (site,), site)
        self.down[site] = down
        self.up[site] = up_pt
        return down

    def net(self) -> QNet:
        return QNet(self.domain, self.n, self.down)


def _bs_line(ctx: _LiftContext, i: int, j: int) -> Subspace:
    """Admissible line for the top-right corner of the 3x3 window ending
    at (i,j): meet of the lifted face plane with the 3-space joined by the
    window's even-parity known points.

    The plane is spanned by a = (i-1, j-1), which lies in the 3-space too,
    and b, c.  With the 3-space's rows forward-eliminated, the residuals
    r_b = m_b b - w_b and r_c = m_c c - w_c are zero in its pivot columns,
    so beta b + gamma c lies in the 3-space exactly when
    (beta / m_b) r_b + (gamma / m_c) r_c = 0.  The meet is the line through
    a and that point when r_b and r_c are dependent and not both zero;
    otherwise it is the point a (independent residuals) or the whole
    plane (both zero).
    """
    up = ctx.up
    a, b, c = up[(i - 1, j - 1)], up[(i, j - 1)], up[(i - 1, j)]
    if span_dim([a, b, c]) != 2:
        raise ConstructionError("degenerate face plane at %s" % ((i, j),), (i, j))
    f_rows = [up[(i - 2, j - 2)].coords, a.coords, up[(i, j - 2)].coords, up[(i - 2, j)].coords]
    pivots = bareiss(f_rows, len(a.coords))[0]
    if len(pivots) != 4:
        raise ConstructionError("degenerate diagonal 3-space at %s" % ((i, j),), (i, j))
    rb, mb = reduce_row(b.coords, f_rows, pivots)
    rc, mc = reduce_row(c.coords, f_rows, pivots)
    k = next((k for k, x in enumerate(rb) if x), None)
    if k is None:
        point = None if not any(rc) else b
    elif not any(rc):
        point = c
    elif all(rc[k] * x == rb[k] * y for x, y in zip(rb, rc)):
        beta, gamma = rc[k] * mb, -rb[k] * mc
        g = gcd(beta, gamma)
        point = HPoint([beta // g * x + gamma // g * y for x, y in zip(b.coords, c.coords)])
    else:
        point = None
    if point is None:
        raise ConstructionError("admissible set at %s is not a line" % ((i, j),), (i, j))
    return join([a, point])


def _line_point(line: Subspace, t) -> HPoint:
    _, (g1, g2) = line.scaled_basis
    if t is INFINITY:
        return HPoint(g2)
    t = Fraction(t)
    return HPoint([t.denominator * a + t.numerator * b for a, b in zip(g1, g2)])


def _add_on_line(ctx: _LiftContext, site: Site, line: Subspace, rng: random.Random) -> HPoint:
    """Register at ``site`` the first of up to RETRY_BUDGET seeded points of
    ``line`` that ``_LiftContext.add`` accepts; returns its projection."""
    for _ in range(RETRY_BUDGET):
        cand = _line_point(line, Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
        try:
            return ctx.add(site, cand)
        except ConstructionError:
            pass
    raise GeneralPositionError("no admissible choice at %s" % (site,))


def _complete(
    boundary: PartialNet,
    sites: list[tuple[Site, bool]],
    m: int,
    rng: random.Random | None = None,
    choices: Mapping[Site, Fraction] | None = None,
) -> QNet:
    """Complete ``boundary`` in its lift by the module docstring's rule, site
    by site; a transposed site's constancy space is the backward one (the
    admissible line is symmetric).  Free sites use ``choices`` or ``rng``.
    A point given at a pinned site must be the completion there.

    Data in RP^n with n > a+b complete in the pivot chart of their span, a
    projective isomorphism onto RP^d, and map back by its basis rows.  Q-net
    data have d <= a+b; ``_LiftContext`` rejects data with d > a+b."""
    validate_boundary(boundary)
    dom = boundary.domain
    big = dom.width_i + dom.width_j
    if boundary.ambient_dim > big:
        span = join(list(boundary.points.values()))
        if span.projective_dim <= big:
            chart = {s: HPoint(span.point_coords(p)) for s, p in boundary.points.items()}
            net = _complete(PartialNet(dom, span.projective_dim, chart), sites, m, rng, choices)
            back = list(zip(*span.scaled_basis[1]))
            points = {s: transform_point(back, p) for s, p in net.points().items()}
            return QNet(dom, boundary.ambient_dim, points)
    has_line = [dom.contains((i - 2, j - 2)) for (i, j), _ in sites]
    ctx = _LiftContext(boundary, m > 0 and all(has_line))
    for (site, transposed), line in zip(sites, has_line):
        spaces = []
        if line:
            spaces.append(_bs_line(ctx, *site))
        if m > 0:
            spaces.append(_constancy_space(ctx, site, m, transposed))
        if len(spaces) == 2:
            hit = meet(*spaces)
            if hit.projective_dim != 0:
                raise ConstructionError("no unique completion at %s" % (site,), site)
            down = ctx.add(site, hit.point())
            if site in boundary.points and boundary.points[site] != down:
                raise ConstructionError("given point at %s is not the unique completion" % (site,), site)
        elif choices is not None and site in choices:
            ctx.add(site, _line_point(spaces[0], choices[site]))
        else:
            _add_on_line(ctx, site, spaces[0], rng)
    return ctx.net()


def _finish(net: QNet, steps: tuple[int, ...], what: str) -> QNet:
    """``net``, once its ``steps``-fold transforms are Laplace degenerate
    and it passes the Koenigs product check."""
    for k in steps:
        if degenerate_transform(net, k, "laplace") is None:
            raise ConstructionError("transform %d is not Laplace degenerate" % k)
    if not is_bs_koenigs(net):
        raise ConstructionError("%s failed the Koenigs product check" % what)
    return net


def _require_sites(boundary: PartialNet, keep: Callable[[Site], bool], what: str) -> None:
    missing = [s for s in boundary.domain.sites() if keep(s) and s not in boundary.points]
    if missing:
        raise ConstructionError("%s boundary is missing %s" % (what, missing[:4]))


def validate_boundary(boundary: PartialNet) -> None:
    """Eager boundary checks: planarity and non-degeneracy of every fully
    given face, and the Koenigs product condition on every complete 3x3
    subwindow of the data.

    The product is read off the face tables: every face of a complete
    window passed both checks first, so its four brackets are nonzero and
    H and K are defined on all of the window's inner edges."""
    pts = boundary.points
    dom = boundary.domain
    tables: dict = {}
    for face in dom.faces():
        corners = [pts[s] for s in face_sites(face) if s in pts]
        table = None
        if len(corners) == 4:
            table = _brackets(pts, face, tables)
            if table is None and span_dim(corners) > 2:
                raise ConstructionError("boundary face %s is not planar" % (face,), face)
        for defect in _face_defects(pts, face, table=table):
            if defect[0] == "edge":
                raise ConstructionError("boundary edge %s-%s collapses" % defect[1:], defect[1])
            triple = defect[2]
            raise ConstructionError("boundary triple %s is collinear" % (triple,), triple[0])
    for p in range(dom.i_min, dom.i_max - 1):
        for q in range(dom.j_min, dom.j_max - 1):
            if all((p + di, q + dj) in pts for dj in range(3) for di in range(3)):
                h = {(p + 1, l): _ratio("H", (p + 1, l), tables[(p + 1, l)], tables[(p, l)]) for l in (q, q + 1)}
                k = {(l, q + 1): _ratio("K", (l, q + 1), tables[(l, q + 1)], tables[(l, q)]) for l in (p, p + 1)}
                if not _bs_koenigs_at(h, k, (p + 1, q)):
                    raise ConstructionError(
                        "boundary window at (%d,%d) violates the Koenigs condition" % (p, q),
                        (p, q),
                    )


def extend_bs_koenigs(
    boundary: PartialNet,
    seed: int | None = None,
    choices: Mapping[Site, Fraction] | None = None,
) -> QNet:
    """Complete boundary strips of width one to a BS-Koenigs net.

    Each missing point is chosen on the admissible line of its 3x3
    window, parametrized either by an explicit rational per site or by a
    seeded sample; every choice leaves one projective degree of freedom.
    """
    dom = boundary.domain
    _require_sites(
        boundary,
        lambda s: s[0] <= dom.i_min + 1 or s[1] <= dom.j_min + 1,
        "Koenigs strip",
    )
    sites = [(s, False) for s in _grid(dom, dom.i_min + 2, dom.j_min + 2) if s not in boundary.points]
    return _finish(_complete(boundary, sites, 0, random.Random(seed or 0), choices), (), "extension")


def random_bs_strips(a: int, b: int, n: int, seed: int) -> PartialNet:
    """Random non-degenerate width-one strips as extension boundary data."""
    rng = random.Random(seed)
    dom = GridDomain(0, a, 0, b)
    pts: dict[Site, HPoint] = {}
    _fill_sites(pts, dom, [s for s in _grid(dom, 0, 0) if s[0] <= 1 or s[1] <= 1], rng, n)
    return PartialNet(dom, n, pts)


def _strips_generic(strips: PartialNet) -> bool:
    """False when the faces lying wholly in the strips already fail
    ``_first_transforms_generic``: in either direction, a face transform
    point is undefined or two neighbouring faces share one (an edge of the
    transform collapses).  A completion keeps the strip points, so every
    completion of such strips fails that check too."""
    dom = strips.domain
    column = [(dom.i_min, j) for j in range(dom.j_min, dom.j_max)]
    row = [(i, dom.j_min) for i in range(dom.i_min, dom.i_max)]
    tables: dict = {}
    for direction in ("forward", "backward"):
        for faces in (column, row):
            try:
                zs = [_face_transform_point(strips.points, f, direction, tables) for f in faces]
            except GeometryError:
                return False
            if any(z == w for z, w in zip(zs, zs[1:])):
                return False
    return True


def random_bs_koenigs(a: int, b: int, n: int, seed: int) -> QNet:
    """Seeded random BS-Koenigs net (random strips + Koenigs extension).

    Every attempt draws fresh strips.  The first eight extend them with the
    caller's seed, so a degenerate choice on the admissible lines can repeat
    in all of them; the eight after that also draw a fresh extension seed.
    Strips that ``_strips_generic`` rejects are not extended.
    """

    def attempt(s: int, k: int) -> QNet | None:
        strips = random_bs_strips(a, b, n, s)
        if not _strips_generic(strips):
            return None
        net = extend_bs_koenigs(strips, seed=seed if k < 8 else s)
        if not _first_transforms_generic(net):
            return None
        if a >= 1 and b >= 1:
            try:
                if check_nondegenerate(diagonal_intersection_net(net)):
                    return None
            except GeometryError:
                return None
        return net

    message = "could not build a random Koenigs net (seed %r)" % seed
    return _retry(seed, 16, (ConstructionError, GeneralPositionError), message, attempt)


def _constancy_space(ctx: _LiftContext, site: Site, m: int, transposed: bool = False) -> Subspace:
    """The m-space joined by the lifted m-fold forward transform point z of
    the Sigma_{m,m} window left of ``site`` and the m points below
    ``site``: the window ending at ``site`` has transform z exactly when
    the point there lies in that space.

    z is computed by m steps of face transforms.  The window lies in the
    complete lifted rectangle from the lift's staircase to its far corner,
    which is extensive, so the window is extensive too, and there the
    iterated transform is the meet of the window's column joins
    (``explicit_laplace``).  Only when the iteration terminates is that
    meet computed, for its error.

    Transposed, rows and columns swap: the m-fold backward transform."""

    def at(a: int, b: int) -> Site:
        return (b, a) if transposed else (a, b)

    i, j = at(*site)
    p, q = i - m - 1, j - m
    window = GridDomain(p, p + m, q, q + m)
    big = ctx.domain.width_i + ctx.domain.width_j
    net = QNet(window, big, {s: ctx.up[at(*s)] for s in window.sites()})
    z = laplace_iterate(net, m)
    if isinstance(z, TerminationReport):
        z = column_space_meet(net)
        if z.projective_dim != 0:
            raise ConstructionError("window transform at (%d,%d) is not a point" % at(p, q), site)
    else:
        z = z[(p, q)]
    space = join([z] + [ctx.up[at(i, l)] for l in range(q, q + m)])
    if space.projective_dim != m:
        raise ConstructionError("degenerate constancy space at %s" % (site,), site)
    return space


def extend_laplace_degenerate(boundary: PartialNet, m: int) -> QNet:
    """Unique BS-Koenigs completion with Laplace-degenerate m-th transform.

    Boundary: columns i_min..i_min+m on all rows plus rows
    j_min..j_min+m-1 on all columns.  Requires m >= 2 (with a 2x2-quad
    window there is no Koenigs condition, so no admissible line exists
    for m = 1); consumes no randomness.
    """
    if m < 2:
        raise ValueError("unique completion needs m >= 2")
    dom = boundary.domain
    if dom.width_i < m + 1 or dom.width_j < m:
        raise ConstructionError("window too small for an m=%d completion" % m)
    _require_sites(
        boundary,
        lambda s: s[0] <= dom.i_min + m or s[1] <= dom.j_min + m - 1,
        "Laplace-degenerate",
    )
    sites = [(s, False) for s in _grid(dom, dom.i_min + m + 1, dom.j_min + m)]
    return _finish(_complete(boundary, sites, m), (m,), "completion")


def construct_double_degenerate(boundary: PartialNet, m: int) -> QNet:
    """Unique BS-Koenigs completion with Laplace-degenerate m-th transform
    in both directions.

    For m >= 2 the boundary is the two width-(m-1) strips plus the single
    point (m,m); the corner sweep applies the forward completion along row
    m, the backward completion along column m, and forward completions in
    the interior, backward degeneracy then propagating by the coupling of
    the two directions.  For m = 1 the boundary is the width-one strips,
    which carry both constancy constraints themselves
    (``double_degenerate_boundary``); every site from (2,2) on is pinned
    by its admissible line and its forward constancy line, and the
    backward degeneracy of the result is verified, not assumed.
    """
    if m < 1:
        raise ValueError("m must be positive")
    dom = boundary.domain
    if dom.width_i < m + 1 or dom.width_j < m + 1:
        raise ConstructionError("window too small for a double m=%d completion" % m)
    if m == 1:
        _require_sites(
            boundary,
            lambda s: s[0] <= dom.i_min + 1 or s[1] <= dom.j_min + 1,
            "double-degenerate strip",
        )
        sites = [(s, False) for s in _grid(dom, dom.i_min + 2, dom.j_min + 2)]
        return _finish(_complete(boundary, sites, 1), (1, -1), "double m=1 net")
    origin = (dom.i_min + m, dom.j_min + m)
    _require_sites(
        boundary,
        lambda s: s[0] <= dom.i_min + m - 1 or s[1] <= dom.j_min + m - 1 or s == origin,
        "double-degenerate",
    )
    sites = [(s, s[0] == origin[0]) for s in _grid(dom, *origin) if s != origin]
    return _finish(_complete(boundary, sites, m), (m, -m), "completion")


def bs_laplace_degenerate_m1(a: int, b: int, n: int, seed: int) -> QNet:
    """Random BS-Koenigs net with Laplace-degenerate first transform and
    generically non-degenerate backward sequence.

    Boundary: columns 0,1 and row 0.  Row 1 keeps one seeded free choice
    per quad on the line forcing the transform-point repetition; from row
    2 on, that line and the Koenigs line intersect in the unique point.
    """
    message = "could not build an m=1 degenerate Koenigs net"
    attempt = lambda s, k: _bs_laplace_m1_attempt(a, b, n, s)
    return _retry(seed, 8, (ConstructionError, GeneralPositionError), message, attempt)


def _bs_laplace_m1_attempt(a: int, b: int, n: int, seed: int) -> QNet:
    rng = random.Random(seed)
    dom = GridDomain(0, a, 0, b)
    pts: dict[Site, HPoint] = {}
    _fill_sites(pts, dom, [s for s in _grid(dom, 0, 0) if s[0] <= 1 or s[1] == 0], rng, n)
    # Row 1 is free on its constancy lines.  Each holds the window point z, whose
    # projection is collinear with the column (i-1, 0)-(i-1, 1): ctx.add rejects it.
    sites = [(s, False) for s in _grid(dom, 2, 1)]
    net = _finish(_complete(PartialNet(dom, n, pts), sites, 1, rng), (1,), "m=1 net")
    if min(a, b) >= 2 and isinstance(laplace_iterate(net, -2), TerminationReport):
        raise ConstructionError("backward sequence terminated before step 2")
    return net


def laplace_degenerate_boundary(m: int, a: int, b: int, n: int, seed: int) -> PartialNet:
    """Boundary strips for extend_laplace_degenerate, cut from a random
    BS-Koenigs net."""
    base = random_bs_koenigs(a, b, n, seed)
    out = PartialNet(base.domain, n)
    out.restricted_from(base, lambda s: s[0] <= m or s[1] <= m - 1)
    return out


def double_degenerate_boundary(m: int, a: int, b: int, n: int, seed: int) -> PartialNet:
    """Strips plus corner point for construct_double_degenerate.

    For m >= 2 the width-(m-1) strips of a random Koenigs net restrict
    nothing; for m = 1 the width-one strips already carry the constancy
    constraints (both strips must consist of quads perspective from one
    point each), so those are built directly.
    """
    if m == 1:
        return _double_m1_boundary(a, b, n, seed)
    return double_boundary_of(random_bs_koenigs(a, b, n, seed), m)


def double_boundary_of(base: QNet, m: int) -> PartialNet:
    """The width-(m-1) strips and the (m, m) point of a Koenigs net, the
    boundary ``double_degenerate_boundary`` cuts for m >= 2."""
    out = PartialNet(base.domain, base.ambient_dim)
    out.restricted_from(base, lambda s: s[0] <= m - 1 or s[1] <= m - 1 or s == (m, m))
    return out


def _double_m1_boundary(a: int, b: int, n: int, seed: int) -> PartialNet:
    def attempt(s: int, k: int) -> PartialNet:
        rng = random.Random(s)
        dom = GridDomain(0, a, 0, b)
        pts: dict[Site, HPoint] = {}
        _fill_sites(pts, dom, [(i, 0) for i in range(a + 1)], rng, n)
        z0 = _rand_point(rng, n)
        _fill_on_lines(pts, dom, [((i, 1), (i, 0)) for i in range(a + 1)], z0, rng)
        w0 = _face_transform_point(pts, (0, 0), "backward")
        _fill_sites(pts, dom, [(0, j) for j in range(2, b + 1)], rng, n)
        _fill_on_lines(pts, dom, [((1, j), (0, j)) for j in range(2, b + 1)], w0, rng)
        return PartialNet(dom, n, pts)

    errors = (GeneralPositionError, GeometryError)
    return _retry(seed, 8, errors, "could not build consistent m=1 strips", attempt)


def _fill_on_lines(pts: dict[Site, HPoint], dom: GridDomain, targets: list, apex: HPoint, rng: random.Random) -> None:
    """Place each (target, base) site pair's target on the line through the
    base point and the apex."""
    for target, base in targets:
        draw = lambda: _toward(pts[base], apex, rng.randint(1, 9), rng.randint(1, 4))
        _place(pts, dom, target, draw, "line point")


def bs_goursat_net(m: int, a: int, b: int, seed: int) -> QNet:
    """Random BS-Koenigs net whose m-th forward transform is Goursat
    degenerate.

    Built from a net with Laplace-degenerate transform one step later: its
    extensive lift has every column space through the join of the constant
    transform points, and projecting from that join drops all column
    parameter spaces to dimension m while preserving the invariants.
    """
    if b < m + 2:
        raise ValueError("need at least m+2 rows of quads for the projection step")
    errors = (ConstructionError, GeneralPositionError, GeometryError)
    message = "could not build a Goursat-degenerate Koenigs net"
    return _retry(seed, 8, errors, message, lambda s, k: _bs_goursat_attempt(m, a, b, s))


def _bs_goursat_attempt(m: int, a: int, b: int, seed: int) -> QNet:
    rng = random.Random(seed)
    mp = m + 1
    boundary = laplace_degenerate_boundary(mp, a, b, 3, rng.randrange(2**30))
    base = extend_laplace_degenerate(boundary, mp)
    lifted = embed_and_lift(base, rng.randrange(2**30)).lifted
    fwd = laplace_iterate(lifted, mp)
    if isinstance(fwd, TerminationReport):
        raise ConstructionError("lifted sequence terminated early")
    fd = fwd.domain
    zs = [fwd[(fd.i_min, j)] for j in range(fd.j_min, fd.j_max + 1)]
    center = join(zs)
    if center.projective_dim != b - m - 1:
        raise ConstructionError("constant transform points are not in general position")
    project = _sampled_projector(center, rng.randrange(2**30), onto_span=False)
    screen = project.screen
    pts = {s: HPoint(screen.point_coords(project(lifted[s]))) for s in lifted.domain.sites()}
    net = QNet(lifted.domain, a + m, pts)
    if check_nondegenerate(net):
        raise ConstructionError("projected net is degenerate")
    if degenerate_transform(net, m, "goursat") is None:
        raise ConstructionError("projected transform is not Goursat degenerate")
    return _finish(net, (), "projected net")
