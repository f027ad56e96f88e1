"""Lifting Q-nets to extensive nets and the alternating-hyperplane quadric.

A Sigma_{a,b} net joining less than a+b dimensions inside RP^{a+b} can be
lifted through a central projection to an extensive net with the same
Laplace invariants: choose preimages freely along a staircase of sites so
that they span everything, then every other preimage is forced by the
face planes: it is the point of its lifted predecessor plane that the
projection maps to the site's point.  One engine, ``lift_partial``, does
this for any data closed under predecessors, given the ``Projector`` of the
center and the screen the data lies in: ``lift`` runs it on a complete net,
and the boundary-data constructions in ``construct`` run it on their
boundary.

An extensive BS-Koenigs net is inscribed in a pair of distinct
hyperplanes, alternating with the parity of i+j; their union, viewed as
the rank-2 degenerate quadric u1 u2^T + u2 u1^T, drives the termination
arguments: the singular locus is the intersection of the two hyperplanes,
and conjugacy of opposite iterated transform points detects incidence of
the far corner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Mapping

from .errors import (
    DimensionMismatchError,
    ExistenceError,
    GeneralPositionError,
    GeometryError,
    NotBSKoenigsError,
)
from .linalg import kernel, primitive, reduce_row
from .projective import (
    HPoint,
    Projector,
    Quadric,
    Subspace,
    _plane_brackets,
    join,
    meet,
    singular_locus,
)
from .qnet import (
    GridDomain,
    QNet,
    Site,
    TerminationReport,
    check_extensive,
    laplace_iterate,
    net_span,
)

RETRY_BUDGET = 64


@dataclass(frozen=True)
class LiftResult:
    """An extensive lift together with the projection that undoes it."""

    lifted: QNet
    center: Subspace
    screen: Subspace
    seed: int

    @cached_property
    def _projector(self) -> Projector:
        return Projector(self.center, self.screen)

    def project_point(self, p: HPoint) -> HPoint:
        return self._projector(p)


@dataclass(frozen=True)
class HyperplanePair:
    """Two distinct hyperplanes and their union as a degenerate quadric."""

    u1: Subspace
    u2: Subspace
    quadric: Quadric


def staircase_point(
    site: Site, base: HPoint, center: Subspace, chosen: list, rng: random.Random
) -> HPoint:
    """A free lift choice: ``base`` plus a seeded random combination of the
    center's basis rows, redrawn until it extends the span of the points
    chosen so far.

    ``chosen`` holds those points as fraction-free reduced rows with their
    pivot columns, each row zero in the pivots of the rows before it; a
    candidate extends the span exactly when its residual by them
    (``linalg.reduce_row``) is nonzero, and that residual, made primitive,
    is appended with its first nonzero column.  The coefficients are drawn
    row by row and the candidate is formed column by column."""
    scale, steps = center.scaled_basis
    columns = [tuple(step[c] for step in steps) for c in range(len(base.coords))]
    for _ in range(RETRY_BUDGET):
        lams = [rng.randint(-9, 9) for _ in steps]
        vec = [scale * x + sum(map(mul, lams, col)) for x, col in zip(base.coords, columns)]
        residual = reduce_row(vec, [row for row, _ in chosen], [c for _, c in chosen])[0]
        if any(residual):
            chosen.append((primitive(residual), next(c for c, x in enumerate(residual) if x)))
            return HPoint(vec)
    raise GeneralPositionError("no spanning lift choice at %s" % (site,))


def lift_partial(
    points: Mapping[Site, HPoint], domain: GridDomain, projector: Projector, seed: int
) -> dict[Site, HPoint]:
    """Lift points given on a predecessor-closed part of the domain, all on
    the projector's screen, through its center.

    Sites are visited row by row.  The staircase sites (bottom row and left
    column) are free choices drawn by ``staircase_point`` from one seeded
    stream; every other site needs its three predecessors and is forced by
    ``_forced_point`` into their lifted face plane.  An empty center lifts
    every point to itself.
    """
    center = projector.center
    if center.is_empty:
        return dict(points)
    rng = random.Random(seed)
    chosen: list = []
    lifted: dict[Site, HPoint] = {}
    images: dict[Site, list[int]] = {}
    for site in sorted(points, key=lambda s: (s[1], s[0])):
        if domain.contains(site) and (site[0] == domain.i_min or site[1] == domain.j_min):
            lifted[site] = staircase_point(site, points[site], center, chosen, rng)
            continue
        i, j = site
        preds = ((i - 1, j - 1), (i - 1, j), (i, j - 1))
        if any(p not in lifted for p in preds):
            raise GeometryError("lift data is not predecessor-closed at %s" % (site,))
        for p in preds:
            if p not in images:
                images[p] = projector.apply(lifted[p].coords)
        lifted[site] = _forced_point(
            site, points[site], [lifted[p] for p in preds], [images[p] for p in preds], center
        )
    return lifted


def _forced_point(
    site: Site, point: HPoint, plane: list[HPoint], images: list[list[int]], center: Subspace
) -> HPoint:
    """The point x = sum l_k u_k of the plane of u_0, u_1, u_2 whose image
    sum l_k w_k (w_k the images of the u_k) is proportional to ``point``.

    With t the bracket table of w_0, w_1, w_2 and ``point`` q in a chart of
    their plane (``projective._plane_brackets``), t[0] q = t[3] w_0 -
    t[2] w_1 + t[1] w_2 (Cramer's rule), so l = (t[3], -t[2], t[1]); there
    is no such x when q is off the plane of the images (no table).  When
    t[0] = 0 the images do not span a plane, the lifted plane meets the
    center, and x is the meet of the line through ``point`` and the center
    with the lifted plane.
    """
    t = _plane_brackets(*images, point.coords)
    if t is None:
        raise GeometryError("lift meet at %s is not a single point" % (site,))
    if not t[0]:
        pt = meet(join([point, center]), join(plane))
        if pt.projective_dim != 0:
            raise GeometryError("lift meet at %s is not a single point" % (site,))
        return pt.point()
    u0, u1, u2 = (u.coords for u in plane)
    return HPoint([t[3] * x - t[2] * y + t[1] * z for x, y, z in zip(u0, u1, u2)])


def lift(net: QNet, center: Subspace, seed: int) -> LiftResult:
    """Extensive lift of a net in RP^{a+b} through the given center, by
    ``lift_partial`` on all of its points."""
    d = net.domain
    m = d.width_i + d.width_j
    if net.ambient_dim != m:
        raise DimensionMismatchError(
            "lift expects the net in RP^%d (ambient is RP^%d)" % (m, net.ambient_dim)
        )
    if center.ambient_dim != m:
        raise DimensionMismatchError("center has wrong ambient dimension")
    screen = net_span(net)
    if screen.is_full:
        if not center.is_empty:
            raise GeometryError("an extensive net lifts only through the empty center")
        return LiftResult(net, center, screen, seed)
    try:
        projector = Projector(center, screen)
    except GeometryError as exc:
        raise GeometryError("center is not supplementary to the net's span") from exc
    return _lift_through(net, projector, seed)


def _lift_through(net: QNet, projector: Projector, seed: int) -> LiftResult:
    d = net.domain
    out = QNet(d, net.ambient_dim, lift_partial(net.points(), d, projector, seed))
    if not check_extensive(out):
        raise GeneralPositionError("lifted net failed the extensivity check")
    return LiftResult(out, projector.center, projector.screen, seed)


def embed_net(net: QNet, ambient_dim: int) -> QNet:
    """Zero-pad coordinates to embed the net into a larger space."""
    if ambient_dim < net.ambient_dim:
        raise DimensionMismatchError("cannot embed into a smaller space")
    pad = (0,) * (ambient_dim - net.ambient_dim)
    pts = {s: HPoint(net[s].coords + pad) for s in net.domain.sites()}
    return QNet(net.domain, ambient_dim, pts)


def _sampled_projector(span: Subspace, seed: int, onto_span: bool = True) -> Projector:
    """The ``Projector`` through the first seeded random supplement of
    ``span`` onto it (through ``span`` onto the supplement when not
    ``onto_span``): one builds exactly when the two are supplementary."""
    m = span.ambient_dim
    codim = m + 1 - len(span.rows)
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        rows = [[rng.randint(-9, 9) for _ in range(m + 1)] for _ in range(codim)]
        cand = Subspace.from_rows(rows, m)
        try:
            return Projector(cand, span) if onto_span else Projector(span, cand)
        except GeometryError:
            continue
    raise GeneralPositionError("could not sample a supplementary subspace")


def sample_supplementary(span: Subspace, seed: int) -> Subspace:
    """Seeded random rational subspace supplementary to the given one."""
    return _sampled_projector(span, seed).center


def embed_and_lift(net: QNet, seed: int) -> LiftResult:
    """Embed a net into RP^{a+b} and lift it through a sampled center.

    Plumbing around `lift`: the lift construction wants the net already in
    RP^{a+b} with a supplementary center; arbitrary inputs get there by
    zero-padding and seeded center sampling.
    """
    d = net.domain
    m = d.width_i + d.width_j
    if net.ambient_dim > m:
        raise DimensionMismatchError(
            "a Sigma_{%d,%d} net joins at most %d dimensions" % (d.width_i, d.width_j, m)
        )
    embedded = embed_net(net, m)
    return _lift_through(embedded, _sampled_projector(net_span(embedded), seed ^ 0x5F5E5F), seed)


def koenigs_hyperplanes(net: QNet) -> HyperplanePair:
    """Alternating hyperplane pair of an extensive BS-Koenigs net.

    U1 is joined by the even-parity points of the two boundary strips, U2
    by the odd ones; every net point must lie in the hyperplane of its
    parity, otherwise the net is not BS-Koenigs and this raises.
    """
    d = net.domain
    m = d.width_i + d.width_j
    if net.ambient_dim != m or not check_extensive(net):
        raise GeometryError("hyperplane pair needs an extensive net in RP^{a+b}")
    groups: dict[int, list[HPoint]] = {0: [], 1: []}
    for (i, j) in d.sites():
        if min(i - d.i_min, j - d.j_min) < 2:
            groups[((i - d.i_min) + (j - d.j_min)) % 2].append(net[(i, j)])
    u1 = join(groups[0])
    u2 = join(groups[1])
    if u1.projective_dim != m - 1 or u2.projective_dim != m - 1 or u1 == u2:
        raise NotBSKoenigsError("strip points do not span two distinct hyperplanes")
    for (i, j) in d.sites():
        target = u1 if ((i - d.i_min) + (j - d.j_min)) % 2 == 0 else u2
        if not target.contains_point(net[(i, j)]):
            raise NotBSKoenigsError("point at %s misses its parity hyperplane" % ((i, j),))
    return HyperplanePair(u1, u2, hyperplane_pair_quadric(u1, u2))


def has_koenigs_hyperplanes(net: QNet) -> bool:
    """Predicate form of the hyperplane-pair construction (its existence
    characterizes BS-Koenigs among extensive nets)."""
    try:
        koenigs_hyperplanes(net)
    except NotBSKoenigsError:
        return False
    return True


def hyperplane_pair_quadric(u1: Subspace, u2: Subspace) -> Quadric:
    """The union of two hyperplanes as a rank-2 symmetric form."""
    if u1.projective_dim != u1.ambient_dim - 1 or u2.projective_dim != u2.ambient_dim - 1:
        raise GeometryError("quadric factors must be hyperplanes")
    n1 = _normal(u1)
    n2 = _normal(u2)
    size = u1.ambient_dim + 1
    form = [
        [n1[r] * n2[c] + n2[r] * n1[c] for c in range(size)] for r in range(size)
    ]
    return Quadric(form)


def _normal(hyperplane: Subspace) -> tuple[int, ...]:
    return kernel(hyperplane.rows, hyperplane.ambient_dim + 1)[0][0]


def quadric_conjugacy_check(net: QNet, quadric: Quadric) -> bool:
    """Agreement check for the inscribed-net conjugacy equivalence.

    For a Sigma_{m,m} net with all points except possibly the far corner
    on the quadric, incidence of the far corner is equivalent to
    conjugacy of the two m-fold transform points at the origin.  Both
    sides are evaluated and their logical agreement returned; the
    equivalence itself is imported, not re-derived.
    """
    d = net.domain
    m = d.width_i
    if d.width_j != m:
        raise ValueError("conjugacy check needs a square Sigma_{m,m} window")
    corner = (d.i_max, d.j_max)
    for site in d.sites():
        if site != corner and not quadric.contains_point(net[site]):
            raise GeometryError("point at %s is off the quadric" % (site,))
    p_fwd = laplace_iterate(net, m)
    p_bwd = laplace_iterate(net, -m)
    if isinstance(p_fwd, TerminationReport) or isinstance(p_bwd, TerminationReport):
        raise ExistenceError("both m-fold transforms must exist")
    origin = (d.i_min, d.j_min)
    incident = quadric.contains_point(net[corner])
    conjugate = quadric.bilinear(p_fwd[origin], p_bwd[origin]) == 0
    return incident == conjugate


@dataclass(frozen=True)
class LineCheck:
    """One site of the singular-line equivalence: does the forward
    transform chord hit the singular locus exactly when the backward
    transform points coincide."""

    site: Site
    line_hits_singular: bool
    backward_coincide: bool

    @property
    def agree(self) -> bool:
        return self.line_hits_singular == self.backward_coincide


@dataclass
class SingularPointReport:
    m: int
    forward_nonsingular: bool | None
    backward_nonsingular: bool | None
    line_checks: list[LineCheck]
    skipped: list[str]

    @property
    def ok(self) -> bool:
        if self.forward_nonsingular is False or self.backward_nonsingular is False:
            return False
        return all(c.agree for c in self.line_checks)


def singular_point_checks(net: QNet, m: int | None = None) -> SingularPointReport:
    """Singular-point facts for an extensive BS-Koenigs lift.

    (a) the m-fold transform points in both directions avoid the singular
    locus of the alternating-hyperplane quadric; (b) per vertical pair of
    forward transform points, the chord meets the singular locus iff the
    corresponding backward transform points coincide.  Precondition
    failures are recorded as skipped checks, not errors.
    """
    d = net.domain
    if m is None:
        m = min(d.width_i, d.width_j)
    pair = koenigs_hyperplanes(net)
    locus = singular_locus(pair.quadric)
    skipped: list[str] = []

    def transform(k: int):
        res = laplace_iterate(net, k)
        if isinstance(res, TerminationReport):
            skipped.append(
                "P_%d missing: terminated at step %d (%s)"
                % (k, res.steps_completed, res.report.kind)
            )
            return None
        return res

    p_fwd = transform(m)
    p_bwd = transform(-m)

    def nonsingular(q: QNet | None) -> bool | None:
        if q is None:
            return None
        return all(not locus.contains_point(q[s]) for s in q.domain.sites())

    checks: list[LineCheck] = []
    if p_fwd is not None and p_bwd is not None:
        fd = p_fwd.domain
        for i in range(fd.i_min, fd.i_max + 1):
            for j in range(fd.j_min, fd.j_max):
                a, b = p_fwd[(i, j)], p_fwd[(i, j + 1)]
                if a == b:
                    skipped.append("forward points at (%d,%d)-(%d,%d) coincide" % (i, j, i, j + 1))
                    continue
                chord = join([a, b])
                hits = not meet(chord, locus).is_empty
                coincide = p_bwd[(i, j)] == p_bwd[(i, j + 1)]
                checks.append(LineCheck((i, j), hits, coincide))
    elif p_fwd is not None or p_bwd is not None:
        skipped.append("line checks need both transforms")

    return SingularPointReport(m, nonsingular(p_fwd), nonsingular(p_bwd), checks, skipped)
