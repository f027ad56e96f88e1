"""Laplace invariants and the Koenigs-net predicates.

The invariant H(i,j) is the cross-ratio of a point, its forward transform
point, the vertical neighbour, and the left forward transform point; it
sits on the vertical edge (i,j)-(i,j+1).  K(i,j) is the backward
counterpart on the horizontal edge (i,j)-(i+1,j):

    H(i,j) = cr(P(i,j), L+P(i,j),  P(i,j+1), L+P(i-1,j))
    K(i,j) = cr(P(i,j), L-P(i,j),  P(i+1,j), L-P(i,j-1))

Under one transform step the two families shift into each other, and the
H-layers satisfy the rational recurrence

    H_1(i,j) = H_-1(i,j)^-1 * (1-H(i+1,j))/(1-H(i,j)^-1)
                            * (1-H(i,j+1))/(1-H(i+1,j+1)^-1),

a Y-system: the same mutation run backwards gives the K recurrence.

A net is BS-Koenigs when H(i,j) H(i,j+1) = K(i,j+1) K(i-1,j+1) at every
site, D-Koenigs when H(i,j) H(i+1,j) = K(i,j) K(i,j+1); both products are
checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import ExistenceError, GeometryError, InvariantError, RecurrenceSingularError
from .linalg import bareiss
from .projective import join
from .qnet import (
    GridDomain,
    QNet,
    Site,
    TerminationReport,
    _net_brackets,
    diagonal_intersection_net,
    laplace_iterate,
    transform_points,
)

Layer = Mapping[Site, Fraction]


@dataclass
class InvariantField:
    """Edge-indexed Laplace invariants of a net.

    h[(i,j)] lives on the vertical edge (i,j)-(i,j+1), k[(i,j)] on the
    horizontal edge (i,j)-(i+1,j); both are partial near the window
    boundary where the flanking transform points do not exist.
    """

    domain: GridDomain
    h: dict[Site, Fraction] = field(default_factory=dict)
    k: dict[Site, Fraction] = field(default_factory=dict)


def _ratio(kind: str, edge: Site, t: tuple, u: tuple) -> Fraction:
    """cr(P, X, Q, Y) on the edge from P, the point at ``edge``, to Q, with
    X and Y the transform points of the face ``edge`` and of the other face
    on the edge, whose bracket tables are t and u.

    The forward points are t[3] P + t[1] Q and u[2] P + u[0] Q, the
    backward points -t[3] P + t[2] Q and u[1] P - u[0] Q, and cr(P,
    x1 P + y1 Q, Q, x2 P + y2 Q) = y1 x2 / (x1 y2)."""
    num, den = t[1 if kind == "H" else 2] * u[2 if kind == "H" else 1], t[3] * u[0]
    if not den:
        why = "is infinite (degenerate net)" if num else "undefined: cross-ratio of the form 0/0"
        raise InvariantError("%s%s %s" % (kind, edge, why), edge)
    return Fraction(num, den)


def laplace_invariants(net: QNet) -> InvariantField:
    """Both invariant families, on every edge where they are defined."""
    d = net.domain
    out = InvariantField(d)
    if d.width_i < 1 or d.width_j < 1:
        return out
    fwd = transform_points(net, "forward")
    bwd = transform_points(net, "backward")
    table = lambda face: _net_brackets(net, face)
    for i in range(d.i_min + 1, d.i_max):
        for j in range(d.j_min, d.j_max):
            if (i, j) in fwd and (i - 1, j) in fwd:
                out.h[(i, j)] = _ratio("H", (i, j), table((i, j)), table((i - 1, j)))
    for i in range(d.i_min, d.i_max):
        for j in range(d.j_min + 1, d.j_max):
            if (i, j) in bwd and (i, j - 1) in bwd:
                out.k[(i, j)] = _ratio("K", (i, j), table((i, j)), table((i, j - 1)))
    return out


def hk_shift_check(net: QNet) -> bool:
    """Shift identities tying the two families across one transform step:

    K_1(i,j) = H(i+1,j)  and  H_-1(i,j) = K(i,j+1),

    checked exactly wherever both sides exist.
    """
    cur = laplace_invariants(net)
    fwd = laplace_iterate(net, 1)
    bwd = laplace_iterate(net, -1)
    if isinstance(fwd, TerminationReport) or isinstance(bwd, TerminationReport):
        raise ExistenceError("both single transforms must exist for the shift check")
    k1 = laplace_invariants(fwd).k
    hm1 = laplace_invariants(bwd).h
    return _shifted_agreement(((k1, cur.h, (1, 0)), (hm1, cur.k, (0, 1))))[0]


def _shifted_agreement(comparisons) -> tuple[bool, int]:
    """Compare, for each (layer, other, (di, dj)), layer at (i, j) with other
    at (i + di, j + dj) where both exist: whether all agree (stopping at the
    first that does not) and how many were compared."""
    checked = 0
    for layer, other, (di, dj) in comparisons:
        for (i, j), value in layer.items():
            shifted = other.get((i + di, j + dj))
            if shifted is not None:
                checked += 1
                if shifted != value:
                    return False, checked
    return True, checked


def _mutation(prev: Layer, prev_site: Site, cur: Layer, site: Site, transposed: bool) -> Fraction:
    """The Y-system mutation at a site: ``prev`` read at ``prev_site``, ``cur``
    on the unit square at ``site``, with its two axes swapped when
    ``transposed``."""
    i, j = site
    try:
        values = [prev[prev_site]]
        for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
            values.append(cur[(i + dj, j + di) if transposed else (i + di, j + dj)])
    except KeyError as exc:
        raise ExistenceError("missing invariant value at %s" % (exc.args[0],)) from exc
    for k, value in enumerate(values):
        if value == 0:
            raise RecurrenceSingularError(
                "%s value 0 at %s" % ("H" if k else "previous layer", site), site
            )
        if value == 1 and k:
            raise RecurrenceSingularError("invariant equals 1 at %s" % (site,), site)
    before, h00, h10, h01, h11 = values
    return (1 / before) * ((1 - h10) / (1 - 1 / h00)) * ((1 - h01) / (1 - 1 / h11))


def recurrence_step(h_prev: Layer, h_cur: Layer, site: Site) -> Fraction:
    """Next H-layer value at a site from the current and previous layers.

    Singular exactly when a referenced value is 0 or a current-layer value
    is 1 (the algebraic shadow of sequence termination).
    """
    return _mutation(h_prev, site, h_cur, site, False)


def recurrence_step_from_k(k_cur: Layer, h_cur: Layer, site: Site) -> Fraction:
    """H_1(i,j) with the previous layer read off as K(i,j+1)."""
    i, j = site
    return _mutation(k_cur, (i, j + 1), h_cur, site, False)


def recurrence_step_backward(k_cur: Layer, h_cur: Layer, site: Site) -> Fraction:
    """K_-1(i,j): the same mutation on the transposed lattice, run on the K
    layer with H(i+1,j) as previous layer."""
    i, j = site
    return _mutation(h_cur, (i + 1, j), k_cur, site, True)


def bs_koenigs_sites(field_: InvariantField) -> list[Site]:
    d = field_.domain
    return [
        (i, j)
        for i in range(d.i_min + 1, d.i_max)
        for j in range(d.j_min, d.j_max - 1)
        if (i, j) in field_.h
        and (i, j + 1) in field_.h
        and (i, j + 1) in field_.k
        and (i - 1, j + 1) in field_.k
    ]


def _bs_koenigs_at(h: Layer, k: Layer, site: Site) -> bool:
    """The BS-Koenigs product condition at one site."""
    i, j = site
    return h[(i, j)] * h[(i, j + 1)] == k[(i, j + 1)] * k[(i - 1, j + 1)]


def is_bs_koenigs(net: QNet) -> bool:
    """H(i,j) H(i,j+1) = K(i,j+1) K(i-1,j+1) at every applicable site."""
    f = laplace_invariants(net)
    return all(_bs_koenigs_at(f.h, f.k, site) for site in bs_koenigs_sites(f))


def d_koenigs_sites(field_: InvariantField) -> list[Site]:
    d = field_.domain
    return [
        (i, j)
        for i in range(d.i_min + 1, d.i_max - 1)
        for j in range(d.j_min + 1, d.j_max - 1)
        if (i, j) in field_.h
        and (i + 1, j) in field_.h
        and (i, j) in field_.k
        and (i, j + 1) in field_.k
    ]


def is_d_koenigs(net: QNet) -> bool:
    """H(i,j) H(i+1,j) = K(i,j) K(i,j+1) at every applicable site."""
    f = laplace_invariants(net)
    return all(
        f.h[(i, j)] * f.h[(i + 1, j)] == f.k[(i, j)] * f.k[(i, j + 1)]
        for (i, j) in d_koenigs_sites(f)
    )


def six_point_conic_check(net: QNet, site: Site) -> bool:
    """Conic test behind the D-Koenigs condition.

    The six transform points around a face, three forward and three
    backward, all lie in the face plane; they lie on a common conic iff
    the 6x6 coefficient matrix, built in the plane's pivot chart, has
    Bareiss rank below 6.
    """
    i, j = site
    fwd = transform_points(net, "forward")
    bwd = transform_points(net, "backward")
    needed_f = [(i - 1, j), (i, j), (i + 1, j)]
    needed_b = [(i, j - 1), (i, j), (i, j + 1)]
    if any(s not in fwd for s in needed_f) or any(s not in bwd for s in needed_b):
        raise ExistenceError("transform points around %s do not all exist" % (site,))
    six = [fwd[s] for s in needed_f] + [bwd[s] for s in needed_b]
    plane = join(six)
    if plane.projective_dim != 2:
        raise GeometryError("the six points around %s do not span a plane" % (site,))
    rows = []
    for p in six:
        u, v, w = plane.point_coords(p)
        rows.append((u * u, u * v, u * w, v * v, v * w, w * w))
    return len(bareiss(rows, 6)[0]) < 6


def invariant_symmetry_check(net: QNet, m: int) -> bool:
    """Invariant symmetry between a BS-Koenigs net and its diagonal net:

    H^P_m(i+1,j) = K^D_-m(i,j)   and   H^D_m(i,j) = K^P_-m(i,j+1),

    verified exactly at every site where both sides exist.
    """
    ok, checked = invariant_symmetry_details(net, m)
    return ok


def invariant_symmetry_details(net: QNet, m: int) -> tuple[bool, int]:
    try:
        dnet = diagonal_intersection_net(net)
    except GeometryError as exc:
        raise ExistenceError("diagonal intersection net undefined: %s" % exc) from exc
    p_fwd = _existing(laplace_iterate(net, m), "P_%d" % m)
    p_bwd = _existing(laplace_iterate(net, -m), "P_%d" % (-m,))
    d_fwd = _existing(laplace_iterate(dnet, m), "D_%d" % m)
    d_bwd = _existing(laplace_iterate(dnet, -m), "D_%d" % (-m,))
    h_p = laplace_invariants(p_fwd).h
    k_d = laplace_invariants(d_bwd).k
    h_d = laplace_invariants(d_fwd).h
    k_p = laplace_invariants(p_bwd).k
    return _shifted_agreement(((k_d, h_p, (1, 0)), (h_d, k_p, (0, 1))))


def _existing(result: QNet | TerminationReport, label: str) -> QNet:
    if isinstance(result, TerminationReport):
        raise ExistenceError(
            "%s does not exist: sequence terminates at step %d (%s)"
            % (label, result.steps_completed, result.report.kind)
        )
    return result
