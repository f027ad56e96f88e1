"""Exact output checks that share no code with ``qnets.linalg``.

Rank is decided by fraction-free Bareiss elimination on the integer
coordinates of canonical points, so a defect in the package's RREF kernel
cannot hide itself.  Each check returns a list of problem strings; an empty
list means the output is correct.
"""

from __future__ import annotations

from math import gcd


def rank(rows) -> int:
    """Rank of integer rows by Bareiss elimination with column skipping."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    nrows, ncols = len(work), len(work[0])
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((k for k in range(r, nrows) if work[k][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        top = work[r]
        for k in range(r + 1, nrows):
            row = work[k]
            f = row[c]
            for cc in range(c + 1, ncols):
                row[cc] = (row[cc] * top[c] - f * top[cc]) // prev
            row[c] = 0
        prev = top[c]
        r += 1
        if r == nrows:
            break
    return r


def ints(point) -> tuple[int, ...]:
    """Integer coordinates of a canonical HPoint; raises on a fraction."""
    out = []
    for c in point.coords:
        if c.denominator != 1:
            raise ValueError("coordinate %s is not an integer" % c)
        out.append(c.numerator)
    return tuple(out)


def canonical_problems(where: str, coords: tuple[int, ...]) -> list[str]:
    g = 0
    for v in coords:
        g = gcd(g, v)
    lead = next((v for v in coords if v != 0), 0)
    if g != 1 or lead <= 0:
        return ["%s: coordinates %s are not primitive with positive lead" % (where, coords)]
    return []


def net_coords(net) -> dict:
    return {s: ints(net[s]) for s in net.domain.sites()}


def on_both_lines(x, a, b, c, d) -> bool:
    """x is the single intersection point of the distinct coplanar lines ab, cd."""
    return (
        rank([a, b]) == 2
        and rank([c, d]) == 2
        and rank([a, b, c, d]) == 3
        and rank([a, b, x]) == 2
        and rank([c, d, x]) == 2
    )


def planar_face_problems(pts: dict, domain) -> list[str]:
    bad = []
    for (i, j) in domain.faces():
        face = [pts[(i, j)], pts[(i + 1, j)], pts[(i, j + 1)], pts[(i + 1, j + 1)]]
        if rank(face) > 3:
            bad.append("face %s is not planar" % ((i, j),))
    return bad


def edge_lines(i: int, j: int, direction: str):
    """The two edge lines whose meet is the transform point of face (i,j)."""
    if direction == "forward":
        return ((i, j), (i, j + 1)), ((i + 1, j), (i + 1, j + 1))
    return ((i, j), (i + 1, j)), ((i, j + 1), (i + 1, j + 1))


def transform_problems(prev: dict, layer: dict, direction: str) -> list[str]:
    """Every point of a Laplace transform layer lies on both its edge lines."""
    bad = []
    for (i, j), x in layer.items():
        (s, t), (u, v) = edge_lines(i, j, direction)
        if not on_both_lines(x, prev[s], prev[t], prev[u], prev[v]):
            bad.append("%s transform point at %s is not on both edge lines" % (direction, (i, j)))
    return bad


def diagonal_problems(prev: dict, layer: dict) -> list[str]:
    bad = []
    for (i, j), x in layer.items():
        if not on_both_lines(x, prev[(i, j)], prev[(i + 1, j + 1)], prev[(i + 1, j)], prev[(i, j + 1)]):
            bad.append("diagonal point at %s is not on both diagonals" % ((i, j),))
    return bad


def degeneracy_kind(pts: dict, domain) -> str:
    """'laplace' when constant along i, 'goursat' when constant along j with
    no coincidence along i, 'none' otherwise (points compared by rank)."""
    same = lambda s, t: rank([pts[s], pts[t]]) == 1
    along_i = [same((i, j), (i + 1, j)) for j in range(domain.j_min, domain.j_max + 1) for i in range(domain.i_min, domain.i_max)]
    if along_i and all(along_i):
        return "laplace"
    along_j = [same((i, j), (i, j + 1)) for i in range(domain.i_min, domain.i_max + 1) for j in range(domain.j_min, domain.j_max)]
    if along_j and all(along_j) and not any(along_i):
        return "goursat"
    return "none"
