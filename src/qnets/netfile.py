"""Net file format and exports.

A net file is a JSON document

    {"ambient_dim": n,
     "i_range": [i0, i1], "j_range": [j0, j1],
     "points": [[...], ...]}

where points[di][dj] holds the homogeneous coordinates of site
(i0+di, j0+dj), each coordinate an exact rational string "p/q" (or "p"),
an integer, or a decimal string that is rationalized exactly.  A null
entry marks a missing point (boundary data for the construct command).
Dimensions and ranges must be JSON integers; coordinate strings are
bounded in length and exponent before they are parsed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Union

from .construct import PartialNet
from .errors import GeneralPositionError, NetFileError, ProjectionUndefinedError
from .invariants import InvariantField
from .lifts import _sampled_projector
from .projective import HPoint, Subspace
from .qnet import GridDomain, QNet


# Bounds on coordinate strings: the cost of Fraction parsing grows with the
# number of digits and exponentially with the decimal exponent
# ("1e999999999" builds a billion-digit integer), so both are capped first.
MAX_SCALAR_CHARS = 4096
MAX_EXPONENT = 4096


def parse_scalar(value: Union[str, int, float]) -> Fraction:
    try:
        if isinstance(value, bool):
            raise NetFileError("booleans are not coordinates")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(repr(value))
        if isinstance(value, str):
            text = value.strip()
            if len(text) > MAX_SCALAR_CHARS:
                raise NetFileError(
                    "coordinate string of %d characters exceeds %d" % (len(text), MAX_SCALAR_CHARS)
                )
            _, marker, exponent = text.lower().partition("e")
            if marker and abs(int(exponent)) > MAX_EXPONENT:
                raise NetFileError("coordinate %r has an exponent beyond %d" % (text, MAX_EXPONENT))
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise NetFileError("cannot parse coordinate %r" % (value,)) from exc
    raise NetFileError("cannot parse coordinate %r" % (value,))


def format_scalar(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def net_to_dict(net: Union[QNet, PartialNet]) -> dict:
    d = net.domain
    points = net.points() if isinstance(net, QNet) else net.points
    rows = []
    for i in range(d.i_min, d.i_max + 1):
        row = []
        for j in range(d.j_min, d.j_max + 1):
            p = points.get((i, j))
            row.append(None if p is None else [format_scalar(c) for c in p.coords])
        rows.append(row)
    return {
        "ambient_dim": net.ambient_dim,
        "i_range": [d.i_min, d.i_max],
        "j_range": [d.j_min, d.j_max],
        "points": rows,
    }


def _integer(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise NetFileError(
            "malformed net document: %s must be an integer, got %r" % (what, value)
        )
    return value


def _int_pair(value, what: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise NetFileError(
            "malformed net document: %s must be a pair of integers, got %r" % (what, value)
        )
    return _integer(value[0], what), _integer(value[1], what)


def net_from_dict(doc: dict) -> Union[QNet, PartialNet]:
    """Parse a net document; every malformed input raises NetFileError."""
    try:
        raw_n, raw_i, raw_j = doc["ambient_dim"], doc["i_range"], doc["j_range"]
        rows = doc["points"]
    except (KeyError, TypeError) as exc:
        raise NetFileError("malformed net document: %s" % exc) from exc
    n = _integer(raw_n, "ambient_dim")
    if n < 0:
        raise NetFileError("malformed net document: ambient_dim must be non-negative, got %d" % n)
    i0, i1 = _int_pair(raw_i, "i_range")
    j0, j1 = _int_pair(raw_j, "j_range")
    try:
        domain = GridDomain(i0, i1, j0, j1)
    except ValueError as exc:
        raise NetFileError(str(exc)) from exc
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise NetFileError("malformed net document: points must be a list of lists")
    if len(rows) != i1 - i0 + 1 or any(len(r) != j1 - j0 + 1 for r in rows):
        raise NetFileError("points array shape does not match the ranges")
    points = {}
    for di, row in enumerate(rows):
        for dj, entry in enumerate(row):
            if entry is None:
                continue
            if not isinstance(entry, list):
                raise NetFileError(
                    "point at (%d,%d) must be a list of coordinates or null, got %r"
                    % (i0 + di, j0 + dj, entry)
                )
            if len(entry) != n + 1:
                raise NetFileError(
                    "point at (%d,%d) has %d coordinates, expected %d"
                    % (i0 + di, j0 + dj, len(entry), n + 1)
                )
            coords = [parse_scalar(c) for c in entry]
            if all(c == 0 for c in coords):
                raise NetFileError("point at (%d,%d) is the zero vector" % (i0 + di, j0 + dj))
            points[(i0 + di, j0 + dj)] = HPoint(coords)
    partial = PartialNet(domain, n, points)
    if partial.is_complete():
        return partial.to_qnet()
    return partial


def write_net(path: str, net: Union[QNet, PartialNet]) -> None:
    with open(path, "w") as fh:
        json.dump(net_to_dict(net), fh, indent=1)
        fh.write("\n")


def read_net(path: str) -> Union[QNet, PartialNet]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise NetFileError("cannot read %s: %s" % (path, exc)) from exc
    return net_from_dict(doc)


def invariants_to_csv(field: InvariantField) -> str:
    lines = ["i,j,edge,value"]
    for (i, j), v in sorted(field.h.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        lines.append("%d,%d,H,%s" % (i, j, format_scalar(v)))
    for (i, j), v in sorted(field.k.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        lines.append("%d,%d,K,%s" % (i, j, format_scalar(v)))
    return "\n".join(lines) + "\n"


def net_to_csv(net: QNet) -> str:
    n = net.ambient_dim
    header = "i,j," + ",".join("x%d" % k for k in range(n + 1))
    lines = [header]
    for (i, j) in net.domain.sites():
        coords = ",".join(format_scalar(c) for c in net[(i, j)].coords)
        lines.append("%d,%d,%s" % (i, j, coords))
    return "\n".join(lines) + "\n"


def _to_three_space(net: QNet, seed: int) -> dict:
    """Representatives with exactly four coordinates, via zero-padding or a
    seeded central projection for higher-dimensional nets."""
    n = net.ambient_dim
    if n <= 3:
        pad = (Fraction(0),) * (3 - n)
        return {
            s: net[s].coords[:n] + pad + net[s].coords[n:] for s in net.domain.sites()
        }
    rng = random.Random(seed)
    for _ in range(32):
        rows = [[Fraction(rng.randint(-9, 9)) for _ in range(n + 1)] for _ in range(4)]
        screen = Subspace.from_rows(rows, n)
        if screen.projective_dim != 3:
            continue
        project = _sampled_projector(screen, rng.randrange(2**30))
        try:
            return {s: screen.point_coords(project(net[s])) for s in net.domain.sites()}
        except ProjectionUndefinedError:
            continue
    raise GeneralPositionError("could not sample a projection to three-space")


def net_to_obj(net: QNet, seed: int) -> str:
    """Wavefront OBJ export: vertices in the affine chart of a seeded
    projection to three-space; sites on the ideal hyperplane or with an
    affine coordinate beyond the float range are an error."""
    coords = _to_three_space(net, seed)
    d = net.domain
    lines = []
    index = {}
    for k, site in enumerate(d.sites()):
        x, y, z, w = coords[site]
        if w == 0:
            raise GeneralPositionError(
                "site (%d,%d) projects to the ideal hyperplane" % site
            )
        try:
            lines.append("v %s %s %s" % (float(x / w), float(y / w), float(z / w)))
        except OverflowError:
            raise NetFileError("site (%d,%d) has an affine coordinate beyond the float range" % site) from None
        index[site] = k + 1
    for (i, j) in d.faces():
        lines.append(
            "f %d %d %d %d"
            % (index[(i, j)], index[(i + 1, j)], index[(i + 1, j + 1)], index[(i, j + 1)])
        )
    return "\n".join(lines) + "\n"
