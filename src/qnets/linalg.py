"""Exact linear algebra underlying the projective kernel.

The kernel works on rows of Python ``int``s.  Two eliminations cover it:

* ``echelon`` brings integer rows to the canonical integer form of their
  row space: the reduced row echelon form (unit pivots, pivot columns
  cleared above and below) with each row scaled to primitive integers,
  pivot positive.  It is the representation used for subspace equality
  throughout the package.
* ``bareiss`` is fraction-free forward elimination (Bareiss, Math. Comp.
  22, 1968) for rank, determinants and subspace meets, where no canonical
  form is needed.

Both choose the first nonzero entry as pivot, so every routine here is
deterministic.  ``kernel`` gives the right kernel in the same canonical
integer form, and ``unit_rows`` reads a canonical form as unit-pivot
``Fraction`` rows.

Closed form first.  Most eliminations in the kernel are joins of one to
three points.  When k <= 3 rows have a nonzero leading k x k minor M
(columns 0 .. k-1), ``echelon`` skips elimination: the rows of adj(M)
times the input rows are det(M) times those of M^-1 times the input rows,
which is the unit-pivot reduced form with pivots 0 .. k-1.  Scaling each
of them to primitive integers with a positive pivot gives the canonical
form, and the canonical form of a row space is unique, so the result is
the one elimination would return.  Every other input (a zero leading
minor, more rows) is eliminated as before.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]
IntRow = tuple[int, ...]

_INT = frozenset((int,))


def primitive(vec: Sequence) -> IntRow:
    """Integer-primitive representative of a nonzero rational vector.

    Denominators cleared, content divided out, first nonzero entry positive.
    Entries are read through ``numerator``/``denominator``; anything other
    than an ``int`` or ``Fraction`` goes through ``Fraction`` first.
    """
    if _INT.issuperset(map(type, vec)):
        ints = vec
    else:
        vals = [v if type(v) is int or isinstance(v, Fraction) else Fraction(v) for v in vec]
        den = lcm(*(v.denominator for v in vals))
        ints = [v.numerator * (den // v.denominator) for v in vals]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    for v in ints:
        if v:
            if v < 0:
                g = -g
            break
    if g == 1:
        return tuple(ints)
    return tuple([v // g for v in ints])


def echelon(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[tuple[IntRow, ...], tuple[int, ...]]:
    """Canonical integer echelon form of integer rows.

    Returns the nonzero rows of the reduced row echelon form, each scaled to
    primitive integers with positive pivot, and the pivot columns.  Two row
    lists span the same space exactly when their echelon forms are equal.
    Up to three rows with a nonzero leading minor take the closed form of
    ``_adjugate_echelon``; otherwise elimination is fraction-free with
    per-row content reduction.  The first nonzero entry of an echelon row is
    its pivot, so ``primitive`` scales it to the canonical row.
    """
    if 0 < len(rows) <= min(3, ncols):
        closed = _adjugate_echelon(rows)
        if closed is not None:
            return closed
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, len(work)) if work[k][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
        row_r = work[r]
        p = row_r[c]
        for k in range(len(work)):
            q = work[k][c]
            if k == r or q == 0:
                continue
            g = gcd(p, q)
            a, b = p // g, q // g
            new = [a * x - b * y for x, y in zip(work[k], row_r)]
            cg = gcd(*new)
            if cg > 1:
                new = [v // cg for v in new]
            work[k] = new
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(map(primitive, work[: len(pivots)])), tuple(pivots)


def _adjugate_echelon(rows: Sequence[Sequence[int]]) -> tuple[tuple[IntRow, ...], tuple[int, ...]] | None:
    """The canonical echelon form of k <= 3 rows as adj(M) times the rows,
    M their leading k x k block, or None when det(M) = 0.

    Row i of adj(M) is the vector l with l . (column c of M) = det(M) for
    c = i and 0 otherwise: a 2D perpendicular or a 3D cross product of the
    other columns.  Its entries before column i are zero, so ``primitive``
    scales it to the canonical row.
    """
    k = len(rows)
    if k == 1:
        det = rows[0][0]
        if not det:
            return None
        combos = [rows[0]]
    elif k == 2:
        r0, r1 = rows
        a, b, c, d = r0[0], r0[1], r1[0], r1[1]
        det = a * d - b * c
        if not det:
            return None
        combos = [[d * x - b * y for x, y in zip(r0, r1)], [a * y - c * x for x, y in zip(r0, r1)]]
    else:
        r0, r1, r2 = rows
        c0, c1, c2 = zip(r0[:3], r1[:3], r2[:3])
        l0 = cross3(c1, c2)
        det = l0[0] * c0[0] + l0[1] * c0[1] + l0[2] * c0[2]
        if not det:
            return None
        combos = [
            [p * x + q * y + r * z for x, y, z in zip(r0, r1, r2)]
            for p, q, r in (l0, cross3(c2, c0), cross3(c0, c1))
        ]
    return tuple(map(primitive, combos)), tuple(range(k))


def det3(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> int:
    """The 3x3 minor [abc] of three vectors in columns 0, 1, 2."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def cross3(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    """The cross product of the first three coordinates of a and b."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def reduce_row(
    vec: Sequence[int], rows: Sequence[Sequence[int]], pivots: Sequence[int]
) -> tuple[Sequence[int], int]:
    """Fraction-free reduction of an integer vector by rows each zero in
    the pivot columns of the rows before it: returns (m * vec - w, m) with
    w in their span and m != 0, the residual zero in every pivot column and
    zero exactly when vec lies in the span."""
    v, m = vec, 1
    for row, c in zip(rows, pivots):
        f = v[c]
        if f != 0:
            p = row[c]
            v = [p * a - f * b for a, b in zip(v, row)]
            m *= p
    return v, m


def bareiss(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free forward elimination over the first ``ncols`` columns of
    integer rows (later columns are carried along).  The list ``rows`` is
    updated in place with new row lists; the input rows themselves (tuples
    or lists) are never mutated.

    Returns the pivot columns and the number of row swaps; rows
    ``len(pivots)`` onwards end up zero in the scanned columns.  Every entry
    stays a minor of the input, so the divisions by the previous pivot are
    exact, and on a square matrix of full rank the last pivot is the
    determinant up to the sign of the swaps.
    """
    pivots: list[int] = []
    swaps = 0
    prev = 1
    r = 0
    n = len(rows)
    for c in range(ncols):
        pr = next((k for k in range(r, n) if rows[k][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps += 1
        top = rows[r]
        p = top[c]
        for k in range(r + 1, n):
            f = rows[k][c]
            if prev == 1:
                rows[k] = [x * p - f * y for x, y in zip(rows[k], top)]
            else:
                rows[k] = [(x * p - f * y) // prev for x, y in zip(rows[k], top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots, swaps


def unit_rows(red: Sequence[IntRow], pivots: Sequence[int]) -> Matrix:
    """The unit-pivot rows over Q of a canonical integer echelon form."""
    return tuple(tuple(Fraction(v, row[c]) for v in row) for row, c in zip(red, pivots))


def kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple[tuple[IntRow, ...], tuple[int, ...]]:
    """The right kernel {x : M x = 0} of integer rows in canonical integer
    echelon form (see ``echelon``), with its pivot columns."""
    red, pivots = echelon(rows, ncols)
    scale = lcm(*(row[c] for row, c in zip(red, pivots)))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = scale
        for row, c in zip(red, pivots):
            v[c] = -row[f] * (scale // row[c])
        basis.append(v)
    return echelon(basis, ncols)

