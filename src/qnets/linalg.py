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
deterministic.  ``rref``, ``nullspace`` and ``det`` keep ``Fraction``
results at the boundary: ``rref`` returns the unit-pivot form over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]
IntRow = tuple[int, ...]

ZERO = Fraction(0)


def as_row(values: Iterable) -> Row:
    return tuple(Fraction(v) for v in values)


def primitive(vec: Sequence) -> IntRow:
    """Integer-primitive representative of a nonzero rational vector.

    Denominators cleared, content divided out, first nonzero entry positive.
    Entries are read through ``numerator``/``denominator``; anything other
    than an ``int`` or ``Fraction`` goes through ``Fraction`` first.
    """
    vals = [v if type(v) is int or isinstance(v, Fraction) else Fraction(v) for v in vec]
    den = 1
    for v in vals:
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    if den == 1:
        ints = [v.numerator for v in vals]
    else:
        ints = [v.numerator * (den // v.denominator) for v in vals]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    if next(v for v in ints if v) < 0:
        g = -g
    if g == 1:
        return tuple(ints)
    return tuple(v // g for v in ints)


def _int_rows(rows: Sequence[Sequence]) -> list[IntRow]:
    """Primitive integer rows spanning the same row space (zero rows dropped)."""
    return [primitive(r) for r in rows if any(x != 0 for x in r)]


def echelon(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[tuple[IntRow, ...], tuple[int, ...]]:
    """Canonical integer echelon form of integer rows.

    Returns the nonzero rows of the reduced row echelon form, each scaled to
    primitive integers with positive pivot, and the pivot columns.  Two row
    lists span the same space exactly when their echelon forms are equal.
    Elimination is fraction-free with per-row content reduction.
    """
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
    out = []
    for row, c in zip(work, pivots):
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        out.append(tuple(row) if g == 1 else tuple(v // g for v in row))
    return tuple(out), tuple(pivots)


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


def rref(rows: Sequence[Sequence[Fraction]], ncols: int) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form of ``rows`` over Q.

    Returns the nonzero rows (unit pivots, pivot columns cleared) together
    with the pivot column indices.
    """
    red, pivots = echelon(_int_rows(rows), ncols)
    return unit_rows(red, pivots), pivots


def unit_rows(red: Sequence[IntRow], pivots: Sequence[int]) -> Matrix:
    """The unit-pivot rows over Q of a canonical integer echelon form."""
    return tuple(tuple(Fraction(v, row[c]) for v in row) for row, c in zip(red, pivots))


def rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    return len(bareiss(_int_rows(rows), ncols)[0])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> Matrix:
    """Canonical (RREF) basis of the right kernel ``{x : M x = 0}``."""
    red, pivots = echelon(_int_rows(rows), ncols)
    scale = lcm(*(row[c] for row, c in zip(red, pivots)))
    pivot_set = set(pivots)
    kernel = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = scale
        for row, c in zip(red, pivots):
            v[c] = -row[f] * (scale // row[c])
        kernel.append(v)
    return unit_rows(*echelon(kernel, ncols))


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix by Bareiss elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    den = 1
    work = []
    for r in rows:
        vals = [Fraction(v) for v in r]
        d = lcm(*(v.denominator for v in vals))
        den *= d
        work.append([v.numerator * (d // v.denominator) for v in vals])
    pivots, swaps = bareiss(work, n)
    if len(pivots) < n:
        return ZERO
    value = work[n - 1][n - 1] if n else 1
    return Fraction(-value if swaps % 2 else value, den)


def mat_vec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Row:
    return tuple(sum((a * b for a, b in zip(row, vec)), ZERO) for row in rows)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)
