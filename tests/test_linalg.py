import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnets.linalg import bareiss, echelon, kernel, primitive, unit_rows
from helpers import oracle_det3, oracle_rank, reference_echelon


def test_primitive_normalizes():
    assert primitive([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    assert primitive([Fraction(0), Fraction(-3), Fraction(6)]) == (0, 1, -2)
    with pytest.raises(ValueError):
        primitive([Fraction(0), Fraction(0)])


def _rows(rng, nrows, ncols, extra, bits):
    """Random integer rows of length ncols + extra with some zero entries,
    zero rows and dependent rows, so that leading minors often vanish."""
    def entry():
        if rng.random() < 0.3:
            return 0
        return rng.randint(-(2**bits), 2**bits)

    rows = [[entry() for _ in range(ncols + extra)] for _ in range(nrows)]
    for k in range(1, nrows):
        kind = rng.random()
        if kind < 0.15:
            rows[k] = [0] * (ncols + extra)
        elif kind < 0.35:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[k] = [a * x + b * y for x, y in zip(rows[0], rows[k - 1])]
    return rows


def test_rref_unit_pivots_and_cleared_columns():
    rows = [[2, 4, 6], [1, 3, 5], [0, 2, 4]]
    red, pivots = echelon(rows, 3)
    unit = unit_rows(red, pivots)
    for r, c in enumerate(pivots):
        assert unit[r][c] == 1
        assert all(u * red[r][c] == v for u, v in zip(unit[r], red[r]))
        for k in range(len(unit)):
            if k != r:
                assert unit[k][c] == 0


def test_rref_is_canonical_for_the_row_space():
    rng = random.Random(1)
    for _ in range(50):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        red = unit_rows(*echelon(rows, 4))
        # a shuffled, rescaled generating set gives the same canonical form
        mixed = [[3 * x for x in row] for row in reversed(rows)]
        mixed.append([a + b for a, b in zip(rows[0], rows[-1])])
        assert unit_rows(*echelon(mixed, 4)) == red


def test_rank_matches_bareiss_oracle():
    rng = random.Random(2)
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = _rows(rng, rng.randint(1, 5), ncols, rng.choice([0, 0, 2]), rng.choice([2, 4, 110]))
        want = oracle_rank([r[:ncols] for r in rows])
        work = list(rows)
        pivots, _ = bareiss(work, ncols)
        assert len(pivots) == want
        # rows from the rank onwards are zero in the scanned columns
        assert all(not any(r[:ncols]) for r in work[want:])


def test_det_matches_cofactor_oracle():
    rng = random.Random(4)
    swapped = 0
    for _ in range(200):
        m = [[rng.randint(-5, 5) if rng.random() < 0.7 else 0 for _ in range(3)] for _ in range(3)]
        work = [list(r) for r in m]
        pivots, swaps = bareiss(work, 3)
        swapped += swaps > 0
        value = (-1) ** swaps * work[2][2] if len(pivots) == 3 else 0
        assert value == oracle_det3(m)
    assert swapped


def test_nullspace_annihilates_and_has_complementary_dimension():
    rng = random.Random(3)
    for _ in range(200):
        ncols = rng.randint(2, 6)
        rows = _rows(rng, rng.randint(1, 4), ncols, 0, rng.choice([2, 4, 110]))
        null, pivots = kernel(rows, ncols)
        assert len(null) == ncols - oracle_rank(rows)
        assert (null, pivots) == echelon(null, ncols)
        for v in null:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_echelon_matches_elimination_reference():
    rng = random.Random(5)
    for _ in range(3000):
        ncols = rng.randint(1, 6)
        rows = _rows(rng, rng.randint(1, 5), ncols, rng.choice([0, 0, 1, 3]), rng.choice([2, 4, 110]))
        assert echelon(rows, ncols) == reference_echelon(rows, ncols)


def test_echelon_named_cases():
    cases = [
        ([[0, 1, 2]], 3),  # zero leading entry
        ([[2, 4, 6]], 3),  # content to divide out
        ([[-3, 0, 6]], 3),  # negative pivot
        ([[1, 2, 3], [2, 4, 5]], 3),  # zero leading 2x2 minor
        ([[1, 2, 3], [2, 4, 6]], 3),  # dependent rows
        ([[1, 2, 3], [0, 0, 0]], 3),  # zero row
        ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 3),  # permuted identity
        ([[1, 2], [3, 4], [5, 6]], 2),  # more rows than columns
        ([[2, 1, 1, 0], [1, 1, 0, 1]], 2),  # [A | I] of a projector
        ([[2**120 + 1, 3, 5, 7], [5, 2**101, 1, 1], [1, 1, -(2**130), 9]], 4),  # wide entries
    ]
    for rows, ncols in cases:
        assert echelon(rows, ncols) == reference_echelon(rows, ncols)


_entries = st.one_of(st.integers(-3, 3), st.integers(-(2**130), 2**130))


@st.composite
def _row_lists(draw):
    ncols = draw(st.integers(1, 5))
    width = ncols + draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(_entries, min_size=width, max_size=width), min_size=1, max_size=4))
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return rows, ncols


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_row_lists())
def test_echelon_property(case):
    rows, ncols = case
    assert echelon(rows, ncols) == reference_echelon(rows, ncols)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_entries, st.fractions(max_denominator=50)), min_size=1, max_size=6))
def test_primitive_int_and_rational_paths_agree(vec):
    if not any(vec):
        with pytest.raises(ValueError):
            primitive(vec)
        return
    got = primitive(vec)
    assert primitive([Fraction(v) for v in vec]) == got
    assert all(type(v) is int for v in got) and gcd(*got) == 1
    assert next(v for v in got if v) > 0
    # got is a positive rational multiple of vec
    k = next(i for i, v in enumerate(vec) if v)
    assert all(Fraction(g) * vec[k] == Fraction(v) * got[k] for g, v in zip(got, vec))
