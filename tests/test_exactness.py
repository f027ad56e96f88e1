"""The kernel stays in exact arithmetic: point coordinates are ints, and
ratios, invariants and recurrence values are Fractions (or INFINITY).
Integer coordinates make a plain ``/`` return a float, so every true
division has to be written as a Fraction."""

import random
from fractions import Fraction

from qnets import (
    INFINITY,
    HPoint,
    cross_ratio,
    diagonal_intersection_net,
    embed_and_lift,
    laplace_invariants,
    laplace_iterate,
    multi_ratio,
    random_bs_koenigs,
    random_qnet,
    recurrence_step,
)
from helpers import random_collinear


def _int_points(net) -> bool:
    return all(type(c) is int for s in net.domain.sites() for c in net[s].coords)


def test_point_coordinates_are_ints():
    assert HPoint([Fraction(1, 2), Fraction(3, 4), 1]).coords == (2, 3, 4)
    assert all(type(c) is int for c in HPoint([Fraction(-6, 5), 0, 3]).coords)
    net = random_bs_koenigs(3, 3, 3, 0)
    derived = [
        net,
        laplace_iterate(net, 1),
        laplace_iterate(net, -1),
        diagonal_intersection_net(net),
        embed_and_lift(random_qnet(2, 2, 2, 1), 1).lifted,
    ]
    assert all(_int_points(n) for n in derived)


def test_ratios_are_fractions_or_infinity():
    rng = random.Random(5)
    for _ in range(10):
        pts = random_collinear(rng, 3, 6)
        assert type(cross_ratio(*pts[:4])) is Fraction
        assert type(multi_ratio(*pts)) is Fraction
    p1, p2, p3, p4 = random_collinear(rng, 3, 4)
    assert cross_ratio(p1, p2, p2, p4) is INFINITY


def test_invariants_and_recurrence_are_fractions():
    for seed in range(3):
        net = random_qnet(3, 3, 3, seed)
        f = laplace_invariants(net)
        assert f.h and f.k
        assert all(type(v) is Fraction for v in list(f.h.values()) + list(f.k.values()))
        h1 = laplace_invariants(laplace_iterate(net, 1)).h
        steps = 0
        for (i, j) in h1:
            needed = [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)]
            if all(s in f.h for s in needed) and (i, j + 1) in f.k:
                value = recurrence_step({(i, j): f.k[(i, j + 1)]}, f.h, (i, j))
                assert type(value) is Fraction and value == h1[(i, j)]
                steps += 1
        assert steps > 0
