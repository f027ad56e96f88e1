"""Seeded property suites behind the `verify` CLI command.

Each suite runs a family of exact checks over seeded random instances and
reports pass/fail counts per property.  Everything is deterministic for a
fixed seed count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import construct
from .errors import QnetsError
from .invariants import (
    hk_shift_check,
    invariant_symmetry_check,
    laplace_invariants,
    recurrence_step_from_k,
)
from .lifts import embed_and_lift, koenigs_hyperplanes, quadric_conjugacy_check, singular_point_checks
from .qnet import (
    QNet,
    TerminationReport,
    degenerate_transform,
    diagonal_intersection_net,
    laplace_iterate,
)


@dataclass
class PropertyResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, label: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(label)

    @property
    def total(self) -> int:
        return self.passed + self.failed


def _run(result: PropertyResult, label: str, check) -> None:
    try:
        result.record(bool(check()), label)
    except QnetsError as exc:
        result.failed += 1
        result.failures.append("%s: %s" % (label, exc))


class Build(dict):
    """``build(make, *args)``: ``make(*args)`` memoised by ``make`` and
    ``args`` until cleared, a QnetsError it raises included, so that an
    instance checked by several properties is built once and fails each of
    them with the same label."""

    def __call__(self, make, *args):
        key = (make, args)
        if key not in self:
            try:
                self[key] = make(*args)
            except QnetsError as exc:
                self[key] = exc
        if isinstance(self[key], QnetsError):
            raise self[key]
        return self[key]


def _laplace_m2(s: int) -> QNet:
    return construct.extend_laplace_degenerate(construct.laplace_degenerate_boundary(2, 3, 4, 3, s), 2)


def suite_recurrence(seeds: int, build: Build) -> list[PropertyResult]:
    geometry = PropertyResult("recurrence/matches-geometric-field")
    shifts = PropertyResult("recurrence/shift-identities")
    # Both properties check the same net: build it once per seed.
    base_net = lambda s: build(construct.random_qnet, 3, 3, 3, s)
    for s in range(seeds):
        def check_geometry(s=s):
            net = base_net(s)
            f = laplace_invariants(net)
            fwd = laplace_iterate(net, 1)
            if isinstance(fwd, TerminationReport):
                return False
            h1 = laplace_invariants(fwd).h
            sites = [
                site
                for site in h1
                if all(
                    k in f.h
                    for k in (site, (site[0] + 1, site[1]), (site[0], site[1] + 1), (site[0] + 1, site[1] + 1))
                )
                and (site[0], site[1] + 1) in f.k
            ]
            if not sites:
                return False
            return all(recurrence_step_from_k(f.k, f.h, site) == h1[site] for site in sites)

        _run(geometry, "seed %d" % s, check_geometry)
        _run(shifts, "seed %d" % s, lambda s=s: hk_shift_check(base_net(s)))
    return [geometry, shifts]


def _is_backward_laplace(net: QNet, steps: int) -> bool:
    return degenerate_transform(net, -steps, "laplace") is not None


def suite_termination(seeds: int, build: Build) -> list[PropertyResult]:
    laplace_m2 = lambda s: build(_laplace_m2, s)
    koenigs = lambda key: build(construct.random_bs_koenigs, *key)
    results = []
    cases = [
        ("termination/laplace-m1-backward-m2", lambda s: _is_backward_laplace(construct.bs_laplace_degenerate_m1(3, 3, 3, s), 2)),
        ("termination/laplace-m2-backward-m3", lambda s: _is_backward_laplace(laplace_m2(s), 3)),
        ("termination/laplace-m3-backward-m4", lambda s: _is_backward_laplace(construct.extend_laplace_degenerate(construct.laplace_degenerate_boundary(3, 4, 5, 3, s), 3), 4)),
        ("termination/goursat-m1-backward-m3", lambda s: _is_backward_laplace(construct.bs_goursat_net(1, 3, 4, s), 3)),
        ("termination/goursat-m2-backward-m4", lambda s: _is_backward_laplace(construct.bs_goursat_net(2, 4, 5, s), 4)),
        ("termination/double-m2", lambda s: _double_ok(construct.construct_double_degenerate(construct.double_boundary_of(koenigs((3, 3, 3, s)), 2), 2), 2)),
        ("termination/double-m3", lambda s: _double_ok(construct.construct_double_degenerate(construct.double_boundary_of(koenigs((4, 4, 3, s)), 3), 3), 3)),
    ]
    for name, check in cases:
        res = PropertyResult(name)
        for s in range(seeds):
            _run(res, "seed %d" % s, lambda s=s, check=check: check(s))
        results.append(res)

    generic = PropertyResult("termination/generic-m2-not-doubly-degenerate")
    hits = 0
    for s in range(seeds):
        try:
            if not _is_backward_laplace(laplace_m2(s), 2):
                hits += 1
        except QnetsError:
            pass
    generic.record(hits >= seeds - 1, "%d/%d generic" % (hits, seeds))
    results.append(generic)
    return results


def _double_ok(net: QNet, m: int) -> bool:
    return (
        degenerate_transform(net, m, "laplace") is not None
        and degenerate_transform(net, -m, "laplace") is not None
    )


def _bottom_rows_agree(net: QNet, d_b: QNet | None) -> bool:
    """The bottom row of the backward 3-fold transform of P equals that of
    the backward 2-fold transform of its diagonal net D."""
    if d_b is None:
        return False
    p_b = laplace_iterate(net, -3)
    if isinstance(p_b, TerminationReport):
        return False
    pd = p_b.domain
    return all(p_b[(i, pd.j_min)] == d_b[(i, pd.j_min)] for i in range(pd.i_min, pd.i_max + 1))


def suite_symmetry(seeds: int, build: Build) -> list[PropertyResult]:
    koenigs = lambda key: build(construct.random_bs_koenigs, *key)
    sym0 = PropertyResult("symmetry/invariants-m0")
    sym1 = PropertyResult("symmetry/invariants-m1")
    coupling = PropertyResult("symmetry/forward-P-backward-D-coupling")
    pointid = PropertyResult("symmetry/backward-point-identity")

    def coupled(s: int) -> tuple[QNet, QNet | None]:
        """P and the backward 2-fold transform of its diagonal net when that
        is Laplace degenerate (None otherwise)."""
        net = build(_laplace_m2, s)
        return net, degenerate_transform(diagonal_intersection_net(net), -2, "laplace")

    for s in range(seeds):
        _run(sym0, "seed %d" % s, lambda s=s: invariant_symmetry_check(koenigs((3, 3, 3, s)), 0))
        _run(sym1, "seed %d" % s, lambda s=s: invariant_symmetry_check(koenigs((4, 4, 3, s)), 1))
        _run(coupling, "seed %d" % s, lambda s=s: build(coupled, s)[1] is not None)
        _run(pointid, "seed %d" % s, lambda s=s: _bottom_rows_agree(*build(coupled, s)))
    return [sym0, sym1, coupling, pointid]


def suite_quadric(seeds: int, build: Build) -> list[PropertyResult]:
    conj = PropertyResult("quadric/conjugacy-agreement")
    sing = PropertyResult("quadric/singular-point-checks")

    def on_lifts(s: int, shapes, check) -> bool:
        """``check(lifted, m)`` on the lift of each seeded instance of shape
        (m, a, b, n): a random Q-net for m = 1, a BS-Koenigs net else."""
        ok = True
        for m, a, b, n in shapes:
            make = construct.random_qnet if m == 1 else construct.random_bs_koenigs
            ok = check(embed_and_lift(build(make, a, b, n, s), s).lifted, m) and ok
        return ok

    def conjugacy(lifted: QNet, m: int) -> bool:
        return quadric_conjugacy_check(lifted, koenigs_hyperplanes(lifted).quadric)

    def singular(lifted: QNet, m: int) -> bool:
        report = singular_point_checks(lifted, m)
        return report.ok and report.forward_nonsingular and report.backward_nonsingular

    for s in range(seeds):
        _run(conj, "seed %d" % s, lambda s=s: on_lifts(s, ((1, 1, 1, 2), (2, 2, 2, 3)), conjugacy))
        _run(sing, "seed %d" % s, lambda s=s: on_lifts(s, ((1, 1, 2, 2), (2, 2, 3, 3)), singular))
    return [conj, sing]


SUITES = {
    "recurrence": suite_recurrence,
    "termination": suite_termination,
    "symmetry": suite_symmetry,
    "quadric": suite_quadric,
}


def run_suites(which: str, seeds: int) -> list[PropertyResult]:
    if which != "all" and which not in SUITES:
        raise ValueError("unknown suite %r" % which)
    # The termination and symmetry suites both check the m=2 instance and
    # the random BS-Koenigs nets of shapes (3, 3, 3) and (4, 4, 3): one
    # getter per call builds each of them once per seed for both.
    build = Build()
    out: list[PropertyResult] = []
    for name in SUITES if which == "all" else (which,):
        out.extend(SUITES[name](seeds, build))
    # Local makers such as suite_symmetry's coupled hold the getter that
    # holds them: clearing it frees the instances now, not at the next
    # cycle collection.
    build.clear()
    return out
