import pytest

from qnets import verify
from qnets.errors import ConstructionError


def _counting(monkeypatch, fail: bool) -> list[int]:
    calls: list[int] = []
    build = verify._laplace_m2

    def counted(s: int):
        calls.append(s)
        if fail:
            raise ConstructionError("injected failure")
        return build(s)

    monkeypatch.setattr(verify, "_laplace_m2", counted)
    return calls


def test_m2_instance_is_built_once_per_seed_for_all_suites(monkeypatch):
    calls = _counting(monkeypatch, fail=False)
    results = verify.run_suites("all", 1)
    assert calls == [0]
    assert all(r.failed == 0 for r in results) and len(results) == 16
    verify.run_suites("symmetry", 1)
    assert calls == [0, 0]


def test_instance_failure_fails_each_property_that_uses_it(monkeypatch):
    calls = _counting(monkeypatch, fail=True)
    # With one seed the aggregated generic-m2 property tolerates the miss.
    failures = {r.name: r.failures for r in verify.run_suites("all", 1) if r.failed}
    assert calls == [0]
    label = "seed 0: injected failure"
    assert failures == {
        "termination/laplace-m2-backward-m3": [label],
        "symmetry/forward-P-backward-D-coupling": [label],
        "symmetry/backward-point-identity": [label],
    }


def test_recurrence_net_is_built_once_per_seed(monkeypatch):
    calls: list[tuple] = []
    build = verify.construct.random_qnet

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(verify.construct, "random_qnet", counted)
    results = verify.run_suites("recurrence", 2)
    assert calls == [(3, 3, 3, 0), (3, 3, 3, 1)]
    assert [(r.passed, r.failed) for r in results] == [(2, 0), (2, 0)]


def _counting_koenigs(monkeypatch, fail_shape=None) -> list[tuple]:
    calls: list[tuple] = []
    build = verify.construct.random_bs_koenigs

    def counted(a, b, n, s):
        calls.append((a, b, n, s))
        if (a, b, n) == fail_shape:
            raise ConstructionError("injected failure")
        return build(a, b, n, s)

    monkeypatch.setattr(verify.construct, "random_bs_koenigs", counted)
    return calls


def test_koenigs_instances_are_built_once_per_call(monkeypatch):
    calls = _counting_koenigs(monkeypatch)
    results = verify.run_suites("all", 1)
    assert calls.count((3, 3, 3, 0)) == 1 and calls.count((4, 4, 3, 0)) == 1
    assert all(r.failed == 0 for r in results) and len(results) == 16
    # The shared instances live as long as one call.
    verify.run_suites("all", 1)
    assert calls.count((3, 3, 3, 0)) == 2 and calls.count((4, 4, 3, 0)) == 2


@pytest.mark.parametrize(
    "shape, names",
    [
        ((3, 3, 3), ("termination/double-m2", "symmetry/invariants-m0")),
        ((4, 4, 3), ("termination/double-m3", "symmetry/invariants-m1")),
    ],
)
def test_koenigs_failure_fails_each_property_that_uses_it(monkeypatch, shape, names):
    calls = _counting_koenigs(monkeypatch, fail_shape=shape)
    failures = {r.name: r.failures for r in verify.run_suites("all", 1) if r.failed}
    assert calls.count(shape + (0,)) == 1
    assert failures == {name: ["seed 0: injected failure"] for name in names}


def test_symmetry_suite_alone(monkeypatch):
    calls = _counting_koenigs(monkeypatch)
    results = verify.run_suites("symmetry", 2)
    assert [(r.name, r.passed, r.failed) for r in results] == [
        ("symmetry/invariants-m0", 2, 0),
        ("symmetry/invariants-m1", 2, 0),
        ("symmetry/forward-P-backward-D-coupling", 2, 0),
        ("symmetry/backward-point-identity", 2, 0),
    ]
    for s in (0, 1):
        assert calls.count((3, 3, 3, s)) == 1 and calls.count((4, 4, 3, s)) == 1
