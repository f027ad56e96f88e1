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
