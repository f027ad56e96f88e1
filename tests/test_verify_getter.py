"""The per-call getter of ``verify.run_suites``: the symmetry suite's coupled
pair (P and the backward transform of its diagonal net) is built once per
seed for both properties that check it, so a memo key that never matches
shows up as a second ``diagonal_intersection_net`` call per seed."""

from qnets import verify


def test_diagonal_net_is_built_once_per_seed(monkeypatch):
    calls = []
    build = verify.diagonal_intersection_net

    def counted(net):
        calls.append(net)
        return build(net)

    monkeypatch.setattr(verify, "diagonal_intersection_net", counted)
    results = verify.run_suites("all", 2)
    assert calls == [verify._laplace_m2(0), verify._laplace_m2(1)]
    assert all(r.failed == 0 for r in results)
    verify.run_suites("symmetry", 1)
    assert calls[2:] == [verify._laplace_m2(0)]
