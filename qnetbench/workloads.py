"""The three workloads: inputs from the seed, the timed items, and their checks.

A workload builds its inputs in ``setup``, one batch per set-up, runs
``SETUPS`` set-ups (``setup_s`` is their median), and then runs passes for
the length of the run.  A pass is a fixed list of items;
``run_pass(q, state, k)`` runs pass ``k`` and returns one ``Item`` per unit
of work with its wall time, the ``QnetsError`` it raised (if any) and the
output to check.  Items carry a key: two items with
the same key did the same work and must give the same output digest.

``q`` is the namespace of freshly imported ``qnets`` modules, so that the
workload code uses the classes of the import that set-up timed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter, process_time

import oracle

DEFAULT_SEED = 0


def derive(seed: int, *labels) -> int:
    """Child seed of the workload seed, independent of PYTHONHASHSEED."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class Item:
    key: tuple
    position: tuple
    seconds: float
    cpu: float
    error: Exception | None
    output: object


def _call(q, key, position, fn) -> Item:
    """Run one item.  ``position`` names its place in a pass: items at the
    same position of different passes do the same kind of work."""
    cpu, start = process_time(), perf_counter()
    try:
        out, err = fn(), None
    except q.errors.QnetsError as exc:
        out, err = None, exc
    return Item(key, position, perf_counter() - start, process_time() - cpu, err, out)


def _fraction_str(v) -> str:
    return "%d/%d" % (v.numerator, v.denominator)


def _doc_problems(where: str, doc: dict, coords: dict) -> list[str]:
    i0, j0 = doc["i_range"][0], doc["j_range"][0]
    written = {
        (i0 + di, j0 + dj): tuple(entry)
        for di, row in enumerate(doc["points"])
        for dj, entry in enumerate(row)
    }
    expected = {s: tuple(str(v) for v in c) for s, c in coords.items()}
    return [] if written == expected else ["%s: written document differs from the net" % where]


def _net_problems(where: str, net) -> list[str]:
    pts = oracle.net_coords(net)
    bad = [p for s, c in pts.items() for p in oracle.canonical_problems("%s %s" % (where, s), c)]
    return bad + ["%s: %s" % (where, p) for p in oracle.planar_face_problems(pts, net.domain)]


class Sequence:
    """Two-sided Laplace sequences with the invariants of every layer.

    Each of the three set-up batches builds two deep candidates (10x10 quads
    in RP^3) and one wide candidate (6x6 quads in RP^12) with ``random_qnet``.
    A candidate that raises is one failed item and is not replaced; about
    half of the deep candidates fail at this shape, so six are built.  Pass k
    runs one deep and one wide net, round-robin over the candidates that were
    built, so that every pass does the same kind of work.
    """

    name = "sequence"
    SETUPS = 3
    BATCH = (("deep", 10, 10, 3, 2), ("wide", 6, 6, 12, 1))

    def new_state(self, seed: int) -> dict:
        return {"seed": seed, "docs": {"deep": [], "wide": []}, "nets": [], "setup_items": [], "material": []}

    def setup(self, q, state, batch: int) -> None:
        for shape, a, b, n, count in self.BATCH:
            for c in range(batch * count, (batch + 1) * count):
                s = derive(state["seed"], "sequence", shape, c)
                label = "%s[%d] random_qnet(%d,%d,%d,%d)" % (shape, c, a, b, n, s)
                try:
                    net = q.construct.random_qnet(a, b, n, s)
                except q.errors.QnetsError as exc:
                    state["setup_items"].append((label, exc))
                    state["material"].append({"shape": shape, "seed": s, "error": type(exc).__name__})
                    continue
                doc = q.netfile.net_to_dict(net)
                state["setup_items"].append((label, None))
                state["nets"].append((label, net))
                state["docs"][shape].append((c, doc))
                state["material"].append({"shape": shape, "seed": s, "net": doc})

    def warm_up(self, q, state) -> None:
        for docs in state["docs"].values():
            if docs:
                net = q.netfile.net_from_dict(docs[0][1])
                small = net.restricted(net.domain.sub(0, 3, 0, 3))
                q.invariants.laplace_invariants(q.qnet.laplace_iterate(small, 1))
                return

    def pass_nets(self, state, k: int) -> list:
        return [(shape, docs[k % len(docs)]) for shape, docs in state["docs"].items() if docs]

    def run_pass(self, q, state, k: int, tracer=None) -> list[Item]:
        items: list[Item] = []
        for shape, (c, doc) in self.pass_nets(state, k):
            items.extend(self._net_items(q, (shape, c), doc, tracer, len(items)))
        return items

    def _net_items(self, q, key, doc, tracer, first) -> list[Item]:
        qnet, inv, nf = q.qnet, q.invariants, q.netfile
        items: list[Item] = []
        parsed = []

        def layer(cur, sign):
            if cur is None:
                cur = nf.net_from_dict(doc)
                parsed.append(cur)
            nxt = qnet.laplace_iterate(cur, sign)
            if isinstance(nxt, qnet.TerminationReport):
                return ("terminated", cur, nxt)
            return ("layer", cur, nxt, inv.laplace_invariants(nxt), nf.net_to_dict(nxt))

        for sign in (1, -1):
            cur = parsed[0] if parsed else None
            step = 0
            while cur is None or (cur.domain.width_i >= 1 and cur.domain.width_j >= 1):
                step += 1
                if tracer is not None:
                    tracer.item = first + len(items)
                item = _call(q, key + (sign * step,), (key[0], sign * step), lambda: layer(cur, sign))
                items.append(item)
                if item.error is not None or item.output[0] == "terminated":
                    break
                cur = item.output[2]
            if not parsed:
                return items
        if tracer is not None:
            tracer.item = first + len(items)
        net = parsed[0]
        items.append(
            _call(q, key + ("once",), (key[0], "once"), lambda: ("once", net, inv.hk_shift_check(net), qnet.diagonal_intersection_net(net)))
        )
        return items

    def material(self, q, item: Item):
        step = item.key[-1]
        if item.error is not None:
            return {"step": step, "error": type(item.error).__name__}
        out = item.output
        if out[0] == "terminated":
            rep = out[2]
            return {"step": step, "terminated": [rep.steps_completed, rep.report.kind, rep.direction]}
        if out[0] == "once":
            return {"hk_shift": out[2], "diagonal": q.netfile.net_to_dict(out[3])}
        field = out[3]
        return {
            "step": step,
            "net": out[4],
            "H": [[i, j, _fraction_str(v)] for (i, j), v in sorted(field.h.items())],
            "K": [[i, j, _fraction_str(v)] for (i, j), v in sorted(field.k.items())],
        }

    def check(self, q, item: Item) -> list[str]:
        where = "%s step %s" % (item.key[:2], item.key[-1])
        out = item.output
        if item.error is not None or out[0] == "terminated":
            return []
        if out[0] == "once":
            bad = [] if out[2] is True else ["%s: hk_shift_check reported a mismatch" % where]
            return bad + oracle.diagonal_problems(oracle.net_coords(out[1]), oracle.net_coords(out[3]))
        cur, nxt, doc = out[1], out[2], out[4]
        layer = oracle.net_coords(nxt)
        direction = "forward" if item.key[-1] > 0 else "backward"
        bad = [p for s, c in layer.items() for p in oracle.canonical_problems("%s %s" % (where, s), c)]
        bad += ["%s: %s" % (where, p) for p in oracle.transform_problems(oracle.net_coords(cur), layer, direction)]
        return bad + _doc_problems(where, doc, layer)

    def check_setup(self, q, state) -> dict:
        found = {label: _net_problems(label, net) for label, net in state["nets"]}
        return {label: bad for label, bad in found.items() if bad}


# (label, call, promised terminations).  A promise (m, kind) says that the
# m-th transform (backward for m < 0) degenerates in that way.
GENERATORS = (
    ("random_qnet.rp3", lambda C, s: C.random_qnet(4, 4, 3, s), ()),
    ("random_qnet.rp8", lambda C, s: C.random_qnet(4, 4, 8, s), ()),
    ("random_qnet.rp12", lambda C, s: C.random_qnet(4, 4, 12, s), ()),
    ("random_laplace_degenerate_net", lambda C, s: C.random_laplace_degenerate_net(3, 3, 3, s), ((1, "laplace"),)),
    ("random_goursat_net", lambda C, s: C.random_goursat_net(3, 3, 3, s), ((1, "goursat"),)),
    ("random_bs_koenigs", lambda C, s: C.random_bs_koenigs(4, 4, 3, s), ()),
    (
        "extend_laplace_degenerate.m2",
        lambda C, s: C.extend_laplace_degenerate(C.laplace_degenerate_boundary(2, 3, 4, 3, s), 2),
        ((2, "laplace"),),
    ),
    (
        "extend_laplace_degenerate.m3",
        lambda C, s: C.extend_laplace_degenerate(C.laplace_degenerate_boundary(3, 4, 5, 3, s), 3),
        ((3, "laplace"),),
    ),
    (
        "construct_double_degenerate.m2",
        lambda C, s: C.construct_double_degenerate(C.double_degenerate_boundary(2, 3, 3, 3, s), 2),
        ((2, "laplace"), (-2, "laplace")),
    ),
    (
        "construct_double_degenerate.m3",
        lambda C, s: C.construct_double_degenerate(C.double_degenerate_boundary(3, 4, 4, 3, s), 3),
        ((3, "laplace"), (-3, "laplace")),
    ),
    ("bs_goursat_net.m1", lambda C, s: C.bs_goursat_net(1, 3, 4, s), ((1, "goursat"),)),
    ("bs_goursat_net.m2", lambda C, s: C.bs_goursat_net(2, 4, 5, s), ((2, "goursat"),)),
)


class Generate:
    """The seeded generators and completions behind ``qnets generate`` and
    ``qnets construct``.  Pass k is one round: each generator once, with a
    seed derived from the workload seed, k and the generator.  An item is the
    call plus ``net_to_dict`` of its net, the document both commands write."""

    name = "generate"
    SETUPS = 25

    def new_state(self, seed: int) -> dict:
        return {"seed": seed, "setup_items": [], "material": []}

    def setup(self, q, state, batch: int) -> None:
        pass

    def warm_up(self, q, state) -> None:
        q.construct.random_qnet(2, 2, 3, derive(state["seed"], "warm-up"))

    def run_pass(self, q, state, k: int, tracer=None) -> list[Item]:
        items = []
        for g, (label, call, _) in enumerate(GENERATORS):
            if tracer is not None:
                tracer.item = g
            s = derive(state["seed"], "generate", k, g)
            items.append(_call(q, (k, label, s), (label,), lambda: self._generate(q, call, s)))
        return items

    @staticmethod
    def _generate(q, call, s):
        """One generator call and the document the CLI writes for its net."""
        net = call(q.construct, s)
        return net, q.netfile.net_to_dict(net)

    def material(self, q, item: Item):
        if item.error is not None:
            return {"seed": item.key[2], "error": type(item.error).__name__}
        return {"seed": item.key[2], "net": item.output[1]}

    def check(self, q, item: Item) -> list[str]:
        if item.error is not None:
            return []
        where = "%s seed %d" % item.key[1:]
        net, doc = item.output
        bad = _net_problems(where, net) + _doc_problems(where, doc, oracle.net_coords(net))
        promises = next(p for label, _, p in GENERATORS if label == item.key[1])
        for m, kind in promises:
            bad += ["%s: %s" % (where, p) for p in _termination_problems(q, net, m, kind)]
        return bad

    def check_setup(self, q, state) -> dict:
        return {}


def _termination_problems(q, net, m: int, kind: str) -> list[str]:
    """Iterate |m| single steps, verify every transform point with the rank
    oracle, and classify the last layer."""
    direction = "forward" if m > 0 else "backward"
    cur = net
    for step in range(abs(m)):
        nxt = q.qnet.laplace_iterate(cur, 1 if m > 0 else -1)
        if isinstance(nxt, q.qnet.TerminationReport):
            return ["%s sequence stops at step %d before step %d" % (direction, step, abs(m))]
        bad = oracle.transform_problems(oracle.net_coords(cur), oracle.net_coords(nxt), direction)
        if bad:
            return bad
        cur = nxt
    pts, dom = oracle.net_coords(cur), cur.domain
    if m < 0:
        pts, dom = {(j, i): p for (i, j), p in pts.items()}, dom.transposed()
    found = oracle.degeneracy_kind(pts, dom)
    return [] if found == kind else ["transform %d is %r, promised %r" % (m, found, kind)]


class Verify:
    """``qnets verify --suite all`` in-process: one item is one call of
    ``run_suites("all", SEEDS)``.  The suites enumerate seeds 0..SEEDS-1
    themselves, so the workload seed does not reach them."""

    name = "verify"
    SETUPS = 9
    SEEDS = 1
    PROPERTIES = (
        "recurrence/matches-geometric-field",
        "recurrence/shift-identities",
        "termination/laplace-m1-backward-m2",
        "termination/laplace-m2-backward-m3",
        "termination/laplace-m3-backward-m4",
        "termination/goursat-m1-backward-m3",
        "termination/goursat-m2-backward-m4",
        "termination/double-m2",
        "termination/double-m3",
        "termination/generic-m2-not-doubly-degenerate",
        "symmetry/invariants-m0",
        "symmetry/invariants-m1",
        "symmetry/forward-P-backward-D-coupling",
        "symmetry/backward-point-identity",
        "quadric/conjugacy-agreement",
        "quadric/singular-point-checks",
    )
    # Records one aggregate result over all seeds rather than one per seed.
    AGGREGATED = {"termination/generic-m2-not-doubly-degenerate"}

    def new_state(self, seed: int) -> dict:
        return {"seed": seed, "setup_items": [], "material": []}

    def setup(self, q, state, batch: int) -> None:
        pass

    def warm_up(self, q, state) -> None:
        q.verify.run_suites("recurrence", 1)

    def run_pass(self, q, state, k: int, tracer=None) -> list[Item]:
        if tracer is not None:
            tracer.item = 0
        return [_call(q, ("all", self.SEEDS), ("all",), lambda: q.verify.run_suites("all", self.SEEDS))]

    def material(self, q, item: Item):
        if item.error is not None:
            return {"error": type(item.error).__name__}
        return [[r.name, r.passed, r.total, r.failures] for r in item.output]

    def check(self, q, item: Item) -> list[str]:
        if item.error is not None:
            return []
        got = [(r.name, r.passed, r.failed) for r in item.output]
        want = [(name, 1 if name in self.AGGREGATED else self.SEEDS, 0) for name in self.PROPERTIES]
        if got == want:
            return []
        return ["verify reported %s, expected %s" % (got, want)]

    def check_setup(self, q, state) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Sequence(), Generate(), Verify())}


def digest(material) -> str:
    return hashlib.sha256(json.dumps(material, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
