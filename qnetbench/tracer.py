"""Span recorder for the traced run, installed from outside the package.

Every public function of each layer module is wrapped, and the wrapper is
bound in place of the original in every ``qnets`` module (and module-level
dict) that holds it, because the modules import each other's functions by
name: ``meet`` lives in ``projective`` but ``qnet``, ``construct``,
``invariants``, ``lifts`` and ``netfile`` call their own imported binding.
Nothing under ``src/qnets`` changes; ``uninstall`` restores every binding.

Each call records one span (item, name, parent, start, end).  Counters that
need to look at arguments or results (matrix cells, coordinate bits,
distinct meet arguments, document bytes) run after the span has ended, and their cost is
subtracted from every enclosing span so that self times stay honest.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = ("linalg", "projective", "qnet", "invariants", "lifts", "construct", "verify", "netfile")

# Per-vector helpers run inside every point constructor; a span each would
# cost more than the work they do, so their time stays in the caller's span.
UNWRAPPED = {"linalg.as_row", "linalg.dot", "linalg.mat_vec", "linalg.primitive", "qnet.face_sites"}


def _bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _net_bits(net) -> int:
    return max((_bits(c) for p in net._points.values() for c in p.coords), default=0)


def _faces(domain, steps: int) -> int:
    return sum(max(domain.width_i - k, 0) * max(domain.width_j - k, 0) for k in range(steps))


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.stack: list[int] = []
        self.item = 0
        self.hook_time = 0.0
        self.counts: Counter = Counter()
        self.max_bits: Counter = Counter()
        self.meet_args: set = set()
        self._saved: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.max_bits.clear()
        self.meet_args.clear()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {}
        hooks = self._hooks()
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, obj in vars(mod).items():
                full = "%s.%s" % (layer, name)
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and full not in UNWRAPPED
                ):
                    originals[id(obj)] = (obj, self._wrap(full, obj, hooks.get(full)))
        derive = self.modules["construct"]._derive
        originals[id(derive)] = (derive, self._counting("construct.attempts", derive))
        for mod in self.modules.values():
            namespace = vars(mod)
            for name, obj in list(namespace.items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._bind(namespace, name, originals[id(obj)][1])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in originals and originals[id(value)][0] is value:
                            self._bind(obj, key, originals[id(value)][1])
        hpoint = self.modules["projective"].HPoint
        init = hpoint.__init__
        counts = self.counts

        def counted_init(point, coords):
            counts["projective.hpoint.created"] += 1
            init(point, coords)

        self._saved.append((hpoint, "__init__", init))
        hpoint.__init__ = counted_init

    def _bind(self, table: dict, key, value) -> None:
        self._saved.append((table, key, table[key]))
        table[key] = value

    def uninstall(self) -> None:
        while self._saved:
            target, key, value = self._saved.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    # -- recording ----------------------------------------------------------

    def _counting(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            hooks_before = self.hook_time
            failed = True
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.item, name, parent, start, end, end - start - (self.hook_time - hooks_before), failed)
                if hook is not None:
                    hook(args, kwargs, result, failed)
                    self.hook_time += perf_counter() - end

        return wrapper

    def _hooks(self) -> dict:
        counts, max_bits = self.counts, self.max_bits

        def rref(args, kwargs, result, failed):
            rows = args[0]
            ncols = args[1] if len(args) > 1 else kwargs["ncols"]
            counts["linalg.rref.cells"] += len(rows) * ncols
            bits = max((_bits(x) for row in rows for x in row), default=0)
            if bits > max_bits["linalg.rref"]:
                max_bits["linalg.rref"] = bits

        def meet(args, kwargs, result, failed):
            a, b = args[0], args[1]
            self.meet_args.add((a.ambient_dim, a.basis, b.basis))

        def produced(net):
            bits = _net_bits(net)
            if bits > max_bits["qnet.coords"]:
                max_bits["qnet.coords"] = bits

        def laplace_iterate(args, kwargs, result, failed):
            if failed:
                return
            net, m = args[0], args[1]
            if hasattr(result, "steps_completed"):
                steps = result.steps_completed
                counts["qnet.terminations"] += 1
            else:
                steps = abs(m)
                produced(result)
            counts["qnet.laplace_steps"] += steps
            counts["qnet.faces_transformed"] += _faces(net.domain, steps)

        def single_step(args, kwargs, result, failed):
            if not failed:
                counts["qnet.laplace_steps"] += 1
                counts["qnet.faces_transformed"] += _faces(args[0].domain, 1)
                produced(result)

        def transform_points(args, kwargs, result, failed):
            if not failed:
                counts["qnet.faces_transformed"] += _faces(args[0].domain, 1)
                bits = max((_bits(c) for p in result.values() for c in p.coords), default=0)
                if bits > max_bits["qnet.coords"]:
                    max_bits["qnet.coords"] = bits

        def diagonal(args, kwargs, result, failed):
            if not failed:
                produced(result)

        def read_doc(args, kwargs, result, failed):
            counts["netfile.bytes"] += len(json.dumps(args[0], separators=(",", ":")))

        def write_doc(args, kwargs, result, failed):
            if not failed:
                counts["netfile.bytes"] += len(json.dumps(result, separators=(",", ":")))

        def invariants(args, kwargs, result, failed):
            if not failed:
                counts["invariants.entries"] += len(result.h) + len(result.k)

        return {
            "linalg.rref": rref,
            "projective.meet": meet,
            "qnet.laplace_iterate": laplace_iterate,
            "qnet.laplace_forward": single_step,
            "qnet.laplace_backward": single_step,
            "qnet.transform_points": transform_points,
            "qnet.diagonal_intersection_net": diagonal,
            "invariants.laplace_invariants": invariants,
            "netfile.net_from_dict": read_doc,
            "netfile.net_to_dict": write_doc,
        }

    # -- reduction ----------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Span duration minus the durations of its child spans."""
    out = [s[5] for s in spans]
    for item, name, parent, start, end, dur, failed in spans:
        if parent >= 0:
            out[parent] -= dur
    return out


def layer_spans(spans: list, prefix: str) -> list:
    """The spans of one layer, each parent re-pointed into the kept list
    (-1 when the parent belongs to another layer)."""
    kept: dict = {}
    out = []
    for k, s in enumerate(spans):
        if s[1].startswith(prefix):
            kept[k] = len(out)
            out.append(s[:2] + (kept.get(s[2], -1),) + s[3:])
    return out


def write_spans(path, segments: dict) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("segment\tindex\titem\tname\tparent\tstart\tend\tfailed\n")
        for segment, spans in segments.items():
            for k, (item, name, parent, start, end, dur, failed) in enumerate(spans):
                fh.write("%s\t%d\t%d\t%s\t%d\t%.9f\t%.9f\t%d\n" % (segment, k, item, name, parent, start, end, failed))


def _outermost(spans: list, prefix: str) -> list:
    """Spans of one layer that no other span of the same layer encloses."""
    inside = [False] * len(spans)
    out = []
    for k, s in enumerate(spans):
        p = s[2]
        inside[k] = p >= 0 and (inside[p] or spans[p][1].startswith(prefix))
        if s[1].startswith(prefix) and not inside[k]:
            out.append(s)
    return out


def layer_metrics(spans: list, setup_spans: list, setup_attempts: int, tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass.

    ``construct.*`` also count the set-up spans and seeded attempts, because
    on ``sequence`` the generators run only while the inputs are built.
    """
    calls: Counter = Counter()
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    wall_by_name: Counter = Counter()
    for s, own in zip(spans, self_times(spans)):
        name = s[1]
        calls[name] += 1
        self_by_name[name] += own
        self_by_layer[name.split(".")[0]] += own
        wall_by_name[name] += s[5]
    construct_self = sum(
        own
        for table in (setup_spans, spans)
        for s, own in zip(table, self_times(table))
        if s[1].startswith("construct.")
    )
    construct_calls = sum(1 for table in (setup_spans, spans) for s in table if s[1].startswith("construct."))
    top = _outermost(setup_spans, "construct.") + _outermost(spans, "construct.")
    successes = sum(1 for s in top if not s[6])
    counts = tracer.counts
    meet_calls = calls["projective.meet"]
    m = {
        "linalg.rref.calls": calls["linalg.rref"],
        "linalg.rref.self_s": self_by_name["linalg.rref"],
        "linalg.rref.cells": counts["linalg.rref.cells"],
        "linalg.rref.max_bits": tracer.max_bits["linalg.rref"],
        "linalg.nullspace.calls": calls["linalg.nullspace"],
        "linalg.self_s": self_by_layer["linalg"],
        "qnet.max_coord_bits": tracer.max_bits["qnet.coords"],
        "projective.meet.calls": meet_calls,
        "projective.meet.self_s": self_by_name["projective.meet"],
        "projective.join.calls": calls["projective.join"],
        "projective.join.self_s": self_by_name["projective.join"],
        "projective.hpoint.created": counts["projective.hpoint.created"],
        "projective.cross_ratio.calls": calls["projective.cross_ratio"],
        "projective.self_s": self_by_layer["projective"],
        "projective.meet.distinct_ratio": len(tracer.meet_args) / meet_calls if meet_calls else 0.0,
        "qnet.laplace_steps": counts["qnet.laplace_steps"],
        "qnet.faces_transformed": counts["qnet.faces_transformed"],
        "invariants.laplace_invariants.calls": calls["invariants.laplace_invariants"],
        "invariants.entries": counts["invariants.entries"],
        "qnet.terminations": counts["qnet.terminations"],
        "qnet.check_nondegenerate.calls": calls["qnet.check_nondegenerate"],
        "qnet.self_s": self_by_layer["qnet"],
        "invariants.self_s": self_by_layer["invariants"],
        "construct.calls": construct_calls,
        "construct.attempts_per_success": (counts["construct.attempts"] + setup_attempts) / successes if successes else 0.0,
        "construct.failures": len(top) - successes,
        "construct.self_s": construct_self,
        "lifts.lift.calls": calls["lifts.lift"],
        "lifts.embed_and_lift.calls": calls["lifts.embed_and_lift"],
        "lifts.self_s": self_by_layer["lifts"],
        "verify.self_s": self_by_layer["verify"],
        "netfile.read_s": wall_by_name["netfile.net_from_dict"],
        "netfile.write_s": wall_by_name["netfile.net_to_dict"],
        "netfile.bytes": counts["netfile.bytes"],
    }
    for suite in ("recurrence", "termination", "symmetry", "quadric"):
        m["verify.%s.wall_s" % suite] = wall_by_name["verify.suite_%s" % suite]
    return m
