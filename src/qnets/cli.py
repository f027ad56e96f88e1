"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 usage, I/O, or data
errors.  With --json, errors go to stderr as one machine-readable JSON
object.  QNET_SEED provides the default seed for all seeded commands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import construct
from .errors import QnetsError
from .invariants import is_bs_koenigs, is_d_koenigs, laplace_invariants
from .netfile import (
    invariants_to_csv,
    net_to_csv,
    net_to_obj,
    read_net,
    write_net,
)
from .qnet import (
    QNet,
    TerminationReport,
    check_extensive,
    check_nondegenerate,
    diagonal_intersection_net,
    laplace_iterate,
    validate_qnet,
)
from .verify import SUITES, run_suites


class UsageError(Exception):
    """A command line, environment or input the command cannot run with
    (exit code 2); its JSON error kind is "UsageError"."""


class _ArgumentError(UsageError):
    """An argparse error, with the parser that found it."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse's parser, raising its errors for ``main`` to report."""

    def error(self, message):
        raise _ArgumentError(self, message)


def _default_seed() -> int:
    raw = os.environ.get("QNET_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError("QNET_SEED must be an integer, got %r" % raw)


def _read_complete(path: str) -> QNet:
    net = read_net(path)
    if not isinstance(net, QNet):
        raise UsageError("%s holds boundary data, not a complete net" % path)
    return net


def _cmd_generate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.koenigs == "bs":
        net = construct.random_bs_koenigs(args.rows, args.cols, args.dim, seed)
    else:
        net = construct.random_qnet(args.rows, args.cols, args.dim, seed)
    write_net(args.output, net)
    return 0


def _cmd_laplace(args) -> int:
    net = _read_complete(args.input)
    result = laplace_iterate(net, args.steps)
    if isinstance(result, TerminationReport):
        doc = {
            "terminated_at": result.steps_completed,
            "kind": result.report.kind,
            "direction": result.direction,
        }
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    else:
        write_net(args.output, result)
    return 0


def _cmd_invariants(args) -> int:
    net = _read_complete(args.input)
    with open(args.output, "w") as fh:
        fh.write(invariants_to_csv(laplace_invariants(net)))
    return 0


def _cmd_check(args) -> int:
    net = _read_complete(args.input)
    report = {
        "planar_face_violations": [list(f) for f in validate_qnet(net)],
        "nondegeneracy_violations": len(check_nondegenerate(net)),
    }
    ok = not report["planar_face_violations"] and report["nondegeneracy_violations"] == 0
    if args.extensive:
        report["extensive"] = check_extensive(net)
        ok = ok and report["extensive"]
    if args.koenigs == "bs":
        report["bs_koenigs"] = is_bs_koenigs(net)
        ok = ok and report["bs_koenigs"]
    elif args.koenigs == "d":
        report["d_koenigs"] = is_d_koenigs(net)
        ok = ok and report["d_koenigs"]
    report["ok"] = ok
    print(json.dumps(report, indent=1))
    return 0 if ok else 1


def _cmd_diagonal(args) -> int:
    net = _read_complete(args.input)
    write_net(args.output, diagonal_intersection_net(net))
    return 0


def _cmd_lift(args) -> int:
    from .lifts import embed_and_lift

    net = _read_complete(args.input)
    seed = args.seed if args.seed is not None else _default_seed()
    result = embed_and_lift(net, seed)
    write_net(args.output, result.lifted)
    if args.emit_center:
        doc = {
            "ambient_dim": result.lifted.ambient_dim,
            "center_basis": [[str(c) for c in row] for row in result.center.basis],
            "screen_basis": [[str(c) for c in row] for row in result.screen.basis],
        }
        with open(args.emit_center, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


def _cmd_construct(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    m = args.m
    if args.boundary:
        boundary = read_net(args.boundary)
        if isinstance(boundary, QNet):
            part = construct.PartialNet(boundary.domain, boundary.ambient_dim, boundary.points())
        else:
            part = boundary
    elif args.mode == "laplace":
        if m == 1:
            write_net(args.output, construct.bs_laplace_degenerate_m1(3, 3, 3, seed))
            return 0
        part = construct.laplace_degenerate_boundary(m, m + 1, m + 2, 3, seed)
    else:
        part = construct.double_degenerate_boundary(m, max(m + 1, 2), max(m + 1, 2), 3, seed)
    if args.mode == "laplace":
        net = construct.extend_laplace_degenerate(part, m)
    else:
        net = construct.construct_double_degenerate(part, m)
    write_net(args.output, net)
    return 0


def _cmd_verify(args) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1, got %d" % args.seeds)
    results = run_suites(args.suite, args.seeds)
    doc = []
    failed = False
    for res in results:
        line = "%s: %d/%d" % (res.name, res.passed, res.total)
        if res.failed:
            failed = True
            line += "  FAIL (%s)" % "; ".join(res.failures[:3])
        if args.json:
            doc.append(
                {
                    "property": res.name,
                    "passed": res.passed,
                    "total": res.total,
                    "failures": res.failures,
                }
            )
        else:
            print(line)
    if args.json:
        print(json.dumps(doc, indent=1))
    return 1 if failed else 0


def _cmd_export(args) -> int:
    net = _read_complete(args.input)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.format == "obj":
        text = net_to_obj(net, seed)
    else:
        text = net_to_csv(net)
    with open(args.output, "w") as fh:
        fh.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qnets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable errors on stderr")

    p = sub.add_parser("generate", help="random net generation")
    p.add_argument("--rows", type=int, required=True, help="quads along the first index")
    p.add_argument("--cols", type=int, required=True, help="quads along the second index")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--koenigs", choices=["bs"])
    p.add_argument("-o", "--output", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("laplace", help="iterated Laplace transform")
    p.add_argument("--steps", type=int, required=True, help="signed step count")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_laplace)

    p = sub.add_parser("invariants", help="invariant table as CSV")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("check", help="validity report")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--koenigs", choices=["bs", "d"])
    p.add_argument("--extensive", action="store_true")
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("diagonal", help="diagonal intersection net")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_diagonal)

    p = sub.add_parser("lift", help="extensive lift")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--emit-center")
    add_json(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("construct", help="degenerate-sequence constructions")
    p.add_argument("--mode", choices=["laplace", "double"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("-b", "--boundary")
    p.add_argument("-o", "--output", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="property suites")
    p.add_argument("--suite", choices=["all", *SUITES], required=True)
    p.add_argument("--seeds", type=int, default=10)
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="OBJ or CSV export")
    p.add_argument("--format", choices=["obj", "csv"], required=True)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int)
    add_json(p)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    raw = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(raw)
    except _ArgumentError as exc:
        # argparse accepts any unambiguous prefix of --json.
        if not any(isinstance(a, str) and len(a) > 2 and "--json".startswith(a) for a in raw):
            argparse.ArgumentParser.error(exc.parser, str(exc))
        _emit_error(exc, True)
        return 2
    use_json = getattr(args, "json", False)
    try:
        return args.func(args)
    except (QnetsError, OSError, UsageError, ValueError) as exc:
        # ValueError: the library's own argument checks (window sizes,
        # dimensions, step counts), a usage error like the others.
        _emit_error(exc, use_json)
        return 2


def _emit_error(exc: Exception, use_json: bool) -> None:
    if use_json:
        kind = "UsageError" if isinstance(exc, UsageError) else type(exc).__name__
        doc = {"error": kind, "message": str(exc)}
        site = getattr(exc, "site", None)
        if site is not None:
            doc["site"] = list(site) if isinstance(site, tuple) else site
        print(json.dumps(doc), file=sys.stderr)
    else:
        print("error: %s" % exc, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
