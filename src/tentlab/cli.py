"""Command-line entry point.

Subcommands mirror the package modules: ``preimages``, ``sawtooth``,
``probe``, ``commutants``, ``continuable``, ``conjugacy`` and the one-shot
``audit``.  Rationals cross the boundary only as ``p/q`` strings, output is
JSON (or CSV where tabular), and a fixed default seed makes every sampled run
reproducible byte for byte.

Exit codes: 0 on success, 1 when an emitted report contains a failed
verification (a count that enumeration refutes is data, not a crash), 2 on
usage errors such as malformed rationals.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .audit import claims_audit
from .commutants import CommutingTable, audit_counts, brute_force_commuting
from .conjugacy import density_probe, graph_length, iterate_to, slope_measure
from .continuation import (
    ContinuationProblem,
    continuable_audit,
    continuable_from_point,
    enumerate_continuable,
    is_tent_continuable,
    solve_k0,
)
from .piecewise import PiecewiseLinearMap
from .rationals import format_rational, parse_rational
from .sawtooth import classify_solution, linearity_probe, sawtooth, sawtooth_eval
from .tent import preimage_set


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, doc: dict) -> None:
    _emit(args, json.dumps(doc, indent=2) + "\n")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _start_pair(text: str) -> tuple[int, int]:
    try:
        depth, index = text.split(",")
        return int(depth), int(index)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'depth,index', got {text!r}")


def _cmd_preimages(args: argparse.Namespace) -> int:
    if args.method == "both":
        closed = preimage_set(args.n, args.kind, "closed_form")
        iterated = preimage_set(args.n, args.kind, "iterated")
        if closed.numerators != iterated.numerators:
            _emit_json(
                args,
                {
                    "n": args.n,
                    "kind": args.kind,
                    "error": "closed-form and iterated preimages disagree",
                },
            )
            return 1
        result = closed
    else:
        result = preimage_set(args.n, args.kind, args.method)
    _emit_json(args, result.to_json_dict())
    return 0


def _cmd_sawtooth_eval(args: argparse.Namespace) -> int:
    value = sawtooth_eval(args.k, args.x)
    _emit(args, format_rational(value) + "\n")
    return 0


def _cmd_sawtooth_classify(args: argparse.Namespace) -> int:
    with open(args.plm) as handle:
        plm = PiecewiseLinearMap.from_json_dict(json.load(handle))
    result = classify_solution(plm)
    doc: dict = {"classification": result.tag}
    if result.k is not None:
        doc["k"] = result.k
    _emit_json(args, doc)
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    result = linearity_probe(sawtooth(args.k), args.start, args.depth)
    doc = {"k": args.k, "start": list(args.start)}
    doc.update(result.to_json_dict())
    _emit_json(args, doc)
    return 0


def _table_docs(tables: list[CommutingTable]) -> list[dict]:
    return [t.to_json_dict() for t in tables]


def _cmd_commutants_enumerate(args: argparse.Namespace) -> int:
    x0 = args.x0
    tables = brute_force_commuting(args.n, x0=x0, workers=args.workers)
    doc = {
        "n": args.n,
        "x0": format_rational(x0) if x0 is not None else None,
        "count": len(tables),
        "tables": _table_docs(tables),
    }
    _emit_json(args, doc)
    return 0


def _cmd_commutants_audit(args: argparse.Namespace) -> int:
    report = audit_counts(args.n, workers=args.workers)
    _emit_json(args, report)
    return 0 if report["agree"] else 1


def _cmd_continuable(args: argparse.Namespace) -> int:
    if (args.alpha is None) != (args.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    if args.alpha is not None:
        prob = ContinuationProblem(args.n, args.alpha, args.beta)
        solution = solve_k0(prob)
        table = continuable_from_point(prob)
        verdict = is_tent_continuable(table)
        doc = {
            "n": args.n,
            "alpha": format_rational(args.alpha),
            "beta": format_rational(args.beta),
            "k0": solution.k0,
            "modulus": solution.modulus,
            "classes": sorted(solution.classes),
            "restriction_k": solution.smallest_witness(),
            "witness_k": verdict.witness_k,
            "witness_constant": (
                format_rational(verdict.constant) if verdict.constant is not None else None
            ),
            "table": table.to_json_dict(),
        }
        _emit_json(args, doc)
        return 0
    tables = enumerate_continuable(args.n)
    doc = {"n": args.n, "count": len(tables), "tables": _table_docs(tables)}
    _emit_json(args, doc)
    return 0


def _cmd_continuable_audit(args: argparse.Namespace) -> int:
    report = continuable_audit(args.n)
    _emit_json(args, report)
    return 0 if report["matches_claim"] else 1


def _cmd_conjugacy_table(args: argparse.Namespace) -> int:
    iterate = iterate_to(args.n, args.v)
    if args.format == "csv":
        lines = ["x,h"]
        lines += [
            f"{format_rational(x)},{format_rational(y)}"
            for x, y in iterate.breakpoints()
        ]
        _emit(args, "\n".join(lines) + "\n")
        return 0
    doc = {
        "v": format_rational(args.v),
        "n": args.n,
        "breakpoints": [
            [format_rational(x), format_rational(y)] for x, y in iterate.breakpoints()
        ],
    }
    _emit_json(args, doc)
    return 0


def _cmd_conjugacy_length(args: argparse.Namespace) -> int:
    length = graph_length(args.n, args.v, args.mode)
    doc = {
        "v": format_rational(args.v),
        "n": args.n,
        "mode": args.mode,
        "length": length,
    }
    _emit_json(args, doc)
    return 0


def _cmd_conjugacy_slopes(args: argparse.Namespace) -> int:
    measure = slope_measure(args.n, args.v, args.threshold, args.mode)
    doc = {
        "v": format_rational(args.v),
        "n": args.n,
        "threshold": format_rational(args.threshold),
        "mode": args.mode,
        "measure": format_rational(measure),
        "measure_float": float(measure),
    }
    _emit_json(args, doc)
    return 0


def _cmd_conjugacy_density(args: argparse.Namespace) -> int:
    report = density_probe(args.v, args.depth)
    doc = {
        "v": format_rational(args.v),
        "depth": args.depth,
        "points": report.points,
        "max_gap": format_rational(report.max_gap),
        "max_gap_float": float(report.max_gap),
    }
    _emit_json(args, doc)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    report = claims_audit(max_n=args.max_n, seed=args.seed, workers=args.workers)
    _emit_json(args, report)
    return 1 if report["refuted_at_this_n"] else 0


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="write the document here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tentlab",
        description="exact tent-map semiconjugation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"tentlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preimages", help="preimage sets of the fixed points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("A", "B", "F"), required=True)
    p.add_argument(
        "--method", choices=("closed_form", "iterated", "both"), default="both"
    )
    _add_output(p)
    p.set_defaults(handler=_cmd_preimages)

    p = sub.add_parser("sawtooth", help="sawtooth family operations")
    saw = p.add_subparsers(dest="action", required=True)
    pe = saw.add_parser("eval", help="evaluate the k-tooth sawtooth")
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--x", type=_rational, required=True)
    _add_output(pe)
    pe.set_defaults(handler=_cmd_sawtooth_eval)
    pc = saw.add_parser("classify", help="classify a piecewise linear map")
    pc.add_argument("--plm", required=True, help="path to a breakpoints JSON file")
    _add_output(pc)
    pc.set_defaults(handler=_cmd_sawtooth_classify)

    p = sub.add_parser("probe", help="dyadic linearity probe on a sawtooth")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--start", type=_start_pair, required=True, metavar="DEPTH,INDEX")
    p.add_argument("--depth", type=int, default=20)
    _add_output(p)
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("commutants", help="finite commuting tables")
    com = p.add_subparsers(dest="action", required=True)
    pe = com.add_parser("enumerate", help="exhaustive table enumeration")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--x0", type=_rational, default=None)
    pe.add_argument("--workers", type=_positive_int, default=1)
    _add_output(pe)
    pe.set_defaults(handler=_cmd_commutants_enumerate)
    pa = com.add_parser("audit", help="count formulas vs the enumeration oracle")
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--workers", type=_positive_int, default=1)
    _add_output(pa)
    pa.set_defaults(handler=_cmd_commutants_audit)

    p = sub.add_parser("continuable", help="tables extending to continuous solutions")
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=_rational, default=None)
    p.add_argument("--beta", type=_rational, default=None)
    _add_output(p)
    p.set_defaults(handler=_cmd_continuable)
    cont = p.add_subparsers(dest="action", required=False)
    pa = cont.add_parser("audit", help="continuable count vs the claim")
    pa.add_argument("--n", type=int, required=True)
    _add_output(pa)
    pa.set_defaults(handler=_cmd_continuable_audit)

    p = sub.add_parser("conjugacy", help="conjugacy iterates and diagnostics")
    conj = p.add_subparsers(dest="action", required=True)
    pt = conj.add_parser("table", help="breakpoints of the n-th iterate")
    pt.add_argument("--v", type=_rational, required=True)
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--format", choices=("json", "csv"), default="json")
    _add_output(pt)
    pt.set_defaults(handler=_cmd_conjugacy_table)
    pl = conj.add_parser("length", help="graph length of the n-th iterate")
    pl.add_argument("--v", type=_rational, required=True)
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--mode", choices=("explicit", "aggregate"), default="aggregate")
    _add_output(pl)
    pl.set_defaults(handler=_cmd_conjugacy_length)
    ps = conj.add_parser("slopes", help="measure of steep pieces")
    ps.add_argument("--v", type=_rational, required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--threshold", type=_rational, required=True)
    ps.add_argument("--mode", choices=("explicit", "aggregate"), default="aggregate")
    _add_output(ps)
    ps.set_defaults(handler=_cmd_conjugacy_slopes)
    pd = conj.add_parser("density", help="preimages-of-1 density probe")
    pd.add_argument("--v", type=_rational, required=True)
    pd.add_argument("--depth", type=int, required=True)
    _add_output(pd)
    pd.set_defaults(handler=_cmd_conjugacy_density)

    p = sub.add_parser("audit", help="recompute and verdict every audited claim")
    p.add_argument("--max-n", type=int, default=3, dest="max_n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1)
    _add_output(p)
    p.set_defaults(handler=_cmd_audit)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "continuable" and getattr(args, "action", None) is None:
        if args.n is None:
            parser.error("continuable requires --n")
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
