"""Command-line front door: generate, recognize, color, width, verify, export.

Commands read the edge-list format (or coloring JSON where noted) from
--in or stdin and write to --out or stdout, so they compose under pipes:

    outercolor gen --family random --n 9 --seed 4 | outercolor color | outercolor verify

Exit codes: 0 success, 1 for negative-but-valid verdicts (rejection,
not colorable, violation, inconclusive), 2 for usage errors, 3 for an
internal error (a failed internal check, or memory ran out), reported as
one `internal-error` verdict line.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from .coloring import (
    ColoringError,
    EdgeColoring,
    check_interval_coloring,
    coloring_from_json,
    coloring_to_json,
    graph_of_coloring,
)
from .fan import color_fan, separating_triangle_demo
from .graphs import (
    Graph,
    GraphError,
    gen_cycle,
    gen_random_outerplanar_subcubic,
    gen_triangle_graph,
    gen_triangular_fan,
    read_edge_list,
    write_dot,
    write_edge_list,
)
from .outerplanar import OuterEmbedding, recognize_outerplanar_2connected
from .solver import (
    BudgetExceeded,
    Colored,
    ExhaustedAllT,
    Inconclusive,
    NotColorable,
    OddCycleCertificate,
    ParityCertificate,
    find_interval_coloring,
    width,
)
from .subcubic import ColoringPreconditionError, color_optimal_subcubic, color_subcubic_le4_traced


def _read_text(path: str | None) -> str:
    if path is None:
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _verdict(obj: dict) -> str:
    return json.dumps(obj) + "\n"


def _load_graph(path: str | None) -> Graph:
    return read_edge_list(_read_text(path))


def _certificate_json(cert) -> dict:
    if isinstance(cert, OddCycleCertificate):
        return {"kind": "odd-cycle", "n": cert.n}
    if isinstance(cert, ExhaustedAllT):
        return {"kind": "exhausted-all-t", "t_max": cert.t_max, "reason": cert.reason}
    if isinstance(cert, ParityCertificate):
        return {"kind": "parity", "k": cert.k, "l": cert.l, "m": cert.m}
    raise AssertionError(f"unknown certificate {cert!r}")


def _coloring_output(g: Graph, col: EdgeColoring, fmt: str) -> str:
    if fmt == "dot":
        return write_dot(g, col.assignment)
    return coloring_to_json(col)


def _cmd_gen(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        if args.family == "cycle":
            g = gen_cycle(_need(parser, args, "n"))
        elif args.family == "tf":
            g, _ = gen_triangular_fan(_need(parser, args, "n"))
        elif args.family == "tklm":
            g, _ = gen_triangle_graph(
                _need(parser, args, "k"), _need(parser, args, "l"), _need(parser, args, "m")
            )
        else:
            g = gen_random_outerplanar_subcubic(_need(parser, args, "n"), args.seed)
    except (ValueError, GraphError) as exc:
        parser.error(str(exc))
    _emit(write_edge_list(g), args.out)
    return 0


def _need(parser: argparse.ArgumentParser, args: argparse.Namespace, name: str) -> int:
    value = getattr(args, name)
    if value is None:
        parser.error(f"--{name} is required for this invocation")
    return value


def _cmd_recognize(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    g = _load_graph(args.graph_in)
    result = recognize_outerplanar_2connected(g)
    if isinstance(result, OuterEmbedding):
        _emit(
            _verdict(
                {
                    "verdict": "outerplanar-2connected",
                    "order": list(result.order),
                    "chords": [list(e) for e in sorted(result.chords)],
                }
            ),
            args.out,
        )
        return 0
    _emit(_verdict({"verdict": "reject", "reason": result.reason}), args.out)
    return 1


def _cmd_color(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.method == "construct":
        for flag, value in (("--t", args.t), ("--budget-ms", args.budget_ms)):
            if value is not None:
                parser.error(f"{flag} needs --method exact")
    elif args.trace:
        parser.error("--trace needs --method construct")
    g = _load_graph(args.graph_in)
    if args.method == "construct":
        try:
            # parity-optimal construction at max degree 3; the plain
            # reduction covers even cycles (2 colors, no chords to place)
            if g.max_degree == 3 and g.n % 2 == 0:
                _, col = color_optimal_subcubic(g)
                steps: tuple = ()
            else:
                col, steps = color_subcubic_le4_traced(g)
        except ColoringPreconditionError as exc:
            _emit(_verdict({"verdict": "error", "detail": str(exc)}), args.out)
            return 1
        if args.trace:
            for step in steps:
                print(
                    f"{step.case} depth={step.depth} removed={step.removed}"
                    f" attachments={step.attachments}",
                    file=sys.stderr,
                )
    elif args.t is not None:
        deadline = None
        if args.budget_ms is not None:
            deadline = time.monotonic() + args.budget_ms / 1000.0
        try:
            col = find_interval_coloring(g, args.t, deadline=deadline)
        except BudgetExceeded:
            return _emit_negative(Inconclusive(bound_exhausted_at=args.t), args.out)
        if col is None:
            _emit(_verdict({"verdict": "no-coloring-at-t", "t": args.t}), args.out)
            return 1
    else:
        outcome = _run_width(g, args)
        if outcome is None:
            return 1
        col = outcome.coloring
    _emit(_coloring_output(g, col, args.format), args.out)
    return 0


def _run_width(g: Graph, args: argparse.Namespace) -> Colored | None:
    """`width` on g, shared by `width` and `color --method exact`: a
    negative outcome is emitted as its verdict and comes back as None."""
    outcome = width(g, budget_ms=args.budget_ms)
    if isinstance(outcome, Colored):
        return outcome
    _emit_negative(outcome, args.out)
    return None


def _emit_negative(outcome: NotColorable | Inconclusive, out: str | None) -> int:
    if isinstance(outcome, NotColorable):
        cert = _certificate_json(outcome.certificate)
        verdict = {"verdict": "not-colorable", "certificate": cert}
    else:
        verdict = {"verdict": "inconclusive", "bound_exhausted_at": outcome.bound_exhausted_at}
    _emit(_verdict(verdict), out)
    return 1


def _cmd_width(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    outcome = _run_width(_load_graph(args.graph_in), args)
    if outcome is None:
        return 1
    _emit(
        _verdict(
            {
                "verdict": "colored",
                "t": outcome.t,
                "coloring": json.loads(coloring_to_json(outcome.coloring)),
            }
        ),
        args.out,
    )
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        col = coloring_from_json(_read_text(args.graph_in))
        g = graph_of_coloring(col)
    except ColoringError as exc:
        _emit(_verdict({"verdict": "error", "detail": str(exc)}), args.out)
        return 1
    bad = check_interval_coloring(g, col)
    if bad is None:
        _emit(_verdict({"verdict": "ok", "t": col.t, "edges": g.m}), args.out)
        return 0
    _emit(
        _verdict(
            {
                "verdict": "violation",
                "kind": bad.kind,
                "edge": list(bad.edge) if bad.edge is not None else None,
                "vertex": bad.vertex,
                "color": bad.color,
            }
        ),
        args.out,
    )
    return 1


def _cmd_fan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    n = _need(parser, args, "n")
    try:
        col = color_fan(n)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "dot":
        g, _ = gen_triangular_fan(n)
        _emit(write_dot(g, col.assignment), args.out)
    else:
        _emit(coloring_to_json(col), args.out)
    return 0


def _cmd_demo(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    n = _need(parser, args, "n")
    try:
        report = separating_triangle_demo(n)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(
        _verdict(
            {
                "n": report.n,
                "separating_triangles": [list(t) for t in report.separating_triangles],
                "count": len(report.separating_triangles),
                "coloring": json.loads(coloring_to_json(report.coloring)),
                "conclusion": report.conclusion,
            }
        ),
        args.out,
    )
    return 0


def _cmd_export_dot(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    text = _read_text(args.graph_in)
    if text.lstrip().startswith("{"):
        col = coloring_from_json(text)
        g = graph_of_coloring(col)
        _emit(write_dot(g, col.assignment), args.out)
    else:
        _emit(write_dot(read_edge_list(text)), args.out)
    return 0


def _add_io(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--in", dest="graph_in", metavar="FILE", help="input file (default stdin)")
    sub.add_argument("--out", metavar="FILE", help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outercolor",
        description="interval edge-colorings of 2-connected outerplanar graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="generate a graph family member as an edge list")
    p.set_defaults(func=_cmd_gen)
    p.add_argument("--family", choices=["cycle", "tf", "tklm", "random"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE", help="output file (default stdout)")

    p = subs.add_parser("recognize", help="test 2-connected outerplanarity, emit embedding")
    p.set_defaults(func=_cmd_recognize)
    _add_io(p)

    p = subs.add_parser("color", help="interval-color a graph")
    p.set_defaults(func=_cmd_color)
    _add_io(p)
    p.add_argument("--method", choices=["construct", "exact"], default="construct")
    p.add_argument("--t", type=int, help="exact search at this color count only")
    p.add_argument("--budget-ms", type=int, dest="budget_ms")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--trace", action="store_true", help="reduction steps on stderr")

    p = subs.add_parser("width", help="exact minimum color count by exhaustive search")
    p.set_defaults(func=_cmd_width)
    _add_io(p)
    p.add_argument("--budget-ms", type=int, dest="budget_ms")

    p = subs.add_parser("verify", help="validate a coloring JSON document")
    p.set_defaults(func=_cmd_verify)
    _add_io(p)

    p = subs.add_parser("fan", help="color the n-fan with exactly max-degree colors")
    p.set_defaults(func=_cmd_fan)
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", metavar="FILE", help="output file (default stdout)")

    p = subs.add_parser(
        "demo-axenovich",
        help="fan report: separating triangles do not block interval coloring",
    )
    p.set_defaults(func=_cmd_demo)
    p.add_argument("--n", type=int)
    p.add_argument("--out", metavar="FILE", help="output file (default stdout)")

    p = subs.add_parser("export-dot", help="DOT export of an edge list or coloring JSON")
    p.set_defaults(func=_cmd_export_dot)
    _add_io(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    # one call allocates many short-lived edge tuples, whose allocation
    # count sets off cyclic collections that find almost nothing; the
    # collector is paused for the call and left as the caller had it
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            return args.func(args, parser)
        except (GraphError, ColoringError) as exc:
            _emit(_verdict({"verdict": "error", "detail": str(exc)}), getattr(args, "out", None))
            return 1
        except (AssertionError, MemoryError) as exc:
            # a failed internal check, or memory ran out: a verdict, not a
            # traceback, with its own exit code
            detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
            _emit(_verdict({"verdict": "internal-error", "detail": detail}),
                  getattr(args, "out", None))
            return 3
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
