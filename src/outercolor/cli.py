"""Command-line front door: generate, recognize, color, width, verify, export.

Commands read the edge-list format (or coloring JSON where noted) from
--in or stdin and write to --out or stdout, so they compose under pipes:

    outercolor gen --family random --n 9 --seed 4 | outercolor color | outercolor verify

Exit codes: 0 success, 1 for negative-but-valid verdicts (rejection,
not colorable, violation, inconclusive), 2 for usage errors and for a
file that cannot be opened, read or written, 3 for an internal error (a
failed internal check, memory ran out, or any other exception),
reported as one `internal-error` verdict line. Input is read as UTF-8
under any locale, so a byte that is not UTF-8 is a parse error (exit
1). A reader that closes the pipe early ends the command quietly with
exit 0. A well-formed call is read straight off the command table and
builds no parser, nor imports argparse. Help and usage errors build
the parser: a command's own for its help and its errors, every
command's for top-level help and top-level usage errors.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

from .coloring import (
    ColoringError,
    EdgeColoring,
    check_interval_coloring,
    coloring_from_json,
    coloring_to_dict,
    coloring_to_json,
    graph_of_coloring,
)
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

if TYPE_CHECKING:
    import argparse

    # a command line as read by `_read_argv` or by argparse
    Args = SimpleNamespace | argparse.Namespace

# A process loads the recognizer, the solver, the subcubic constructions
# and the fan colorer only when its command calls them, so `gen` and
# `verify` never import them; no command loads the peel. The names this
# module uses from each are bound on first use as globals here, and
# reached from outside as attributes of this module.
_LAZY = {
    "outerplanar": ("OuterEmbedding", "recognize_outerplanar_2connected"),
    "solver": (
        "BudgetExceeded",
        "Colored",
        "ExhaustedAllT",
        "Inconclusive",
        "NotColorable",
        "find_interval_coloring",
        "width",
    ),
    "subcubic": ("ColoringPreconditionError", "color_optimal_subcubic"),
    # no command calls the peel; the benchmark's tracer binds this name
    "peel": ("color_subcubic_le4_traced",),
    "fan": ("color_fan", "separating_triangle_demo"),
}


def _load(module: str) -> None:
    """Import `module` of this package and bind the names this module uses
    from it. A name already bound here, wrapped by a tracer or replaced by
    a test, is kept. Works from `globals()`, so under `python -m` it fills
    `__main__` and never imports this file a second time."""
    mod = importlib.import_module(f".{module}", __package__)
    scope = globals()
    for name in _LAZY[module]:
        scope.setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    # PEP 562: `cli.width` and the like load their module on first access
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _read_text(path: str | None) -> str:
    """The bytes of `path`, or of stdin, as UTF-8 whatever the locale. A
    byte that is not UTF-8 becomes a lone surrogate, which every parser
    here rejects with an `error` verdict. A text stream put in place of
    stdin, which has no bytes under it, is read as it is."""
    try:
        if path is None:
            data = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            with open(path, "rb") as f:
                data = f.read()
    except OSError as exc:
        exc.filename = "<stdin>" if path is None else path
        raise
    return data if isinstance(data, str) else data.decode("utf-8", "surrogateescape")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        exc.filename = path  # a failed write names no file
        raise


def _verdict(obj: dict) -> str:
    return json.dumps(obj) + "\n"


def _load_graph(path: str | None) -> Graph:
    return read_edge_list(_read_text(path))


def _certificate_json(cert) -> dict:
    if isinstance(cert, ExhaustedAllT):
        return {"kind": "exhausted-all-t", "t_max": cert.t_max, "reason": cert.reason}
    if cert.klm is None:
        return {"kind": "parity", "n": cert.n, "edges": cert.edges}
    k, l, m = cert.klm
    return {"kind": "parity", "k": k, "l": l, "m": m}


def _coloring_output(g: Graph, col: EdgeColoring, fmt: str) -> str:
    if fmt == "dot":
        return write_dot(g, col.assignment)
    return coloring_to_json(col)


def _cmd_gen(args: Args) -> int:
    try:
        if args.family == "cycle":
            g = gen_cycle(_need(args, "n"))
        elif args.family == "tf":
            g, _ = gen_triangular_fan(_need(args, "n"))
        elif args.family == "tklm":
            g, _ = gen_triangle_graph(_need(args, "k"), _need(args, "l"), _need(args, "m"))
        else:
            g = gen_random_outerplanar_subcubic(_need(args, "n"), args.seed)
    except (ValueError, GraphError) as exc:
        _usage_error(args, str(exc))
    _emit(write_edge_list(g), args.out)
    return 0


def _usage_error(args: Args, message: str) -> NoReturn:
    """Exit as argparse does on a usage error, with the usage of the
    command being run; its parser is built only now."""
    _, subparsers = build_parser(args.command)
    subparsers[args.command].error(message)


def _need(args: Args, name: str) -> int:
    value = getattr(args, name)
    if value is None:
        _usage_error(args, f"--{name} is required for this invocation")
    return value


def _cmd_recognize(args: Args) -> int:
    g = _load_graph(args.graph_in)
    _load("outerplanar")
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


def _cmd_color(args: Args) -> int:
    if args.method == "construct":
        for flag, value in (("--t", args.t), ("--budget-ms", args.budget_ms)):
            if value is not None:
                _usage_error(args, f"{flag} needs --method exact")
    else:
        _check_budget(args)
    g = _load_graph(args.graph_in)
    _load("subcubic" if args.method == "construct" else "solver")
    if args.method == "construct":
        try:
            _, col = color_optimal_subcubic(g)
        except ColoringPreconditionError as exc:
            _emit(_verdict({"verdict": "error", "detail": str(exc)}), args.out)
            return 1
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


def _check_budget(args: Args) -> None:
    if args.budget_ms is not None and args.budget_ms < 0:
        _usage_error(args, f"--budget-ms must be >= 0, got {args.budget_ms}")


def _run_width(g: Graph, args: Args) -> Colored | None:
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


def _cmd_width(args: Args) -> int:
    _check_budget(args)
    g = _load_graph(args.graph_in)
    _load("solver")
    outcome = _run_width(g, args)
    if outcome is None:
        return 1
    _emit(
        _verdict(
            {
                "verdict": "colored",
                "t": outcome.t,
                "coloring": coloring_to_dict(outcome.coloring),
            }
        ),
        args.out,
    )
    return 0


def _cmd_verify(args: Args) -> int:
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


def _cmd_fan(args: Args) -> int:
    n = _need(args, "n")
    _load("fan")
    # DOT draws the graph that the coloring is validated against, so it is
    # built once here; n < 3 is left to color_fan's error
    g = gen_triangular_fan(n)[0] if args.format == "dot" and n >= 3 else None
    try:
        col = color_fan(n, g)
    except ValueError as exc:
        _usage_error(args, str(exc))
    if g is not None:
        _emit(write_dot(g, col.assignment), args.out)
    else:
        _emit(coloring_to_json(col), args.out)
    return 0


def _cmd_demo(args: Args) -> int:
    n = _need(args, "n")
    _load("fan")
    try:
        report = separating_triangle_demo(n)
    except ValueError as exc:
        _usage_error(args, str(exc))
    _emit(
        _verdict(
            {
                "n": report.n,
                "separating_triangles": [list(t) for t in report.separating_triangles],
                "count": len(report.separating_triangles),
                "coloring": coloring_to_dict(report.coloring),
                "conclusion": report.conclusion,
            }
        ),
        args.out,
    )
    return 0


def _cmd_export_dot(args: Args) -> int:
    text = _read_text(args.graph_in)
    if text.lstrip().startswith("{"):
        col = coloring_from_json(text)
        g = graph_of_coloring(col)
        _emit(write_dot(g, col.assignment), args.out)
    else:
        _emit(write_dot(read_edge_list(text)), args.out)
    return 0


_OUT = ("--out", {"metavar": "FILE", "help": "output file (default stdout)"})
_IN = ("--in", {"dest": "graph_in", "metavar": "FILE", "help": "input file (default stdin)"})
_IO = (_IN, _OUT)
_N = ("--n", {"type": int})
_BUDGET = ("--budget-ms", {"type": int, "dest": "budget_ms"})
_FORMAT = ("--format", {"choices": ["json", "dot"], "default": "json"})

# name: (help, handler, its arguments in help order)
_COMMANDS = {
    "gen": ("generate a graph family member as an edge list", _cmd_gen, (
        ("--family", {"choices": ["cycle", "tf", "tklm", "random"], "required": True}),
        _N, ("--k", {"type": int}), ("--l", {"type": int}), ("--m", {"type": int}),
        ("--seed", {"type": int, "default": 0}), _OUT,
    )),
    "recognize": ("test 2-connected outerplanarity, emit embedding", _cmd_recognize, _IO),
    "color": ("interval-color a graph", _cmd_color, (
        *_IO,
        ("--method", {"choices": ["construct", "exact"], "default": "construct"}),
        ("--t", {"type": int, "help": "exact search at this color count only"}),
        _BUDGET, _FORMAT,
    )),
    "width": ("exact minimum color count by exhaustive search", _cmd_width, (*_IO, _BUDGET)),
    "verify": ("validate a coloring JSON document", _cmd_verify, _IO),
    "fan": ("color the n-fan with exactly max-degree colors", _cmd_fan, (_N, _FORMAT, _OUT)),
    "demo-axenovich": (
        "fan report: separating triangles do not block interval coloring", _cmd_demo, (_N, _OUT)
    ),
    "export-dot": ("DOT export of an edge list or coloring JSON", _cmd_export_dot, _IO),
}


def build_parser(
    command: str | None = None,
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by name. A known `command`
    gets only its own subparser, with the full command list as metavar,
    so the top-level usage in its errors reads as the full tree's.
    Anything else (`-h`, no command, an unknown name) gets every one."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="outercolor",
        description="interval edge-colorings of 2-connected outerplanar graphs",
    )
    one = command in _COMMANDS
    subs = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}" if one else None
    )
    for name in [command] if one else _COMMANDS:
        help_text, func, arguments = _COMMANDS[name]
        p = subs.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser, subs.choices


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The command line read straight off `_COMMANDS` when it is one that
    argparse would accept as it stands: the exact command name, exact
    long flags, each at most once, and a value after each flag that takes
    one, checked with the flag's own `type` and `choices`. The namespace
    has the same attributes, `command` and `func` included, as argparse's.

    Anything else is None, and argparse parses it: help, abbreviations,
    `--flag=value`, a value that begins with `-` (a negative number, or
    a flag given where a value should be), a repeated flag, an extra
    token, a bad value or a missing required flag.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    specs = dict(arguments)
    given: dict[str, object] = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        options = specs.get(flag)
        if options is None or flag in given:
            return None
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if "type" in options:
            try:
                value = options["type"](value)
            except ValueError:
                return None
        if "choices" in options and value not in options["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, options in arguments:
        if flag not in given and options.get("required"):
            return None
        setattr(args, options.get("dest", flag[2:].replace("-", "_")),
                given.get(flag, options.get("default")))
    return args


def main(argv: list[str] | None = None) -> int:
    # one call allocates many short-lived edge tuples, whose allocation
    # count sets off cyclic collections that find almost nothing; the
    # collector is paused for the call and left as the caller had it
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _read_argv(argv)
        if args is None:
            parser, _ = build_parser(argv[0] if argv else None)
            args = parser.parse_args(argv)
        try:
            code = args.func(args)
        except (GraphError, ColoringError) as exc:
            _emit(_verdict({"verdict": "error", "detail": str(exc)}), getattr(args, "out", None))
            code = 1
        except OSError:
            raise  # a file that failed: answered below with exit 2
        except Exception as exc:
            # a failed internal check, memory ran out, or any other fault:
            # a verdict, not a traceback, with its own exit code
            detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
            _emit(_verdict({"verdict": "internal-error", "detail": detail}),
                  getattr(args, "out", None))
            code = 3
        sys.stdout.flush()  # a failed write shows here, not at exit
        return code
    except OSError as exc:
        # a file that cannot be opened, read or written: one line and exit
        # 2, as argparse gives for an unopenable file argument
        if exc.filename is None:  # stdout, the one stream left unnamed
            # what the failed write left buffered would fail again at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                return 0  # the reader has all it wanted
            exc.filename = "<stdout>"
        print(f"outercolor: error: {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
