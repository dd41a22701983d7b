import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import outercolor
import outercolor.cli
import outercolor.fan
import outercolor.peel
import outercolor.subcubic
from outercolor.cli import main
from outercolor.graphs import (
    gen_cycle,
    gen_random_outerplanar_subcubic,
    read_edge_list,
    write_edge_list,
)

# the directory that holds the package, for child interpreters
SRC = str(Path(outercolor.__file__).resolve().parent.parent)

C4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
C4_COLORING = '{"t": 2, "edges": [[0, 1, 1], [0, 3, 2], [1, 2, 2], [2, 3, 1]]}'

# every subcommand, in the order top-level help lists them
COMMANDS = ["gen", "recognize", "color", "width", "verify", "fan", "demo-axenovich", "export-dot"]


def run(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_tf_edge_list(capsys):
    code, out, _ = run(["gen", "--family", "tf", "--n", "3"], capsys)
    assert code == 0
    assert out == "4 5\n0 1\n0 2\n1 2\n1 3\n2 3\n"


def test_gen_is_byte_stable(capsys):
    first = run(["gen", "--family", "random", "--n", "10", "--seed", "7"], capsys)
    second = run(["gen", "--family", "random", "--n", "10", "--seed", "7"], capsys)
    assert first == second


def test_gen_missing_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "cycle"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, usage, message",
    [
        (["gen", "--family", "cycle"], "usage: outercolor gen [-h] --family ",
         "outercolor gen: error: --n is required for this invocation"),
        (["width", "--budget-ms", "-5"], "usage: outercolor width [-h] ",
         "outercolor width: error: --budget-ms must be >= 0, got -5"),
        (["color", "--t", "3"], "usage: outercolor color [-h] ",
         "outercolor color: error: --t needs --method exact"),
        (["fan", "--n", "2"], "usage: outercolor fan [-h] ",
         "outercolor fan: error: fan needs n >= 3, got 2"),
        (["demo-axenovich"], "usage: outercolor demo-axenovich [-h] ",
         "outercolor demo-axenovich: error: --n is required for this invocation"),
    ],
    ids=["gen", "width", "color", "fan", "demo-axenovich"],
)
def test_handler_usage_error_shows_its_command(argv, usage, message, capsys):
    # an error a handler raises names its own command and flags, as the
    # errors argparse raises for that command do
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(usage)
    assert captured.err.endswith(f"\n{message}\n")


def _parser_corpus(name):
    """argv lists for one command: help, each flag, and each kind of
    usage error that argparse itself raises."""
    _, _, arguments = outercolor.cli._COMMANDS[name]
    required = [
        part for flag, options in arguments if options.get("required")
        for part in (flag, options["choices"][0])
    ]
    corpus = [[name], [name, "-h"], [name, *required], [name, *required, "--bogus"],
              [name, *required, "extra"]]
    for flag, options in arguments:
        value = options["choices"][-1] if "choices" in options else "3"
        corpus += [[name, *required, flag, value], [name, *required, flag]]
        if "choices" in options:
            corpus.append([name, *required, flag, "nope"])
        if options.get("type") is int:
            corpus += [[name, *required, flag, "x"], [name, *required, flag, "-4"]]
    return corpus


def _parse(parser, argv, capsys):
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("name", COMMANDS)
def test_one_command_parser_matches_the_full_parser(name, capsys):
    # both parsers are built in this interpreter, so the argparse help
    # and error texts of any Python version are compared with themselves;
    # the table reader, the third parser, gives argparse's namespace or
    # leaves the line to argparse, and it takes the plain call itself
    one, subparsers = outercolor.cli.build_parser(name)
    assert list(subparsers) == [name]
    full, subparsers = outercolor.cli.build_parser()
    assert list(subparsers) == COMMANDS
    for argv in _parser_corpus(name):
        expected = _parse(full, argv, capsys)
        assert _parse(one, argv, capsys) == expected, argv
        read = outercolor.cli._read_argv(argv)
        if isinstance(expected[0], argparse.Namespace):
            assert read is None or vars(read) == vars(expected[0]), argv
        else:
            assert expected[0] in (0, 2), argv
            assert read is None, argv
    assert outercolor.cli._read_argv(_parser_corpus(name)[2]) is not None


# values drawn after a flag or on their own: argparse's int() takes the
# signed, padded and non-ASCII digits, and it reads "-4" as a value
READER_VALUES = ["3", "-4", "+5", " 5", "x", "\u0663", ""]


@st.composite
def _reader_argv(draw, name):
    """argv for one command: its flags with values of their kind, good
    and bad, each at most once, and among them up to two pieces that
    argparse reads in its own way (help, `--`, abbreviations,
    `--flag=value`, a flag without its value or given twice, an unknown
    flag, an extra positional)."""
    _, _, arguments = outercolor.cli._COMMANDS[name]
    good, odd = [], [["-h"], ["--help"], ["--"], ["--bogus"], ["extra"], ["3"]]
    for flag, options in arguments:
        values = [*options["choices"], "nope", "3"] if "choices" in options else READER_VALUES
        good += [[flag, value] for value in values]
        odd += [[flag], [f"{flag}={values[0]}"], [flag, values[0]]]
        if len(flag) > 3:
            odd.append([flag[:-1]])  # an abbreviation
    drawn = draw(st.lists(st.sampled_from(good), max_size=5, unique_by=lambda piece: piece[0]))
    for piece in draw(st.lists(st.sampled_from(odd), max_size=2)):
        drawn.insert(draw(st.integers(0, len(drawn))), piece)
    return [name, *(token for piece in drawn for token in piece)]


def _argparse_or_none(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return outercolor.cli.build_parser(argv[0])[0].parse_args(argv)
        except SystemExit:
            return None


@pytest.mark.parametrize("name", COMMANDS)
def test_table_reader_matches_argparse(name):
    # whatever argparse exits on, the reader leaves to it; whatever the
    # reader takes, argparse reads to the same attributes
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_reader_argv(name))
    def check(argv):
        read = outercolor.cli._read_argv(argv)
        if read is None:
            return
        expected = _argparse_or_none(argv)
        assert expected is not None, argv
        assert vars(read) == vars(expected), argv

    check()


@pytest.mark.parametrize(
    "argv, built",
    [([name, "-h"], 2) for name in COMMANDS]
    + [(["gen", "--family", "cycle", "--n", "4"], 0), (["-h"], 9), ([], 9), (["frobnicate"], 9)],
)
def test_main_builds_only_its_commands_parser(argv, built, capsys, monkeypatch):
    # a well-formed call builds no parser; a command's help builds the
    # top-level parser and its own subparser; top-level help and its
    # errors list every command, so they build all
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    try:
        main(argv)
    except SystemExit:
        pass
    assert len(made) == built


def test_recognize_accepts_cycle(capsys, monkeypatch):
    code, out, _ = run(
        ["gen", "--family", "cycle", "--n", "6"], capsys
    )
    code, out, _ = run(["recognize"], capsys, monkeypatch, stdin_text=out)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "outerplanar-2connected"
    assert verdict["order"] == [0, 1, 2, 3, 4, 5]


def test_recognize_rejects_k4(capsys, monkeypatch):
    k4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    code, out, _ = run(["recognize"], capsys, monkeypatch, stdin_text=k4)
    assert code == 1
    assert json.loads(out) == {"verdict": "reject", "reason": "edge-bound"}


def test_gen_color_verify_pipeline(capsys, monkeypatch):
    _, graph_text, _ = run(
        ["gen", "--family", "random", "--n", "9", "--seed", "4"], capsys
    )
    code, colored, err = run(["color"], capsys, monkeypatch, stdin_text=graph_text)
    assert code == 0
    assert err == ""
    code, verdict_text, _ = run(["verify"], capsys, monkeypatch, stdin_text=colored)
    assert code == 0
    assert json.loads(verdict_text)["verdict"] == "ok"


def test_color_gives_an_even_cycle_two_colors(capsys, monkeypatch):
    # an even cycle has no chords: the even construction gives it 2 colors
    _, graph_text, _ = run(["gen", "--family", "cycle", "--n", "6"], capsys)
    code, out, err = run(["color"], capsys, monkeypatch, stdin_text=graph_text)
    assert code == 0
    assert json.loads(out)["t"] == 2
    assert err == ""


# C9 with chords (0, 2) and (4, 6)
C9_TWO_CHORDS = "9 11\n" + "".join(
    f"{u} {v}\n" for u, v in [(i, (i + 1) % 9) for i in range(9)] + [(0, 2), (4, 6)]
)


def test_color_trace_names_input_vertex_ids():
    # C9 with chords (0, 2) and (4, 6). Depth 0 cuts 7 and 8, depth 1
    # contracts the triangle 0, 1, 2 into 0, so at depth 2 the survivors
    # are 0, 3, 4, 5, 6 and input ids 3, 4, 6 differ from their ranks
    _, steps = outercolor.peel.color_subcubic_le4_traced(read_edge_list(C9_TWO_CHORDS))
    assert [
        f"{s.case} depth={s.depth} removed={s.removed} attachments={s.attachments}"
        for s in steps
    ] == [
        "Case11 depth=0 removed=(7, 8) attachments=(6, 0)",
        "Case2 depth=1 removed=(0, 1, 2) attachments=(6, 3)",
        "Case12OddCycle depth=2 removed=(0, 3) attachments=(6, 4)",
    ]


def test_color_rejects_odd_cycle(capsys, monkeypatch):
    _, graph_text, _ = run(["gen", "--family", "cycle", "--n", "5"], capsys)
    code, out, _ = run(["color"], capsys, monkeypatch, stdin_text=graph_text)
    assert code == 1
    assert json.loads(out)["verdict"] == "error"


def test_internal_check_failure_is_a_verdict_with_exit_3(capsys, monkeypatch):
    # a fault in the dynamic program's result trips its own check: one
    # JSON line and exit 3, not a traceback with the exit code of a
    # negative verdict
    original = outercolor.subcubic._coloring_of

    def faulty(assignment):
        assignment = dict(assignment)
        assignment[(0, 1)] = assignment[(0, 2)]  # 0 sees one color twice
        return original(assignment)

    monkeypatch.setattr(outercolor.subcubic, "_coloring_of", faulty)
    code, out, err = run(["color"], capsys, monkeypatch, stdin_text=C9_TWO_CHORDS)
    assert code == 3
    assert err == ""
    assert out.count("\n") == 1
    verdict = json.loads(out)
    assert verdict["verdict"] == "internal-error"
    assert verdict["detail"].startswith(
        "AssertionError: the odd-order dynamic program gave an invalid coloring: not-proper"
    )


def test_memory_error_is_a_verdict_with_exit_3(capsys, monkeypatch):
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(outercolor.cli, "recognize_outerplanar_2connected", exhausted)
    code, out, _ = run(["recognize"], capsys, monkeypatch, stdin_text=C9_TWO_CHORDS)
    assert code == 3
    assert json.loads(out) == {"verdict": "internal-error", "detail": "MemoryError"}


def test_any_other_exception_is_a_verdict_with_exit_3(capsys, monkeypatch):
    def broken(g):
        raise KeyError(7)

    monkeypatch.setattr(outercolor.cli, "recognize_outerplanar_2connected", broken)
    code, out, err = run(["recognize"], capsys, monkeypatch, stdin_text=C9_TWO_CHORDS)
    assert (code, err) == (3, "")
    assert json.loads(out) == {"verdict": "internal-error", "detail": "KeyError: 7"}


@pytest.mark.parametrize("n", [40, 41])
def test_color_never_builds_the_input_adjacency(n, capsys, monkeypatch):
    # recognition, the max-degree test, the even construction and the
    # peel all read the edge set, not the sorted-tuple Graph.adjacency
    parsed = []

    def read(text):
        parsed.append(read_edge_list(text))
        return parsed[-1]

    monkeypatch.setattr(outercolor.cli, "read_edge_list", read)
    text = write_edge_list(gen_random_outerplanar_subcubic(n, 1))
    code, out, _ = run(["color"], capsys, monkeypatch, stdin_text=text)
    assert code == 0
    assert json.loads(out)["t"] == (3 if n % 2 == 0 else 4)
    (g,) = parsed
    # cached properties live in the instance dict once computed
    assert "max_degree" in vars(g)
    assert "adjacency" not in vars(g)


def test_color_exact_at_fixed_t(capsys, monkeypatch):
    _, graph_text, _ = run(["gen", "--family", "cycle", "--n", "4"], capsys)
    code, out, _ = run(
        ["color", "--method", "exact", "--t", "3"],
        capsys,
        monkeypatch,
        stdin_text=graph_text,
    )
    assert code == 0
    assert json.loads(out)["t"] == 3
    code, out, _ = run(
        ["color", "--method", "exact", "--t", "4"],
        capsys,
        monkeypatch,
        stdin_text=graph_text,
    )
    assert code == 1
    assert json.loads(out) == {"verdict": "no-coloring-at-t", "t": 4}


def test_color_exact_at_fixed_t_keeps_the_budget(capsys, monkeypatch):
    # exhausting t=7 on T_{2,2,2} takes far longer than 1 ms
    _, graph_text, _ = run(
        ["gen", "--family", "tklm", "--k", "2", "--l", "2", "--m", "2"], capsys
    )
    code, out, _ = run(
        ["color", "--method", "exact", "--t", "7", "--budget-ms", "1"],
        capsys,
        monkeypatch,
        stdin_text=graph_text,
    )
    assert code == 1
    assert json.loads(out) == {"verdict": "inconclusive", "bound_exhausted_at": 7}


@pytest.mark.parametrize(
    "flags",
    [["--t", "1"], ["--budget-ms", "1000"], ["--trace"]],
    ids=["t-without-exact", "budget-without-exact", "trace"],
)
def test_color_rejects_a_flag_its_method_ignores(flags, capsys, monkeypatch):
    # --t and --budget-ms steer only the exact search; --trace is no
    # flag of `color` at all
    hexagon = "6 7\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 3\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(hexagon))
    with pytest.raises(SystemExit) as exc:
        main(["color", *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [["width"], ["color", "--method", "exact"], ["color", "--method", "exact", "--t", "4"]],
)
def test_negative_budget_is_usage_error(argv, capsys, monkeypatch):
    # a budget below zero is nonsense input, not an inconclusive search
    monkeypatch.setattr(sys, "stdin", io.StringIO(C4))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget-ms", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget-ms must be >= 0, got -5" in captured.err


@pytest.mark.parametrize(
    "gen_argv",
    [
        ["--family", "cycle", "--n", "4"],
        ["--family", "random", "--n", "8", "--seed", "1"],
        ["--family", "tklm", "--k", "1", "--l", "1", "--m", "1"],
    ],
)
def test_color_exact_without_t_matches_width(gen_argv, capsys, monkeypatch):
    _, graph_text, _ = run(["gen", *gen_argv], capsys)
    width_code, width_out, _ = run(["width"], capsys, monkeypatch, stdin_text=graph_text)
    code, out, _ = run(
        ["color", "--method", "exact"], capsys, monkeypatch, stdin_text=graph_text
    )
    assert code == width_code
    verdict = json.loads(width_out)
    if verdict["verdict"] == "colored":
        assert json.loads(out) == verdict["coloring"]
    else:
        assert out == width_out


def test_width_not_colorable_triangle_paths(capsys, monkeypatch):
    _, graph_text, _ = run(
        ["gen", "--family", "tklm", "--k", "1", "--l", "1", "--m", "1"], capsys
    )
    code, out, _ = run(["width"], capsys, monkeypatch, stdin_text=graph_text)
    assert code == 1
    assert json.loads(out) == {
        "verdict": "not-colorable",
        "certificate": {"kind": "parity", "k": 1, "l": 1, "m": 1},
    }
    # the exact search agrees at every t from max degree 4 to m = 9
    for t in range(4, 10):
        code, out, _ = run(
            ["color", "--method", "exact", "--t", str(t)], capsys, monkeypatch,
            stdin_text=graph_text,
        )
        assert (code, json.loads(out)) == (1, {"verdict": "no-coloring-at-t", "t": t})


def test_width_not_colorable_odd_cycle(capsys, monkeypatch):
    # a graph the parity screen refuses that is not T_{k,l,m} is named by
    # its size alone
    code, out, _ = run(["width"], capsys, monkeypatch, stdin_text=write_edge_list(gen_cycle(7)))
    assert code == 1
    assert out == (
        '{"verdict": "not-colorable", "certificate": {"kind": "parity", "n": 7, "edges": 7}}\n'
    )


def test_width_colored_reports_t(capsys, monkeypatch):
    _, graph_text, _ = run(["gen", "--family", "cycle", "--n", "6"], capsys)
    code, out, _ = run(["width"], capsys, monkeypatch, stdin_text=graph_text)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "colored"
    assert verdict["t"] == 2
    assert len(verdict["coloring"]["edges"]) == 6


def test_verify_flags_tampered_coloring(capsys, monkeypatch):
    doc = {"t": 2, "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 2]]}
    code, out, _ = run(
        ["verify"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert code == 1
    verdict = json.loads(out)
    assert verdict["verdict"] == "violation"
    assert verdict["kind"] == "not-proper"


def test_verify_rejects_garbage(capsys, monkeypatch):
    code, out, _ = run(["verify"], capsys, monkeypatch, stdin_text="not json")
    assert code == 1
    assert json.loads(out)["verdict"] == "error"


@pytest.mark.parametrize("command", ["verify", "export-dot"])
@pytest.mark.parametrize("edges", [5, {"0": 1}, "abc", None])
def test_non_list_edges_is_one_line_error(command, edges, capsys, monkeypatch):
    # a dict or a string would be iterated entry by entry, and a number
    # not at all: each is the wrong shape, not a bad entry
    doc = json.dumps({"t": 1, "edges": edges})
    code, out, _ = run([command], capsys, monkeypatch, stdin_text=doc)
    assert code == 1
    assert json.loads(out) == {
        "verdict": "error",
        "detail": 'coloring JSON must be {"t": ..., "edges": [...]}',
    }


@pytest.mark.parametrize("command", ["verify", "export-dot"])
@pytest.mark.parametrize(
    "doc, reason",
    [
        ('{"t": 1, "edges": ' + "[" * 200_000, "recursion"),
        ('{"t": ' + "9" * 5000 + ', "edges": []}', "4300"),
    ],
    ids=["nested-past-recursion-limit", "int-past-digit-limit"],
)
def test_undecodable_coloring_json_is_one_line_error(command, doc, reason, capsys, monkeypatch):
    # input the JSON decoder gives up on gets the verdict a syntax error gets
    code, out, err = run([command], capsys, monkeypatch, stdin_text=doc)
    assert code == 1
    assert err == ""
    verdict = json.loads(out)
    assert verdict["verdict"] == "error"
    assert verdict["detail"].startswith("invalid coloring JSON: ")
    assert reason in verdict["detail"]
    assert out.count("\n") == 1


@pytest.mark.parametrize(
    "doc, detail",
    [
        ({"t": 1, "edges": [[0, 1, 1], [2, 3]]}, "edge entry [2, 3] must be [u, v, color]"),
        ({"t": 1, "edges": [[0, 1, 1], [2, 3, True]]}, "edge entry [2, 3, true] must hold ints"),
        ({"t": 1, "edges": [[0, 1, 1], [1, 0, 1]]}, "duplicate edge (0, 1) in coloring JSON"),
        ({"t": 1, "edges": [[0, 1, 1], [2, 2, 1]]}, "loop at vertex 2"),
        ({"t": 0, "edges": [[0, 1, 1]]}, "t must be >= 1, got 0"),
        ({"t": 1, "edges": [[-2, 0, 1]]}, "edge (-2, 0) out of range for n=1"),
        ({"t": 1, "edges": [[-3, -2, 1]]}, "vertex count must be nonnegative, got -1"),
        ({"t": 1, "edges": []}, "coloring has no edges"),
        # the entry and t are quoted as the JSON they were read from
        ({"t": 1, "edges": [[0, 1, 1], {"u": None}]}, 'edge entry {"u": null} must be [u, v, color]'),
        ({"t": True, "edges": [[0, 1, 1]]}, "t must be an int, got true"),
    ],
)
def test_verify_names_the_first_bad_entry(doc, detail, capsys, monkeypatch):
    code, out, _ = run(["verify"], capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert code == 1
    assert json.loads(out) == {"verdict": "error", "detail": detail}


def test_fan_verifies(capsys, monkeypatch):
    code, out, _ = run(["fan", "--n", "12"], capsys)
    assert code == 0
    code, verdict_text, _ = run(["verify"], capsys, monkeypatch, stdin_text=out)
    assert code == 0
    assert json.loads(verdict_text)["t"] == 11


def test_fan_dot_format(capsys, monkeypatch):
    # a fan's DOT comes from export-dot on its coloring
    _, colored, _ = run(["fan", "--n", "5"], capsys)
    code, out, _ = run(["export-dot"], capsys, monkeypatch, stdin_text=colored)
    assert code == 0
    assert out.startswith("graph {\n")
    assert 'label="' in out


@pytest.mark.parametrize("argv", [["color"], ["fan", "--n", "5"]], ids=["color", "fan"])
def test_no_command_but_export_dot_writes_dot(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "dot"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format dot" in capsys.readouterr().err


def test_demo_reports_triangle_count(capsys):
    code, out, _ = run(["demo-axenovich", "--n", "9"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 5
    assert len(report["separating_triangles"]) == 5
    assert "does not force" in report["conclusion"]


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["fan", "--n", "64"], 1),
        (["fan", "--n", "63"], 1),  # the closed form's other parity
        (["demo-axenovich", "--n", "64"], 1),
    ],
)
def test_fan_graph_built_once_per_call(argv, builds, capsys, monkeypatch):
    # the coloring is validated against one fan graph, which the demo
    # also reads its triangles from
    calls = []
    for module in (outercolor.fan, outercolor.cli):
        original = module.gen_triangular_fan

        def counted(n, original=original):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(module, "gen_triangular_fan", counted)
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert calls == [int(argv[-1])] * builds


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv, stdin_text, code",
    [
        (["gen", "--family", "cycle", "--n", "5"], None, 0),
        (["recognize"], "3 1\n0 0\n", 1),  # error verdict: a loop
        (["gen", "--family", "cycle"], None, SystemExit),  # parser.error
    ],
    ids=["ok", "error-verdict", "usage-error"],
)
def test_main_leaves_gc_as_it_found_it(enabled, argv, stdin_text, code, capsys, monkeypatch):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_demo_small_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo-axenovich", "--n", "4"])
    assert exc.value.code == 2


def test_export_dot_takes_both_formats(capsys, monkeypatch):
    _, graph_text, _ = run(["gen", "--family", "cycle", "--n", "4"], capsys)
    code, plain, _ = run(["export-dot"], capsys, monkeypatch, stdin_text=graph_text)
    assert code == 0
    assert "label" not in plain
    _, colored, _ = run(["fan", "--n", "5"], capsys)
    code, dotted, _ = run(["export-dot"], capsys, monkeypatch, stdin_text=colored)
    assert code == 0
    assert 'label="' in dotted


def test_file_io_round_trip(tmp_path, capsys):
    graph_file = tmp_path / "g.edges"
    out_file = tmp_path / "c.json"
    code, _, _ = run(
        ["gen", "--family", "tf", "--n", "7", "--out", str(graph_file)], capsys
    )
    assert code == 0
    code, out, _ = run(
        ["color", "--method", "exact", "--in", str(graph_file), "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out == ""
    code, verdict_text, _ = run(["verify", "--in", str(out_file)], capsys)
    assert code == 0
    assert json.loads(verdict_text)["t"] == 6


def test_unopenable_input_is_one_line_with_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(["verify", "--in", str(missing)], capsys)
    assert (code, out) == (2, "")
    assert err == f"outercolor: error: {missing}: No such file or directory\n"


def test_unopenable_output_is_one_line_with_exit_2(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x"
    code, out, err = run(["gen", "--family", "cycle", "--n", "4", "--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"outercolor: error: {target}: No such file or directory\n"


# every command that reads a graph or a coloring
READERS = ["recognize", "color", "width", "verify", "export-dot"]


@pytest.mark.parametrize("command", READERS)
def test_non_utf8_input_is_an_error_verdict(command, tmp_path, capsys, monkeypatch):
    # one byte that is not UTF-8, from a file and from a stdin that
    # decodes strictly, as stdin does under a UTF-8 locale
    path = tmp_path / "bad"
    path.write_bytes(b"\xff")
    code, out, err = run([command, "--in", str(path)], capsys)
    assert (code, err) == (1, "")
    assert json.loads(out)["verdict"] == "error"
    strict = io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", strict)
    assert run([command], capsys) == (1, out, "")


# a valid input of each kind to mutate
EDGE_SEEDS = [
    C4.encode(),
    C9_TWO_CHORDS.encode(),
    write_edge_list(gen_random_outerplanar_subcubic(11, 2)).encode(),
]
COLORING_SEEDS = [
    C4_COLORING.encode(),
    b'{"t": 4, "edges": [[0, 1, 2], [0, 2, 1], [0, 8, 3], [1, 2, 3], [2, 3, 2],'
    b" [3, 4, 1], [4, 5, 2], [4, 6, 3], [5, 6, 1], [6, 7, 2], [7, 8, 4]]}",
]


@st.composite
def mutated(draw, seeds):
    """A valid input with bytes dropped, duplicated or flipped, its first
    number made huge, or its whole text nested deep."""
    data = draw(st.sampled_from(seeds))
    kind = draw(st.sampled_from(["bytes", "huge", "nested"]))
    if kind == "huge":
        # past Python's 4300-digit limit for int() at the far end
        huge = b"1" + b"0" * draw(st.integers(6, 5000))
        data = re.sub(rb"\d+", huge, data, count=1)
    elif kind == "nested":
        depth = draw(st.sampled_from([1, 100, 100_000]))
        opener = draw(st.sampled_from([b"[", b'{"a": ']))
        closer = b"]" if opener == b"[" else b"}"
        data = opener * depth + data + closer * depth
    data = bytearray(data)
    for _ in range(draw(st.integers(0 if kind != "bytes" else 1, 4))):
        i = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "flip"]))
        if edit == "drop":
            del data[i]
        elif edit == "duplicate":
            data.insert(i, data[i])
        else:
            data[i] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


@pytest.mark.parametrize(
    "argv, seeds",
    [
        (["recognize"], EDGE_SEEDS),
        (["color"], EDGE_SEEDS),
        (["color", "--method", "exact", "--budget-ms", "50"], EDGE_SEEDS),
        (["width", "--budget-ms", "50"], EDGE_SEEDS),
        (["verify"], COLORING_SEEDS),
        (["export-dot"], EDGE_SEEDS + COLORING_SEEDS),
    ],
    ids=lambda v: " ".join(v) if isinstance(v[0], str) else None,
)
def test_mutated_input_ends_in_a_listed_exit_code(argv, seeds, capsys, monkeypatch):
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(mutated(seeds))
    def check(data):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        _, err = capsys.readouterr()
        assert "Traceback" not in err
        assert code in (0, 1, 2, 3)  # the exit codes the README's "CLI" section lists

    check()


def _cli(argv, **kwargs):
    return subprocess.Popen(
        [sys.executable, "-m", "outercolor.cli", *argv],
        stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=SRC), **kwargs,
    )


# a write that fails when it is made, and one that fails only at the
# flush after the command returns
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("n", ["200000", "4"])
def test_full_stdout_is_one_line_with_exit_2(n):
    with open("/dev/full", "w") as full, _cli(
        ["gen", "--family", "cycle", "--n", n], stdout=full
    ) as proc:
        err = proc.stderr.read()
    assert proc.returncode == 2
    assert err == "outercolor: error: <stdout>: No space left on device\n"


def test_closed_pipe_is_quiet_with_exit_0():
    # the reader has left before the first write, as in `outercolor gen
    # ... | true`: what it did not take is no error
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as pipe, _cli(
        ["gen", "--family", "cycle", "--n", "200000"], stdout=pipe
    ) as proc:
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, "")


def test_malformed_edge_list_is_domain_error(capsys, monkeypatch):
    code, out, _ = run(["width"], capsys, monkeypatch, stdin_text="3\n0 1\n")
    assert code == 1
    assert json.loads(out)["verdict"] == "error"


def test_color_verify_odd_cycle_with_chord_past_recursion_limit(capsys, monkeypatch):
    n = 1001
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 2)]
    graph_text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    code, colored, _ = run(["color"], capsys, monkeypatch, stdin_text=graph_text)
    assert code == 0
    assert json.loads(colored)["t"] == 4
    code, verdict_text, _ = run(["verify"], capsys, monkeypatch, stdin_text=colored)
    assert code == 0
    assert json.loads(verdict_text) == {"verdict": "ok", "t": 4, "edges": n + 1}


def test_demo_deeply_nested_faces(capsys):
    # the 5000-fan nests its faces about 5000 deep, and every face walk
    # step sees a fan vertex with thousands of chords
    code, out, _ = run(["demo-axenovich", "--n", "5000"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 4996


def test_gen_then_recognize_at_100k_vertices(capsys, monkeypatch):
    code, graph_text, _ = run(["gen", "--family", "random", "--n", "100000", "--seed", "3"], capsys)
    assert code == 0
    code, out, _ = run(["recognize"], capsys, monkeypatch, stdin_text=graph_text)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "outerplanar-2connected"
    assert len(verdict["order"]) == 100000


def _run_under_1gb_cap(argv, stdin_text):
    # the child runs under a 1 GB address-space cap, under which building
    # a 20M-vertex adjacency would raise MemoryError
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "outercolor.cli", *argv],
        input=stdin_text, capture_output=True, text=True, timeout=60,
        preexec_fn=cap, env=dict(os.environ, PYTHONPATH=SRC),
    )


# 20M declared vertices and one edge: fewer than n - 1 edges, so the input
# is disconnected
HUGE_HEADER = "20000000 1\n0 1\n"


def test_recognize_huge_header_rejects_before_allocating():
    proc = _run_under_1gb_cap(["recognize"], HUGE_HEADER)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {"verdict": "reject", "reason": "disconnected"}


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["color"], "not a 2-connected outerplanar graph: disconnected"),
        (["width"], "solver needs a connected graph"),
        (["color", "--method", "exact", "--t", "2"], "solver needs a connected graph"),
    ],
)
def test_huge_header_error_verdict_before_allocating(argv, detail):
    proc = _run_under_1gb_cap(argv, HUGE_HEADER)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {"verdict": "error", "detail": detail}


def test_verify_huge_vertex_id_without_allocating():
    # one edge to vertex 20,000,000: the graph of the coloring declares
    # 20M vertices, so a per-vertex scan would raise MemoryError
    proc = _run_under_1gb_cap(["verify"], '{"t": 1, "edges": [[0, 20000000, 1]]}')
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"verdict": "ok", "t": 1, "edges": 1}


@pytest.mark.parametrize(
    "edges, color",
    [([[0, 1, 1]], 2), ([[0, 1, 1000000000000]], 1)],
    ids=["top-colors-unused", "low-colors-unused"],
)
def test_verify_huge_t_without_allocating(edges, color):
    # a validator holding one bit per color would need 10^12 bits here
    doc = json.dumps({"t": 1000000000000, "edges": edges})
    proc = _run_under_1gb_cap(["verify"], doc)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {
        "verdict": "violation", "kind": "color-unused", "edge": None, "vertex": None,
        "color": color,
    }


@pytest.mark.parametrize(
    "stdin_text, dot",
    [
        (HUGE_HEADER, "graph {\n  0;\n  1;\n  0 -- 1;\n}\n"),
        (
            '{"t": 1, "edges": [[0, 20000000, 1]]}',
            'graph {\n  0;\n  20000000;\n  0 -- 20000000 [label="1", color="#4c72b0"];\n}\n',
        ),
    ],
    ids=["edge-list", "coloring"],
)
def test_export_dot_huge_vertex_id_without_allocating(stdin_text, dot):
    # DOT lists only the vertices that have an edge, so the 20M ids the
    # input declares cost nothing
    proc = _run_under_1gb_cap(["export-dot"], stdin_text)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == dot


def test_exact_first_coloring_past_recursion_limit(capsys, monkeypatch):
    # the search colors all 1,732 edges in one branch; a recursive search
    # would need that many frames
    _, graph_text, _ = run(["gen", "--family", "random", "--n", "1200", "--seed", "1"], capsys)
    code, col_text, _ = run(
        ["color", "--method", "exact", "--t", "3"], capsys, monkeypatch, stdin_text=graph_text
    )
    assert code == 0
    code, out, _ = run(["verify"], capsys, monkeypatch, stdin_text=col_text)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "ok" and verdict["t"] == 3


# run by the child interpreter at start-up: at exit it writes the names
# of every module it has loaded
MODULES_AT_EXIT = """\
import atexit, json, sys

def _dump():
    with open({out!r}, "w") as f:
        json.dump(sorted(sys.modules), f)

atexit.register(_dump)
"""


@pytest.mark.parametrize(
    "argv, stdin_text, loads, code",
    [
        (["gen", "--family", "cycle", "--n", "4"], "", set(), 0),
        (["verify"], C4_COLORING, set(), 0),
        (["export-dot"], C4, set(), 0),
        (["export-dot"], C4_COLORING, set(), 0),
        (["recognize"], C4, {"outerplanar"}, 0),
        (["width"], C4, {"solver"}, 0),
        (["color", "--method", "exact"], C4, {"solver"}, 0),
        (["color", "--method", "exact", "--t", "2"], C4, {"solver"}, 0),
        (["color"], C4, {"outerplanar", "subcubic"}, 0),
        (["fan", "--n", "5"], "", {"outerplanar", "solver", "fan"}, 0),
        (["demo-axenovich", "--n", "5"], "", {"outerplanar", "solver", "fan"}, 0),
        # above n = 6 the fan takes its closed form, with no solver
        (["fan", "--n", "64"], "", {"outerplanar", "fan"}, 0),
        (["demo-axenovich", "--n", "64"], "", {"outerplanar", "fan"}, 0),
        (["color", "-h"], "", set(), 0),
        (["gen", "--family", "cycle"], "", set(), 2),
    ],
    ids=["gen", "verify", "export-dot-graph", "export-dot-coloring", "recognize", "width",
         "color-exact", "color-exact-t", "color", "fan", "demo-axenovich", "fan-64",
         "demo-axenovich-64", "color-help", "gen-usage-error"],
)
def test_each_command_loads_only_its_modules(argv, stdin_text, loads, code, tmp_path):
    # a process pays start-up only for what its command runs: beyond
    # graphs and coloring, which every command needs, it loads exactly
    # `loads`, and never `dataclasses`. argparse is loaded only for help
    # and usage errors; a well-formed call is read without it. The
    # command runs as `python -m outercolor.cli`, so the cli code runs as
    # __main__ and must never be imported a second time as `outercolor.cli`.
    out = tmp_path / "modules.json"
    (tmp_path / "sitecustomize.py").write_text(MODULES_AT_EXIT.format(out=str(out)))
    proc = subprocess.run(
        [sys.executable, "-m", "outercolor.cli", *argv],
        input=stdin_text, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), SRC])),
    )
    assert proc.returncode == code, proc.stderr
    loaded = set(json.loads(out.read_text()))
    program = {name for name in loaded if name.startswith("outercolor.")}
    assert program == {f"outercolor.{name}" for name in {"coloring", "graphs"} | loads}
    assert "dataclasses" not in loaded
    assert ("argparse" in loaded) == ("-h" in argv or code == 2)


# run in a fresh interpreter: `color` on each edge list on stdin, in
# turn, then the names of the loaded modules
COLOR_EACH = """\
import io, json, sys
from outercolor.cli import main

for text in json.loads(sys.argv[1]):
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    code = main(["color"])
    sys.stdin, sys.stdout = sys.__stdin__, sys.__stdout__
    assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""


def test_color_never_loads_the_peel():
    # an odd and an even max-degree-3 graph and an even cycle: each takes
    # one construction, so the peel, its heaps and the solver it calls
    # are never loaded, and a process that writes no bytecode never
    # compiles them
    texts = [
        write_edge_list(gen_random_outerplanar_subcubic(25, 1)),
        write_edge_list(gen_random_outerplanar_subcubic(26, 1)),
        write_edge_list(gen_cycle(6)),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", COLOR_EACH, json.dumps(texts)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "outercolor.subcubic" in loaded
    assert loaded & {"outercolor.peel", "heapq", "outercolor.solver"} == set()
