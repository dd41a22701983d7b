import gc
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import outercolor
import outercolor.cli
import outercolor.fan
import outercolor.subcubic
from outercolor.cli import main
from outercolor.fan import load_base_table
from outercolor.graphs import gen_random_outerplanar_subcubic, read_edge_list, write_edge_list

# the directory that holds the package, for child interpreters
SRC = str(Path(outercolor.__file__).resolve().parent.parent)

C4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
C4_COLORING = '{"t": 2, "edges": [[0, 1, 1], [0, 3, 2], [1, 2, 2], [2, 3, 1]]}'


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


def test_color_trace_goes_to_stderr(capsys, monkeypatch):
    _, graph_text, _ = run(
        ["gen", "--family", "random", "--n", "9", "--seed", "4"], capsys
    )
    code, out, err = run(
        ["color", "--trace"], capsys, monkeypatch, stdin_text=graph_text
    )
    assert code == 0
    # stdout stays a clean coloring document, the trace rides stderr
    json.loads(out)
    assert "depth=0" in err


# C9 with chords (0, 2) and (4, 6)
C9_TWO_CHORDS = "9 11\n" + "".join(
    f"{u} {v}\n" for u, v in [(i, (i + 1) % 9) for i in range(9)] + [(0, 2), (4, 6)]
)


def test_color_trace_names_input_vertex_ids(capsys, monkeypatch):
    # C9 with chords (0, 2) and (4, 6). Depth 0 cuts 7 and 8, depth 1
    # contracts the triangle 0, 1, 2 into 0, so at depth 2 the survivors
    # are 0, 3, 4, 5, 6 and input ids 3, 4, 6 differ from their ranks
    code, plain, _ = run(["color"], capsys, monkeypatch, stdin_text=C9_TWO_CHORDS)
    assert code == 0
    code, out, err = run(["color", "--trace"], capsys, monkeypatch, stdin_text=C9_TWO_CHORDS)
    assert code == 0
    assert out == plain
    assert err.splitlines() == [
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
    # a faulty splice trips the peel's own check: one JSON line and exit
    # 3, not a traceback with the exit code of a negative verdict
    original = outercolor.subcubic._splice_pair_new_edge

    def faulty(peel, u, v, x, y):
        original(peel, u, v, x, y)
        peel.paint(u, v, peel.at[u][x])  # u sees one color twice

    monkeypatch.setattr(outercolor.subcubic, "_splice_pair_new_edge", faulty)
    code, out, err = run(["color"], capsys, monkeypatch, stdin_text=C9_TWO_CHORDS)
    assert code == 3
    assert err == ""
    assert out.count("\n") == 1
    verdict = json.loads(out)
    assert verdict["verdict"] == "internal-error"
    assert verdict["detail"].startswith(
        "AssertionError: splice broke the coloring at Case11 splice at depth 0: not-proper"
    )


def test_memory_error_is_a_verdict_with_exit_3(capsys, monkeypatch):
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(outercolor.cli, "recognize_outerplanar_2connected", exhausted)
    code, out, _ = run(["recognize"], capsys, monkeypatch, stdin_text=C9_TWO_CHORDS)
    assert code == 3
    assert json.loads(out) == {"verdict": "internal-error", "detail": "MemoryError"}


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
    [["--t", "1"], ["--budget-ms", "1000"], ["--method", "exact", "--trace"]],
    ids=["t-without-exact", "budget-without-exact", "trace-with-exact"],
)
def test_color_rejects_a_flag_its_method_ignores(flags, capsys, monkeypatch):
    # --t and --budget-ms steer only the exact search, --trace only the peel
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


@pytest.mark.parametrize(
    "doc, detail",
    [
        ({"t": 1, "edges": [[0, 1, 1], [2, 3]]}, "edge entry [2, 3] must be [u, v, color]"),
        ({"t": 1, "edges": [[0, 1, 1], [2, 3, True]]}, "edge entry [2, 3, True] must hold ints"),
        ({"t": 1, "edges": [[0, 1, 1], [1, 0, 1]]}, "duplicate edge (0, 1) in coloring JSON"),
        ({"t": 1, "edges": [[0, 1, 1], [2, 2, 1]]}, "edge (2, 2) not in (min, max) form"),
        ({"t": 0, "edges": [[0, 1, 1]]}, "t must be >= 1, got 0"),
        ({"t": 1, "edges": [[-2, 0, 1]]}, "edge (-2, 0) out of range for n=1"),
        ({"t": 1, "edges": [[-3, -2, 1]]}, "vertex count must be nonnegative, got -1"),
        ({"t": 1, "edges": []}, "coloring has no edges"),
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


def test_fan_dot_format(capsys):
    code, out, _ = run(["fan", "--n", "5", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("graph {\n")
    assert 'label="' in out


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
        (["fan", "--n", "64", "--format", "dot"], 2),
        (["demo-axenovich", "--n", "64"], 1),
    ],
)
def test_fan_graph_built_once_per_call(argv, builds, capsys, monkeypatch):
    # the coloring is validated against one fan graph; only DOT output,
    # which needs the graph itself after the coloring, builds a second
    load_base_table()  # its one-time derivation builds small fans
    calls = []
    for module in (outercolor.fan, outercolor.cli):
        original = module.gen_triangular_fan

        def counted(n, original=original):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(module, "gen_triangular_fan", counted)
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert calls == [64] * builds


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
    "argv, stdin_text, loads",
    [
        (["gen", "--family", "cycle", "--n", "4"], "", set()),
        (["verify"], C4_COLORING, set()),
        (["export-dot"], C4, set()),
        (["export-dot"], C4_COLORING, set()),
        (["recognize"], C4, {"outerplanar"}),
        (["width"], C4, {"solver"}),
        (["color", "--method", "exact"], C4, {"solver"}),
        (["color", "--method", "exact", "--t", "2"], C4, {"solver"}),
        (["color"], C4, {"outerplanar", "solver", "subcubic"}),
        (["fan", "--n", "5"], "", {"outerplanar", "solver", "fan"}),
        (["demo-axenovich", "--n", "5"], "", {"outerplanar", "solver", "fan"}),
    ],
    ids=["gen", "verify", "export-dot-graph", "export-dot-coloring", "recognize", "width",
         "color-exact", "color-exact-t", "color", "fan", "demo-axenovich"],
)
def test_each_command_loads_only_its_modules(argv, stdin_text, loads, tmp_path):
    # a process pays start-up only for what its command runs: beyond
    # graphs and coloring, which every command needs, it loads exactly
    # `loads`, and never `dataclasses`. The command runs as `python -m
    # outercolor.cli`, so the cli code runs as __main__ and must never be
    # imported a second time as `outercolor.cli`.
    out = tmp_path / "modules.json"
    (tmp_path / "sitecustomize.py").write_text(MODULES_AT_EXIT.format(out=str(out)))
    proc = subprocess.run(
        [sys.executable, "-m", "outercolor.cli", *argv],
        input=stdin_text, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), SRC])),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(out.read_text()))
    program = {name for name in loaded if name.startswith("outercolor.")}
    assert program == {f"outercolor.{name}" for name in {"coloring", "graphs"} | loads}
    assert "dataclasses" not in loaded
