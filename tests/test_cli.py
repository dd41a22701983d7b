import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import outercolor
from outercolor.cli import main


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


def test_color_rejects_odd_cycle(capsys, monkeypatch):
    _, graph_text, _ = run(["gen", "--family", "cycle", "--n", "5"], capsys)
    code, out, _ = run(["color"], capsys, monkeypatch, stdin_text=graph_text)
    assert code == 1
    assert json.loads(out)["verdict"] == "error"


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
    verdict = json.loads(out)
    assert verdict["verdict"] == "not-colorable"
    assert verdict["certificate"]["kind"] == "exhausted-all-t"


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


def test_recognize_huge_header_rejects_before_allocating():
    # 20M declared vertices and one edge: fewer than n - 1 edges, so the
    # input is disconnected. The child runs under a 1 GB address-space cap,
    # under which building the adjacency would raise MemoryError.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(outercolor.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "outercolor.cli", "recognize"],
        input="20000000 1\n0 1\n", capture_output=True, text=True, timeout=60,
        preexec_fn=cap, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {"verdict": "reject", "reason": "disconnected"}
