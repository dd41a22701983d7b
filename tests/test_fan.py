import hashlib

import pytest

import outercolor.fan
from outercolor.coloring import EdgeColoring, check_interval_coloring, coloring_to_json
from outercolor.fan import (
    FanReport,
    color_fan,
    fan_max_degree,
    load_base_table,
    separating_triangle_demo,
)
from outercolor.graphs import gen_triangular_fan
from outercolor.outerplanar import recognize_outerplanar_2connected, separating_triangles
from outercolor.solver import width


def test_max_degree_formula():
    assert fan_max_degree(3) == 3
    assert [fan_max_degree(n) for n in (4, 5, 6, 7, 8, 9)] == [5, 5, 5, 6, 7, 8]
    with pytest.raises(ValueError):
        fan_max_degree(2)


def test_max_degree_matches_graph():
    for n in range(3, 15):
        g = gen_triangular_fan(n)
        assert g.max_degree == fan_max_degree(n)


# The base table (n = 3..6) is the exact solver's first solution, and
# every larger fan takes the closed form. A change to the solver's search
# order may pick other base colorings, and a change to the closed form's
# fixed first cells other colorings for n >= 7: such a change must
# update these digests on purpose.
BASE_TABLE_SHA256 = "9fee0eda725af04cf38a67d4eadd86c89c49e433147fdbb88899a4b21a58ec22"
FANS_3_TO_60_SHA256 = "808b9bef67ec4a638a2939faf792b871e7f75254cab075252a4c54b281db71c1"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_base_table_digest():
    table = load_base_table()
    assert _sha256("".join(coloring_to_json(table[n]) for n in range(3, 7))) == BASE_TABLE_SHA256
    assert load_base_table.__wrapped__() == table  # a fresh derivation agrees


def test_color_fan_digest():
    text = "".join(coloring_to_json(color_fan(n)) for n in range(3, 61))
    assert _sha256(text) == FANS_3_TO_60_SHA256


def test_base_table_shape():
    table = load_base_table()
    assert sorted(table) == [3, 4, 5, 6]
    for n, col in table.items():
        g = gen_triangular_fan(n)
        assert check_interval_coloring(g, col) is None
        assert col.t == fan_max_degree(n)


def test_color_fan_valid_and_tight():
    for n in range(3, 31):
        col = color_fan(n)
        g = gen_triangular_fan(n)
        assert check_interval_coloring(g, col) is None
        assert col.t == fan_max_degree(n)


def test_closed_form_valid_and_tight_up_to_2000(monkeypatch):
    # the closed form's argument covers every n; this checks its first
    # two thousand. color_fan's own check is this same validator, so it
    # is skipped here and each fan is validated once, by the test
    monkeypatch.setattr(outercolor.fan, "check_interval_coloring", lambda g, col: None)
    for n in range(7, 2001):
        g = gen_triangular_fan(n)
        col = color_fan(n, g)
        assert check_interval_coloring(g, col) is None, n
        assert col.t == fan_max_degree(n), n


def test_color_fan_rejects_tiny():
    with pytest.raises(ValueError):
        color_fan(2)


def test_solver_confirms_small_fans():
    # width >= max degree always, so matching t certifies optimality
    for n in range(3, 11):
        g = gen_triangular_fan(n)
        out = width(g)
        assert isinstance(out, EdgeColoring)
        assert out.t == fan_max_degree(n)


def _role(n, v):
    # the n-fan's ids: u = 0, v_i = i and w_i = n - 1 + i
    return ("u", 0) if v == 0 else ("v", v) if v < n else ("w", v - (n - 1))


def test_extension_is_local():
    # growing n to n+2 keeps every old edge's color and adds 8 edges
    for base_n, n in ((7, 9), (8, 10), (9, 11), (10, 12)):
        small = color_fan(base_n)
        big = color_fan(n)
        small_by_name = {
            tuple(sorted((_role(base_n, u), _role(base_n, v)))): c
            for (u, v), c in small.assignment.items()
        }
        big_by_name = {
            tuple(sorted((_role(n, u), _role(n, v)))): c
            for (u, v), c in big.assignment.items()
        }
        for named_edge, c in small_by_name.items():
            assert big_by_name[named_edge] == c
        assert len(big_by_name) == len(small_by_name) + 8


def test_demo_counts_triangles():
    for n in range(5, 12):
        report = separating_triangle_demo(n)
        assert isinstance(report, FanReport)
        assert len(report.separating_triangles) == n - 4
        g = gen_triangular_fan(n)
        assert check_interval_coloring(g, report.coloring) is None
        assert str(len(report.separating_triangles)) in report.conclusion


def test_demo_triangles_are_apex_cells():
    report = separating_triangle_demo(8)
    # every separating triangle of the fan is an apex cell u,v_i,v_{i+1}
    assert report.separating_triangles == tuple(
        (0, i, i + 1) for i in range(2, 6)
    )


def test_demo_runs_no_recognition_and_finds_its_triangles(monkeypatch):
    # the demo verifies the walk its generator knows; its triangles are
    # those of the embedding recognition gives
    def refused(g):
        raise AssertionError("the demo ran recognition")

    monkeypatch.setattr(outercolor.fan, "recognize_outerplanar_2connected", refused)
    for n in range(5, 151):
        g = gen_triangular_fan(n)
        expected = tuple(separating_triangles(recognize_outerplanar_2connected(g)))
        assert separating_triangle_demo(n).separating_triangles == expected


def test_demo_rejects_small():
    with pytest.raises(ValueError):
        separating_triangle_demo(4)


def test_color_fan_hands_out_its_own_assignment():
    first = color_fan(5)
    first.assignment[next(iter(first.assignment))] = 99
    second = color_fan(5)
    assert second.assignment is not first.assignment
    assert second == load_base_table()[5]
