import hashlib

import pytest

import outercolor.fan
from outercolor.coloring import EdgeColoring, check_interval_coloring, coloring_to_json
from outercolor.fan import (
    FanReport,
    _extended_from,
    color_fan,
    derive_base_table,
    fan_max_degree,
    load_base_table,
    separating_triangle_demo,
)
from outercolor.graphs import gen_triangular_fan, norm_edge
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


# The base table is the exact solver's first solution under the
# extension constraints, and every larger fan grows from it. A change to
# the solver's search order may pick other base colorings: such a change
# must update these digests on purpose.
BASE_TABLE_SHA256 = "37b0c683337eba8e9cd63214479bd23dad84f8d77e48a6ff31ad47daa6a2875f"
FANS_3_TO_60_SHA256 = "ea7bb9fbc60a83991f89099f1df28e172e6f1bfb9d016eefc280dce33fd86e2e"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_base_table_digest():
    table = derive_base_table()
    assert _sha256("".join(coloring_to_json(table[n]) for n in range(3, 9))) == BASE_TABLE_SHA256
    assert load_base_table() == table


def test_color_fan_digest():
    text = "".join(coloring_to_json(color_fan(n)) for n in range(3, 61))
    assert _sha256(text) == FANS_3_TO_60_SHA256


def test_base_table_shape():
    table = load_base_table()
    assert sorted(table) == [3, 4, 5, 6, 7, 8]
    for n, col in table.items():
        g = gen_triangular_fan(n)
        assert check_interval_coloring(g, col) is None
        assert col.t == fan_max_degree(n)


def test_base_entries_have_extension_palettes():
    table = load_base_table()

    def palette(col, g, v):
        return tuple(sorted(col.assignment[norm_edge(v, w)] for w in g.neighbors(v)))

    # the apex u is 0 and v_i is i
    g7 = gen_triangular_fan(7)
    assert palette(table[7], g7, 0) == (1, 2, 3, 4, 5, 6)
    assert palette(table[7], g7, 6) == (3, 4, 5)
    g8 = gen_triangular_fan(8)
    assert palette(table[8], g8, 0) == (1, 2, 3, 4, 5, 6, 7)
    assert palette(table[8], g8, 7) == (4, 5, 6)


def test_color_fan_valid_and_tight():
    for n in range(3, 31):
        col = color_fan(n)
        g = gen_triangular_fan(n)
        assert check_interval_coloring(g, col) is None
        assert col.t == fan_max_degree(n)


def test_color_fan_rejects_tiny():
    with pytest.raises(ValueError):
        color_fan(2)


def test_solver_confirms_small_fans():
    # width >= max degree always, so matching t certifies optimality
    for n in range(3, 7):
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


def test_extended_from_matches_color_fan():
    table = load_base_table()
    assert _extended_from(table[7], 7, 13) == color_fan(13)
    assert _extended_from(table[8], 8, 14) == color_fan(14)


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
