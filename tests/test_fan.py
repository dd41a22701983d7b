import pytest

from outercolor.coloring import check_interval_coloring
from outercolor.fan import (
    FanReport,
    _extended_from,
    color_fan,
    derive_base_table,
    fan_max_degree,
    load_base_table,
    separating_triangle_demo,
)
from outercolor.graphs import gen_triangular_fan
from outercolor.solver import Colored, width


def test_max_degree_formula():
    assert fan_max_degree(3) == 3
    assert [fan_max_degree(n) for n in (4, 5, 6, 7, 8, 9)] == [5, 5, 5, 6, 7, 8]
    with pytest.raises(ValueError):
        fan_max_degree(2)


def test_max_degree_matches_graph():
    for n in range(3, 15):
        g, _ = gen_triangular_fan(n)
        assert g.max_degree == fan_max_degree(n)


def test_golden_table_regenerates():
    # the derivation is deterministic, so the shipped data must match
    assert derive_base_table() == load_base_table()


def test_base_table_shape():
    table = load_base_table()
    assert sorted(table) == [3, 4, 5, 6, 7, 8]
    for n, col in table.items():
        g, _ = gen_triangular_fan(n)
        assert check_interval_coloring(g, col) is None
        assert col.t == fan_max_degree(n)


def test_base_entries_have_extension_palettes():
    table = load_base_table()
    g7, labels7 = gen_triangular_fan(7)
    ids7 = {name: v for v, name in labels7.items()}
    assert table[7].palette(g7, ids7["u"]) == (1, 2, 3, 4, 5, 6)
    assert table[7].palette(g7, ids7["v6"]) == (3, 4, 5)
    g8, labels8 = gen_triangular_fan(8)
    ids8 = {name: v for v, name in labels8.items()}
    assert table[8].palette(g8, ids8["u"]) == (1, 2, 3, 4, 5, 6, 7)
    assert table[8].palette(g8, ids8["v7"]) == (4, 5, 6)


def test_color_fan_valid_and_tight():
    for n in range(3, 31):
        col = color_fan(n)
        g, _ = gen_triangular_fan(n)
        assert check_interval_coloring(g, col) is None
        assert col.t == fan_max_degree(n)


def test_color_fan_rejects_tiny():
    with pytest.raises(ValueError):
        color_fan(2)


def test_solver_confirms_small_fans():
    # width >= max degree always, so matching t certifies optimality
    for n in range(3, 7):
        g, _ = gen_triangular_fan(n)
        out = width(g)
        assert isinstance(out, Colored)
        assert out.t == fan_max_degree(n)


def test_extension_is_local():
    # growing n to n+2 keeps every old edge's color and adds 8 edges
    for base_n, n in ((7, 9), (8, 10), (9, 11), (10, 12)):
        small = color_fan(base_n)
        big = color_fan(n)
        _, small_labels = gen_triangular_fan(base_n)
        _, big_labels = gen_triangular_fan(n)
        small_by_name = {
            tuple(sorted((small_labels[u], small_labels[v]))): c
            for (u, v), c in small.assignment.items()
        }
        big_by_name = {
            tuple(sorted((big_labels[u], big_labels[v]))): c
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
        g, _ = gen_triangular_fan(n)
        assert check_interval_coloring(g, report.coloring) is None
        assert str(len(report.separating_triangles)) in report.conclusion


def test_demo_triangles_are_apex_cells():
    report = separating_triangle_demo(8)
    # every separating triangle of the fan is an apex cell u,v_i,v_{i+1}
    assert report.separating_triangles == tuple(
        (0, i, i + 1) for i in range(2, 6)
    )


def test_demo_rejects_small():
    with pytest.raises(ValueError):
        separating_triangle_demo(4)


def test_color_fan_hands_out_its_own_assignment():
    first = color_fan(5)
    first.assignment[next(iter(first.assignment))] = 99
    second = color_fan(5)
    assert second.assignment is not first.assignment
    assert second == load_base_table()[5]
