import pytest

from outercolor.coloring import (
    ColoringError,
    EdgeColoring,
    check_interval_coloring,
    coloring_from_json,
    coloring_to_json,
    graph_of_coloring,
)
from outercolor.graphs import gen_cycle, make_graph


def c4_alternating():
    return EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})


def test_valid_cycle_coloring():
    g = gen_cycle(4)
    assert check_interval_coloring(g, c4_alternating()) is None


def test_uncolored_edge_detected():
    g = gen_cycle(4)
    col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    v = check_interval_coloring(g, col)
    assert v is not None and v.kind == "uncolored-edge" and v.edge == (0, 3)


def test_unknown_edge_detected():
    g = gen_cycle(4)
    col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2, (0, 2): 1})
    v = check_interval_coloring(g, col)
    assert v is not None and v.kind == "unknown-edge" and v.edge == (0, 2)


def test_color_out_of_range_detected():
    g = gen_cycle(4)
    col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 3, (0, 3): 2})
    v = check_interval_coloring(g, col)
    assert v is not None and v.kind == "color-out-of-range"
    assert v.edge == (2, 3) and v.color == 3


def test_not_proper_detected():
    g = gen_cycle(4)
    col = EdgeColoring(2, {(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 2})
    v = check_interval_coloring(g, col)
    assert v is not None and v.kind == "not-proper"
    assert v.vertex == 1 and v.color == 1


def test_not_interval_detected():
    # star with colors 1, 3 at the center: proper but gapped
    g = make_graph(3, [(0, 1), (0, 2)])
    col = EdgeColoring(3, {(0, 1): 1, (0, 2): 3})
    v = check_interval_coloring(g, col)
    assert v is not None and v.kind == "not-interval" and v.vertex == 0


def test_color_unused_detected():
    g = gen_cycle(4)
    col = EdgeColoring(3, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
    v = check_interval_coloring(g, col)
    assert v is not None and v.kind == "color-unused" and v.color == 3


def test_scan_order_reports_range_before_vertex_defects():
    # edge (0,1) is out of range AND vertex 2 is not proper;
    # range check scans first
    g = gen_cycle(4)
    col = EdgeColoring(2, {(0, 1): 9, (1, 2): 2, (2, 3): 2, (0, 3): 1})
    v = check_interval_coloring(g, col)
    assert v is not None and v.kind == "color-out-of-range" and v.edge == (0, 1)


def test_json_roundtrip_and_stability():
    col = c4_alternating()
    text = coloring_to_json(col)
    assert text == '{"t": 2, "edges": [[0, 1, 1], [0, 3, 2], [1, 2, 2], [2, 3, 1]]}\n'
    back = coloring_from_json(text)
    assert back == col
    assert coloring_to_json(back) == text
    # a value: its own copy of the assignment, the dataclass-style repr,
    # and no hash, since the assignment is a dict
    source = {(0, 1): 1}
    single = EdgeColoring(1, source)
    source[(1, 2)] = 2
    assert single.assignment == {(0, 1): 1}
    assert repr(single) == "EdgeColoring(t=1, assignment={(0, 1): 1})"
    with pytest.raises(TypeError):
        hash(col)


def test_json_rejects_malformed():
    with pytest.raises(ColoringError):
        coloring_from_json("not json")
    with pytest.raises(ColoringError):
        coloring_from_json('{"edges": []}')
    with pytest.raises(ColoringError):
        coloring_from_json('{"t": 2, "edges": [[0, 1]]}')
    with pytest.raises(ColoringError):
        coloring_from_json('{"t": 2, "edges": [[0, 1, 1], [1, 0, 2]]}')


def test_graph_of_coloring():
    g = graph_of_coloring(c4_alternating())
    assert g == gen_cycle(4)
    with pytest.raises(ColoringError):
        graph_of_coloring(EdgeColoring(1, {}))


def test_coloring_rejects_bad_values():
    with pytest.raises(ColoringError):
        EdgeColoring(0, {})
    with pytest.raises(ColoringError):
        EdgeColoring(2, {(1, 0): 1})
    with pytest.raises(ColoringError):
        EdgeColoring(2, {(0, 1): "red"})
