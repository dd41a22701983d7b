import random

import pytest

from outercolor.graphs import (
    Graph,
    GraphError,
    gen_cycle,
    gen_random_outerplanar_subcubic,
    gen_triangle_graph,
    gen_triangular_fan,
    make_graph,
    read_edge_list,
    write_dot,
    write_edge_list,
)


def test_make_graph_normalizes_edge_order():
    g = make_graph(3, [(2, 0), (0, 1)])
    assert g.edges == frozenset({(0, 2), (0, 1)})


def test_make_graph_rejects_loop():
    with pytest.raises(GraphError):
        make_graph(2, [(1, 1)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(GraphError):
        make_graph(2, [(0, 2)])


def test_make_graph_rejects_duplicate_even_reversed():
    with pytest.raises(GraphError):
        make_graph(3, [(0, 1), (1, 0)])


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (-1, [], "vertex count must be nonnegative, got -1"),
        (3, [(0, 1), (-1, 2)], "edge (-1, 2) out of range for n=3"),
        (3, [(2, -1)], "edge (2, -1) out of range for n=3"),
        (3, [(0, 1), (1, 3)], "edge (1, 3) out of range for n=3"),
        (3, [(0, 1), (2, 2)], "loop at vertex 2"),
        (3, [(1, 2), (0, 1), (2, 1)], "duplicate edge (2, 1)"),
        # the first bad edge in input order is named, whatever its kind
        (3, [(0, 1), (1, 0), (2, 2), (0, 5)], "duplicate edge (1, 0)"),
        (3, [(0, 5), (0, 1), (1, 0)], "edge (0, 5) out of range for n=3"),
        (3, [(1, 1), (0, 5)], "loop at vertex 1"),
    ],
)
def test_make_graph_names_the_first_bad_edge(n, edges, message):
    with pytest.raises(GraphError) as exc:
        make_graph(n, edges)
    assert str(exc.value) == message


def test_adjacency_and_degree():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert g.neighbors(0) == (1, 2, 3)
    assert g.degree(0) == 3
    assert g.degree(3) == 2
    assert g.max_degree == 3
    assert g.has_edge(2, 0)
    assert not g.has_edge(1, 3)


def test_is_connected():
    assert make_graph(3, [(0, 1), (1, 2)]).connected
    assert not make_graph(4, [(0, 1), (2, 3)]).connected
    assert make_graph(0, []).connected
    assert not make_graph(2, []).connected


def test_is_connected_answers_sparse_headers_without_adjacency():
    g = read_edge_list("20000000 1\n0 1\n")
    assert not g.connected
    assert "adjacency" not in vars(g)  # the cached property was never built


def test_connected_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    answers = set()
    for k in range(300):
        n = k % 12  # every size from 0 to 11, 25 graphs each
        density = rng.choice((0.1, 0.25, 0.5))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = make_graph(n, edges)
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        # networkx calls the null graph neither connected nor not
        want = n == 0 or nx.is_connected(h)
        assert g.connected == want, (n, edges)
        answers.add(want)
    assert answers == {True, False}


def test_gen_cycle_shape():
    g = gen_cycle(6)
    assert g.n == 6 and g.m == 6
    assert all(g.degree(v) == 2 for v in range(6))
    with pytest.raises(GraphError):
        gen_cycle(2)


def test_fan_smallest_is_triangle():
    g, labels = gen_triangular_fan(3)
    assert g.n == 4 and g.m == 5
    assert labels == {0: "u", 1: "v1", 2: "v2", 3: "w1"}
    assert g.max_degree == 3


def test_fan_counts_and_degrees():
    for n in range(3, 12):
        g, labels = gen_triangular_fan(n)
        assert g.n == 2 * n - 2
        assert g.m == 4 * n - 7
        assert len(labels) == g.n
        assert g.degree(0) == n - 1
        # every w vertex has degree 2
        for i in range(1, n - 1):
            assert g.degree((n - 1) + i) == 2
        expected_max = 3 if n == 3 else max(n - 1, 5)
        assert g.max_degree == expected_max


def test_fan_apex_sees_every_v():
    n = 7
    g, _ = gen_triangular_fan(n)
    assert g.neighbors(0) == tuple(range(1, n))


def test_triangle_graph_counts():
    for k, l, m in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1)]:
        g, labels = gen_triangle_graph(k, l, m)
        assert g.n == 3 + (2 * k - 1) + (2 * l - 1) + (2 * m - 1)
        assert g.m == 3 + 2 * (k + l + m)
        assert len(labels) == g.n
        # all degrees even: 4 at the triangle, 2 along the paths
        for v in range(g.n):
            assert g.degree(v) in (2, 4)
        for v in (0, 1, 2):
            assert g.degree(v) == 4


def test_triangle_graph_labels_spell_roles():
    g, labels = gen_triangle_graph(2, 1, 1)
    assert labels[0] == "x" and labels[1] == "y" and labels[2] == "z"
    us = [v for v, name in labels.items() if name.startswith("u")]
    assert len(us) == 3
    # u-path runs between x and y
    assert g.has_edge(0, us[0]) and g.has_edge(us[-1], 1)


def test_random_family_is_deterministic():
    a = gen_random_outerplanar_subcubic(9, 42)
    b = gen_random_outerplanar_subcubic(9, 42)
    assert a == b
    c = gen_random_outerplanar_subcubic(9, 43)
    # different seeds usually differ; at minimum both remain valid
    assert c.n == 9


def test_random_family_shape():
    for n in range(4, 13):
        for seed in range(8):
            g = gen_random_outerplanar_subcubic(n, seed)
            assert g.n == n
            assert g.m > n  # at least one chord
            assert g.max_degree == 3
            # cycle edges all present
            for i in range(n):
                assert g.has_edge(i, (i + 1) % n)
            chords = [e for e in sorted(g.edges) if (e[1] - e[0]) % n not in (1, n - 1)]
            # chords vertex-disjoint: degree cap already implies it
            ends = [v for e in chords for v in e]
            assert len(ends) == len(set(ends))


def test_random_family_on_smallest_cycle_has_one_chord():
    # on a 4-cycle or 5-cycle any two vertex-disjoint chords would cross,
    # so exactly one chord fits
    for seed in range(20):
        assert gen_random_outerplanar_subcubic(4, seed).m == 5
        assert gen_random_outerplanar_subcubic(5, seed).m == 6


def test_random_family_has_dense_and_sparse_modes():
    # the seeded coin picks a mode per seed: dense graphs keep few
    # positions chord-free, sparse ones most
    counts = [gen_random_outerplanar_subcubic(200, seed).m - 200 for seed in range(40)]
    assert max(counts) > 200 // 3 and min(counts) < 200 // 4


def test_random_family_scales_linearly():
    # the generator is O(n) in time and memory; n = 16000 enumerated all
    # O(n^2) chord pairs before and ran out of memory
    n = 16000
    g = gen_random_outerplanar_subcubic(n, 5)
    assert g.n == n and g.max_degree == 3
    assert all(g.has_edge(i, (i + 1) % n) for i in range(n))


def test_edge_list_roundtrip():
    g = gen_random_outerplanar_subcubic(8, 7)
    text = write_edge_list(g)
    lines = text.splitlines()
    assert lines[0] == f"8 {g.m}"
    assert text.endswith("\n")
    h = read_edge_list(text)
    assert h == g


def test_edge_list_rejects_malformed():
    with pytest.raises(GraphError):
        read_edge_list("")
    with pytest.raises(GraphError):
        read_edge_list("3\n0 1\n")
    with pytest.raises(GraphError):
        read_edge_list("3 2\n0 1\n")
    with pytest.raises(GraphError):
        read_edge_list("3 1\n0 x\n")


def test_write_dot_plain():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    out = write_dot(g)
    assert out == "graph {\n  0;\n  1;\n  2;\n  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n}\n"


def test_write_dot_with_coloring():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    out = write_dot(g, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    assert '0 -- 1 [label="1"' in out
    assert '1 -- 2 [label="3"' in out
    # deterministic: same input, same bytes
    assert out == write_dot(g, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    with pytest.raises(GraphError):
        write_dot(g, {(0, 1): 1})


def test_graph_is_hashable_value():
    g = make_graph(3, [(0, 1)])
    h = make_graph(3, [(1, 0)])
    assert g == h and hash(g) == hash(h)
    assert len({g, h}) == 1
    assert isinstance(g, Graph)
    assert repr(g) == "Graph(n=3, edges=frozenset({(0, 1)}))"
