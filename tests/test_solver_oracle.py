"""The exact solver checked against the recursive search it replaced.

The reference below is the original backtracking search: one recursive
call per edge, palettes as sets, and three per-vertex feasibility tests
after each placement. It tries the same breadth-first edge order and the
same ascending colors, with no forward check and no forced-color prune,
so the program's solver must return exactly what it returns: None, or the
same assignment.

Caps on t keep the file to a few seconds, since the reference's cost
grows fast with t. Atlas graphs are searched at t <= max degree + 3: 523
of the 710 (graph, t) pairs from max degree to m, and the reference takes
about 5 s on the other 187. Fans are searched at t <= max degree + 2 (the
n = 7 fan at every t takes the reference about 6 s), and the random
corpus at t <= max degree + 1 (t = max degree + 2 alone takes it over
1 s). T_{k,l,m} is searched at every t from max degree to m.
"""

import random
from collections import deque

import networkx as nx

from outercolor.coloring import EdgeColoring
from outercolor.graphs import (
    Edge,
    Graph,
    gen_random_outerplanar_subcubic,
    gen_triangle_graph,
    gen_triangular_fan,
    make_graph,
    norm_edge,
)
from outercolor.solver import find_interval_coloring

# ---------------------------------------------------------------------------
# Reference implementation (recursive; test-only)
# ---------------------------------------------------------------------------


def _reference_edge_order(g: Graph) -> list[Edge]:
    order: list[Edge] = []
    seen_e: set[Edge] = set()
    visited = [False] * g.n
    queue = deque([0])
    visited[0] = True
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            e = norm_edge(u, v)
            if e not in seen_e:
                seen_e.add(e)
                order.append(e)
            if not visited[v]:
                visited[v] = True
                queue.append(v)
    return order


def reference_find_interval_coloring(g: Graph, t: int) -> EdgeColoring | None:
    if t < g.max_degree or t > g.m:
        return None

    edges = _reference_edge_order(g)
    m = len(edges)
    degree = [g.degree(v) for v in range(g.n)]
    colored_at = [0] * g.n
    palette: list[set[int]] = [set() for _ in range(g.n)]
    lo = [0] * g.n
    hi = [0] * g.n
    assignment: dict[Edge, int] = {}
    color_use = [0] * (t + 1)
    distinct_used = 0
    first_cap = (t + 1) // 2

    def vertex_ok(v: int) -> bool:
        p_lo, p_hi = lo[v], hi[v]
        d = degree[v]
        if p_hi - p_lo + 1 > d:
            return False
        if max(1, p_hi - d + 1) > min(p_lo, t - d + 1):
            return False
        if colored_at[v] == d and p_hi - p_lo + 1 != d:
            return False
        return True

    def place(idx: int) -> bool:
        nonlocal distinct_used
        if idx == m:
            return distinct_used == t
        if t - distinct_used > m - idx:
            return False
        u, v = edges[idx]
        cap = first_cap if idx == 0 else t
        for c in range(1, cap + 1):
            if c in palette[u] or c in palette[v]:
                continue
            saved = []
            ok = True
            for w in (u, v):
                saved.append((lo[w], hi[w]))
                palette[w].add(c)
                colored_at[w] += 1
                if colored_at[w] == 1:
                    lo[w] = hi[w] = c
                else:
                    lo[w] = min(lo[w], c)
                    hi[w] = max(hi[w], c)
                if not vertex_ok(w):
                    ok = False
            color_use[c] += 1
            if color_use[c] == 1:
                distinct_used += 1
            if ok:
                assignment[edges[idx]] = c
                if place(idx + 1):
                    return True
                del assignment[edges[idx]]
            color_use[c] -= 1
            if color_use[c] == 0:
                distinct_used -= 1
            for w, (l0, h0) in zip((u, v), saved):
                palette[w].discard(c)
                colored_at[w] -= 1
                lo[w], hi[w] = l0, h0
        return False

    if place(0):
        return EdgeColoring(t, dict(assignment))
    return None


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def _agree(g: Graph, t: int) -> bool:
    want = reference_find_interval_coloring(g, t)
    got = find_interval_coloring(g, t)
    if want is None:
        assert got is None, (sorted(g.edges), t)
        return False
    assert got is not None, (sorted(g.edges), t)
    assert got.t == want.t and got.assignment == want.assignment, (sorted(g.edges), t)
    return True


def _atlas_graphs():
    for h in nx.graph_atlas_g():
        if 0 < h.number_of_edges() and h.number_of_nodes() <= 6 and nx.is_connected(h):
            yield make_graph(h.number_of_nodes(), list(h.edges()))


def test_atlas_graphs_up_to_six_vertices():
    pairs = found = 0
    for g in _atlas_graphs():
        for t in range(g.max_degree, min(g.m, g.max_degree + 3) + 1):
            found += _agree(g, t)
            pairs += 1
    assert pairs == 523
    assert 0 < found < pairs


def test_triangle_graphs():
    for klm in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 2, 2)]:
        g = gen_triangle_graph(*klm)
        assert not any(_agree(g, t) for t in range(g.max_degree, g.m + 1)), klm


def test_fans_with_base_pins():
    # n = 3..6 are the fan base table's searches; 7 and 8 are the first
    # fans the closed form colors
    for n in range(3, 9):
        g = gen_triangular_fan(n)
        top = min(g.m, g.max_degree + 2)
        results = [_agree(g, t) for t in range(g.max_degree, top + 1)]
        assert results[0], n  # the fan is colorable at its max degree


def test_relabelled_random_outerplanar_subcubic():
    rng = random.Random(2024)
    for n in range(4, 26):
        for seed in range(3):
            g = gen_random_outerplanar_subcubic(n, seed)
            perm = list(range(n))
            rng.shuffle(perm)
            h = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            for t in range(h.max_degree, h.max_degree + 2):
                _agree(h, t)
