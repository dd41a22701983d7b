"""The validator checked against the per-vertex scan it replaced.

The reference below is the original `check_interval_coloring`: after the
edge-cover and color-range loops it walks every vertex id 0..n-1 through
the graph's adjacency, so its cost grows with n even where no edge is.
The program's validator builds the palettes from the assignment and
visits only the vertices that have edges, in ascending order. Both must
return the same Violation, witness included, on valid colorings and on
corrupted ones: recolored, uncolored, extra and swapped edges, a wrong t,
shifted colors, isolated vertices and relabelled ids.
"""

import random

from outercolor.coloring import EdgeColoring, Violation, check_interval_coloring
from outercolor.fan import color_fan
from outercolor.graphs import (
    Graph,
    gen_cycle,
    gen_random_outerplanar_subcubic,
    gen_triangular_fan,
    make_graph,
    norm_edge,
)
from outercolor.subcubic import color_subcubic_le4_traced

# ---------------------------------------------------------------------------
# Reference implementation (per vertex id; test-only)
# ---------------------------------------------------------------------------


def reference_check(g: Graph, coloring: EdgeColoring) -> Violation | None:
    for e in g.sorted_edges():
        if e not in coloring.assignment:
            return Violation("uncolored-edge", edge=e)
    for e in sorted(coloring.assignment):
        if e not in g.edges:
            return Violation("unknown-edge", edge=e)
        c = coloring.assignment[e]
        if not (1 <= c <= coloring.t):
            return Violation("color-out-of-range", edge=e, color=c)
    for v in range(g.n):
        colors = sorted(coloring.assignment[norm_edge(v, w)] for w in g.neighbors(v))
        for a, b in zip(colors, colors[1:]):
            if a == b:
                return Violation("not-proper", vertex=v, color=a)
        if colors and colors[-1] - colors[0] != len(colors) - 1:
            return Violation("not-interval", vertex=v)
    used = coloring.used_colors()
    for c in range(1, coloring.t + 1):
        if c not in used:
            return Violation("color-unused", color=c)
    return None


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def valid_colorings():
    for n in range(4, 16):
        for seed in range(3):
            g = gen_random_outerplanar_subcubic(n, seed)
            yield g, color_subcubic_le4_traced(g)[0]
    for n in (4, 6, 10):
        g = gen_cycle(n)
        yield g, color_subcubic_le4_traced(g)[0]
    for n in range(3, 9):
        yield gen_triangular_fan(n)[0], color_fan(n)


def relabelled(rng: random.Random, g: Graph, col: EdgeColoring, extra: int):
    # the ids go to random distinct ids in 0..n+extra-1, so extra
    # vertices scattered among them have no edge
    n = g.n + extra
    perm = rng.sample(range(n), n)
    edges = {norm_edge(perm[u], perm[v]): c for (u, v), c in col.assignment.items()}
    return make_graph(n, sorted(edges)), EdgeColoring(col.t, edges)


def corrupt(rng: random.Random, g: Graph, col: EdgeColoring) -> EdgeColoring:
    t, colors = col.t, dict(col.assignment)
    edges = sorted(colors)
    kind = rng.randrange(6)
    if kind == 0:
        colors[rng.choice(edges)] = rng.randint(-1, t + 2)
    elif kind == 1:
        del colors[rng.choice(edges)]
    elif kind == 2:
        u, v = rng.sample(range(g.n + 2), 2)
        colors[norm_edge(u, v)] = rng.randint(1, t)
    elif kind == 3:
        e, f = rng.sample(edges, 2)
        colors[e], colors[f] = colors[f], colors[e]
    elif kind == 4:
        t = max(1, t + rng.choice((-2, -1, 1, 3)))
    else:
        k = rng.choice((-1, 1, 2))
        colors = {e: c + k for e, c in colors.items()}
        t += max(k, 0)
    return EdgeColoring(t, colors)


def test_validator_matches_per_vertex_reference():
    rng = random.Random(20130305)
    kinds = []
    for g, col in valid_colorings():
        for _ in range(12):
            h, base = relabelled(rng, g, col, rng.randrange(4))
            cases = [base]
            for _ in range(rng.randrange(1, 4)):
                cases.append(corrupt(rng, h, cases[-1]))
            for c in cases:
                got = check_interval_coloring(h, c)
                assert got == reference_check(h, c), (h, c)
                kinds.append(None if got is None else got.kind)
    # the corpus reaches every verdict the validator can give
    assert set(kinds) == {
        None, "uncolored-edge", "unknown-edge", "color-out-of-range", "not-proper",
        "not-interval", "color-unused",
    }
