"""The validator checked against the two scans it replaced.

The references below are earlier versions of `check_interval_coloring`.
`reference_check` walks every vertex id 0..n-1 through the graph's
adjacency, so its cost grows with n even where no edge is.
`sorted_scan_check` sorts the edges, the assignment and every palette,
and visits only the vertices that have edges. The program's validator
makes one linear pass of set tests and looks for a witness only when a
test fails. All three must return the same Violation, witness included,
on valid colorings and on corrupted ones: recolored, uncolored, extra and
swapped edges, a wrong t, shifted colors, isolated vertices, relabelled
ids, and t or colors far beyond the edge count.
"""

import random
from collections import defaultdict

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
    for e in sorted(g.edges):
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
    used = set(coloring.assignment.values())
    for c in range(1, coloring.t + 1):
        if c not in used:
            return Violation("color-unused", color=c)
    return None


def sorted_scan_check(g: Graph, coloring: EdgeColoring) -> Violation | None:
    for e in sorted(g.edges):
        if e not in coloring.assignment:
            return Violation("uncolored-edge", edge=e)
    for e in sorted(coloring.assignment):
        if e not in g.edges:
            return Violation("unknown-edge", edge=e)
        c = coloring.assignment[e]
        if not (1 <= c <= coloring.t):
            return Violation("color-out-of-range", edge=e, color=c)
    palettes = defaultdict(list)
    for (u, v), c in coloring.assignment.items():
        palettes[u].append(c)
        palettes[v].append(c)
    for v in sorted(palettes):
        colors = sorted(palettes[v])
        for a, b in zip(colors, colors[1:]):
            if a == b:
                return Violation("not-proper", vertex=v, color=a)
        if colors[-1] - colors[0] != len(colors) - 1:
            return Violation("not-interval", vertex=v)
    used = set(coloring.assignment.values())
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


HUGE = 10**12
STAR4 = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])

PINNED = [
    # two colors repeat at one vertex: the witness is the smaller one
    (
        STAR4,
        EdgeColoring(2, {(0, 1): 2, (0, 2): 1, (0, 3): 2, (0, 4): 1}),
        Violation("not-proper", vertex=0, color=1),
    ),
    # t or a color far past the edge count: a validator holding one bit
    # per color would need 10^12 bits here
    (make_graph(2, [(0, 1)]), EdgeColoring(HUGE, {(0, 1): 1}), Violation("color-unused", color=2)),
    (
        make_graph(2, [(0, 1)]),
        EdgeColoring(HUGE, {(0, 1): HUGE}),
        Violation("color-unused", color=1),
    ),
    (
        make_graph(3, [(0, 1), (1, 2)]),
        EdgeColoring(HUGE, {(0, 1): 1, (1, 2): HUGE}),
        Violation("not-interval", vertex=1),
    ),
    (
        make_graph(4, [(0, 1), (1, 2), (1, 3)]),
        EdgeColoring(HUGE, {(0, 1): HUGE, (1, 2): 1, (1, 3): HUGE}),
        Violation("not-proper", vertex=1, color=HUGE),
    ),
    (
        make_graph(2, [(0, 1)]),
        EdgeColoring(1, {(0, 1): HUGE}),
        Violation("color-out-of-range", edge=(0, 1), color=HUGE),
    ),
]


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
                assert got == reference_check(h, c) == sorted_scan_check(h, c), (h, c)
                kinds.append(None if got is None else got.kind)
    # the corpus reaches every verdict the validator can give
    assert set(kinds) == {
        None, "uncolored-edge", "unknown-edge", "color-out-of-range", "not-proper",
        "not-interval", "color-unused",
    }


def test_pinned_cases_match_both_references():
    for g, col, want in PINNED:
        assert check_interval_coloring(g, col) == want
        assert reference_check(g, col) == sorted_scan_check(g, col) == want
