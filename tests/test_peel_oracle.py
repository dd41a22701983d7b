"""The peel checked against the reference it replaced.

The reference below is the earlier peel: a `_Peel` object that keeps one
coloring dict keyed by (min, max) edge tuples, builds a PairConfig or
TriangleConfig for every level, and stores each level's cut and added
edges as tuples. Its per-level splice checks are left out, because only
its output is compared here. The program's peel keeps per-vertex
palettes and one loop each way; on every graph below it must return the
same coloring, the same number of colors and the same reduction steps.
Test-only: the program never imports this file.
"""

import heapq
import random
from typing import Callable

from outercolor.coloring import EdgeColoring, check_interval_coloring
from outercolor.graphs import (
    Edge,
    Graph,
    gen_cycle,
    gen_random_outerplanar_subcubic,
    make_graph,
    norm_edge,
)
from outercolor.peel import (
    NoConfigError,
    PairConfig,
    ReducibleConfig,
    ReductionStep,
    TriangleConfig,
    color_subcubic_le4_traced,
)
from outercolor.solver import find_interval_coloring

# ---------------------------------------------------------------------------
# Reference peel (test-only)
# ---------------------------------------------------------------------------


class _Peel:
    """The mutable graph and the shared coloring of one peel.

    Vertex ids are the input's. Candidate configurations sit in two
    lazily checked heaps: every edge that may join two degree-2 vertices
    and every vertex that may be the tip of a 3-2-3 triangle. An entry is
    re-checked when it reaches the top, and a reduction pushes the
    candidates around the vertices it changed, so the valid candidates
    are always in the heaps.
    """

    def __init__(self, g: Graph) -> None:
        self.adj = [set(g.neighbors(v)) for v in range(g.n)]
        self.m = g.m
        self.live = g.n  # vertices still in the graph
        self.colors: dict[Edge, int] = {}
        self.pairs = [e for e in g.edges if self._is_pair(*e)]
        heapq.heapify(self.pairs)
        self.tips = [v for v in range(g.n) if self._is_tip(v)]

    # -- graph ------------------------------------------------------------

    def _is_pair(self, u: int, v: int) -> bool:
        return v in self.adj[u] and len(self.adj[u]) == 2 and len(self.adj[v]) == 2

    def _is_tip(self, v: int) -> bool:
        if len(self.adj[v]) != 2:
            return False
        u, w = self.adj[v]
        return w in self.adj[u] and len(self.adj[u]) == 3 and len(self.adj[w]) == 3

    def find_config(self) -> ReducibleConfig:
        """The configuration find_reducible_config would pick on the
        current graph: the lowest degree-2 pair edge, else the triangle
        with the lowest tip."""
        adj = self.adj
        while self.pairs:
            u, v = self.pairs[0]
            if self._is_pair(u, v):
                (x,) = adj[u] - {v}
                (y,) = adj[v] - {u}
                return PairConfig(u, v, x, y)
            heapq.heappop(self.pairs)
        while self.tips:
            v = self.tips[0]
            if self._is_tip(v):
                u, w = sorted(adj[v])
                return TriangleConfig(u, v, w)
            heapq.heappop(self.tips)
        raise NoConfigError("no adjacent degree-2 pair and no 3-2-3 triangle")

    def _link(self, a: int, b: int) -> None:
        self.adj[a].add(b)
        self.adj[b].add(a)
        self.m += 1

    def _cut(self, a: int, b: int) -> None:
        self.adj[a].remove(b)
        self.adj[b].remove(a)
        self.m -= 1

    def reduce(self, removed: list[Edge], added: list[Edge], dead: tuple[int, ...]) -> None:
        for e in removed:
            self._cut(*e)
        for e in added:
            self._link(*e)
        self.live -= len(dead)
        for z in {z for e in removed for z in e} - set(dead):
            nbrs = self.adj[z]
            if len(nbrs) == 2:
                for r in nbrs:
                    if len(self.adj[r]) == 2:
                        heapq.heappush(self.pairs, norm_edge(z, r))
            for c in (z, *nbrs):
                if self._is_tip(c):
                    heapq.heappush(self.tips, c)

    def restore(self, removed: list[Edge], added: list[Edge]) -> None:
        for e in added:
            self._cut(*e)
        for e in removed:
            self._link(*e)

    def live_vertices(self) -> list[int]:
        return [v for v, nbrs in enumerate(self.adj) if nbrs]

    # -- coloring ---------------------------------------------------------

    def paint(self, a: int, b: int, c: int) -> None:
        self.colors[norm_edge(a, b)] = c

    def unpaint(self, a: int, b: int) -> int:
        return self.colors.pop(norm_edge(a, b))

    def palette(self, v: int) -> set[int]:
        """Colors on the colored edges at v."""
        colors = self.colors
        return {colors[e] for w in self.adj[v] if (e := norm_edge(v, w)) in colors}


# ---------------------------------------------------------------------------
# Base cases: color everything that is left
# ---------------------------------------------------------------------------

def _alternate(peel: _Peel, start: int, first: int, stop: int) -> None:
    # paint the walk start, first, ... through degree-2 vertices up to
    # stop with 1, 2, 1, 2, ...
    prev, cur, c = start, first, 1
    peel.paint(prev, cur, c)
    while cur != stop:
        prev, cur, c = cur, next(z for z in peel.adj[cur] if z != prev), 3 - c
        peel.paint(prev, cur, c)


def _color_even_cycle(peel: _Peel) -> None:
    # from the lowest vertex toward its lower neighbor
    start = peel.live_vertices()[0]
    _alternate(peel, start, min(peel.adj[start]), start)


def _color_small(peel: _Peel) -> None:
    # the exact solver on the remaining graph with its ids compressed
    verts = peel.live_vertices()
    index = {v: i for i, v in enumerate(verts)}
    sub = make_graph(
        len(verts), [(index[a], index[b]) for a in verts for b in peel.adj[a] if a < b]
    )
    for t in range(sub.max_degree, 5):
        col = find_interval_coloring(sub, t)
        if col is not None:
            for (a, b), c in col.assignment.items():
                peel.paint(verts[a], verts[b], c)
            return
    raise AssertionError(f"no coloring with at most 4 colors at {sub.m} edges")


def _color_odd_cycle_pair(peel: _Peel, u: int, v: int, x: int, y: int) -> None:
    # without u and v the graph is an odd cycle through xy, so no reduced
    # level can be colored: xy gets 3, the rest of the cycle alternates
    # 1, 2 from x, and the peeled path climbs 2, 3, 4
    peel.paint(x, y, 3)
    (first,) = peel.adj[x] - {u, y}
    _alternate(peel, x, first, y)
    peel.paint(u, x, 2)
    peel.paint(u, v, 3)
    peel.paint(v, y, 4)


# ---------------------------------------------------------------------------
# Splice rules: color the edges one undone reduction restored
# ---------------------------------------------------------------------------

def _splice_pair_new_edge(peel: _Peel, u: int, v: int, x: int, y: int) -> None:
    # the pair's outside neighbors were not adjacent: the shortcut xy
    # gives its color to ux and vy
    axy = peel.unpaint(x, y)
    if axy == 1:
        peel.paint(u, x, 1)
        peel.paint(v, y, 1)
        peel.paint(u, v, 2)
    else:
        peel.paint(u, x, axy)
        peel.paint(v, y, axy)
        peel.paint(u, v, axy - 1)


def _splice_pair_kept_edge(peel: _Peel, u: int, v: int, x: int, y: int) -> None:
    # xy is an edge of G, so the reduced graph simply lost u and v
    sx, sy = peel.palette(x), peel.palette(y)
    if not sx & sy:
        raise AssertionError(f"palettes at {x} and {y} lost their shared edge")
    if sx == sy:
        c = min(sx)
        if c == 1:
            peel.paint(u, x, 3)
            peel.paint(v, y, 3)
            peel.paint(u, v, 2)
        else:
            peel.paint(u, x, c - 1)
            peel.paint(v, y, c - 1)
            peel.paint(u, v, c)
        return
    union = sorted(sx | sy)
    c = union[0]
    if union != [c, c + 1, c + 2]:
        raise AssertionError(f"pair palettes {sx} {sy} are not a 3-run")
    if sx == {c, c + 1}:
        peel.paint(u, x, c + 2)
        peel.paint(u, v, c + 1)
        peel.paint(v, y, c)
    else:
        peel.paint(u, x, c)
        peel.paint(u, v, c + 1)
        peel.paint(v, y, c + 2)


def _is_3_run(a: int, b: int, c: int) -> bool:
    lo, mid, hi = sorted((a, b, c))
    return lo + 1 == mid and mid + 1 == hi


def _splice_triangle(peel: _Peel, u: int, v: int, w: int, a: int, b: int) -> None:
    # the contracted vertex u had edges ua and ub: ub goes back to w
    p = peel.colors[norm_edge(u, a)]
    q = peel.unpaint(u, b)
    peel.paint(w, b, q)
    c = min(p, q)
    if {p, q} != {c, c + 1}:
        raise AssertionError(f"contracted vertex palette {{{p}, {q}}} is not a 2-run")
    uw = 3 if c == 1 else c - 1
    peel.paint(u, w, uw)
    # orientation of {c, c+1} over uv, vw: exactly one choice keeps the
    # palettes at u and w gap-free
    for uv_color, vw_color in ((c, c + 1), (c + 1, c)):
        if _is_3_run(p, uv_color, uw) and _is_3_run(q, vw_color, uw):
            break
    else:
        raise AssertionError(f"no orientation of {{{c}, {c + 1}}} fits at {u}, {w}")
    peel.paint(u, v, uv_color)
    peel.paint(v, w, vw_color)


def reference_peel(g: Graph) -> tuple[EdgeColoring, tuple[ReductionStep, ...]]:
    """The peel's coloring and steps, as the reference computes them."""
    steps: list[ReductionStep] = []
    peel = _Peel(g)
    # per level: the splice rule, its vertices, the edges cut and added
    undo: list[tuple[Callable[..., None], tuple[int, ...], list[Edge], list[Edge]]] = []
    while True:
        depth = len(steps)
        live = peel.live
        # a 2-connected graph with as many edges as vertices is a cycle
        if peel.m == live:
            if live % 2 == 1:
                raise AssertionError("the peel reached an odd cycle")
            steps.append(ReductionStep("BaseEvenCycle", depth))
            _color_even_cycle(peel)
            break
        if peel.m <= 5:
            steps.append(ReductionStep("BaseSmall", depth))
            _color_small(peel)
            break
        cfg = peel.find_config()
        if isinstance(cfg, PairConfig):
            u, v, x, y = cfg.u, cfg.v, cfg.x, cfg.y
            ids = (u, v), (x, y)
            removed = [norm_edge(u, x), norm_edge(u, v), norm_edge(v, y)]
            if y in peel.adj[x]:
                if peel.m - 3 == live - 2 and live % 2 == 1:
                    steps.append(ReductionStep("Case12OddCycle", depth, *ids))
                    _color_odd_cycle_pair(peel, u, v, x, y)
                    break
                steps.append(ReductionStep("Case12", depth, *ids))
                splice, added = _splice_pair_kept_edge, []
            else:
                steps.append(ReductionStep("Case11", depth, *ids))
                splice, added = _splice_pair_new_edge, [norm_edge(x, y)]
            verts, dead = (u, v, x, y), (u, v)
        else:
            u, v, w = cfg.u, cfg.v, cfg.w
            (a,) = peel.adj[u] - {v, w}
            (b,) = peel.adj[w] - {u, v}
            if a == b:
                # would make `a` a cut vertex, contradicting 2-connectedness
                raise AssertionError(f"triangle {u},{v},{w} shares its external neighbor {a}")
            steps.append(ReductionStep("Case2", depth, (u, v, w), (a, b)))
            splice, verts, dead = _splice_triangle, (u, v, w, a, b), (v, w)
            removed = [norm_edge(u, v), norm_edge(u, w), norm_edge(v, w), norm_edge(w, b)]
            added = [norm_edge(u, b)]
        peel.reduce(removed, added, dead)
        undo.append((splice, verts, removed, added))

    for depth in reversed(range(len(undo))):
        splice, verts, removed, added = undo[depth]
        peel.restore(removed, added)
        splice(peel, *verts)
    return EdgeColoring(max(peel.colors.values()), peel.colors), tuple(steps)


# ---------------------------------------------------------------------------
# Corpus and comparison
# ---------------------------------------------------------------------------


def _relabel(g: Graph, seed: int) -> Graph:
    label = list(range(g.n))
    random.Random(seed).shuffle(label)
    return make_graph(g.n, [(label[u], label[v]) for u, v in g.edges])


def corpus():
    for n in range(4, 41):
        for seed in range(3):
            g = gen_random_outerplanar_subcubic(n, seed)
            yield g
            yield _relabel(g, 1000 * n + seed)
    for n in range(41, 402, 20):
        for seed in range(2):
            g = gen_random_outerplanar_subcubic(n, seed)
            yield g
            yield _relabel(g, 1000 * n + seed)
    for n in range(4, 41, 2):
        yield gen_cycle(n)
        yield _relabel(gen_cycle(n), n)


def test_peel_matches_the_reference_peel():
    cases = set()
    orders = set()
    for g in corpus():
        col, steps = color_subcubic_le4_traced(g)
        want_col, want_steps = reference_peel(g)
        assert (col.t, col.assignment, steps) == (
            want_col.t, want_col.assignment, want_steps
        ), (g.n, sorted(g.edges))
        assert check_interval_coloring(g, col) is None
        cases |= {s.case for s in steps}
        orders.add(g.n % 2)
    # the corpus reaches every case of the peel, at both parities
    assert cases == {"Case11", "Case12", "Case12OddCycle", "Case2", "BaseSmall", "BaseEvenCycle"}
    assert orders == {0, 1}
