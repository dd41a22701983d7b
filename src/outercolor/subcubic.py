"""Constructive interval coloring for 2-connected outerplanar graphs
with maximum degree at most 3.

The peel removes one reducible configuration at a time from a single
mutable adjacency: an adjacent degree-2 pair is cut out (reattaching or
keeping the neighbor edge), or a 3-2-3 triangle is contracted to a
single vertex. It runs as two loops, so its depth does not grow with n.
The down loop reduces until a base case colors what is left; the up loop
undoes the reductions in reverse and splices colors for the restored
edges using only the local palettes.

Invariant: after each splice the coloring is a valid interval coloring
of the graph at that level. A splice changes the edges at no more than
five vertices, and every other vertex keeps the palette it had one level
down, so the splice checks only those vertices (proper, gap-free), plus
a per-color edge count (every color 1..t in use) and an edge count
(every edge colored). A bad splice fails at the exact depth that made
it; the full validator then checks the finished coloring once. At most
4 colors are ever produced; graphs of even order with degree-3 vertices
get an exactly-3-color construction instead.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .coloring import EdgeColoring, Violation, check_interval_coloring
from .graphs import Edge, Graph, make_graph, norm_edge
from .outerplanar import OuterEmbedding, Rejection, recognize_outerplanar_2connected
from .solver import find_interval_coloring


class ColoringPreconditionError(ValueError):
    """Input outside the algorithm's graph class."""


@dataclass(frozen=True)
class ReductionStep:
    """One peel level, for traces.

    case is one of Case11, Case12, Case12OddCycle, Case2, BaseSmall,
    BaseEvenCycle. removed lists the peeled vertices (u, v) or (u, v, w);
    attachments lists (x, y) for pairs or the external neighbors (a, b)
    for triangles, where u is contracted to stand for the triangle.
    Vertex ids are the input graph's at every level. Base cases leave
    both tuples empty.
    """

    case: str
    depth: int
    removed: tuple[int, ...] = ()
    attachments: tuple[int, ...] = ()


class NoConfigError(Exception):
    """No reducible configuration found; signals a precondition violation."""


@dataclass(frozen=True)
class PairConfig:
    """Adjacent degree-2 vertices u, v with outside neighbors x, y.

    u's neighbors are exactly {v, x} and v's are {u, y}; x != y.
    """

    u: int
    v: int
    x: int
    y: int


@dataclass(frozen=True)
class TriangleConfig:
    """Triangle u, v, w with d(u) = d(w) = 3 and d(v) = 2."""

    u: int
    v: int
    w: int


ReducibleConfig = PairConfig | TriangleConfig


def find_reducible_config(g: Graph) -> ReducibleConfig:
    """Locate the structure every 2-connected outerplanar graph with
    maximum degree 3 contains: either an edge whose endpoints both have
    degree 2, or a triangle with degrees 3, 2, 3.

    The pair is preferred; ties break to lowest vertex ids. Raises
    NoConfigError when neither exists, which means the caller violated
    the precondition. The peel does not call this scan: its heaps make
    the same pick level by level, and the tests hold them to this one.
    """
    for u, v in g.sorted_edges():
        if g.degree(u) == 2 and g.degree(v) == 2:
            x = next(w for w in g.neighbors(u) if w != v)
            y = next(w for w in g.neighbors(v) if w != u)
            if x == y:
                # only the triangle graph does this and it has max degree 2
                raise NoConfigError(f"pair ({u}, {v}) closes a triangle")
            return PairConfig(u, v, x, y)
    for v in range(g.n):
        if g.degree(v) != 2:
            continue
        u, w = sorted(g.neighbors(v))
        if g.has_edge(u, w) and g.degree(u) == 3 and g.degree(w) == 3:
            return TriangleConfig(u, v, w)
    raise NoConfigError("no adjacent degree-2 pair and no 3-2-3 triangle")


def _assert_valid(g: Graph, col: EdgeColoring, where: str) -> EdgeColoring:
    bad = check_interval_coloring(g, col)
    if bad is not None:
        raise AssertionError(f"splice broke the coloring at {where}: {bad.describe()}")
    return col


def _coloring_of(assignment: dict[Edge, int]) -> EdgeColoring:
    return EdgeColoring(max(assignment.values()), assignment)


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
        self.uses: Counter[int] = Counter()
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
        e = norm_edge(a, b)
        old = self.colors.get(e)
        if old is not None:
            self.uses[old] -= 1
        self.colors[e] = c
        self.uses[c] += 1

    def unpaint(self, a: int, b: int) -> int:
        c = self.colors.pop(norm_edge(a, b))
        self.uses[c] -= 1
        return c

    def palette(self, v: int) -> set[int]:
        """Colors on the colored edges at v."""
        colors = self.colors
        return {colors[e] for w in self.adj[v] if (e := norm_edge(v, w)) in colors}

    def _violation(self, verts) -> Violation | None:
        for v in sorted(verts):
            palette = []
            for w in self.adj[v]:
                c = self.colors.get(norm_edge(v, w))
                if c is None:
                    return Violation("uncolored-edge", edge=norm_edge(v, w))
                palette.append(c)
            palette.sort()
            for a, b in zip(palette, palette[1:]):
                if a == b:
                    return Violation("not-proper", vertex=v, color=a)
            if palette and palette[-1] - palette[0] != len(palette) - 1:
                return Violation("not-interval", vertex=v)
        in_use = [c for c, k in self.uses.items() if k]
        if min(in_use) < 1:
            return Violation("color-out-of-range", color=min(in_use))
        for c in range(1, max(in_use) + 1):
            if not self.uses[c]:
                return Violation("color-unused", color=c)
        if len(self.colors) > self.m:
            return Violation("unknown-edge")
        if len(self.colors) < self.m:
            return Violation("uncolored-edge")
        return None

    def check(self, verts, where: str) -> None:
        """Raise unless the coloring is valid, given that every vertex
        outside verts has the palette of an already checked coloring."""
        bad = self._violation(verts)
        if bad is not None:
            raise AssertionError(f"splice broke the coloring at {where}: {bad.describe()}")


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


def _color_rec(g: Graph) -> tuple[EdgeColoring, tuple[ReductionStep, ...]]:
    """Peel g, which has passed _check_preconditions, down to a base
    case, color it, and splice back up.

    Returns the coloring, with at most 4 colors, and one ReductionStep
    per level, with depth equal to its index. The name predates the
    loops; perfbench/tracing.py wraps the peel by it.
    """
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

    peel.check(peel.live_vertices(), f"{steps[-1].case} base at depth {len(undo)}")
    for depth in reversed(range(len(undo))):
        splice, verts, removed, added = undo[depth]
        peel.restore(removed, added)
        splice(peel, *verts)
        peel.check({z for e in removed for z in e}, f"{steps[depth].case} splice at depth {depth}")
    col = _assert_valid(g, _coloring_of(peel.colors), "the end of the peel")
    if col.t > 4:
        raise AssertionError(f"construction used {col.t} colors")
    return col, tuple(steps)


def _check_preconditions(g: Graph) -> OuterEmbedding:
    emb = recognize_outerplanar_2connected(g)
    if isinstance(emb, Rejection):
        raise ColoringPreconditionError(
            f"not a 2-connected outerplanar graph: {emb.reason}"
        )
    if g.max_degree > 3:
        raise ColoringPreconditionError(f"max degree {g.max_degree} exceeds 3")
    # a 2-connected graph with as many edges as vertices is a cycle
    if g.m == g.n and g.n % 2 == 1:
        raise ColoringPreconditionError("odd cycles have no interval coloring")
    return emb


def color_subcubic_le4_traced(g: Graph) -> tuple[EdgeColoring, tuple[ReductionStep, ...]]:
    """Interval coloring with at most 4 colors, plus the reduction trace."""
    _check_preconditions(g)
    return _color_rec(g)


def color_even_hamiltonian(g: Graph, emb: OuterEmbedding) -> EdgeColoring:
    """Exactly-3-color construction for even order and max degree 3:
    alternate 1, 2 around the outer cycle, give every chord color 3.

    Degree 3 means the chords form a matching, so each chord endpoint
    sees {1, 2, 3} and everything else sees {1, 2}.
    """
    if g.n % 2 != 0:
        raise ColoringPreconditionError("even order required")
    if g.max_degree != 3:
        raise ColoringPreconditionError("max degree must be exactly 3")
    colors: dict[Edge, int] = {}
    for i in range(g.n):
        e = norm_edge(emb.order[i], emb.order[(i + 1) % g.n])
        colors[e] = 1 + (i % 2)
    for e in emb.chords:
        colors[e] = 3
    return _assert_valid(g, _coloring_of(colors), "even hamiltonian construction")


def color_optimal_subcubic(g: Graph) -> tuple[int, EdgeColoring]:
    """Minimum-color interval coloring for max degree exactly 3: three
    colors at even order, four at odd.

    Odd order cannot do better: a 3-coloring would force the color-2
    edges to form a perfect matching, which odd order rules out.
    """
    emb = _check_preconditions(g)
    if g.max_degree != 3:
        raise ColoringPreconditionError(f"max degree must be 3, got {g.max_degree}")
    if g.n % 2 == 0:
        col = color_even_hamiltonian(g, emb)
        return 3, col
    col, _ = _color_rec(g)
    if col.t != 4:
        raise AssertionError(f"odd-order construction used {col.t} colors, wanted 4")
    return 4, col
