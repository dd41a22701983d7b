"""The peel: interval coloring with at most 4 colors for 2-connected
outerplanar graphs with maximum degree at most 3, by reduction.

No CLI command runs it: `subcubic.color_optimal_subcubic` colors the same
class with one construction per parity, and this module is loaded only
when a library caller, a test or a tracer asks `subcubic` for one of its
names. It calls `_color_rec`, the solver, `make_graph` and the validator
through `subcubic`'s attributes, so that a tracer or a test that
replaces one there sees the peel's calls.

The peel removes one reducible configuration at a time from a single
mutable adjacency: an adjacent degree-2 pair is cut out (reattaching or
keeping the neighbor edge), or a 3-2-3 triangle is contracted to a
single vertex. Each level is one edit, the edges it cuts and the edges
it links. It runs as two loops, so its depth does not grow with n. The
down loop applies the edits until a base case colors what is left; the
up loop undoes them in reverse and splices colors for the restored
edges using only the local palettes.

Colors live in per-vertex palettes: at[v][w] is the color of edge vw,
stored at both ends, so a palette is read without building an edge
tuple. A count of edges per color sits beside them. The (min, max)
edge assignment is built once, from the palettes, for the finished
coloring.

Invariant: after each splice the coloring is a valid interval coloring
of the graph at that level. A splice changes the edges at no more than
five vertices, and every other vertex keeps the palette it had one level
down, so each level tests only these, at O(1) cost per touched vertex:

- the palette's keys equal the vertex's neighbors: every edge at it is
  colored, and nothing else is;
- its colors are distinct and span its degree less one: the palette is
  proper and has no gap;
- the per-color counts hold exactly the colors 1..max: every color is in
  use and none is below 1;
- the counts sum to the level's edge count: every edge is colored.

A bad splice fails at the exact depth that made it, and only then does
the validator look for its witness, in that level's graph. The full
validator then checks the finished coloring once. At most 4 colors are
ever produced.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from . import subcubic
from .coloring import EdgeColoring
from .graphs import Edge, Graph, neighbor_sets


class ReductionStep(NamedTuple):
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


class PairConfig(NamedTuple):
    """Adjacent degree-2 vertices u, v with outside neighbors x, y.

    u's neighbors are exactly {v, x} and v's are {u, y}; x != y.
    """

    u: int
    v: int
    x: int
    y: int


class TriangleConfig(NamedTuple):
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
    for u, v in sorted(g.edges):
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


class _Peel:
    """The mutable graph and the per-vertex colors of one peel.

    Vertex ids are the input's. adj[v] is v's neighbor set at the current
    level. at[v] maps each neighbor w whose edge is colored to the color
    of vw, stored at both ends. uses counts the colored edges of each
    color and holds no color whose count is 0.
    """

    __slots__ = ("adj", "at", "uses")

    def __init__(self, g: Graph) -> None:
        self.adj = neighbor_sets(g)
        self.at: list[dict[int, int]] = [{} for _ in range(g.n)]
        self.uses: dict[int, int] = {}

    def live_vertices(self) -> list[int]:
        return [v for v, nbrs in enumerate(self.adj) if nbrs]

    def paint(self, a: int, b: int, c: int) -> None:
        old = self.at[a].get(b)
        if old is not None:
            self._drop(old)
        self.at[a][b] = self.at[b][a] = c
        self.uses[c] = self.uses.get(c, 0) + 1

    def unpaint(self, a: int, b: int) -> int:
        c = self.at[a].pop(b)
        del self.at[b][a]
        self._drop(c)
        return c

    def _drop(self, c: int) -> None:
        left = self.uses[c] - 1
        if left:
            self.uses[c] = left
        else:
            del self.uses[c]

    def valid_at(self, verts, m: int) -> bool:
        """True if the coloring is valid, given that every vertex outside
        verts has the palette of an already checked coloring and the
        graph has m edges."""
        adj, at, uses = self.adj, self.at, self.uses
        for v in verts:
            colors = at[v]
            if colors.keys() != adj[v]:
                return False
            palette = set(colors.values())
            if len(palette) != len(colors) or max(palette) - min(palette) != len(colors) - 1:
                return False
        return min(uses) >= 1 and max(uses) == len(uses) and sum(uses.values()) == m

    def assignment(self) -> dict[Edge, int]:
        return {(v, w): c for v, cs in enumerate(self.at) for w, c in cs.items() if v < w}

    def failure(self, where: str) -> AssertionError:
        """The error for a failed valid_at, naming the validator's first
        defect in the coloring of this level's graph."""
        adj = self.adj
        g = Graph(len(adj), frozenset((v, w) for v, ws in enumerate(adj) for w in ws if v < w))
        # t of at least 1, so that EdgeColoring takes any broken palette
        col = EdgeColoring(max([1, *self.uses]), self.assignment())
        bad = subcubic.check_interval_coloring(g, col)
        return AssertionError(f"splice broke the coloring at {where}: {bad.describe()}")


def _is_tip(adj: list[set[int]], v: int) -> bool:
    # v is the degree-2 vertex of a triangle whose other two vertices
    # have degree 3
    if len(adj[v]) != 2:
        return False
    u, w = adj[v]
    return w in adj[u] and len(adj[u]) == 3 and len(adj[w]) == 3


def _other(pair: set[int], v: int) -> int:
    # the element of a two-element set that is not v
    a, b = pair
    return b if a == v else a


# ---------------------------------------------------------------------------
# Base cases: color everything that is left
# ---------------------------------------------------------------------------

def _alternate(peel: _Peel, start: int, first: int, stop: int) -> None:
    # paint the walk start, first, ... through degree-2 vertices up to
    # stop with 1, 2, 1, 2, ...
    adj = peel.adj
    prev, cur, c = start, first, 1
    peel.paint(prev, cur, c)
    while cur != stop:
        prev, cur, c = cur, _other(adj[cur], prev), 3 - c
        peel.paint(prev, cur, c)


def _color_even_cycle(peel: _Peel) -> None:
    # from the lowest vertex toward its lower neighbor
    start = peel.live_vertices()[0]
    _alternate(peel, start, min(peel.adj[start]), start)

def _color_small(peel: _Peel) -> None:
    # the exact solver on the remaining graph with its ids compressed
    verts = peel.live_vertices()
    index = {v: i for i, v in enumerate(verts)}
    sub = subcubic.make_graph(
        len(verts), [(index[a], index[b]) for a in verts for b in peel.adj[a] if a < b]
    )
    for t in range(sub.max_degree, 5):
        col = subcubic.find_interval_coloring(sub, t)
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
    sx, sy = set(peel.at[x].values()), set(peel.at[y].values())
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
    p = peel.at[u][a]
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


def _edit(adj: list[set[int]], cut: tuple[Edge, ...], link: tuple[Edge, ...]) -> None:
    # one level's change to the graph: cut the edges of `cut`, then add
    # those of `link`; the same call with the two swapped undoes it
    for a, b in cut:
        adj[a].remove(b)
        adj[b].remove(a)
    for a, b in link:
        adj[a].add(b)
        adj[b].add(a)


def _color_rec(g: Graph) -> tuple[EdgeColoring, tuple[ReductionStep, ...]]:
    """Peel g, which has passed `subcubic._check_preconditions`, down to
    a base case, color it, and splice back up.

    Returns the coloring, with at most 4 colors, and one ReductionStep
    per level, with depth equal to its index. perfbench/tracing.py wraps
    the peel by this name, as `subcubic._color_rec`.

    Each level is one edit, applied by `_edit` on the way down and
    undone by it on the way up: Case11 cuts ux, uv and vy and links xy;
    Case12 cuts the same and links nothing; Case2 cuts uv, uw, vw and wb
    and links ub. The endpoints of the cut edges are the vertices the
    level changes: the splice check tests them, and the kept ones feed
    the heaps.

    Candidate configurations sit in two lazily checked heaps: every edge
    that may join two degree-2 vertices, as the key u * n + v with u < v,
    and every vertex that may be the tip of a 3-2-3 triangle. An entry is
    re-checked when it reaches the top, and a reduction pushes the
    candidates around the two vertices it keeps, so the valid candidates
    are always in the heaps. Each level takes the lowest pair edge, else
    the triangle with the lowest tip: what find_reducible_config would
    pick on the graph of that level.
    """
    n = g.n
    peel = _Peel(g)
    adj = peel.adj
    m, live = g.m, n  # edges and vertices still in the graph
    heappop, heappush = heapq.heappop, heapq.heappush
    pairs = [a * n + b for a, b in g.edges if len(adj[a]) == 2 == len(adj[b])]
    heapq.heapify(pairs)
    tips = [v for v in range(n) if _is_tip(adj, v)]
    steps: list[ReductionStep] = []
    # per level: the splice rule and its vertices, the edges cut and
    # linked, and the endpoints of the cut edges
    undo = []
    while True:
        depth = len(steps)
        # a 2-connected graph with as many edges as vertices is a cycle
        if m == live:
            if live % 2 == 1:
                raise AssertionError("the peel reached an odd cycle")
            steps.append(ReductionStep("BaseEvenCycle", depth))
            _color_even_cycle(peel)
            break
        if m <= 5:
            steps.append(ReductionStep("BaseSmall", depth))
            _color_small(peel)
            break
        while pairs:
            u, v = divmod(pairs[0], n)
            au = adj[u]
            if len(au) == 2 and v in au and len(adj[v]) == 2:
                break
            heappop(pairs)
        if pairs:
            x = _other(au, v)
            y = _other(adj[v], u)
            if y not in adj[x]:
                case, splice, link = "Case11", _splice_pair_new_edge, ((x, y),)
            elif m - 3 == live - 2 and live % 2 == 1:
                steps.append(ReductionStep("Case12OddCycle", depth, (u, v), (x, y)))
                _color_odd_cycle_pair(peel, u, v, x, y)
                break
            else:
                case, splice, link = "Case12", _splice_pair_kept_edge, ()
            steps.append(ReductionStep(case, depth, (u, v), (x, y)))
            verts, cut = (u, v, x, y), ((u, v), (u, x), (v, y))
        else:
            while tips and not _is_tip(adj, tips[0]):
                heappop(tips)
            if not tips:
                raise NoConfigError("no adjacent degree-2 pair and no 3-2-3 triangle")
            v = tips[0]
            u, w = sorted(adj[v])
            a = next(z for z in adj[u] if z != v and z != w)
            b = next(z for z in adj[w] if z != u and z != v)
            if a == b:
                # would make `a` a cut vertex, contradicting 2-connectedness
                raise AssertionError(f"triangle {u},{v},{w} shares its external neighbor {a}")
            steps.append(ReductionStep("Case2", depth, (u, v, w), (a, b)))
            splice, verts = _splice_triangle, (u, v, w, a, b)
            cut, link = ((u, v), (u, w), (v, w), (w, b)), ((u, b),)
        touched = {z for e in cut for z in e}
        undo.append((splice, verts, cut, link, touched))
        _edit(adj, cut, link)
        m -= len(cut) - len(link)
        live -= 2
        # the removed vertices have no neighbors left, and the two kept
        # ones are adjacent now, so the neighbors of both include both
        for z in touched:
            az = adj[z]
            for r in az:
                if len(az) == 2 and len(adj[r]) == 2:
                    heappush(pairs, z * n + r if z < r else r * n + z)
                if _is_tip(adj, r):
                    heappush(tips, r)

    base = peel.live_vertices()
    if not peel.valid_at(base, m):
        raise peel.failure(f"{steps[-1].case} base at depth {len(undo)}")
    for depth in reversed(range(len(undo))):
        splice, verts, cut, link, touched = undo[depth]
        _edit(adj, link, cut)
        m += len(cut) - len(link)
        splice(peel, *verts)
        if not peel.valid_at(touched, m):
            raise peel.failure(f"{steps[depth].case} splice at depth {depth}")
    col = subcubic._assert_valid(g, subcubic._coloring_of(peel.assignment()), "the peel")
    if col.t > 4:
        raise AssertionError(f"construction used {col.t} colors")
    return col, tuple(steps)


def color_subcubic_le4_traced(g: Graph) -> tuple[EdgeColoring, tuple[ReductionStep, ...]]:
    """Interval coloring with at most 4 colors, plus the reduction trace.

    Even cycles get 2 colors, the same coloring `color_optimal_subcubic`
    gives them.
    """
    subcubic._check_preconditions(g)
    return subcubic._color_rec(g)
