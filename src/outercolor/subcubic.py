"""Constructive interval coloring for 2-connected outerplanar graphs
with maximum degree at most 3.

`color_optimal_subcubic` is the one entry. At maximum degree exactly 3,
even order gets an exactly-3-color construction and odd order an
exactly-4-color one, from one dynamic program over the chord nesting
(`color_odd_subcubic`). The peel below colors even cycles and serves
library callers and the tests.

The peel removes one reducible configuration at a time from a single
mutable adjacency: an adjacent degree-2 pair is cut out (reattaching or
keeping the neighbor edge), or a 3-2-3 triangle is contracted to a
single vertex. It runs as two loops, so its depth does not grow with n.
The down loop reduces until a base case colors what is left; the up loop
undoes the reductions in reverse and splices colors for the restored
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
from functools import cache
from typing import NamedTuple

from .coloring import EdgeColoring, check_interval_coloring
from .graphs import Edge, Graph, make_graph, neighbor_sets, norm_edge
from .outerplanar import OuterEmbedding, Rejection, recognize_outerplanar_2connected


class ColoringPreconditionError(ValueError):
    """Input outside the algorithm's graph class."""


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
        raise AssertionError(f"{where} gave an invalid coloring: {bad.describe()}")
    return col


def _coloring_of(assignment: dict[Edge, int]) -> EdgeColoring:
    return EdgeColoring(max(assignment.values()), assignment)


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
        bad = check_interval_coloring(g, EdgeColoring(max([1, *self.uses]), self.assignment()))
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


def __getattr__(name: str):
    # PEP 562: the exact solver is loaded on first use, and bound here as a
    # global that a tracer or a test may replace. Only BaseSmall calls it,
    # and no graph the CLI colors ends there, so `color` never loads it.
    if name != "find_interval_coloring":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .solver import find_interval_coloring

    return globals().setdefault(name, find_interval_coloring)


def _color_small(peel: _Peel) -> None:
    # the exact solver on the remaining graph with its ids compressed
    find_interval_coloring = __getattr__("find_interval_coloring")
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


def _color_rec(g: Graph) -> tuple[EdgeColoring, tuple[ReductionStep, ...]]:
    """Peel g, which has passed _check_preconditions, down to a base
    case, color it, and splice back up.

    Returns the coloring, with at most 4 colors, and one ReductionStep
    per level, with depth equal to its index. The name predates the
    loops; perfbench/tracing.py wraps the peel by it.

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
    # per level: the case and its vertices, (u, v, x, y) for a pair and
    # (u, v, w, a, b) for a triangle
    undo: list[tuple[str, tuple[int, ...]]] = []
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
            ax, ay = adj[x], adj[y]
            if y in ax:
                if m - 3 == live - 2 and live % 2 == 1:
                    steps.append(ReductionStep("Case12OddCycle", depth, (u, v), (x, y)))
                    _color_odd_cycle_pair(peel, u, v, x, y)
                    break
                case = "Case12"
                m -= 3
            else:
                case = "Case11"
                ax.add(y)
                ay.add(x)
                m -= 2
            steps.append(ReductionStep(case, depth, (u, v), (x, y)))
            undo.append((case, (u, v, x, y)))
            au.clear()
            adj[v].clear()
            ax.remove(u)
            ay.remove(v)
            touched = (x, y)
        else:
            while tips and not _is_tip(adj, tips[0]):
                heappop(tips)
            if not tips:
                raise NoConfigError("no adjacent degree-2 pair and no 3-2-3 triangle")
            v = tips[0]
            u, w = sorted(adj[v])
            au, aw = adj[u], adj[w]
            a = next(z for z in au if z != v and z != w)
            b = next(z for z in aw if z != u and z != v)
            if a == b:
                # would make `a` a cut vertex, contradicting 2-connectedness
                raise AssertionError(f"triangle {u},{v},{w} shares its external neighbor {a}")
            steps.append(ReductionStep("Case2", depth, (u, v, w), (a, b)))
            undo.append(("Case2", (u, v, w, a, b)))
            # contract: cut uv, uw, vw and wb, link ub
            au.remove(v)
            au.remove(w)
            au.add(b)
            adj[v].clear()
            aw.clear()
            adj[b].remove(w)
            adj[b].add(u)
            m -= 3
            touched = (u, b)
        live -= 2
        # the two kept vertices are adjacent now, so the neighbors of both
        # include both
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
        case, verts = undo[depth]
        if case == "Case2":
            u, v, w, a, b = verts
            # cut ub, link uv, uw, vw and wb
            adj[u].remove(b)
            adj[b].remove(u)
            adj[u].update((v, w))
            adj[v].update((u, w))
            adj[w].update((u, v, b))
            adj[b].add(w)
            m += 3
            _splice_triangle(peel, u, v, w, a, b)
            touched = (u, v, w, b)
        else:
            u, v, x, y = verts
            if case == "Case11":
                adj[x].remove(y)
                adj[y].remove(x)
                m += 2
            else:
                m += 3
            adj[u].update((v, x))
            adj[v].update((u, y))
            adj[x].add(u)
            adj[y].add(v)
            if case == "Case11":
                _splice_pair_new_edge(peel, u, v, x, y)
            else:
                _splice_pair_kept_edge(peel, u, v, x, y)
            touched = verts
        if not peel.valid_at(touched, m):
            raise peel.failure(f"{case} splice at depth {depth}")
    col = _assert_valid(g, _coloring_of(peel.assignment()), "the peel")
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
    # a record field read is a descriptor call, so the loop reads locals
    order, n = emb.order, g.n
    colors: dict[Edge, int] = {}
    for i in range(n):
        e = norm_edge(order[i], order[(i + 1) % n])
        colors[e] = 1 + (i % 2)
    for e in emb.chords:
        colors[e] = 3
    return _assert_valid(g, _coloring_of(colors), "the even hamiltonian construction")


# ---------------------------------------------------------------------------
# Odd order: one dynamic program over the chord nesting
# ---------------------------------------------------------------------------
#
# A relation between two edges' colors is a 16-bit int: with colors
# 1..4 stored as 0..3, bit 4a + b says "color a on the first edge and
# color b on the second fit together". The helpers are cached on first
# use; only 27 relations are reachable from _IDENTITY, bounding each cache.

_IDENTITY = 0x8421
# the colors that differ by 1 from each color
_NEXT = (0b0010, 0b0101, 0b1010, 0b0100)
_DIFFER_BY_ONE = sum(_NEXT[a] << 4 * a for a in range(4))
# the lowest color in each nonempty set of colors
_LOWEST = tuple((s & -s).bit_length() - 1 for s in range(16))
# for chord color c, the ordered pairs (x, y) that make {x, y, c} three
# consecutive colors
_RUN_PAIRS = tuple(
    tuple(
        (x, y)
        for x in range(4)
        for y in range(4)
        if len({x, y, c}) == 3 and max(x, y, c) - min(x, y, c) == 2
    )
    for c in range(4)
)


@cache
def _compose(r: int, s: int) -> int:
    # (a, b) such that (a, p) is in r and (p, b) in s for some p
    out = 0
    for a in range(4):
        row = r >> 4 * a & 15
        for p in range(4):
            if row >> p & 1:
                out |= (s >> 4 * p & 15) << 4 * a
    return out


@cache
def _jump(inside: int) -> int:
    # (p, q) for the cycle edges p before and q after a chord whose inside
    # path runs from color alpha to color beta as `inside` allows
    out = 0
    for pairs in _RUN_PAIRS:
        for p, alpha in pairs:
            row = inside >> 4 * alpha & 15
            for beta, q in pairs:
                if row >> beta & 1:
                    out |= 1 << 4 * p + q
    return out


@cache
def _close_chord(before: int, inside: int, q: int) -> tuple[int, int, int, int]:
    # (p, alpha, beta, c): colors for the chord and the three cycle edges
    # around it, with p in the set `before` and (alpha, beta) in `inside`
    for c, pairs in enumerate(_RUN_PAIRS):
        for beta, q2 in pairs:
            if q2 != q:
                continue
            for p, alpha in pairs:
                if before >> p & 1 and inside >> 4 * alpha + beta & 1:
                    return p, alpha, beta, c
    raise AssertionError(f"no chord colors fit relation {inside:#06x} and {q + 1} after it")


def color_odd_subcubic(g: Graph, emb: OuterEmbedding) -> EdgeColoring:
    """Interval 4-coloring of odd order with max degree 3, by one exact
    dynamic program over the chord nesting of the embedding.

    The walk starts at a degree-2 root r and numbers the cycle edges
    e_0, ..., e_{n-1} in order, e_0 leaving r and e_{n-1} entering it. At
    degree 3 the chords are a matching and they do not cross, so they
    nest like brackets, and each chord (i, j) has an inside: the cycle
    edges e_i, ..., e_{j-1} and the chords between them. Only the colors
    of e_i and e_{j-1} and of the chord tie the inside to the rest.

    rel[k] is the relation "color of the first edge of the scope of e_k
    -> colors e_k can take", over every coloring of the scope so far that
    is valid at each vertex passed. The scope of e_k is the innermost
    chord spanning it, or the whole cycle with first edge e_0. The first
    edge of a scope relates only to itself. Two compositions move along:

    - past a degree-2 vertex, with "colors differ by 1", the one rule at
      a vertex of degree 2;
    - past the closing end of a chord (i, j), with its jump: p before the
      chord and q after it fit when some chord color c and inside colors
      (alpha, beta) in rel[j-1] make {p, alpha, c} and {beta, c, q} each
      three consecutive colors, the rule at the chord's two ends.

    Each composition keeps exactly the colorings valid so far, so the
    program is exact: it finds a coloring inside 1..4 whenever one
    exists, and the root closes the cycle when e_0 and e_{n-1} differ by
    1. Such a coloring uses all four colors: the colors of an interval
    coloring of a connected graph form one block (see `coloring`), and a
    block of three or fewer would be a 3-coloring, which odd order rules
    out (see `color_optimal_subcubic`). The paper's theorem says the
    coloring exists, so a miss raises AssertionError.

    The colors are traced back from e_{n-1} to e_0 with a stack of scope
    colors; nothing recurses. The relation helpers are cached per
    process, keyed by relations and colors, never by position, so the
    caches stay small at any n and a later call reuses them.
    """
    if g.n % 2 != 1:
        raise ColoringPreconditionError("odd order required")
    if g.max_degree != 3:
        raise ColoringPreconditionError("max degree must be exactly 3")
    order, n = emb.order, g.n
    partner = [-1] * n  # each vertex's chord end
    for u, v in emb.chords:
        partner[u] = v
        partner[v] = u
    # the walk starts at a vertex no chord touches
    root = next(i for i, v in enumerate(order) if partner[v] < 0)
    order = order[root:] + order[:root]

    rel = [_IDENTITY] * n
    mate = [-1] * n  # the other end of each position's chord
    opened: list[int] = []  # the positions of the chords open at k
    r = _IDENTITY
    for k in range(1, n):
        w = partner[order[k]]
        if w < 0:
            r = _compose(r, _DIFFER_BY_ONE)
        elif opened and order[opened[-1]] == w:
            # chords do not cross, so a chord closes the innermost open one
            j = opened.pop()
            mate[j] = k
            mate[k] = j
            r = _compose(rel[j - 1], _jump(r))
        else:
            opened.append(k)
            r = _IDENTITY
        rel[k] = r

    closing = r & _DIFFER_BY_ONE
    if not closing:
        raise AssertionError(f"no interval 4-coloring closes the cycle at {order[0]}")
    first, last = divmod((closing & -closing).bit_length() - 1, 4)

    col = [0] * n  # col[k] is the color of e_k, less 1
    col[n - 1] = last
    chord_col: dict[int, int] = {}  # by closing position
    scope, outer = first, []
    for k in range(n - 1, 0, -1):
        j = mate[k]
        if j < 0:
            col[k - 1] = _LOWEST[rel[k - 1] >> 4 * scope & _NEXT[col[k]]]
        elif j < k:
            before = rel[j - 1] >> 4 * scope & 15
            p, alpha, col[k - 1], chord_col[k] = _close_chord(before, rel[k - 1], col[k])
            col[j - 1] = p
            outer.append(scope)
            scope = alpha
        else:
            scope = outer.pop()

    colors: dict[Edge, int] = {}
    u = order[-1]
    for v, c in zip(order, col[-1:] + col[:-1]):
        colors[(u, v) if u < v else (v, u)] = c + 1
        u = v
    for k, c in chord_col.items():
        u, v = order[k], order[mate[k]]
        colors[(u, v) if u < v else (v, u)] = c + 1
    return _assert_valid(g, _coloring_of(colors), "the odd-order dynamic program")


def color_optimal_subcubic(g: Graph) -> tuple[int, EdgeColoring]:
    """Minimum-color interval coloring for max degree at most 3: two
    colors for an even cycle; at max degree 3, three colors at even order
    and four at odd.

    Odd order cannot do better: a 3-coloring would force the color-2
    edges to form a perfect matching, which odd order rules out.

    Below degree 3 the only 2-connected graphs are cycles, so the peel
    takes them: it colors an even one at its first base case, and its
    checks reject the rest with the errors they give at degree 3.
    """
    if g.max_degree < 3:
        col, _ = color_subcubic_le4_traced(g)
        return col.t, col
    emb = _check_preconditions(g)
    if g.n % 2 == 0:
        return 3, color_even_hamiltonian(g, emb)
    col = color_odd_subcubic(g, emb)
    if col.t != 4:
        raise AssertionError(f"odd-order construction used {col.t} colors, wanted 4")
    return 4, col
