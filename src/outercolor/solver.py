"""Exhaustive search for interval colorings, exact width, certificates.

The backtracking solver is the package's ground truth: every construction
elsewhere is cross-checked against it on small instances. `width` certifies
non-colorability in one of two ways. `precheck` refuses, in linear time,
every graph whose degrees are all even and whose edge count is odd, by a
parity count that covers odd cycles and the triangle-with-even-paths
family T_{k,l,m} alike. Any other graph gets a full exhaustion up to a
sound upper bound on t (a t may be settled by the forced-color prune in
place of a search). `find_interval_coloring` itself runs no precheck: it
is a pure search at one t, with no constraint beyond t. Of the
constructions, only the fan's base table (n = 3..6) and the peel's small
bases call it at run time.
"""

from __future__ import annotations

import time
from collections import deque
from typing import NamedTuple

from .coloring import EdgeColoring
from .graphs import Edge, Graph, GraphError, neighbor_sets, norm_edge


# ---------------------------------------------------------------------------
# Outcomes and certificates
# ---------------------------------------------------------------------------

class ExhaustedAllT(NamedTuple):
    """Every t from max degree to t_max was searched without success.

    reason says why t_max is a sound cap: "edge-count-bound" (all t colors
    must appear and each edge holds one color) or "triangle-free-bound"
    (triangle-free interval-colorable graphs satisfy t <= n - 1).
    """

    t_max: int
    reason: str


class ParityCertificate(NamedTuple):
    """Every degree of g is even and its edge count is odd, which no
    interval-colorable graph allows (see `precheck`). klm is (k, l, m),
    ascending, when g is T_{k,l,m}, and None otherwise."""

    n: int
    edges: int
    klm: tuple[int, int, int] | None


class Inconclusive(NamedTuple):
    """The time budget ran out while searching at bound_exhausted_at."""

    bound_exhausted_at: int


ColoringOutcome = EdgeColoring | ExhaustedAllT | ParityCertificate | Inconclusive


class BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# Prechecks and bounds
# ---------------------------------------------------------------------------

def _require_connected(g: Graph) -> None:
    if g.n == 0 or g.m == 0:
        raise GraphError("solver needs a nonempty connected graph")
    if not g.connected:
        raise GraphError("solver needs a connected graph")


def precheck(g: Graph) -> ParityCertificate | None:
    """Linear-time non-colorability screen, run before any search.

    Raises GraphError unless g is nonempty and connected. Returns a
    `ParityCertificate` when every degree is even and g.m is odd, and None
    otherwise, so the caller must search. Lemma: such a g has no interval
    coloring. In one, a vertex of even degree d sees d consecutive colors,
    exactly d/2 of them odd. Counting the edge ends that carry an odd
    color gives 2 * |odd-colored edges| = sum of d(v)/2 = m, so m is even.

    Odd cycles and T_{k,l,m} are both such graphs; the certificate names
    T_{k,l,m} by `triangle_paths_params`.
    """
    _require_connected(g)
    if g.m % 2 == 0 or any(g.degree(v) % 2 for v in range(g.n)):
        return None
    return ParityCertificate(g.n, g.m, triangle_paths_params(g))


def triangle_paths_params(g: Graph) -> tuple[int, int, int] | None:
    """(k, l, m), ascending, if g is isomorphic to T_{k,l,m}; else None.

    T_{k,l,m} has n + 3 edges, three pairwise adjacent vertices of degree
    4 (the hubs) and every other vertex of degree 2. Without the hubs'
    triangle every degree is 2, so the rest is a union of cycles. g is
    T_{k,l,m} exactly when the one through the first hub holds all n
    vertices, which the walk along it shows by first coming back after n
    steps, and each of its three stretches from hub to hub has even
    length (2k, 2l, 2m). The order of (k, l, m) does not matter, since
    the triangle's symmetries permute the hub pairs. One walk: O(n).
    """
    if g.m != g.n + 3:
        return None
    hubs = []
    for v in range(g.n):
        d = g.degree(v)
        if d == 4:
            hubs.append(v)
        elif d != 2:
            return None
    x, y, z = hubs  # n + 3 edges with all other degrees 2 leave three hubs
    if not (g.has_edge(x, y) and g.has_edge(y, z) and g.has_edge(x, z)):
        return None
    # a walk from x that is not back at x before step n is on a cycle of
    # all n vertices, so it ends at x having passed y and z once each
    halves = []
    prev, v, run = -1, x, 0
    for step in range(1, g.n + 1):
        a, b = [w for w in g.neighbors(v) if w not in hubs] if v in hubs else g.neighbors(v)
        prev, v = v, b if a == prev else a
        run += 1
        if v in hubs:
            if run % 2 or v == x and step < g.n:
                return None
            halves.append(run // 2)
            run = 0
    k, l, m = sorted(halves)
    return k, l, m


def has_triangle(g: Graph) -> bool:
    adj = neighbor_sets(g)
    return any(not adj[u].isdisjoint(adj[v]) for u, v in g.edges)


def color_bound(g: Graph) -> tuple[int, str]:
    """Sound upper bound on t for a connected g, with its name: |E|
    always ("edge-count-bound": every color needs an edge), tightened to
    n - 1 for triangle-free graphs ("triangle-free-bound")."""
    if has_triangle(g):
        return g.m, "edge-count-bound"
    return min(g.m, g.n - 1), "triangle-free-bound"


def _bfs_edge_order(g: Graph) -> list[Edge]:
    # keeps each new edge adjacent to already-colored ones, which makes
    # the palette pruning bite early
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


# ---------------------------------------------------------------------------
# Backtracking search
# ---------------------------------------------------------------------------

def find_interval_coloring(
    g: Graph,
    t: int,
    deadline: float | None = None,
) -> EdgeColoring | None:
    """First interval t-coloring in deterministic search order, or None.

    Edges are tried in breadth-first order from vertex 0, colors
    ascending, so the result is reproducible. Raises BudgetExceeded when
    a deadline (time.monotonic seconds) passes. The deadline is polled
    once every 1024 records as they are built, and once every 1024 nodes
    of the search.

    The search is a loop over depth, not a recursion, so its depth is
    bounded by memory only. Colors are bits of an int. Each vertex has a
    palette and the mask of colors it can still take: the window
    [max(1, hi - d + 1), min(t, lo + d - 1)] around its palette [lo, hi]
    (degree d), minus the palette. The candidates for edge uv are the
    common bits of u's and v's masks, lowest first. Two prunes cut a
    branch: a later edge at u or v with no common candidate left (masks
    only shrink as the search deepens), and fewer edges left than colors
    not yet used. Neither cuts a branch that holds a coloring, so the
    first coloring found is the one plain backtracking over the same
    orders finds.

    Each node reads one record per edge, built once per search: both
    ends' degrees (and degrees - 1), the slots that hold their masks
    before the edge, and the slots of the far ends of their later edges.
    Coloring edge i with color k cuts each end's mask to the band
    [k - d + 1, k + d - 1], since a palette's bands meet in its window,
    and drops k. The two masks go to slots 2i and 2i + 1, which no
    shallower node reads, and the color bit to color[i]. The colors used
    so far are a prefix OR, counted only in the last t edges, so nothing
    is undone on backtrack. The bits become color numbers once, when a
    coloring is found. The search visits the same nodes, and finds the
    same first coloring, as one that keeps a palette and a mask per
    vertex and restores them on backtrack. The records hold the sum of
    d(d - 1)/2 over the vertices' degrees d in slots: a few per vertex
    at bounded degree, but about 8 million (64 MB) for the 3999 edges at
    a 4000-fan's apex.

    Forced-color prune: if every degree is at least delta and
    t <= 2 * delta - 1, each palette [a, a + d - 1] has a <= t - d + 1 <=
    delta <= a + d - 1, so holds color delta. The color-delta edges then
    form a perfect matching, which odd n rules out; the search is skipped.
    """
    _require_connected(g)
    if t < g.max_degree or t > g.m:
        return None
    deg = [g.degree(v) for v in range(g.n)]
    if g.n % 2 == 1 and t <= 2 * min(deg) - 1:
        return None  # forced-color prune

    edges = _bfs_edge_order(g)
    m = len(edges)
    # slot 2m + w holds w's mask before any edge; last[w] is w's newest
    # slot as the records are built in search order
    last = list(range(2 * m, 2 * m + g.n))
    free = [0] * (2 * m) + [(2 << t) - 2] * g.n  # bits 1..t
    far: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in edges:
        far[u].append(v)
        far[v].append(u)
    slot = last.__getitem__
    rec = []
    for i, (u, v) in enumerate(edges):
        # at a high degree the records alone can outlast a budget
        if not i & 1023 and deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded
        far[u].pop(0)  # far[w] keeps the far ends of w's uncolored edges
        far[v].pop(0)
        rec.append((last[u], deg[u], deg[u] - 1, tuple(map(slot, far[u])),
                    last[v], deg[v], deg[v] - 1, tuple(map(slot, far[v]))))
        last[u] = 2 * i
        last[v] = 2 * i + 1

    cand = [0] * (m + 1)    # colors not yet tried at each depth
    color = [0] * m         # the bit of each colored edge's color
    seen = [0] * (m + 1)    # seen[i]: the colors of edges 0..i-1
    tail = m - t            # past this depth, count the colors used
    nodes = 0

    # color-reversal symmetry: c -> t + 1 - c maps valid colorings to
    # valid colorings, so the first edge only needs the lower half
    cand[0] = (2 << (t + 1) // 2) - 2
    i = 0
    while True:
        c = cand[i]
        if not c:
            if i == 0:
                return None
            i -= 1
            continue
        b = c & -c
        cand[i] = c ^ b
        su, du, du1, later_u, sv, dv, dv1, later_v = rec[i]
        # the new masks of u and v: the old mask cut to the band
        # [k - d + 1, k + d - 1] around the new color k, minus k. The
        # window test alone keeps palettes feasible: with hi - lo + 1 <= d,
        # colors in [1, t] and d <= t, an interval of d colors fits over
        # [lo, hi] inside [1, t], and a full palette of d distinct colors
        # spans exactly d, so no separate fit or full-palette test is
        # needed. A band reaching below color 1 is cut at bit 0, which no
        # mask holds
        fu = (free[su] & ((b << du) - ((b >> du1) or 1))) ^ b
        fv = (free[sv] & ((b << dv) - ((b >> dv1) or 1))) ^ b
        # forward check: every uncolored edge at u or v keeps a candidate
        for x in later_u:
            if not fu & free[x]:
                break
        else:
            for x in later_v:
                if not fv & free[x]:
                    break
            else:
                nodes += 1
                if not nodes & 1023 and deadline is not None and time.monotonic() > deadline:
                    raise BudgetExceeded
                j = i + i
                free[j] = fu
                free[j + 1] = fv
                color[i] = b
                used = seen[i] | b
                i += 1
                seen[i] = used
                # remaining edges must cover every color not yet used
                if i > tail and t - used.bit_count() > m - i:
                    cand[i] = 0
                elif i == m:
                    return EdgeColoring(
                        t, {e: k.bit_length() - 1 for e, k in zip(edges, color)})
                else:
                    r = rec[i]
                    cand[i] = free[r[0]] & free[r[4]]


def width(g: Graph, budget_ms: int | None = None) -> ColoringOutcome:
    """Exact minimum number of colors, scanning every t up to the bound:
    the first coloring found, at the least t, or why there is none.

    `precheck` refuses every graph with all degrees even and m odd first,
    with its `ParityCertificate`, with no search and whatever the budget.
    Otherwise colorability is not monotone in t, so a miss at one t
    proves nothing about larger t; `ExhaustedAllT` therefore requires
    exhausting the whole range. A budget overrun yields Inconclusive
    naming the t in progress.
    """
    bad = precheck(g)
    if bad is not None:
        return bad
    bound, reason = color_bound(g)  # precheck has checked connectivity
    deadline = None
    if budget_ms is not None:
        deadline = time.monotonic() + budget_ms / 1000.0
    for t in range(g.max_degree, bound + 1):
        if deadline is not None and time.monotonic() > deadline:
            return Inconclusive(bound_exhausted_at=t)
        try:
            found = find_interval_coloring(g, t, deadline=deadline)
        except BudgetExceeded:
            return Inconclusive(bound_exhausted_at=t)
        if found is not None:
            return found
    return ExhaustedAllT(t_max=bound, reason=reason)
