"""Recognition and structure of 2-connected outerplanar graphs.

A 2-connected outerplanar graph is exactly a cycle through all vertices
plus pairwise non-crossing chords. Recognition reduces the graph by
repeatedly deleting degree-2 vertices, replays the deletions to rebuild
the outer cycle, and then verifies the result from scratch. The replay
can produce garbage on non-outerplanar inputs; the final verification is
what makes acceptance sound. Recognition, verification and face
extraction each run in O((n + m) log n) time.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import NamedTuple

from .graphs import Edge, Graph, is_connected, neighbor_sets, norm_edge


class OuterEmbedding(NamedTuple):
    """Canonical outer-face walk plus the internal edges (chords).

    order starts at vertex 0 and runs in the direction that gives the
    second vertex the smaller id of the two neighbors of 0 on the cycle.
    Consecutive pairs in the cyclic order are edges; chords are all the
    remaining edges and are pairwise non-crossing.
    """

    order: tuple[int, ...]
    chords: frozenset[Edge]

    def positions(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


class Rejection(NamedTuple):
    """Why recognition declined the graph.

    `recognize_outerplanar_2connected` gives one of "too-small",
    "disconnected", "edge-bound", "no-degree-2-vertex" and
    "order-not-hamiltonian". `verify_embedding` gives the last of these or
    "crossing-chords"; the recognizer never does, because its replay only
    splits edges of the walk, which leaves the chords nested.
    """

    reason: str


def _canonical_order(order: list[int]) -> tuple[int, ...]:
    i = order.index(0)
    rotated = order[i:] + order[:i]
    if len(rotated) >= 3 and rotated[1] > rotated[-1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return tuple(rotated)


def verify_embedding(g: Graph, order: list[int]) -> OuterEmbedding | Rejection:
    """Check a proposed outer walk against the graph and canonicalize it.

    Accepts iff order visits every vertex once, consecutive pairs are all
    edges, and the leftover edges are pairwise non-crossing chords. The
    crossing check is one parenthesis-matching pass over the chords sorted
    by position, so the whole check takes O(n + m log m) time.
    """
    n = g.n
    if len(order) != n or set(order) != set(range(n)):
        return Rejection("order-not-hamiltonian")
    cycle = set()
    for i in range(n):
        e = norm_edge(order[i], order[(i + 1) % n])
        if e not in g.edges:
            return Rejection("order-not-hamiltonian")
        cycle.add(e)
    chords = g.edges - cycle
    pos = {v: i for i, v in enumerate(order)}
    placed = sorted(
        (min(pos[u], pos[v]), -max(pos[u], pos[v])) for u, v in chords
    )
    # placed runs by left end, outer chord first on a shared left end; the
    # stack holds the right ends of the open chords, innermost on top
    stack: list[int] = []
    for p, neg_q in placed:
        while stack and stack[-1] <= p:
            stack.pop()
        if stack and -neg_q > stack[-1]:
            return Rejection("crossing-chords")
        stack.append(-neg_q)
    return OuterEmbedding(_canonical_order(order), frozenset(chords))


def _reject(g: Graph, reason: str) -> Rejection:
    # "disconnected" comes before every later reason
    return Rejection(reason if is_connected(g) else "disconnected")


def recognize_outerplanar_2connected(g: Graph) -> OuterEmbedding | Rejection:
    """Decide whether g is 2-connected outerplanar; return the embedding.

    Reduce: repeatedly delete the lowest-id degree-2 vertex, bridging its
    neighbors, down to 3 vertices. Replay: reinsert deleted vertices
    between their neighbors to rebuild the outer walk. Verify: re-check
    every invariant on the rebuilt walk. Rejection reasons name the first
    failed check, in the order too-small, disconnected, edge-bound,
    no-degree-2-vertex, order-not-hamiltonian.

    The connectivity search only names a rejection: an accepted walk is a
    Hamiltonian cycle, so an accepted graph is connected. A header with
    m < n - 1 is answered "disconnected" from the counts, before any
    adjacency is built. `is_connected` runs only when the edge bound or
    the search for a degree-2 vertex has failed, and it turns that
    rejection into "disconnected" when the graph is not connected. A
    reduction that runs to its end settles connectivity for free: the
    three vertices left all have neighbors iff g is connected, so the
    replay and the verification only ever see connected graphs.

    Runs in O((n + m) log n) time. Degrees never rise during the
    reduction, so a min-heap of the vertices whose degree has dropped to 2
    yields the lowest-id degree-2 vertex at every step (stale entries are
    skipped when popped), and the replay inserts into a cyclic linked list.
    """
    n = g.n
    if n < 3:
        return Rejection("too-small")
    if g.m < n - 1:
        return Rejection("disconnected")
    if g.m > 2 * n - 3:
        return _reject(g, "edge-bound")

    adj = neighbor_sets(g)
    ready = [v for v in range(n) if len(adj[v]) == 2]
    heappop, heappush = heapq.heappop, heapq.heappush
    steps: list[tuple[int, int, int]] = []
    for _ in range(n - 3):
        while ready and len(adj[ready[0]]) != 2:
            heappop(ready)  # deleted, or its degree fell below 2
        if not ready:
            return _reject(g, "no-degree-2-vertex")
        v = heappop(ready)
        x, y = adj[v]
        if x > y:
            x, y = y, x
        adj[v].clear()
        for w, other in ((x, y), (y, x)):
            aw = adj[w]
            before = len(aw)
            aw.discard(v)
            aw.add(other)
            if len(aw) == 2 < before:
                heappush(ready, w)
        steps.append((v, x, y))

    # the walk is a cyclic linked list (nxt[v] follows v), started on the
    # three survivors: the only vertices whose neighbor sets are not emptied
    survivors = [v for v in range(n) if adj[v]]
    if len(survivors) != 3:
        # a deletion bridges two vertices of one component, so it keeps
        # every component and its connectivity: three vertices are left,
        # and they all have neighbors iff they form one component, that
        # is, iff g is connected
        return Rejection("disconnected")
    a, b, c = survivors
    nxt = [0] * n
    nxt[a], nxt[b], nxt[c] = b, c, a
    for v, x, y in reversed(steps):
        # v goes between x and y. They are adjacent on the walk for genuine
        # inputs; otherwise v goes after x and verification fails
        if nxt[y] == x:
            x = y
        nxt[x], nxt[v] = v, nxt[x]
    order = [a]
    for _ in range(n - 1):
        order.append(nxt[order[-1]])
    return verify_embedding(g, order)


def bounded_faces(emb: OuterEmbedding) -> list[tuple[int, ...]]:
    """All bounded faces, each as a tuple of vertex ids along the face.

    The chords split the outer polygon into nested regions; non-crossing
    makes the split well-defined. Regions are visited depth-first from an
    explicit stack, so nesting depth is not bounded by the call stack.
    Faces are emitted in that visiting order, as position-ascending walks
    mapped back to vertex ids. Each step of a walk finds its chord by
    bisection, so the whole pass takes O((n + m) log n) time.
    """
    n = len(emb.order)
    pos = emb.positions()
    # chords indexed by lower position endpoint, upper endpoints ascending
    by_low: dict[int, list[int]] = {}
    for p, q in sorted(sorted((pos[u], pos[v])) for u, v in emb.chords):
        by_low.setdefault(p, []).append(q)

    faces: list[list[int]] = []
    regions = [(0, n - 1)]
    while regions:
        # region bounded by positions lo..hi along the polygon plus the
        # closing edge (lo, hi); walk the face incident to that edge
        lo, hi = regions.pop()
        walk = [lo]
        p = lo
        while p < hi:
            # the longest chord from p that stays in the region and is not
            # the closing edge itself, else the next polygon edge
            jumps = by_low.get(p, ())
            i = bisect_right(jumps, hi) - 1
            if i >= 0 and p == lo and jumps[i] == hi:
                i -= 1
            p = jumps[i] if i >= 0 else p + 1
            walk.append(p)
        faces.append(walk)
        # pushed in reverse so the leftmost sub-region is walked next
        regions.extend((a, b) for a, b in reversed(list(zip(walk, walk[1:]))) if b - a >= 2)
    order = emb.order
    return [tuple(order[p] for p in walk) for walk in faces]


def separating_triangles(g: Graph, emb: OuterEmbedding) -> list[tuple[int, int, int]]:
    """Triangular bounded faces whose three edges are all chords.

    Returned as ascending vertex triples, list sorted.
    """
    n = len(emb.order)
    pos = emb.positions()
    out: list[tuple[int, int, int]] = []
    for face in bounded_faces(emb):
        if len(face) != 3:
            continue
        ps = sorted(pos[v] for v in face)
        gaps_ok = (ps[1] - ps[0] >= 2) and (ps[2] - ps[1] >= 2)
        closing_is_chord = not (ps[0] == 0 and ps[2] == n - 1)
        if gaps_ok and closing_is_chord:
            a, b, c = sorted(face)
            out.append((a, b, c))
    return sorted(out)

