"""Recognition and structure of 2-connected outerplanar graphs.

A 2-connected outerplanar graph is exactly a cycle through all vertices
plus pairwise non-crossing chords. Recognition reduces the graph by
repeatedly deleting degree-2 vertices, replays the deletions to rebuild
the outer cycle, and then verifies the result from scratch. The replay
can produce garbage on non-outerplanar inputs; the final verification is
what makes acceptance sound. The reduction and the replay take O(n + m)
time, the verification's chord sort O(m log m), and the separating
triangles O(m) plus a sort.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Edge, Graph, neighbor_sets


class OuterEmbedding(NamedTuple):
    """Canonical outer-face walk plus the internal edges (chords).

    order starts at vertex 0 and runs in the direction that gives the
    second vertex the smaller id of the two neighbors of 0 on the cycle.
    Consecutive pairs in the cyclic order are edges; chords are all the
    remaining edges and are pairwise non-crossing.
    """

    order: tuple[int, ...]
    chords: frozenset[Edge]


class Rejection(NamedTuple):
    """Why recognition declined the graph.

    `recognize_outerplanar_2connected` gives one of "too-small",
    "disconnected", "edge-bound", "no-degree-2-vertex" and
    "order-not-hamiltonian". `verify_embedding` gives the last of these or
    "crossing-chords"; the recognizer never does, because its reduction
    gets stuck on a Hamiltonian walk with crossing chords.
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
    cycle = {(u, v) if u < v else (v, u) for u, v in zip(order, order[1:] + order[:1])}
    if not cycle <= g.edges:
        return Rejection("order-not-hamiltonian")
    chords = g.edges - cycle
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    placed = []
    for u, v in chords:
        p, q = pos[u], pos[v]
        placed.append((p, -q) if p < q else (q, -p))
    placed.sort()
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
    return Rejection(reason if g.connected else "disconnected")


def recognize_outerplanar_2connected(g: Graph) -> OuterEmbedding | Rejection:
    """Decide whether g is 2-connected outerplanar; return the embedding.

    Reduce: repeatedly delete a degree-2 vertex, bridging its neighbors,
    down to 3 vertices. Replay: reinsert deleted vertices between their
    neighbors to rebuild the outer walk. Verify: re-check every invariant
    on the rebuilt walk. Rejection reasons name the first failed check, in
    the order too-small, disconnected, edge-bound, no-degree-2-vertex,
    order-not-hamiltonian.

    Connectivity is searched only to name a rejection (an accepted walk is
    a Hamiltonian cycle), once the edge bound or the search for a degree-2
    vertex has failed. m < n - 1 is "disconnected" from the counts, and so
    is a finished reduction that leaves a vertex with no neighbors.

    The answer does not depend on which degree-2 vertex goes next. Nor
    does whether the reduction gets stuck: deleting a degree-2 vertex and
    merging the parallel edge it may leave is confluent (two deletions
    commute or, at the two degree-2 vertices of a triangle, leave
    isomorphic graphs). A finished reduction of a 2-connected outerplanar
    graph shortcuts its unique Hamiltonian cycle at each step, so the
    replay rebuilds that cycle, canonicalized afterwards. Any other
    finished reduction is "order-not-hamiltonian": a Hamiltonian walk with
    crossing chords holds a subdivided K4, which no deletion removes, so
    its reduction gets stuck.

    O(n + m) time besides the verification's chord sort: degrees never
    rise, so a plain stack holds each vertex once, when its degree reaches
    2, and the replay inserts into a cyclic linked list.
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
    steps: list[tuple[int, int, int]] = []
    for _ in range(n - 3):
        while True:  # skip the deleted, and those whose degree fell below 2
            if not ready:
                return _reject(g, "no-degree-2-vertex")
            v = ready.pop()
            av = adj[v]
            if len(av) == 2:
                break
        x, y = av
        av.clear()
        ax, ay = adj[x], adj[y]
        ax.discard(v)
        ay.discard(v)
        if y in ax:  # the bridge merges into edge xy: x and y lose one each
            if len(ax) == 2:
                ready.append(x)
            if len(ay) == 2:
                ready.append(y)
        else:
            ax.add(y)
            ay.add(x)
        steps.append((v, x, y))

    # the walk is a cyclic linked list (nxt[v] follows v), started on the
    # three survivors: the only vertices whose neighbor sets are not emptied
    survivors = [v for v in range(n) if adj[v]]
    if len(survivors) != 3:
        # a deletion bridges two vertices of one component, so it keeps
        # every component connected: the three vertices left all have
        # neighbors iff g is connected
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


def separating_triangles(emb: OuterEmbedding) -> list[tuple[int, int, int]]:
    """Triangles whose three edges are all chords, as ascending vertex
    triples, list sorted.

    No vertex lies inside a triangle of an outerplanar graph, so every
    triangle is a bounded face and the chords alone give the answer: each
    chord (u, v), u < v, with each common chord neighbor w > v, so each
    triangle comes out once. A set intersection walks the smaller set, and
    the smaller degree summed over the edges is O(m) in a graph of
    arboricity 2, which an outerplanar graph has (Chiba and Nishizeki,
    1985). So the pass is O(m) plus the sort.
    """
    near: dict[int, set[int]] = {}
    for u, v in emb.chords:
        near.setdefault(u, set()).add(v)
        near.setdefault(v, set()).add(u)
    out = []
    for u, v in emb.chords:  # u < v, as every Edge
        out += [(u, v, w) for w in near[u] & near[v] if w > v]
    return sorted(out)
