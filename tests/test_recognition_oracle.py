"""Recognition checked against two independent references.

The reference recognizer below is the original quadratic implementation
(a `min` scan for the next degree-2 vertex, a list scan plus `insert` for
the replay, and a pairwise crossing check). The program's recognizer must
return the same embedding or the same rejection reason on every input.
networkx is the second oracle: G is outerplanar iff G plus an apex vertex
adjacent to every vertex is planar, and 2-connectivity is
`nx.is_biconnected`.

Separating triangles are checked against a reference face walk: they
must be exactly its triangular faces whose three edges are all chords,
and removing each one's vertices must disconnect the graph.
"""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from outercolor import graphs
from outercolor.graphs import (
    Graph,
    gen_cycle,
    gen_random_outerplanar_subcubic,
    gen_triangle_graph,
    gen_triangular_fan,
    make_graph,
    norm_edge,
)
from outercolor.outerplanar import (
    OuterEmbedding,
    Rejection,
    recognize_outerplanar_2connected,
    separating_triangles,
    verify_embedding,
)

# ---------------------------------------------------------------------------
# Reference implementation (quadratic; test-only)
# ---------------------------------------------------------------------------


def _reference_verify(g: Graph, order: list[int]) -> OuterEmbedding | Rejection:
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
    placed = [tuple(sorted((pos[u], pos[v]))) for u, v in chords]
    for i, (p, q) in enumerate(placed):
        for r, s in placed[i + 1:]:
            if p < r < q < s or r < p < s < q:
                return Rejection("crossing-chords")
    i = order.index(0)
    rotated = order[i:] + order[:i]
    if len(rotated) >= 3 and rotated[1] > rotated[-1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return OuterEmbedding(tuple(rotated), frozenset(chords))


def reference_recognize(g: Graph) -> OuterEmbedding | Rejection:
    if g.n < 3:
        return Rejection("too-small")
    if not g.connected:
        return Rejection("disconnected")
    if g.m > 2 * g.n - 3:
        return Rejection("edge-bound")
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    alive = set(range(g.n))
    steps = []
    while len(alive) > 3:
        v = min((w for w in alive if len(adj[w]) == 2), default=None)
        if v is None:
            return Rejection("no-degree-2-vertex")
        x, y = sorted(adj[v])
        for w in (x, y):
            adj[w].discard(v)
        alive.discard(v)
        adj[x].add(y)
        adj[y].add(x)
        steps.append((v, x, y))
    order = sorted(alive)
    for v, x, y in reversed(steps):
        k = len(order)
        pos = None
        for i in range(k):
            if {order[i], order[(i + 1) % k]} == {x, y}:
                pos = i + 1
                break
        if pos is None:
            pos = order.index(x) + 1
        order.insert(pos, v)
    return _reference_verify(g, order)


def reference_bounded_faces(emb: OuterEmbedding) -> list[tuple[int, ...]]:
    n = len(emb.order)
    pos = {v: i for i, v in enumerate(emb.order)}
    by_low: dict[int, list[int]] = {}
    for u, v in emb.chords:
        p, q = sorted((pos[u], pos[v]))
        by_low.setdefault(p, []).append(q)
    faces = []
    regions = [(0, n - 1)]
    while regions:
        lo, hi = regions.pop()
        walk = [lo]
        p = lo
        while p < hi:
            jumps = [q for q in by_low.get(p, ()) if p < q <= hi and (p, q) != (lo, hi)]
            p = max(jumps, default=p + 1)
            walk.append(p)
        faces.append(walk)
        regions.extend((a, b) for a, b in reversed(list(zip(walk, walk[1:]))) if b - a >= 2)
    return [tuple(emb.order[p] for p in walk) for walk in faces]


def reference_separating_triangles(emb: OuterEmbedding) -> list[tuple[int, int, int]]:
    """The triangular faces whose three edges are all chords."""
    out = []
    for face in reference_bounded_faces(emb):
        if len(face) == 3 and all(
            norm_edge(a, b) in emb.chords for a, b in zip(face, face[1:] + face[:1])
        ):
            a, b, c = sorted(face)
            out.append((a, b, c))
    return sorted(out)


def assert_triangles_match_reference_faces(g: Graph, emb: OuterEmbedding) -> int:
    """separating_triangles(emb) equals the reference, and removing each
    triangle's vertices disconnects g; returns the triangle count."""
    tris = separating_triangles(emb)
    assert tris == reference_separating_triangles(emb), (g.n, sorted(g.edges))
    adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for tri in tris:
        # a search from one vertex outside the triangle misses another
        seen = set(tri)
        stack = [next(v for v in range(g.n) if v not in seen)]
        seen.add(stack[0])
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) < g.n, (tri, g.n, sorted(g.edges))
    return len(tris)


# ---------------------------------------------------------------------------
# Seeded corpus
# ---------------------------------------------------------------------------


def _relabel(rng: random.Random, n: int, edges) -> Graph:
    label = list(range(n))
    rng.shuffle(label)
    return make_graph(n, [(label[u], label[v]) for u, v in edges])


def _triangulated_polygon(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Outer cycle 0..n-1 plus the chords of a random triangulation."""
    edges = {norm_edge(i, (i + 1) % n) for i in range(n)}
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        c = rng.randrange(a + 1, b)
        edges |= {norm_edge(a, c), norm_edge(c, b)}
        stack += [(a, c), (c, b)]
    return edges


def _outerplanar(rng: random.Random, n: int, keep: float) -> set[tuple[int, int]]:
    cycle = {norm_edge(i, (i + 1) % n) for i in range(n)}
    tri = _triangulated_polygon(rng, n)
    return cycle | {e for e in tri - cycle if rng.random() < keep}


def _with_crossing_chords(rng: random.Random, n: int, edges: set) -> set:
    """edges plus a chord (a, b) of the polygon and a chord (p, q) that
    crosses it; n >= 4."""
    a = rng.randrange(n - 2)
    b = rng.randrange(a + 2, n if a else n - 1)
    p = rng.randrange(a + 1, b)
    q = rng.choice([v for v in range(n) if not a <= v <= b])
    return edges | {(a, b), norm_edge(p, q)}


def _cycle_edges(vertices):
    return [(a, b) for a, b in zip(vertices, vertices[1:] + vertices[:1])]


def _clique_edges(vertices):
    return [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]]


def corpus():
    rng = random.Random(20260417)
    yield make_graph(2, [(0, 1)])
    # disconnected, yet m >= n - 1, so the edge counts alone do not reject
    # them: they reach the edge bound (K5 + K5, where m > 2n - 3) or the
    # reduction, and must still be answered "disconnected"
    yield make_graph(6, _cycle_edges([0, 1, 2]) + _cycle_edges([3, 4, 5]))
    yield make_graph(9, _cycle_edges([0, 1, 2, 3]) + _cycle_edges([4, 5, 6, 7, 8]))
    yield make_graph(6, _cycle_edges([0, 1, 2, 3, 4]))  # vertex 5 is isolated
    yield make_graph(10, _clique_edges([0, 1, 2, 3, 4]) + _clique_edges([5, 6, 7, 8, 9]))
    for n in range(3, 40):
        yield gen_cycle(n)
    for n in range(3, 80):
        yield gen_triangular_fan(n)[0]
    for k, l, m in ((1, 1, 1), (1, 2, 3), (2, 2, 2)):
        yield gen_triangle_graph(k, l, m)[0]
    for n in range(4, 60):
        for seed in range(8):
            yield gen_random_outerplanar_subcubic(n, seed)
    for _ in range(600):
        n = rng.randrange(3, 60)
        edges = _outerplanar(rng, n, rng.random())
        yield _relabel(rng, n, edges)  # accepted
        if n >= 4:
            yield _relabel(rng, n, _with_crossing_chords(rng, n, edges))
        perturbed = set(edges)
        for _ in range(rng.randrange(1, 4)):
            u, v = rng.sample(range(n), 2)
            perturbed ^= {norm_edge(u, v)}  # add or delete one edge
        yield _relabel(rng, n, perturbed)
    for _ in range(600):
        n = rng.randrange(3, 40)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        yield make_graph(n, rng.sample(pairs, rng.randrange(0, min(len(pairs), 2 * n) + 1)))


def test_recognizer_matches_reference_on_seeded_corpus():
    reasons: dict[str, int] = {}
    for g in corpus():
        got = recognize_outerplanar_2connected(g)
        want = reference_recognize(g)
        assert got == want, (g.n, sorted(g.edges))
        key = "accept" if isinstance(got, OuterEmbedding) else got.reason
        reasons[key] = reasons.get(key, 0) + 1
        if isinstance(got, OuterEmbedding):
            assert_triangles_match_reference_faces(g, got)
    # the corpus reaches every verdict the recognizer gives. The reduction
    # gets stuck on a Hamiltonian walk with crossing chords (it holds a
    # subdivided K4), so "crossing-chords" comes from verify_embedding alone
    assert set(reasons) == {
        "accept", "too-small", "disconnected", "edge-bound",
        "no-degree-2-vertex", "order-not-hamiltonian",
    }, reasons


def small_corpus():
    """About 5,000 graphs at n <= 13: cycles plus random chords (crossing
    or not) with edges dropped, outerplanar graphs with a crossing chord
    added, and sparse random graphs, all relabelled. Small graphs put
    several degree-2 vertices side by side, where the deletion order
    could matter if anything did."""
    rng = random.Random(20261019)
    for _ in range(2000):
        n = rng.randrange(3, 14)
        edges = {norm_edge(i, (i + 1) % n) for i in range(n)}
        pairs = [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]
        edges |= set(rng.sample(pairs, rng.randrange(0, min(len(pairs), n) + 1)))
        for e in rng.sample(sorted(edges), rng.randrange(0, 3)):
            edges.discard(e)
        yield _relabel(rng, n, edges)
    for _ in range(1500):
        n = rng.randrange(4, 14)
        edges = _outerplanar(rng, n, rng.random())
        if rng.random() < 0.5:
            edges = _with_crossing_chords(rng, n, edges)
        yield _relabel(rng, n, edges)
    for _ in range(1500):
        n = rng.randrange(1, 14)  # n < 3 is the one way to "too-small"
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        yield make_graph(n, rng.sample(pairs, rng.randrange(0, min(len(pairs), 2 * n) + 1)))


def test_small_graphs_get_the_reference_verdict():
    # the recognizer deletes degree-2 vertices in stack order, the
    # reference in lowest-id order; the verdicts must still agree
    reasons: dict[str, int] = {}
    for g in small_corpus():
        got = recognize_outerplanar_2connected(g)
        assert got == reference_recognize(g), (g.n, sorted(g.edges))
        key = "accept" if isinstance(got, OuterEmbedding) else got.reason
        reasons[key] = reasons.get(key, 0) + 1
    assert set(reasons) == {
        "accept", "too-small", "disconnected", "edge-bound",
        "no-degree-2-vertex", "order-not-hamiltonian",
    }, reasons


def test_accepting_never_searches_connectivity(monkeypatch):
    # an accepted walk is a Hamiltonian cycle, so only a rejection may
    # pay for the connectivity search
    searched = []
    search = graphs._search_connected
    monkeypatch.setattr(graphs, "_search_connected", lambda g: searched.append(g) or search(g))
    verdicts = set()
    for g in corpus():
        searched.clear()
        got = recognize_outerplanar_2connected(g)
        accepted = isinstance(got, OuterEmbedding)
        verdicts.add(accepted)
        if accepted:
            assert searched == [], (g.n, sorted(g.edges))
    assert verdicts == {True, False}


def test_verify_embedding_matches_reference():
    rng = random.Random(11)
    reasons: dict[str, int] = {}
    for _ in range(1500):
        n = rng.randrange(4, 50)
        edges = _outerplanar(rng, n, rng.random())
        if rng.random() < 0.5:
            edges = _with_crossing_chords(rng, n, edges)
        g = make_graph(n, list(edges))
        order = list(range(n))
        if rng.random() < 0.2:
            rng.shuffle(order)  # almost never a walk of the graph
        got = verify_embedding(g, order)
        assert got == _reference_verify(g, order), (n, sorted(edges), order)
        key = "accept" if isinstance(got, OuterEmbedding) else got.reason
        reasons[key] = reasons.get(key, 0) + 1
    assert set(reasons) == {"accept", "order-not-hamiltonian", "crossing-chords"}, reasons


def test_separating_triangles_match_reference_on_fans_and_triangulations():
    rng = random.Random(7)
    shapes = [gen_triangular_fan(n)[0] for n in range(3, 121)]
    for n in range(3, 301, 11):
        tri = _triangulated_polygon(rng, n)
        shapes.append(_relabel(rng, n, tri))
        cycle = {norm_edge(i, (i + 1) % n) for i in range(n)}
        shapes.append(_relabel(rng, n, cycle | {e for e in tri - cycle if rng.random() < 0.8}))
    found = 0
    for g in shapes:
        emb = recognize_outerplanar_2connected(g)
        assert isinstance(emb, OuterEmbedding)
        found += assert_triangles_match_reference_faces(g, emb)
    assert found > 1000


def test_separating_triangles_of_the_100000_fan():
    n = 100_000
    g, _ = gen_triangular_fan(n)
    # the fan's outer walk u, v1, w1, v2, ..., w_{n-2}, v_{n-1}, checked
    # by the verifier in place of a recognition
    order = [0] + [x for i in range(1, n - 1) for x in (i, n - 1 + i)] + [n - 1]
    emb = verify_embedding(g, order)
    assert isinstance(emb, OuterEmbedding)
    tris = separating_triangles(emb)
    assert len(tris) == n - 4
    assert tris == [(0, i, i + 1) for i in range(2, n - 2)]


# ---------------------------------------------------------------------------
# Property test against networkx
# ---------------------------------------------------------------------------


@st.composite
def outerplanar_like(draw):
    """A 2-connected outerplanar graph (a triangulated polygon with chords
    deleted), then optionally perturbed by added or deleted edges, under a
    random relabelling; so both verdicts occur."""
    n = draw(st.integers(3, 24))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = _outerplanar(rng, n, draw(st.floats(0, 1)))
    for _ in range(draw(st.integers(0, 3))):
        u, v = rng.sample(range(n), 2)
        edges ^= {norm_edge(u, v)}
    return _relabel(rng, n, edges)


def _networkx_verdict(g: Graph) -> bool:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    apex = nx.Graph(h)
    apex.add_edges_from((g.n, v) for v in range(g.n))
    return nx.is_biconnected(h) and nx.check_planarity(apex)[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(outerplanar_like())
def test_recognizer_agrees_with_networkx(g):
    got = recognize_outerplanar_2connected(g)
    assert isinstance(got, OuterEmbedding) == _networkx_verdict(g)
    assert got == reference_recognize(g)
