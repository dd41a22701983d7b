"""Recognition checked against two independent references.

The reference recognizer below is the original quadratic implementation
(a `min` scan for the next degree-2 vertex, a list scan plus `insert` for
the replay, and a pairwise crossing check). The program's recognizer must
return the same embedding or the same rejection reason on every input.
networkx is the second oracle: G is outerplanar iff G plus an apex vertex
adjacent to every vertex is planar, and 2-connectivity is
`nx.is_biconnected`.
"""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from outercolor.graphs import (
    Graph,
    gen_cycle,
    gen_random_outerplanar_subcubic,
    gen_triangle_graph,
    gen_triangular_fan,
    is_connected,
    make_graph,
    norm_edge,
)
from outercolor.outerplanar import (
    OuterEmbedding,
    Rejection,
    bounded_faces,
    recognize_outerplanar_2connected,
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
    if not is_connected(g):
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
    pos = emb.positions()
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


def corpus():
    rng = random.Random(20260417)
    yield make_graph(2, [(0, 1)])
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
            assert bounded_faces(got) == reference_bounded_faces(got)
    # the corpus reaches every verdict the recognizer gives. The replay
    # only ever splits an edge of the walk, so the chords it leaves never
    # cross; "crossing-chords" comes from verify_embedding alone
    assert set(reasons) == {
        "accept", "too-small", "disconnected", "edge-bound",
        "no-degree-2-vertex", "order-not-hamiltonian",
    }, reasons


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


def test_bounded_faces_match_reference_on_fans_and_triangulations():
    rng = random.Random(7)
    graphs = [gen_triangular_fan(n)[0] for n in range(3, 120, 7)]
    graphs += [_relabel(rng, n, _triangulated_polygon(rng, n)) for n in range(3, 300, 11)]
    for g in graphs:
        emb = recognize_outerplanar_2connected(g)
        assert isinstance(emb, OuterEmbedding)
        assert bounded_faces(emb) == reference_bounded_faces(emb)


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
