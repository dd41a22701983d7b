"""Undirected simple graphs, named-family generators, and serialization.

Vertices are dense integer ids 0..n-1. Edges are unordered pairs stored
as (min, max) tuples. Graphs are immutable values: construct once, share
freely. Family generators attach human-readable role labels in a separate
dict so the algorithms themselves never depend on vertex names.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property
from itertools import chain

Edge = tuple[int, int]
Labels = dict[int, str]

# Fixed palette for DOT edge colors, indexed by (color - 1) % len.
_DOT_PALETTE = (
    "#4c72b0",
    "#dd8452",
    "#55a868",
    "#c44e52",
    "#8172b3",
    "#937860",
    "#da8bc3",
    "#8c8c8c",
    "#ccb974",
    "#64b5cd",
)


class GraphError(ValueError):
    """Invalid graph construction or malformed graph input."""


def norm_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an unordered pair."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Equal and hashed by (n, edges). Assignment is refused; the cached
    properties are written straight into the instance `__dict__`.
    """

    n: int
    edges: frozenset[Edge]

    def __init__(self, n: int, edges: frozenset[Edge]) -> None:
        fields = self.__dict__
        fields["n"] = n
        fields["edges"] = edges

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    @cached_property
    def connected(self) -> bool:
        """True iff the graph is connected. Fewer than n - 1 edges is
        answered False before the adjacency is built, so a huge header
        with few edges costs nothing. Cached, so one graph is searched at
        most once."""
        return _search_connected(self)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def max_degree(self) -> int:
        # counted from the edge endpoints, so the adjacency is not built
        return max(Counter(chain.from_iterable(self.edges)).values(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges


def make_graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    """Build a graph, rejecting loops, out-of-range ids, and duplicates.

    Duplicate edges (in either orientation) are an error rather than being
    merged silently; that catches corpus bugs early. The edge set is built
    in one pass and tested as a whole; only a failed test scans the input
    in order to name the first bad edge.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    normed = [(u, v) if u < v else (v, u) for u, v in edges]
    built = frozenset(normed)
    # tested on the list, in input order: a walk of the large set's hash
    # order costs about half again as much at 10^5 edges
    if len(built) == len(normed) and all(0 <= u < v < n for u, v in normed):
        return Graph(n, built)
    seen: set[Edge] = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        e = norm_edge(u, v)
        if e in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(e)
    return Graph(n, frozenset(seen))


def neighbor_sets(g: Graph) -> list[set[int]]:
    """A new mutable neighbor set for each vertex, built from the edge set
    without the sorted tuples of Graph.adjacency."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _search_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    if g.m < g.n - 1:
        return False
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


# ---------------------------------------------------------------------------
# Family generators
# ---------------------------------------------------------------------------

def gen_cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_triangular_fan(n: int) -> tuple[Graph, Labels]:
    """Triangular fan: apex u joined to a fan path v_1..v_{n-1}, with a
    degree-2 vertex w_i inside each cell v_i, v_{i+1}.

    Ids: u=0, v_i=i for 1<=i<=n-1, w_i=(n-1)+i for 1<=i<=n-2.
    2n-2 vertices and 4n-7 edges.
    """
    if n < 3:
        raise GraphError(f"triangular fan needs n >= 3, got {n}")
    u = 0
    v = {i: i for i in range(1, n)}
    w = {i: (n - 1) + i for i in range(1, n - 1)}
    edges = [(u, v[i]) for i in range(1, n)]
    for i in range(1, n - 1):
        edges += [(v[i], w[i]), (w[i], v[i + 1]), (v[i], v[i + 1])]
    labels: Labels = {u: "u"}
    labels.update({v[i]: f"v{i}" for i in range(1, n)})
    labels.update({w[i]: f"w{i}" for i in range(1, n - 1)})
    return make_graph(2 * n - 2, edges), labels


def gen_triangle_graph(k: int, l: int, m: int) -> tuple[Graph, Labels]:
    """Triangle x,y,z with each side paralleled by a path of even length:
    x..y through u_1..u_{2k-1}, y..z through v_1..v_{2l-1}, and
    x..z through w_1..w_{2m-1}. Every vertex degree is even (4 or 2).
    """
    if k < 1 or l < 1 or m < 1:
        raise GraphError(f"path parameters must be >= 1, got ({k}, {l}, {m})")
    x, y, z = 0, 1, 2
    nxt = 3
    u = list(range(nxt, nxt + 2 * k - 1))
    nxt += 2 * k - 1
    v = list(range(nxt, nxt + 2 * l - 1))
    nxt += 2 * l - 1
    w = list(range(nxt, nxt + 2 * m - 1))
    nxt += 2 * m - 1

    edges = [(x, y), (y, z), (x, z)]
    for path, a, b in ((u, x, y), (v, y, z), (w, x, z)):
        edges.append((a, path[0]))
        edges += [(path[i], path[i + 1]) for i in range(len(path) - 1)]
        edges.append((path[-1], b))

    labels: Labels = {x: "x", y: "y", z: "z"}
    labels.update({u[i]: f"u{i + 1}" for i in range(len(u))})
    labels.update({v[i]: f"v{i + 1}" for i in range(len(v))})
    labels.update({w[i]: f"w{i + 1}" for i in range(len(w))})
    return make_graph(nxt, edges), labels


def gen_random_outerplanar_subcubic(n: int, seed: int) -> Graph:
    """Outer cycle 0..n-1 plus a random set of pairwise non-crossing,
    vertex-disjoint chords (so every degree is at most 3).

    Contract: deterministic for a fixed seed; at least one chord, and
    exactly one at n = 4 and n = 5, where no two such chords fit; a seeded
    coin picks a dense mode, where few positions stay chord-free, or a
    sparse mode, where most do.

    The chords are read off a random bracket word over the positions
    0..n-1, drawn left to right in O(n) time and memory: each position
    opens a chord, closes the innermost open one, or stays chord-free. A
    chord spans at least two positions and is never the cycle edge
    (0, n-1), and a position may open a chord only if every open chord can
    still be closed after it.
    """
    if n < 4:
        raise GraphError(f"random subcubic family needs n >= 4, got {n}")
    rng = random.Random(seed)
    skip_weight = 0.25 if rng.random() < 0.5 else 4.0
    chords: list[Edge] = []
    opened: list[int] = []
    for i in range(n):
        # the open chords need one closing position each after i, plus a
        # gap after a chord opened at i, plus position n-1 left unused when
        # the outermost one starts at 0
        left = n - 1 - i
        from_0 = opened[:1] == [0]
        can_close = bool(opened) and opened[-1] <= i - 2
        can_open = left >= len(opened) + 2 + (from_0 or i == 0)
        can_skip = left >= len(opened) + from_0
        x = rng.random() * (can_close + can_open + can_skip * skip_weight)
        if x < can_close:
            chords.append((opened.pop(), i))
        elif x < can_close + can_open:
            opened.append(i)
    if not chords:
        a = rng.randrange(n - 2)
        chords.append((a, a + 2))
    cycle = [(i, (i + 1) % n) for i in range(n)]
    return make_graph(n, cycle + chords)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header line "n m", then m lines "u v"."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"malformed header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphError(f"malformed header {lines[0]!r}, expected integers") from None
    body = lines[1:]
    if len(body) != m:
        raise GraphError(f"header declares {m} edges but found {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"malformed edge line {ln!r}") from None
    return make_graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def write_dot(g: Graph, coloring: dict[Edge, int] | None = None) -> str:
    """DOT export, vertices ascending then edges in (min, max) order.

    Only vertices with an edge are listed, so the output is linear in the
    edge count whatever n the header declares; isolated vertices do not
    appear. With a coloring, each edge carries its color as the label and
    a deterministic palette hex as the color attribute. The coloring must
    cover every edge.
    """
    lines = ["graph {"]
    for v in sorted({v for e in g.edges for v in e}):
        lines.append(f"  {v};")
    for u, v in sorted(g.edges):
        if coloring is None:
            lines.append(f"  {u} -- {v};")
        else:
            if (u, v) not in coloring:
                raise GraphError(f"coloring missing edge ({u}, {v})")
            c = coloring[(u, v)]
            hexcolor = _DOT_PALETTE[(c - 1) % len(_DOT_PALETTE)]
            lines.append(f'  {u} -- {v} [label="{c}", color="{hexcolor}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
