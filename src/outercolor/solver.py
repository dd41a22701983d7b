"""Exhaustive search for interval colorings, exact width, certificates.

The backtracking solver is the package's ground truth: every construction
elsewhere is cross-checked against it on small instances. `width` certifies
non-colorability in one of three ways. `precheck` settles odd cycles by the
chromatic-index fact, and the triangle-with-even-paths family T_{k,l,m},
under any labelling, by a parity certificate (`parity_obstruction`) that
`replay_parity_certificate` re-checks before it is returned; both take
linear time. Any other graph gets a full exhaustion up to a sound upper
bound on t (a t may be settled by the forced-color prune in place of a
search). `find_interval_coloring` itself runs no precheck: it is a pure
search at one t.
"""

from __future__ import annotations

import time
from collections import deque
from typing import NamedTuple

from .coloring import EdgeColoring
from .graphs import Edge, Graph, GraphError, gen_triangle_graph, is_connected, norm_edge


# ---------------------------------------------------------------------------
# Outcomes and certificates
# ---------------------------------------------------------------------------

class Colored(NamedTuple):
    """An interval t-coloring was found; t is minimal when produced by width."""

    t: int
    coloring: EdgeColoring


class ExhaustedAllT(NamedTuple):
    """Every t from max degree to t_max was searched without success.

    reason says why t_max is a sound cap: "edge-count-bound" (all t colors
    must appear and each edge holds one color) or "triangle-free-bound"
    (triangle-free interval-colorable graphs satisfy t <= n - 1).
    """

    t_max: int
    reason: str


class OddCycleCertificate(NamedTuple):
    """Odd cycles need 3 proper colors but have max degree 2, so no
    interval coloring exists regardless of t."""

    n: int


class ParityStep(NamedTuple):
    """One forced deduction about edge color parities.

    kind "assume": the case hypothesis fixing `edges` to `parity`.
    kind "balance": at degree-4 vertex `at`, the two `using` edges share a
      known parity, and an interval of four consecutive colors holds
      exactly two of each parity, so the remaining two edges `edges` take
      the opposite one.
    kind "propagate": `path` is an even-length path of degree-2 interior
      vertices; each interior palette is {c, c+1}, one color of each
      parity, so the parity flips per interior vertex; an odd number of
      flips forces the last edge to `parity`, opposite the first edge.
    """

    kind: str
    parity: int
    edges: tuple[Edge, ...]
    at: int | None = None
    using: tuple[Edge, ...] = ()
    path: tuple[int, ...] = ()


class ParityCase(NamedTuple):
    assumed_parity: int
    steps: tuple[ParityStep, ...]
    conflict_edge: Edge


class ParityCertificate(NamedTuple):
    """Proof that the triangle-with-even-paths graph is not colorable.

    In any hypothetical interval coloring, two of the three triangle
    edges share a parity (pigeonhole) and meet at some triangle vertex.
    The certificate replays the forced-parity chain from x; the chain uses
    nothing about the three path lengths beyond their evenness, and the
    chain from y or z is the chain from x of T on a permutation of
    (k, l, m), so it covers whichever vertex the pigeonhole picks. Both
    parity cases end in the recorded contradiction.
    """

    k: int
    l: int
    m: int
    cases: tuple[ParityCase, ParityCase]


class NotColorable(NamedTuple):
    certificate: ExhaustedAllT | OddCycleCertificate | ParityCertificate


class Inconclusive(NamedTuple):
    """The time budget ran out while searching at bound_exhausted_at."""

    bound_exhausted_at: int


ColoringOutcome = Colored | NotColorable | Inconclusive


class BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# Prechecks and bounds
# ---------------------------------------------------------------------------

def _require_connected(g: Graph) -> None:
    if g.n == 0 or g.m == 0:
        raise GraphError("solver needs a nonempty connected graph")
    if not is_connected(g):
        raise GraphError("solver needs a connected graph")


def precheck(g: Graph) -> NotColorable | None:
    """Linear-time non-colorability screen, run before any search.

    Raises GraphError unless g is nonempty and connected. Then:

    - odd cycles: an interval-colorable graph has chromatic index equal to
      its max degree, and an odd cycle needs 3 colors at max degree 2;
    - T_{k,l,m} under any labelling (`triangle_paths_params`): returns the
      parity certificate of `parity_obstruction`, after
      `replay_parity_certificate` has re-checked it. A failed replay is a
      bug in this module and raises AssertionError.

    Returns None when neither applies, so the caller must search.
    """
    _require_connected(g)
    if g.n % 2 == 1 and g.m == g.n and all(g.degree(v) == 2 for v in range(g.n)):
        return NotColorable(OddCycleCertificate(g.n))
    klm = triangle_paths_params(g)
    if klm is not None:
        cert = parity_obstruction(*klm)
        if not replay_parity_certificate(cert):
            raise AssertionError(f"the parity certificate for (k, l, m) = {klm} failed its replay")
        return NotColorable(cert)
    return None


def triangle_paths_params(g: Graph) -> tuple[int, int, int] | None:
    """(k, l, m), ascending, if g is isomorphic to T_{k,l,m}; else None.

    T_{k,l,m} has n + 3 edges, three pairwise adjacent vertices of degree
    4 (the hubs) and every other vertex of degree 2. The degrees leave
    each hub two edges into runs of degree-2 vertices, so with the hubs a
    triangle there are three runs. g is T_{k,l,m} exactly when no run
    returns to the hub it leaves, which puts one run on each hub pair,
    every run has even length (2k, 2l, 2m), and the runs hold all n - 3
    degree-2 vertices, so that no degree-2 cycle lies apart from the
    hubs. The order of (k, l, m) does not matter, since the triangle's
    symmetries permute the hub pairs. One walk per run end: O(n).
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
    half: dict[Edge, int] = {}
    inner = 0  # degree-2 vertices walked; each run is walked from both ends
    for a in hubs:
        for w in g.neighbors(a):
            if w in hubs:
                continue
            walk = _path_between(g, a, w)
            length = len(walk) - 1
            if walk[-1] == a or length % 2:
                return None
            half[norm_edge(a, walk[-1])] = length // 2
            inner += length - 1
    if inner != 2 * (g.n - 3):
        return None
    k, l, m = sorted(half.values())
    return k, l, m


def has_triangle(g: Graph) -> bool:
    for u, v in g.edges:
        if set(g.neighbors(u)) & set(g.neighbors(v)):
            return True
    return False


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
    require_palettes: dict[int, frozenset[int]] | None = None,
    deadline: float | None = None,
) -> EdgeColoring | None:
    """First interval t-coloring in deterministic search order, or None.

    Edges are tried in breadth-first order from vertex 0, colors
    ascending, so the result is reproducible. require_palettes pins the
    exact palette of chosen vertices (each set's size must equal the
    vertex degree); color-reversal symmetry breaking is disabled in that
    case because reversal does not preserve the pinned palettes.
    Raises BudgetExceeded when a deadline (time.monotonic seconds) passes.

    The search is a loop over depth, not a recursion, so its depth is
    bounded by memory only. Colors are bits of an int. Each vertex keeps
    its palette and the mask of colors it can still take: the window
    [max(1, hi - d + 1), min(t, lo + d - 1)] around its palette [lo, hi]
    (degree d), cut to any pinned palette, minus the palette. The
    candidates for edge uv are the common bits of u's and v's masks,
    lowest first. Two prunes cut a branch: a later edge at u or v with no
    common candidate left (masks only shrink as the search deepens), and
    fewer edges left than colors not yet used. Neither cuts a branch that
    holds a coloring, so the first coloring found is the one plain
    backtracking over the same orders finds.

    Forced-color prune: if every degree is at least delta and
    t <= 2 * delta - 1, each palette [a, a + d - 1] has a <= t - d + 1 <=
    delta <= a + d - 1, so holds color delta. The color-delta edges then
    form a perfect matching, which odd n rules out; the search is skipped.
    """
    _require_connected(g)
    if t < g.max_degree or t > g.m:
        return None
    everything = (2 << t) - 2  # bits 1..t
    pin = [everything] * g.n
    if require_palettes:
        for v, pal in require_palettes.items():
            if len(pal) != g.degree(v):
                raise ValueError(
                    f"required palette for vertex {v} has size {len(pal)}, "
                    f"degree is {g.degree(v)}"
                )
            if min(pal) < 1 or max(pal) > t:
                return None
            pin[v] = sum(1 << c for c in pal)
    deg = [g.degree(v) for v in range(g.n)]
    if g.n % 2 == 1 and t <= 2 * min(deg) - 1:
        return None  # forced-color prune

    edges = _bfs_edge_order(g)
    m = len(edges)
    eu = [u for u, _ in edges]
    ev = [v for _, v in edges]
    # far[w]: the other ends of w's edges in search order; the uncolored
    # edges at u after edge i are the ones past later_u[i] in far[u]
    far: list[list[int]] = [[] for _ in range(g.n)]
    later_u: list[int] = []
    later_v: list[int] = []
    for u, v in edges:
        far[u].append(v)
        far[v].append(u)
        later_u.append(len(far[u]))
        later_v.append(len(far[v]))

    pal = [0] * g.n
    free = pin[:]
    cand = [0] * (m + 1)    # colors not yet tried at each depth
    color = [0] * m
    keep_u = [0] * m        # free masks of the endpoints before edge i
    keep_v = [0] * m
    use = [0] * (t + 1)
    used = 0                # distinct colors on the colored edges
    nodes = 0

    # color-reversal symmetry: c -> t + 1 - c maps valid colorings to
    # valid colorings, so the first edge only needs the lower half
    first = everything if require_palettes else (2 << (t + 1) // 2) - 2
    cand[0] = free[eu[0]] & free[ev[0]] & first
    i = 0
    while True:
        c = cand[i]
        if not c:
            if i == 0:
                return None
            i -= 1
            u, v, k = eu[i], ev[i], color[i]
            pal[u] ^= 1 << k
            pal[v] ^= 1 << k
            free[u] = keep_u[i]
            free[v] = keep_v[i]
            use[k] -= 1
            if not use[k]:
                used -= 1
            continue
        b = c & -c
        cand[i] = c ^ b
        u, v = eu[i], ev[i]
        # the new masks of u and v: window [hi - d + 1, lo + d - 1], with
        # hi - d + 1 = p.bit_length() - d, cut to [1, t] by pin. The window
        # test alone keeps palettes feasible: with hi - lo + 1 <= d, colors
        # in [1, t] and d <= t, an interval of d colors fits over [lo, hi]
        # inside [1, t], and a full palette of d distinct colors spans
        # exactly d, so no separate fit or full-palette test is needed
        p = pal[u] | b
        d = deg[u]
        lo = (p & -p).bit_length() - 1
        fu = ((2 << (lo + d - 1)) - (1 << max(p.bit_length() - d, 0))) & pin[u] & ~p
        p = pal[v] | b
        d = deg[v]
        lo = (p & -p).bit_length() - 1
        fv = ((2 << (lo + d - 1)) - (1 << max(p.bit_length() - d, 0))) & pin[v] & ~p
        # forward check: every uncolored edge at u or v keeps a candidate
        starved = False
        for x in far[u][later_u[i]:]:
            if not fu & free[x]:
                starved = True
                break
        else:
            for x in far[v][later_v[i]:]:
                if not fv & free[x]:
                    starved = True
                    break
        if starved:
            continue
        nodes += 1
        if not nodes & 1023 and deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded
        keep_u[i] = free[u]
        keep_v[i] = free[v]
        pal[u] |= b
        pal[v] |= b
        free[u] = fu
        free[v] = fv
        k = b.bit_length() - 1
        color[i] = k
        use[k] += 1
        if use[k] == 1:
            used += 1
        i += 1
        # remaining edges must cover every color not yet used
        if t - used > m - i:
            cand[i] = 0
        elif i == m:
            return EdgeColoring(t, dict(zip(edges, color)))
        else:
            cand[i] = free[eu[i]] & free[ev[i]]


def width(g: Graph, budget_ms: int | None = None) -> ColoringOutcome:
    """Exact minimum number of colors, scanning every t up to the bound.

    `precheck` answers odd cycles and T_{k,l,m} first, with no search and
    whatever the budget. Otherwise colorability is not monotone in t, so a
    miss at one t proves nothing about larger t; NotColorable therefore
    requires exhausting the whole range. A budget overrun yields
    Inconclusive naming the t in progress.
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
            return Colored(t, found)
    return NotColorable(ExhaustedAllT(t_max=bound, reason=reason))


# ---------------------------------------------------------------------------
# Parity certificate for the triangle-with-even-paths family
# ---------------------------------------------------------------------------

def _path_between(g: Graph, start_edge_end: int, first: int) -> list[int]:
    # walk from triangle vertex start through degree-2 vertices to the
    # far triangle vertex; returns the full vertex sequence
    walk = [start_edge_end, first]
    while g.degree(walk[-1]) == 2:
        a, b = g.neighbors(walk[-1])
        walk.append(a if a != walk[-2] else b)
    return walk


def _build_case(g: Graph, a: int, b: int, c: int, p: int) -> ParityCase:
    """Forced-parity chain assuming the triangle edges at vertex a both
    have parity p. a, b, c are the triangle vertex ids."""
    ab, ac, bc = norm_edge(a, b), norm_edge(a, c), norm_edge(b, c)

    def path_from(src: int, dst: int) -> list[int]:
        first = next(
            w for w in g.neighbors(src)
            if g.degree(w) == 2 and _path_between(g, src, w)[-1] == dst
        )
        return _path_between(g, src, first)

    p_ab = path_from(a, b)
    p_ac = path_from(a, c)
    p_bc = path_from(b, c)

    def path_edges(walk: list[int]) -> list[Edge]:
        return [norm_edge(x, y) for x, y in zip(walk, walk[1:])]

    q = 1 - p
    steps = [
        ParityStep("assume", p, (ab, ac)),
        ParityStep("balance", q, (path_edges(p_ab)[0], path_edges(p_ac)[0]),
                   at=a, using=(ab, ac)),
        ParityStep("propagate", p, (path_edges(p_ab)[-1],), path=tuple(p_ab)),
        ParityStep("propagate", p, (path_edges(p_ac)[-1],), path=tuple(p_ac)),
        ParityStep("balance", q, (bc, path_edges(p_bc)[0]),
                   at=b, using=(ab, path_edges(p_ab)[-1])),
        ParityStep("propagate", p, (path_edges(p_bc)[-1],), path=tuple(p_bc)),
        ParityStep("balance", q, (bc, path_edges(p_bc)[-1]),
                   at=c, using=(ac, path_edges(p_ac)[-1])),
    ]
    return ParityCase(p, tuple(steps), conflict_edge=path_edges(p_bc)[-1])


def parity_obstruction(k: int, l: int, m: int) -> ParityCertificate:
    """Certificate that the triangle graph admits no interval coloring,
    with the chain anchored at the triangle corner x."""
    g, _ = gen_triangle_graph(k, l, m)
    x, y, z = 0, 1, 2  # the triangle's ids in gen_triangle_graph
    cases = (_build_case(g, x, y, z, 0), _build_case(g, x, y, z, 1))
    return ParityCertificate(k, l, m, cases)


def replay_parity_certificate(cert: ParityCertificate) -> bool:
    """Mechanically re-check every deduction in the certificate.

    Rebuilds the graph, then walks each case: assumptions introduce
    parities, balance steps must name a degree-4 vertex, two incident
    edges with equal known parity, and conclude the opposite parity on
    exactly the other two incident edges; propagate steps must walk a
    real even path of degree-2 interior vertices whose first edge parity
    is known. Every case must stay consistent until its final step and
    conflict there on the recorded edge. Returns True only if all of
    that holds.
    """
    g, _ = gen_triangle_graph(cert.k, cert.l, cert.m)

    def run_case(case: ParityCase) -> bool:
        known: dict[Edge, int] = {}

        def learn(e: Edge, p: int) -> bool:
            # False means contradiction with an earlier deduction
            if e in known and known[e] != p:
                return False
            known[e] = p
            return True

        last = len(case.steps) - 1
        for i, step in enumerate(case.steps):
            for e in step.edges + step.using:
                if e not in g.edges:
                    return False
            if step.kind == "assume":
                if step.parity != case.assumed_parity:
                    return False
                if not all(learn(e, step.parity) for e in step.edges):
                    return False
            elif step.kind == "balance":
                v = step.at
                if v is None or g.degree(v) != 4:
                    return False
                incident = {norm_edge(v, w) for w in g.neighbors(v)}
                if set(step.using) | set(step.edges) != incident:
                    return False
                if len(step.using) != 2 or len(step.edges) != 2:
                    return False
                ps = {known.get(e) for e in step.using}
                if ps != {1 - step.parity}:
                    return False
                conflicted = not all(learn(e, step.parity) for e in step.edges)
                if conflicted:
                    return i == last and cert_conflicts(case, step)
            elif step.kind == "propagate":
                walk = step.path
                if len(walk) < 3 or len(walk) % 2 != 1:
                    return False  # even edge count means odd vertex count
                pe = [norm_edge(x, y) for x, y in zip(walk, walk[1:])]
                if not all(e in g.edges for e in pe):
                    return False
                if not all(g.degree(v) == 2 for v in walk[1:-1]):
                    return False
                first_p = known.get(pe[0])
                if first_p is None:
                    return False
                flips = len(pe) - 1
                want = first_p if flips % 2 == 0 else 1 - first_p
                if step.parity != want or step.edges != (pe[-1],):
                    return False
                if not learn(pe[-1], want):
                    return i == last and cert_conflicts(case, step)
            else:
                return False
        # a case that completes without contradiction proves nothing
        return False

    def cert_conflicts(case: ParityCase, step: ParityStep) -> bool:
        return case.conflict_edge in step.edges

    return all(run_case(case) for case in cert.cases)
