"""The degree-parity screen and its T_{k,l,m} label, against networkx.

`precheck` must return a `ParityCertificate` exactly when networkx
(test-only) finds the graph Eulerian and its edge count is odd, and the
search must agree that no such graph is colorable. The inputs are every
connected graph of the networkx atlas.

`triangle_paths_params`, which names T_{k,l,m} in the certificate, must
return (k, l, m) exactly when the graph is isomorphic to T_{k,l,m}, under
any labelling. Every input is compared with each T_{k,l,m} of its order,
and a returned triple must name a graph that networkx finds isomorphic.
The inputs are relabelled members of the family, near-misses that differ
from it in one structural point, and the package's other families.
"""

import itertools
import random

import networkx as nx
import pytest

from outercolor import solver
from outercolor.graphs import (
    Graph,
    gen_cycle,
    gen_random_outerplanar_subcubic,
    gen_triangle_graph,
    gen_triangular_fan,
    make_graph,
)
from outercolor.solver import (
    ParityCertificate,
    find_interval_coloring,
    precheck,
    triangle_paths_params,
    width,
)


def _nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _family_members(g: Graph):
    # every T_{k,l,m} with k <= l <= m on g's vertex count: n = 2(k + l + m)
    if g.n % 2:
        return
    half = g.n // 2
    for k in range(1, half):
        for l in range(k, half - k):
            m = half - k - l
            if m >= l:
                yield (k, l, m)


def _check(g: Graph) -> tuple[int, int, int] | None:
    got = triangle_paths_params(g)
    h = _nx(g)
    iso = [
        klm for klm in _family_members(g)
        if nx.is_isomorphic(h, _nx(gen_triangle_graph(*klm)))
    ]
    if got is None:
        assert iso == [], (sorted(g.edges), iso)
    else:
        assert list(got) == sorted(got)
        assert iso == [got], (sorted(g.edges), got, iso)
    return got


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _hubs_and_runs(hub_edges, runs) -> Graph:
    """Hubs 0..3 joined by hub_edges, plus one path of fresh vertices of
    the given length between hubs a and b for each (a, b, length) in runs."""
    edges = list(hub_edges)
    nxt = 4
    for a, b, length in runs:
        path = [a, *range(nxt, nxt + length - 1), b]
        nxt += length - 1
        edges += zip(path, path[1:])
    used = sorted({v for e in edges for v in e})
    ids = {v: i for i, v in enumerate(used)}
    return make_graph(len(used), [(ids[u], ids[v]) for u, v in edges])


TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def test_relabelled_family_members_match():
    rng = random.Random(8)
    for k, l, m in itertools.product(range(1, 5), repeat=3):
        g = gen_triangle_graph(k, l, m)
        for h in (g, _shuffled(g, rng), _shuffled(g, rng)):
            assert _check(h) == tuple(sorted((k, l, m)))


# Each near-miss breaks one condition of the match and keeps the others
# that can still hold, so each condition is needed to reject one of them.
T222 = sorted(gen_triangle_graph(2, 2, 2).edges)  # u = 3, 4, 5 on side 0-1

NEAR_MISSES = {
    "one odd path": _hubs_and_runs(TRIANGLE, [(0, 1, 4), (1, 2, 4), (0, 2, 3)]),
    # hub 0 carries a cycle of its own, so hubs 1 and 2 share two paths
    "path from a hub back to itself": _hubs_and_runs(
        TRIANGLE, [(0, 0, 4), (1, 2, 2), (1, 2, 4)]
    ),
    # three degree-4 vertices, the rest degree 2, n + 3 edges and even
    # paths, but the hubs are a path 0-1-2, or have no edge among them
    "hubs form a path": _hubs_and_runs(
        [(0, 1), (1, 2)], [(0, 2, 2), (0, 2, 4), (0, 1, 2), (1, 2, 2)]
    ),
    "hubs independent": _hubs_and_runs(
        [], [(0, 1, 2), (0, 1, 2), (1, 2, 2), (1, 2, 4), (0, 2, 2), (0, 2, 2)]
    ),
    # T_{1,1,1} plus a disjoint 4-cycle: degrees and n + 3 edges still hold
    "T plus a separate cycle": make_graph(
        10, sorted(gen_triangle_graph(1, 1, 1).edges) + [(6, 7), (7, 8), (8, 9), (6, 9)]
    ),
    # the same with a 6-cycle: n steps from a hub go twice round T_{1,1,1}
    "T plus a separate cycle of its order": make_graph(
        12, sorted(gen_triangle_graph(1, 1, 1).edges) + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    ),
    # n + 3 edges still, but vertices of degree 3 and 1
    "pendant vertex": make_graph(13, T222 + [(4, 12)]),
    "extra chord": make_graph(12, T222 + [(3, 7)]),
    "fourth degree-4 vertex": _hubs_and_runs(
        TRIANGLE + [(0, 3), (2, 3)], [(0, 1, 2), (1, 3, 2), (2, 3, 2)]
    ),
    # four degree-4 vertices with n + 3 edges: hub 1 ends in two leaves
    "four hubs and two leaves": make_graph(
        8, TRIANGLE + [(0, 3), (2, 3), (1, 4), (1, 5), (0, 6), (6, 3), (2, 7), (7, 3)]
    ),
}


@pytest.mark.parametrize("name", sorted(NEAR_MISSES))
def test_near_misses_do_not_match(name):
    rng = random.Random(name)
    g = NEAR_MISSES[name]
    for h in (g, _shuffled(g, rng)):
        assert _check(h) is None


def test_other_families_do_not_match():
    graphs = [gen_cycle(n) for n in range(3, 16)]
    graphs += [gen_triangular_fan(n) for n in range(3, 12)]
    graphs += [
        gen_random_outerplanar_subcubic(n, seed) for n in range(4, 15) for seed in range(19)
    ]
    for g in graphs:
        assert _check(g) is None


def test_screen_matches_eulerian_with_odd_m_on_the_atlas():
    graphs = hits = named = searched = 0
    for h in nx.graph_atlas_g():
        if h.number_of_edges() == 0 or not nx.is_connected(h):
            continue
        graphs += 1
        g = make_graph(h.number_of_nodes(), list(h.edges()))
        out = precheck(g)
        if not (nx.is_eulerian(h) and g.m % 2):
            assert out is None, sorted(g.edges)
            continue
        hits += 1
        assert out == ParityCertificate(g.n, g.m, _check(g)), sorted(g.edges)
        named += out.klm is not None
        # the search agrees. The five hits with m > 13 rest on the lemma
        # alone: the four with m = 15 and 17 would add about 5 s of
        # search, and K7 (m = 21) minutes
        if g.m <= 13:
            searched += 1
            assert all(
                find_interval_coloring(g, t) is None for t in range(g.max_degree, g.m + 1)
            ), sorted(g.edges)
    # T_{1,1,1} is the one member of the family with n <= 7
    assert (graphs, hits, named, searched) == (995, 26, 1, 21)


@pytest.mark.parametrize("klm", [(20, 20, 20), (200, 1, 1)])
def test_width_certifies_without_searching(klm, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("width searched a T_{k,l,m}")

    monkeypatch.setattr(solver, "find_interval_coloring", no_search)
    g = gen_triangle_graph(*klm)
    out = width(_shuffled(g, random.Random(sum(klm))))
    assert out == ParityCertificate(g.n, g.m, tuple(sorted(klm)))
