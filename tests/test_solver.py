import random
import time
import tracemalloc
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from outercolor.coloring import EdgeColoring, check_interval_coloring
from outercolor.graphs import (
    GraphError,
    gen_cycle,
    gen_random_outerplanar_subcubic,
    gen_triangle_graph,
    gen_triangular_fan,
    make_graph,
)
from outercolor import graphs, solver
from outercolor.solver import (
    BudgetExceeded,
    ExhaustedAllT,
    Inconclusive,
    ParityCertificate,
    color_bound,
    find_interval_coloring,
    has_triangle,
    precheck,
    width,
)


def brute_force_exists(g, t):
    # independent oracle: enumerate every assignment of t colors
    edges = sorted(g.edges)
    for colors in product(range(1, t + 1), repeat=len(edges)):
        if check_interval_coloring(g, EdgeColoring(t, dict(zip(edges, colors)))) is None:
            return True
    return False


def chorded_hexagon():
    return make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])


def test_precheck_odd_cycle():
    out = precheck(gen_cycle(5))
    assert isinstance(out, ParityCertificate)
    assert out == ParityCertificate(n=5, edges=5, klm=None)
    assert precheck(gen_cycle(6)) is None
    g = gen_triangular_fan(5)
    assert precheck(g) is None


def test_precheck_rejects_disconnected():
    with pytest.raises(GraphError):
        precheck(make_graph(4, [(0, 1), (2, 3)]))


def test_color_bound_values():
    assert color_bound(gen_cycle(6)) == (5, "triangle-free-bound")  # min(6, 5)
    t111 = gen_triangle_graph(1, 1, 1)
    assert t111.m == 9 and color_bound(t111) == (9, "edge-count-bound")
    diamond = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert color_bound(diamond) == (5, "edge-count-bound")


def test_has_triangle():
    assert not has_triangle(gen_cycle(6))
    assert has_triangle(gen_triangular_fan(4))
    t = gen_triangle_graph(2, 1, 1)
    assert has_triangle(t)


def test_c4_at_two_colors_is_alternating():
    col = find_interval_coloring(gen_cycle(4), 2)
    assert col is not None
    assert col.assignment == {(0, 1): 1, (0, 3): 2, (1, 2): 2, (2, 3): 1}


def test_c4_at_three_colors_exists():
    # full enumeration of the 3^4 assignments finds e.g. 1,2,3,2 around
    # the cycle, so the solver must too
    assert brute_force_exists(gen_cycle(4), 3)
    col = find_interval_coloring(gen_cycle(4), 3)
    assert col is not None and check_interval_coloring(gen_cycle(4), col) is None


def test_even_cycle_feasible_range():
    # C_2k admits interval t-colorings exactly for 2 <= t <= k + 1
    for n in (4, 6, 8):
        feasible = [
            t
            for t in range(2, color_bound(gen_cycle(n))[0] + 1)
            if find_interval_coloring(gen_cycle(n), t) is not None
        ]
        assert feasible == list(range(2, n // 2 + 2))


def test_solver_agrees_with_brute_force_on_small_graphs():
    graphs = [
        gen_cycle(4),
        gen_cycle(5),
        gen_cycle(6),
        make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        gen_triangular_fan(3),
    ]
    for g in graphs:
        for t in range(g.max_degree, min(color_bound(g)[0], 6) + 1):
            got = find_interval_coloring(g, t)
            want = brute_force_exists(g, t)
            assert (got is not None) == want, (g, t)
            if got is not None:
                assert check_interval_coloring(g, got) is None


def test_fan3_three_colorable():
    g = gen_triangular_fan(3)
    col = find_interval_coloring(g, 3)
    assert col is not None and check_interval_coloring(g, col) is None


def test_width_c4():
    out = width(gen_cycle(4))
    assert isinstance(out, EdgeColoring) and out.t == 2
    assert check_interval_coloring(gen_cycle(4), out) is None


def test_width_odd_cycle_certificate():
    out = width(gen_cycle(7))
    assert isinstance(out, ParityCertificate)
    assert out == ParityCertificate(7, 7, None)
    assert repr(out) == "ParityCertificate(n=7, edges=7, klm=None)"


def test_width_chorded_hexagon_is_three():
    out = width(chorded_hexagon())
    assert isinstance(out, EdgeColoring) and out.t == 3


def triangle_with_paths(a, b, c):
    """Triangle 0, 1, 2 with its sides 01, 12, 02 paralleled by paths of
    a, b and c edges; T_{k,l,m} when all three are even."""
    edges = [(0, 1), (1, 2), (0, 2)]
    nxt = 3
    for length, (x, y) in zip((a, b, c), edges[:]):
        path = [x, *range(nxt, nxt + length - 1), y]
        nxt += length - 1
        edges += zip(path, path[1:])
    return make_graph(nxt, edges)


def test_width_t111_not_colorable_by_exhaustion():
    # width answers from the degree-parity screen; the search it skips
    # still finds nothing at any t from max degree to m
    g = gen_triangle_graph(1, 1, 1)
    out = width(g)
    assert out == ParityCertificate(6, 9, (1, 1, 1))
    assert all(find_interval_coloring(g, t) is None for t in range(g.max_degree, g.m + 1))


def k_n(n):
    return make_graph(n, list(combinations(range(n), 2)))


def test_width_exhausts_k5():
    # every degree is 4 but m = 10 is even, so the screen misses K5, and
    # no t works
    g = k_n(5)
    assert precheck(g) is None
    assert width(g) == ExhaustedAllT(t_max=10, reason="edge-count-bound")


SIDE_PATHS = [(4, 3, 3), (4, 5, 5), (4, 7, 7), (5, 6, 7), (6, 7, 7)]


@pytest.mark.parametrize(
    "g",
    [triangle_with_paths(*abc) for abc in SIDE_PATHS] + [k_n(7)],
    ids=[f"paths{a}{b}{c}" for a, b, c in SIDE_PATHS] + ["K7"],
)
def test_width_settles_eulerian_odd_m_without_searching(g, monkeypatch):
    # every degree even and m odd; each of these used to be exhausted,
    # run out of budget or take seconds, and the screen now answers it
    # before any search
    def no_search(*args, **kwargs):
        raise AssertionError("width searched a graph the screen settles")

    monkeypatch.setattr(solver, "find_interval_coloring", no_search)
    assert all(g.degree(v) % 2 == 0 for v in range(g.n)) and g.m % 2 == 1
    assert width(g, budget_ms=10_000) == ParityCertificate(g.n, g.m, None)


def test_width_triangle_free_reason():
    # C7 is rejected by precheck, so use an even cycle forced to exhaust:
    # C4 has width 2, so instead check the reason via a path-free case,
    # the 6-cycle with two chords making it bipartite triangle-free
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)])
    # K_{3,3} minor-ish, not outerplanar, but the solver works on any graph
    out = width(g)
    if isinstance(out, ExhaustedAllT):
        assert out.reason == "triangle-free-bound"
    else:
        assert check_interval_coloring(g, out) is None


def _slow_subcubic():
    # a relabelled random subcubic graph on 100 vertices: the screen
    # misses it (it has degree-3 vertices), and the search at t = 3 runs
    # for seconds
    g = gen_random_outerplanar_subcubic(100, 0)
    perm = list(range(g.n))
    random.Random(7).shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_width_respects_budget():
    # budget_ms=0 has passed by the time width first looks at the clock,
    # so it answers before the search at t = 3 starts
    g = _slow_subcubic()
    assert precheck(g) is None
    out = width(g, budget_ms=0)
    assert isinstance(out, Inconclusive)
    assert out.bound_exhausted_at == g.max_degree
    # the precheck settles T_{2,2,1} before the budget is looked at
    t221 = gen_triangle_graph(2, 2, 1)
    assert width(t221, budget_ms=0) == ParityCertificate(10, 13, (1, 2, 2))


def test_search_polls_its_deadline(monkeypatch):
    # the search itself looks at the clock every 1024 nodes: a clock that
    # passes the deadline only after the records' one poll still stops it
    g = _slow_subcubic()
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) == 1 else 2.0

    with monkeypatch.context() as patched:
        patched.setattr(solver, "time", SimpleNamespace(monotonic=clock))
        with pytest.raises(BudgetExceeded):
            find_interval_coloring(g, 3, deadline=1.0)
    assert len(reads) == 2
    calls = _count_searches(monkeypatch)
    assert width(g, budget_ms=50) == Inconclusive(bound_exhausted_at=3)
    assert len(calls) >= 1


def test_records_poll_the_deadline():
    # the 3000-fan's apex has degree 2999, so the search's records would
    # hold about 4.5 million slots; a deadline that has passed stops their
    # build before they take that memory
    g = gen_triangular_fan(3000)
    t = g.max_degree
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            find_interval_coloring(g, t, deadline=time.monotonic())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_width_checks_connectivity_once(monkeypatch):
    # precheck and both per-t searches share one connectivity search
    g = gen_random_outerplanar_subcubic(9, 3)
    searched = []
    search = graphs._search_connected

    def counted(h):
        searched.append(h.n)
        return search(h)

    tried = []
    search_at = solver.find_interval_coloring

    def search_at_t(h, t, **kwargs):
        tried.append(t)
        return search_at(h, t, **kwargs)

    monkeypatch.setattr(graphs, "_search_connected", counted)
    monkeypatch.setattr(solver, "find_interval_coloring", search_at_t)
    out = width(g)
    assert isinstance(out, EdgeColoring) and out.t == 4
    assert tried == [3, 4]
    assert searched == [9]


def test_width_deterministic():
    g = gen_random_outerplanar_subcubic(9, 3)
    a = width(g)
    b = width(g)
    assert a == b


def test_width_isomorphism_invariant():
    rng = random.Random(11)
    for n, seed in [(6, 0), (7, 1), (8, 2)]:
        g = gen_random_outerplanar_subcubic(n, seed)
        base = width(g)
        assert isinstance(base, EdgeColoring)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            out = width(h)
            assert isinstance(out, EdgeColoring) and out.t == base.t


def test_require_palettes_steers_search():
    # C4 at t=2: forcing vertex 0 to see {1, 2} is satisfiable
    col = find_interval_coloring(gen_cycle(4), 2, require_palettes={0: frozenset({1, 2})})
    assert col is not None
    assert sorted([col.assignment[(0, 1)], col.assignment[(0, 3)]]) == [1, 2]
    # impossible palette: vertex 0 cannot see {1, 3} (not even an interval)
    assert find_interval_coloring(gen_cycle(4), 3, require_palettes={0: frozenset({1, 3})}) is None
    with pytest.raises(ValueError):
        find_interval_coloring(gen_cycle(4), 2, require_palettes={0: frozenset({1})})


def test_require_palettes_not_defeated_by_symmetry_breaking():
    # symmetry breaking keeps the first search edge in the lower half of
    # the colors, and color reversal does not keep a pinned palette, so
    # with pins it must be off. C4 has an interval 3-coloring with palette
    # {2, 3} at vertex 0 (3, 2, 1, 2 around the cycle from edge 01), so
    # the pinned search must find one
    g = gen_cycle(4)
    col = find_interval_coloring(g, 3, require_palettes={0: frozenset({2, 3})})
    assert col is not None
    assert check_interval_coloring(g, col) is None
    assert {col.assignment[(0, 1)], col.assignment[(0, 3)]} == {2, 3}


def test_width_matches_brute_force_verdict_on_c6():
    out = width(gen_cycle(6))
    assert isinstance(out, EdgeColoring) and out.t == 2
    assert brute_force_exists(gen_cycle(6), 2)


def test_width_past_the_recursion_limit():
    out = width(gen_cycle(1500))
    assert isinstance(out, EdgeColoring) and out.t == 2
    assert check_interval_coloring(gen_cycle(1500), out) is None
    out = width(gen_cycle(1501))
    assert out == ParityCertificate(1501, 1501, None)


def _count_searches(monkeypatch):
    # the search proper starts by ordering the edges; count those calls
    calls = []
    order = solver._bfs_edge_order

    def counted(g):
        calls.append(g.n)
        return order(g)

    monkeypatch.setattr(solver, "_bfs_edge_order", counted)
    return calls


def test_forced_color_prune_skips_odd_order_search(monkeypatch):
    # min degree 2 and t = 3 <= 2 * 2 - 1: every palette holds color 2,
    # whose edges would be a perfect matching on 10,001 vertices
    g = gen_random_outerplanar_subcubic(10001, 1)
    assert g.max_degree == 3
    calls = _count_searches(monkeypatch)
    # a search would raise BudgetExceeded here
    assert find_interval_coloring(g, 3, deadline=time.monotonic() + 1.0) is None
    # pinned palettes are covered too
    assert find_interval_coloring(gen_cycle(5), 3, require_palettes={0: frozenset({1, 2})}) is None
    assert calls == []


def test_forced_color_prune_needs_odd_order_and_small_t(monkeypatch):
    calls = _count_searches(monkeypatch)
    # even n with t <= 2 * min degree - 1
    assert find_interval_coloring(gen_cycle(4), 3) is not None
    assert find_interval_coloring(gen_random_outerplanar_subcubic(12, 0), 3) is not None
    assert len(calls) == 2
    # odd n with t = 2 * min degree
    g = gen_random_outerplanar_subcubic(9, 3)
    assert find_interval_coloring(g, 4) is not None
    assert find_interval_coloring(gen_cycle(5), 4) is None  # the search runs, and fails
    assert len(calls) == 4
