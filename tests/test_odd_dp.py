"""The odd-order dynamic program against the validator.

`subcubic.color_odd_subcubic` colors every 2-connected outerplanar graph
with maximum degree 3 and odd order. Each coloring here must pass
`check_interval_coloring` with exactly 4 colors: on every chord set of
C_n for odd n <= 13, on random graphs up to n = 1001, and on one graph
of 100,001 vertices. The exhaustive run also bounds the per-process
caches of the relation helpers by the relations reachable from the
identity. The exhaustive check runs further as a script:

    PYTHONPATH=src python tests/test_odd_dp.py 19
"""

import io
import sys
import time

import pytest

from outercolor import cli, subcubic
from outercolor.coloring import check_interval_coloring
from outercolor.graphs import gen_random_outerplanar_subcubic, make_graph, write_edge_list
from outercolor.subcubic import color_optimal_subcubic


def matchings(lo: int, hi: int):
    """Every set of pairwise disjoint, non-crossing pairs on lo..hi."""
    if lo >= hi:
        yield []
        return
    yield from matchings(lo + 1, hi)
    for k in range(lo + 1, hi + 1):
        for inside in matchings(lo + 1, k - 1):
            for rest in matchings(k + 1, hi):
                yield [(lo, k), *inside, *rest]


def chord_sets(n: int):
    """Every nonempty chord set on C_n that keeps the maximum degree at
    3: a non-crossing matching with no pair of cycle neighbors."""
    for pairs in matchings(0, n - 1):
        if pairs and all(j - i not in (1, n - 1) for i, j in pairs):
            yield pairs


def color_and_check(g) -> None:
    col = color_optimal_subcubic(g)
    assert col.t == 4
    assert check_interval_coloring(g, col) is None


def check_all_chord_sets(n_max: int) -> int:
    count = 0
    for n in range(5, n_max + 1, 2):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        for pairs in chord_sets(n):
            color_and_check(make_graph(n, cycle + pairs))
            count += 1
    return count


def reachable_relations() -> set[int]:
    """Every relation the program can hold: the closure of _IDENTITY
    under both compositions, stepping past a degree-2 vertex and closing
    a chord, computed with the uncached helpers."""
    compose, jump = subcubic._compose.__wrapped__, subcubic._jump.__wrapped__
    seen = {subcubic._IDENTITY}
    frontier = list(seen)
    while frontier:
        r = frontier.pop()
        found = {compose(r, subcubic._DIFFER_BY_ONE)}
        for q in list(seen):
            found |= {compose(q, jump(r)), compose(r, jump(q))}
        frontier += found - seen
        seen |= found
    return seen


def test_every_odd_chord_set_up_to_13():
    caches = (subcubic._compose, subcubic._jump, subcubic._close_chord)
    for cached in caches:
        cached.cache_clear()
    assert check_all_chord_sets(13) == 5366
    # the caches are keyed by reachable relations and colors only: a step
    # or a chord's jump after each relation, and a chord's colors before
    # it (a subset of the 4), its inside and the color after it
    k = len(reachable_relations())
    assert k == 27
    compose, jump, close_chord = (cached.cache_info().currsize for cached in caches)
    assert jump <= k
    assert compose <= k + k * k
    assert close_chord <= 16 * k * 4


@pytest.mark.parametrize("n", [*range(5, 60, 2), 101, 201, 401, 1001])
def test_random_odd_graphs(n):
    for seed in range(20):
        color_and_check(gen_random_outerplanar_subcubic(n, seed))


def test_odd_order_at_100001():
    color_and_check(gen_random_outerplanar_subcubic(100_001, 1))


def test_a_miss_is_an_assertion(monkeypatch):
    # the caches already hold every relation this graph reaches, so the
    # patch below is seen only if nothing cached stands in for _jump
    g = gen_random_outerplanar_subcubic(21, 0)
    color_and_check(g)
    # no pair of colors fits around any chord, so the cycle cannot close
    monkeypatch.setattr(subcubic, "_jump", lambda inside: 0)
    with pytest.raises(AssertionError, match="no interval 4-coloring closes the cycle"):
        color_optimal_subcubic(g)


def test_color_never_runs_the_peel_on_odd_order(capsys, monkeypatch):
    def peel(g):
        raise RuntimeError("the peel ran")

    monkeypatch.setattr(subcubic, "_color_rec", peel)
    g = gen_random_outerplanar_subcubic(41, 3)
    assert g.n % 2 == 1 and g.max_degree == 3
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_edge_list(g)))
    assert cli.main(["color"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert '"t": 4' in out


if __name__ == "__main__":
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 13
    start = time.perf_counter()
    count = check_all_chord_sets(n_max)
    print(f"{count} odd chord sets with n <= {n_max} colored and validated "
          f"in {time.perf_counter() - start:.1f} s")
