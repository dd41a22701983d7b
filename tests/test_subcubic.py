import random

import pytest

import outercolor.peel
from outercolor import subcubic
from outercolor.coloring import check_interval_coloring
from outercolor.graphs import (
    gen_cycle,
    gen_random_outerplanar_subcubic,
    gen_triangular_fan,
    make_graph,
    norm_edge,
)
from outercolor.outerplanar import OuterEmbedding, recognize_outerplanar_2connected
from outercolor.solver import Colored, find_interval_coloring, width
from outercolor.subcubic import (
    ColoringPreconditionError,
    PairConfig,
    color_even_hamiltonian,
    color_optimal_subcubic,
    color_subcubic_le4_traced,
    find_reducible_config,
)


def chorded_hexagon():
    return make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])


def house():
    # 5-cycle with one chord, odd order
    return make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])


def test_even_cycle_two_colors():
    col = color_subcubic_le4_traced(gen_cycle(6))[0]
    assert col.t == 2
    assert check_interval_coloring(gen_cycle(6), col) is None


def test_diamond_base_case():
    g = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    col = color_subcubic_le4_traced(g)[0]
    assert col.t <= 4
    assert check_interval_coloring(g, col) is None
    # the exact solver agrees such a coloring exists at this t
    assert find_interval_coloring(g, col.t) is not None


def test_chorded_hexagon_construction():
    g = chorded_hexagon()
    col = color_subcubic_le4_traced(g)[0]
    assert col.t <= 4
    assert check_interval_coloring(g, col) is None


def test_chorded_hexagon_trace():
    g = chorded_hexagon()
    col, steps = color_subcubic_le4_traced(g)
    assert [s.case for s in steps] == ["Case12", "BaseEvenCycle"]
    assert steps[0].removed == (1, 2)
    assert steps[0].attachments == (0, 3)
    assert steps[0].depth == 0 and steps[1].depth == 1
    # the splice lands on the hand-computed coloring
    assert col.assignment == {
        (0, 1): 3, (1, 2): 2, (2, 3): 3, (0, 3): 1, (3, 4): 2, (4, 5): 1, (0, 5): 2,
    }


def test_house_odd_cycle_splice():
    g = house()
    col, steps = color_subcubic_le4_traced(g)
    assert check_interval_coloring(g, col) is None
    assert col.t == 4
    assert any(s.case == "Case12OddCycle" for s in steps)


def test_triangle_contraction_path():
    # C8 with chords (0,2) and (4,6): every cycle edge touches a chord
    # endpoint, so no degree-2 pair exists and the triangle case fires
    g = make_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0),
         (0, 2), (4, 6)],
    )
    col, steps = color_subcubic_le4_traced(g)
    assert check_interval_coloring(g, col) is None
    assert col.t <= 4
    assert steps[0].case == "Case2"
    assert steps[0].removed == (0, 1, 2)
    assert steps[0].attachments == (7, 3)


def test_trace_cases_are_known_tags():
    allowed = {
        "Case11", "Case12", "Case12OddCycle", "Case2", "BaseSmall", "BaseEvenCycle",
    }
    for n in range(4, 14):
        for seed in range(5):
            g = gen_random_outerplanar_subcubic(n, seed)
            col, steps = color_subcubic_le4_traced(g)
            assert check_interval_coloring(g, col) is None
            assert {s.case for s in steps} <= allowed
            assert steps, "every run records at least the base case"


def test_random_corpus_validates_at_most_4():
    tags = set()
    for n in range(4, 15):
        for seed in range(10):
            g = gen_random_outerplanar_subcubic(n, seed)
            col, steps = color_subcubic_le4_traced(g)
            assert col.t <= 4
            assert check_interval_coloring(g, col) is None
            tags |= {s.case for s in steps}
    # the corpus reaches every case the peel can take
    assert tags == {"Case11", "Case12", "Case12OddCycle", "Case2", "BaseSmall", "BaseEvenCycle"}


def test_even_hamiltonian_exact_assignment():
    g = chorded_hexagon()
    emb = recognize_outerplanar_2connected(g)
    assert isinstance(emb, OuterEmbedding)
    col = color_even_hamiltonian(g, emb)
    assert col.assignment == {
        (0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 4): 2, (4, 5): 1, (0, 5): 2, (0, 3): 3,
    }
    assert check_interval_coloring(g, col) is None


def test_even_hamiltonian_more_chords():
    g = make_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0),
         (0, 3), (4, 7)],
    )
    emb = recognize_outerplanar_2connected(g)
    col = color_even_hamiltonian(g, emb)
    assert col.t == 3
    assert check_interval_coloring(g, col) is None


def test_even_hamiltonian_smallest():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    emb = recognize_outerplanar_2connected(g)
    col = color_even_hamiltonian(g, emb)
    assert col.t == 3
    assert check_interval_coloring(g, col) is None


def test_even_hamiltonian_preconditions():
    g = house()
    emb = recognize_outerplanar_2connected(g)
    with pytest.raises(ColoringPreconditionError):
        color_even_hamiltonian(g, emb)  # odd order
    fan6, _ = gen_triangular_fan(6)
    emb6 = recognize_outerplanar_2connected(fan6)
    with pytest.raises(ColoringPreconditionError, match="max degree must be 2 or 3"):
        color_even_hamiltonian(fan6, emb6)  # max degree 5
    # an even cycle has no chords and gets 2 colors
    c6 = gen_cycle(6)
    col = color_even_hamiltonian(c6, recognize_outerplanar_2connected(c6))
    assert col.t == 2
    assert check_interval_coloring(c6, col) is None


def test_optimal_even_is_three():
    w, col = color_optimal_subcubic(chorded_hexagon())
    assert w == 3 and col.t == 3
    assert check_interval_coloring(chorded_hexagon(), col) is None


def test_optimal_odd_is_four_and_solver_confirms():
    g = house()
    w, col = color_optimal_subcubic(g)
    assert w == 4 and col.t == 4
    assert check_interval_coloring(g, col) is None
    # no interval 3-coloring exists at odd order
    assert find_interval_coloring(g, 3) is None


def test_optimal_odd_recognizes_once(monkeypatch):
    calls = []
    recognize = subcubic.recognize_outerplanar_2connected
    monkeypatch.setattr(
        subcubic, "recognize_outerplanar_2connected", lambda g: calls.append(g) or recognize(g)
    )
    assert color_optimal_subcubic(house())[0] == 4
    assert len(calls) == 1


def test_optimal_matches_solver_width_small():
    for n in range(4, 10):
        for seed in range(4):
            g = gen_random_outerplanar_subcubic(n, seed)
            w, col = color_optimal_subcubic(g)
            assert check_interval_coloring(g, col) is None
            out = width(g)
            assert isinstance(out, Colored)
            assert out.t == w


def test_optimal_parity_rule():
    for n in range(4, 15):
        for seed in range(6):
            g = gen_random_outerplanar_subcubic(n, seed)
            w, col = color_optimal_subcubic(g)
            assert w == (3 if n % 2 == 0 else 4)
            assert col.t == w
            assert check_interval_coloring(g, col) is None


def test_precondition_errors():
    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    fan5, _ = gen_triangular_fan(5)
    for entry in (color_subcubic_le4_traced, color_optimal_subcubic):
        with pytest.raises(ColoringPreconditionError, match="edge-bound"):
            entry(k4)
        with pytest.raises(ColoringPreconditionError, match="odd cycle"):
            entry(gen_cycle(5))
        with pytest.raises(ColoringPreconditionError, match="degree"):
            entry(fan5)
        with pytest.raises(ColoringPreconditionError, match="not a 2-connected"):
            entry(make_graph(4, [(0, 1), (2, 3)]))
    # an even cycle, max degree 2, takes the even construction and gets
    # the 2-coloring the peel gives it
    rng = random.Random(6)
    cycles = [gen_cycle(6)]
    for n in range(4, 41, 2):
        labels = list(range(n))
        rng.shuffle(labels)
        cycles.append(make_graph(n, [(labels[i], labels[(i + 1) % n]) for i in range(n)]))
    for g in cycles:
        t, col = color_optimal_subcubic(g)
        assert t == 2
        assert col == color_subcubic_le4_traced(g)[0]


def test_deep_recursion_long_cycle_one_chord():
    edges = [(i, (i + 1) % 20) for i in range(20)] + [(0, 9)]
    g = make_graph(20, edges)
    col, steps = color_subcubic_le4_traced(g)
    assert check_interval_coloring(g, col) is None
    assert col.t <= 4
    assert len(steps) >= 5
    assert [s.depth for s in steps] == list(range(len(steps)))


def test_peel_scales_past_the_recursion_limit():
    # 2001-cycle plus chords (i, i+2) for i = 0, 4, 8, ...: about 1000
    # levels, deeper than the default recursion limit
    n = 2001
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + 2) for i in range(0, n - 2, 4)]
    g = make_graph(n, edges)
    col, steps = color_subcubic_le4_traced(g)
    assert col.t == 4
    assert check_interval_coloring(g, col) is None
    assert [s.depth for s in steps] == list(range(len(steps)))
    assert {"Case11", "Case2"} <= {s.case for s in steps}


def test_peel_picks_what_find_reducible_config_picks():
    # rebuild every level as its own graph, ids compressed, and check the
    # recorded step, which is in input ids, against the reference
    # configuration search mapped back to input ids
    cases = set()
    for n in range(7, 40, 4):
        for seed in range(3):
            g = gen_random_outerplanar_subcubic(n, seed)
            _, steps = color_subcubic_le4_traced(g)
            cases |= {s.case for s in steps}
            level = g
            ids = list(range(g.n))  # compressed id at this level -> input id
            for step in steps:
                if step.case.startswith("Base"):
                    assert step is steps[-1]
                    break
                cfg = find_reducible_config(level)
                edges = set(level.edges)
                if isinstance(cfg, PairConfig):
                    u, v, x, y = cfg.u, cfg.v, cfg.x, cfg.y
                    assert step.case.startswith("Case12" if level.has_edge(x, y) else "Case11")
                    assert (step.removed, step.attachments) == (
                        (ids[u], ids[v]), (ids[x], ids[y])
                    )
                    edges -= {norm_edge(u, x), norm_edge(u, v), norm_edge(v, y)}
                    if step.case == "Case11":
                        edges.add(norm_edge(x, y))
                else:
                    u, v, w = cfg.u, cfg.v, cfg.w
                    (a,) = set(level.neighbors(u)) - {v, w}
                    (b,) = set(level.neighbors(w)) - {u, v}
                    assert step.case == "Case2"
                    assert (step.removed, step.attachments) == (
                        (ids[u], ids[v], ids[w]), (ids[a], ids[b])
                    )
                    edges -= {norm_edge(u, v), norm_edge(u, w), norm_edge(v, w), norm_edge(w, b)}
                    edges.add(norm_edge(u, b))
                if step.case == "Case12OddCycle":
                    assert step is steps[-1]
                    break
                verts = sorted({z for e in edges for z in e})
                index = {z: i for i, z in enumerate(verts)}
                level = make_graph(len(verts), [(index[p], index[q]) for p, q in edges])
                ids = [ids[z] for z in verts]
    # every reducing case was checked
    assert cases == {"Case11", "Case12", "Case12OddCycle", "Case2"}


@pytest.mark.parametrize(
    "rule, case", [
        ("_splice_pair_new_edge", "Case11"),
        ("_splice_pair_kept_edge", "Case12"),
        ("_splice_triangle", "Case2"),
    ],
)
def test_wrong_splice_color_fails_at_its_depth(monkeypatch, rule, case):
    # the up loop splices the deepest level first, so the first faulty
    # splice of a rule is the deepest step of its case; the graph is the
    # first n = 41 corpus graph whose peel applies all three rules
    for seed in range(50):
        g = gen_random_outerplanar_subcubic(41, seed)
        _, steps = color_subcubic_le4_traced(g)
        if {"Case11", "Case12", "Case2"} <= {s.case for s in steps}:
            break
    depth = max(s.depth for s in steps if s.case == case)
    original = getattr(outercolor.peel, rule)

    def faulty(peel, u, v, x_or_w, *rest):
        original(peel, u, v, x_or_w, *rest)
        # uv takes the color of u's other restored edge: u is not proper
        peel.paint(u, v, peel.at[u][x_or_w])

    monkeypatch.setattr(outercolor.peel, rule, faulty)
    with pytest.raises(AssertionError, match=rf"{case} splice at depth {depth}: not-proper"):
        color_subcubic_le4_traced(g)


def c9_two_chords():
    # its peel cuts the pair 7, 8 between 6 and 0 at depth 0 (Case11), so
    # that splice is the last one the up loop makes
    return make_graph(9, [(i, (i + 1) % 9) for i in range(9)] + [(0, 2), (4, 6)])


@pytest.mark.parametrize(
    "fault, found",
    [
        (lambda peel, u, v, x, y: peel.unpaint(u, v), "uncolored-edge edge=(7, 8)"),
        (lambda peel, u, v, x, y: peel.paint(u, v, 9), "not-interval vertex=7"),
        # one colored pair too many, which is no edge of the level
        (lambda peel, u, v, x, y: peel.paint(u, y, 1), "unknown-edge edge=(0, 7)"),
        # a real edge's color moved onto a non-edge: the validator names
        # the edge left uncolored before the colored non-edge
        (lambda peel, u, v, x, y: peel.paint(u, y, peel.unpaint(3, 4)),
         "uncolored-edge edge=(3, 4)"),
    ],
    ids=["uncolored", "gap", "extra-edge", "moved-edge"],
)
def test_each_splice_check_names_its_fault(monkeypatch, fault, found):
    original = outercolor.peel._splice_pair_new_edge

    def faulty(peel, u, v, x, y):
        original(peel, u, v, x, y)
        fault(peel, u, v, x, y)

    monkeypatch.setattr(outercolor.peel, "_splice_pair_new_edge", faulty)
    with pytest.raises(AssertionError) as exc:
        color_subcubic_le4_traced(c9_two_chords())
    assert str(exc.value) == f"splice broke the coloring at Case11 splice at depth 0: {found}"
