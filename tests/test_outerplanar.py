import pytest

from outercolor.graphs import (
    gen_cycle,
    gen_random_outerplanar_subcubic,
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
from outercolor.subcubic import NoConfigError, PairConfig, TriangleConfig, find_reducible_config


def crossings_bruteforce(emb: OuterEmbedding) -> int:
    # independent quadratic re-check of the non-crossing invariant
    pos = {v: i for i, v in enumerate(emb.order)}
    placed = [tuple(sorted((pos[u], pos[v]))) for u, v in emb.chords]
    count = 0
    for i, (p, q) in enumerate(placed):
        for r, s in placed[i + 1:]:
            if p < r < q < s or r < p < s < q:
                count += 1
    return count


def assert_valid_embedding(g, emb: OuterEmbedding):
    n = g.n
    assert len(emb.order) == n and set(emb.order) == set(range(n))
    assert emb.order[0] == 0
    assert emb.order[1] < emb.order[-1]
    cycle = set()
    for i in range(n):
        e = norm_edge(emb.order[i], emb.order[(i + 1) % n])
        assert e in g.edges
        cycle.add(e)
    assert cycle | emb.chords == g.edges
    assert not (cycle & emb.chords)
    assert crossings_bruteforce(emb) == 0


def test_plain_cycle_accepted():
    g = gen_cycle(5)
    emb = recognize_outerplanar_2connected(g)
    assert isinstance(emb, OuterEmbedding)
    assert emb.order == (0, 1, 2, 3, 4)
    assert emb.chords == frozenset()


def test_cycle_with_chord():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    emb = recognize_outerplanar_2connected(g)
    assert isinstance(emb, OuterEmbedding)
    assert emb.order == (0, 1, 2, 3)
    assert emb.chords == frozenset({(0, 2)})


def test_k23_rejected():
    g = make_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    r = recognize_outerplanar_2connected(g)
    assert isinstance(r, Rejection)
    assert r.reason == "order-not-hamiltonian"


def test_k4_rejected_by_edge_bound():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    r = recognize_outerplanar_2connected(g)
    assert isinstance(r, Rejection)
    assert r.reason == "edge-bound"


def test_small_and_disconnected_rejected():
    assert recognize_outerplanar_2connected(make_graph(2, [(0, 1)])).reason == "too-small"
    two = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert recognize_outerplanar_2connected(two).reason == "disconnected"


def test_star_rejected_no_degree_2():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert recognize_outerplanar_2connected(g).reason == "no-degree-2-vertex"


def test_path_rejected():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert recognize_outerplanar_2connected(g).reason == "order-not-hamiltonian"


def test_fan_embedding_matches_construction():
    # TF_5 outer walk is u, v1, w1, v2, w2, v3, w3, v4 with the id scheme
    # u=0, v_i=i, w_i=4+i
    g, _ = gen_triangular_fan(5)
    emb = recognize_outerplanar_2connected(g)
    assert isinstance(emb, OuterEmbedding)
    assert_valid_embedding(g, emb)
    assert emb.order == (0, 1, 5, 2, 6, 3, 7, 4)


def test_fan_internal_edges():
    for n in range(3, 9):
        g, _ = gen_triangular_fan(n)
        emb = recognize_outerplanar_2connected(g)
        assert isinstance(emb, OuterEmbedding)
        want = {norm_edge(0, i) for i in range(2, n - 1)}
        want |= {norm_edge(i, i + 1) for i in range(1, n - 1)}
        assert emb.chords == want


def test_fans_and_random_family_accepted_with_sound_embeddings():
    for n in range(3, 12):
        g, _ = gen_triangular_fan(n)
        emb = recognize_outerplanar_2connected(g)
        assert isinstance(emb, OuterEmbedding)
        assert_valid_embedding(g, emb)
    for n in range(4, 12):
        for seed in range(6):
            g = gen_random_outerplanar_subcubic(n, seed)
            emb = recognize_outerplanar_2connected(g)
            assert isinstance(emb, OuterEmbedding)
            assert_valid_embedding(g, emb)


def test_crossing_chords_rejected_by_verifier():
    # C6 plus chords (0,3) and (1,4) cross in every Hamiltonian order;
    # recognition must not accept
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)])
    r = recognize_outerplanar_2connected(g)
    assert isinstance(r, Rejection)
    # also exercise the verifier directly on the natural order
    v = verify_embedding(g, [0, 1, 2, 3, 4, 5])
    assert isinstance(v, Rejection) and v.reason == "crossing-chords"


def test_verify_embedding_canonicalizes():
    g = gen_cycle(5)
    emb = verify_embedding(g, [2, 1, 0, 4, 3])
    assert isinstance(emb, OuterEmbedding)
    assert emb.order == (0, 1, 2, 3, 4)


def test_separating_triangles_on_fans():
    for n in range(3, 12):
        g, labels = gen_triangular_fan(n)
        emb = recognize_outerplanar_2connected(g)
        tris = separating_triangles(emb)
        assert len(tris) == (n - 4 if n >= 5 else 0)
        names = {v: name for v, name in labels.items()}
        for a, b, c in tris:
            # each separating triangle is u, v_i, v_{i+1}
            roles = sorted(names[x] for x in (a, b, c))
            assert roles[0] == "u"
            assert roles[1].startswith("v") and roles[2].startswith("v")


def test_separating_triangles_chord_square_empty():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    emb = recognize_outerplanar_2connected(g)
    assert separating_triangles(emb) == []


def test_config_pair_on_chorded_hexagon():
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    cfg = find_reducible_config(g)
    assert cfg == PairConfig(u=1, v=2, x=0, y=3)


def test_config_triangle_on_diamond():
    g = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    cfg = find_reducible_config(g)
    assert cfg == TriangleConfig(u=1, v=0, w=2)


def test_config_triangle_on_chorded_square():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    cfg = find_reducible_config(g)
    assert cfg == TriangleConfig(u=0, v=1, w=2)


def test_config_exists_on_random_subcubic_family():
    for n in range(4, 12):
        for seed in range(6):
            g = gen_random_outerplanar_subcubic(n, seed)
            cfg = find_reducible_config(g)
            if isinstance(cfg, PairConfig):
                assert g.degree(cfg.u) == 2 and g.degree(cfg.v) == 2
                assert g.has_edge(cfg.u, cfg.v)
                assert cfg.x != cfg.y
                assert set(g.neighbors(cfg.u)) == {cfg.v, cfg.x}
                assert set(g.neighbors(cfg.v)) == {cfg.u, cfg.y}
            else:
                assert g.has_edge(cfg.u, cfg.v)
                assert g.has_edge(cfg.v, cfg.w)
                assert g.has_edge(cfg.u, cfg.w)
                assert g.degree(cfg.u) == 3
                assert g.degree(cfg.v) == 2
                assert g.degree(cfg.w) == 3


def test_config_error_when_absent():
    with pytest.raises(NoConfigError):
        find_reducible_config(gen_cycle(3))
