"""Acceptance suite: one test per top-level guarantee, one PASS/FAIL line each.

Run with -s (or read failure output) to see the per-criterion lines. Each
criterion collects its defects and reports once, so a red line names the
first few concrete witnesses instead of stopping at an opaque assert.
"""

import itertools
import random
import time

from outercolor.coloring import EdgeColoring, check_interval_coloring
from outercolor.fan import color_fan, load_base_table, separating_triangle_demo
from outercolor.graphs import (
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
    verify_embedding,
)
from outercolor.peel import color_subcubic_le4_traced
from outercolor.solver import ParityCertificate, find_interval_coloring, width
from outercolor.subcubic import color_optimal_subcubic


def report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def corpus():
    for n in range(4, 15):
        for seed in range(19):
            yield n, seed, gen_random_outerplanar_subcubic(n, seed)


def test_criterion_1_optimal_subcubic_corpus():
    started = time.monotonic()
    problems = []
    count = 0
    widths_checked = 0
    for n, seed, g in corpus():
        count += 1
        col = color_optimal_subcubic(g)
        bad = check_interval_coloring(g, col)
        if bad is not None:
            problems.append(f"n={n} seed={seed}: {bad.describe()}")
            continue
        want = 3 if n % 2 == 0 else 4
        if col.t != want:
            problems.append(f"n={n} seed={seed}: got {col.t} colors, wanted {want}")
        if n <= 10:
            widths_checked += 1
            out = width(g)
            if not isinstance(out, EdgeColoring) or out.t != col.t:
                problems.append(f"n={n} seed={seed}: solver disagrees ({out!r})")
    elapsed = time.monotonic() - started
    if count < 200:
        problems.append(f"corpus too small: {count}")
    if elapsed >= 120:
        problems.append(f"took {elapsed:.1f}s, budget 120s")
    report(
        not problems,
        "criterion 1 (optimal colors on random corpus)",
        "; ".join(problems[:3])
        or f"{count} graphs, 3-even/4-odd validated, solver agrees on {widths_checked}, {elapsed:.1f}s",
    )


def enumerate_small_outerplanar_subcubic(max_edges):
    """All 2-connected subcubic outerplanar graphs with <= max_edges edges,
    one per dihedral class of (cycle length, chord set)."""
    seen = set()
    out = []
    for n in range(3, max_edges + 1):
        candidates = [
            (i, j)
            for i in range(n)
            for j in range(i + 2, n)
            if not (i == 0 and j == n - 1)
        ]
        for size in range(0, max_edges - n + 1):
            for chords in itertools.combinations(candidates, size):
                ends = [v for e in chords for v in e]
                if len(set(ends)) != len(ends):
                    continue
                if any(
                    a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]
                    for a, b in itertools.combinations(chords, 2)
                ):
                    continue
                forms = []
                for flip in (False, True):
                    for rot in range(n):
                        mapped = []
                        for i, j in chords:
                            a = ((-i if flip else i) + rot) % n
                            b = ((-j if flip else j) + rot) % n
                            mapped.append((min(a, b), max(a, b)))
                        forms.append(tuple(sorted(mapped)))
                key = (n, min(forms))
                if key in seen:
                    continue
                seen.add(key)
                edges = [norm_edge(i, (i + 1) % n) for i in range(n)] + list(chords)
                out.append(make_graph(n, edges))
    return out


def test_criterion_2_le4_bound():
    problems = []
    graphs = list(g for _, _, g in corpus()) + enumerate_small_outerplanar_subcubic(8)
    enumerated = len(graphs) - 209
    odd_cycles = 0
    for g in graphs:
        if g.m == g.n and g.n % 2 == 1 and g.max_degree == 2:
            # odd cycles are the one excluded case: nothing to bound,
            # they have no interval coloring at any t
            odd_cycles += 1
            if width(g) != ParityCertificate(g.n, g.m, None):
                problems.append(f"odd C{g.n} not certified uncolorable")
            continue
        col, _ = color_subcubic_le4_traced(g)
        bad = check_interval_coloring(g, col)
        if bad is not None:
            problems.append(f"n={g.n} m={g.m}: {bad.describe()}")
        elif col.t > 4:
            problems.append(f"n={g.n} m={g.m}: {col.t} colors")
    report(
        not problems,
        "criterion 2 (at most 4 colors, corpus + exhaustive small)",
        "; ".join(problems[:3])
        or f"{len(graphs)} graphs ({enumerated} enumerated, {odd_cycles} odd cycles certified separately)",
    )


def test_criterion_3_triangle_paths_not_colorable():
    started = time.monotonic()
    problems = []
    for k, l, m in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1)]:
        g = gen_triangle_graph(k, l, m)
        out = width(g)
        if out != ParityCertificate(g.n, g.m, tuple(sorted((k, l, m)))):
            problems.append(f"T({k},{l},{m}): width gave {out!r}")
        # the certificate's claim, recounted on the graph: all degrees
        # even and m odd
        elif g.m % 2 == 0 or any(g.degree(v) % 2 for v in range(g.n)):
            problems.append(f"T({k},{l},{m}): certificate claim fails on the graph")
        # the exhaustion width no longer runs must agree with the certificate
        found = [t for t in range(g.max_degree, g.m + 1) if find_interval_coloring(g, t)]
        if found:
            problems.append(f"T({k},{l},{m}): search colored it at t={found}")
    elapsed = time.monotonic() - started
    if elapsed >= 300:
        problems.append(f"took {elapsed:.1f}s, budget 300s")
    report(
        not problems,
        "criterion 3 (triangle-with-even-paths uncolorable)",
        "; ".join(problems[:3]) or f"5 tuples certified + exhausted, {elapsed:.1f}s",
    )


def test_criterion_4_fan_width_is_max_degree():
    problems = []
    for n in range(3, 31):
        g = gen_triangular_fan(n)
        col = color_fan(n)
        bad = check_interval_coloring(g, col)
        if bad is not None:
            problems.append(f"n={n}: {bad.describe()}")
            continue
        if col.t != g.max_degree:
            problems.append(f"n={n}: {col.t} colors, max degree {g.max_degree}")
        if n >= 4 and col.t != max(n - 1, 5):
            problems.append(f"n={n}: {col.t} != max(n-1, 5)")
        if n <= 6:
            out = width(g)
            if not isinstance(out, EdgeColoring) or out.t != col.t:
                problems.append(f"n={n}: solver width disagrees ({out!r})")
    report(
        not problems,
        "criterion 4 (fan width equals max degree)",
        "; ".join(problems[:3]) or "n=3..30 tight and valid, solver confirms n<=6",
    )


def test_criterion_5_separating_triangles_not_obstructions():
    problems = []
    for n in range(5, 21):
        r = separating_triangle_demo(n)
        if len(r.separating_triangles) != n - 4:
            problems.append(f"n={n}: {len(r.separating_triangles)} triangles")
        g = gen_triangular_fan(n)
        if check_interval_coloring(g, r.coloring) is not None:
            problems.append(f"n={n}: demo coloring invalid")
    report(
        not problems,
        "criterion 5 (separating triangles coexist with colorings)",
        "; ".join(problems[:3]) or "n=5..20 report n-4 triangles + valid coloring",
    )


def test_criterion_6_validator_properties():
    problems = []

    # (a) a valid coloring moved up by k >= 1 (t + k colors) leaves color 1
    # unused, and one moved below 1 puts a color out of range
    rng = random.Random(20240817)
    for _ in range(100):
        n = rng.randrange(4, 10)
        g = gen_random_outerplanar_subcubic(n, rng.randrange(10_000))
        col = color_optimal_subcubic(g)
        k = rng.randrange(1, 6)
        up = check_interval_coloring(
            g, EdgeColoring(col.t + k, {e: c + k for e, c in col.assignment.items()})
        )
        down = check_interval_coloring(
            g, EdgeColoring(col.t, {e: c - k for e, c in col.assignment.items()})
        )
        if up is None or (up.kind, up.color) != ("color-unused", 1):
            problems.append(f"n={n}: moved up by {k}, verdict {up}")
        if down is None or down.kind != "color-out-of-range":
            problems.append(f"n={n}: moved down by {k}, verdict {down}")

    # (b) interval structure is not permutation-invariant: every fan base
    # coloring with t >= 3 has a relabeling of colors the validator rejects
    for n, col in sorted(load_base_table().items()):
        if col.t < 3:
            continue
        g = gen_triangular_fan(n)
        rejected = None
        for perm in itertools.permutations(range(1, col.t + 1)):
            mapped = EdgeColoring(
                col.t, {e: perm[c - 1] for e, c in col.assignment.items()}
            )
            if check_interval_coloring(g, mapped) is not None:
                rejected = perm
                break
        if rejected is None:
            problems.append(f"base fan {n}: every color permutation accepted")

    # (c) solver verdicts do not depend on vertex names
    rng = random.Random(99)
    small = [
        gen_cycle(4),
        gen_cycle(5),
        gen_cycle(6),
        gen_cycle(7),
        make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]),
        make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)]),
        gen_triangular_fan(3),
        gen_triangular_fan(4),
        gen_triangle_graph(1, 1, 1),
    ]
    for g in small:
        assert g.m <= 10
        base = width(g)
        base_key = (type(base).__name__, base.t if isinstance(base, EdgeColoring) else None)
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            out = width(h)
            key = (type(out).__name__, out.t if isinstance(out, EdgeColoring) else None)
            if key != base_key:
                problems.append(f"m={g.m}: verdict {base_key} became {key}")
    report(
        not problems,
        "criterion 6 (validator property suite)",
        "; ".join(problems[:3])
        or "shift rejection x100, permutation rejection, relabeling x20",
    )


def crossings_quadratic(order, chords):
    pos = {v: i for i, v in enumerate(order)}
    placed = [tuple(sorted((pos[u], pos[v]))) for u, v in chords]
    hits = []
    for a, b in itertools.combinations(placed, 2):
        if a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]:
            hits.append((a, b))
    return hits


def test_criterion_7_recognition_soundness():
    problems = []
    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    k23 = make_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    for name, g in (("K4", k4), ("K23", k23)):
        if not isinstance(recognize_outerplanar_2connected(g), Rejection):
            problems.append(f"{name} accepted")

    accepted = 0
    family = (
        [gen_cycle(n) for n in range(3, 13)]
        + [gen_triangular_fan(n) for n in range(3, 13)]
        + [gen_triangle_graph(k, l, m) for k, l, m in [(1, 1, 1), (2, 1, 2), (3, 2, 1)]]
        + [g for _, _, g in corpus()]
    )
    for g in family:
        emb = recognize_outerplanar_2connected(g)
        if not isinstance(emb, OuterEmbedding):
            problems.append(f"family graph n={g.n} m={g.m} rejected: {emb.reason}")
            continue
        accepted += 1
        if not isinstance(verify_embedding(g, list(emb.order)), OuterEmbedding):
            problems.append(f"n={g.n} m={g.m}: embedding fails re-verification")
        hits = crossings_quadratic(emb.order, emb.chords)
        if hits:
            problems.append(f"n={g.n} m={g.m}: crossing chords {hits[0]}")
    report(
        not problems,
        "criterion 7 (recognition soundness)",
        "; ".join(problems[:3])
        or f"K4/K23 rejected, {accepted} family graphs accepted + independently re-checked",
    )
