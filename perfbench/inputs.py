"""Seeded inputs for the benchmark, made apart from the program.

The generator here is the benchmark's own, so a later rewrite of
`outercolor.graphs.gen_random_outerplanar_subcubic` does not change what
is measured. A graph is an outer cycle on polygon positions 0..n-1 plus
pairwise non-crossing, vertex-disjoint chords (so every degree is at most
3), under a random relabelling of the vertices. The chords come from a
random balanced bracket word: each matched pair of brackets is a chord,
so nesting gives non-crossing and one bracket per position gives
vertex-disjointness.

Each workload is a fixed list of operations whose kinds and sizes do not
depend on the seed; the seed only moves chords and relabels vertices.
That keeps the work of one round nearly the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

Edge = tuple[int, int]


@dataclass(frozen=True)
class Instance:
    """A generated graph with what the generator knows about it."""

    n: int
    edges: tuple[Edge, ...]
    outerplanar: bool

    def text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines += [f"{u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


def _balanced_word(rng: random.Random, pairs: int) -> list[int]:
    # +1 opens, -1 closes; rotating a zero-sum word to start just after
    # its lowest prefix sum makes every prefix sum nonnegative
    word = [1] * pairs + [-1] * pairs
    rng.shuffle(word)
    depth, low, cut = 0, 0, 0
    for i, step in enumerate(word):
        depth += step
        if depth < low:
            low, cut = depth, i + 1
    return word[cut:] + word[:cut]


def _chord_positions(rng: random.Random, n: int, pairs: int) -> list[Edge]:
    """Non-crossing, vertex-disjoint chords on polygon positions 0..n-1."""
    word = _balanced_word(rng, pairs)
    # gaps[i] is the count of chord-free positions before token i (the
    # last gap trails the word). A chord must skip at least one position,
    # and position 0 stays chord-free so that (0, n-1) is never a chord.
    gaps = [0] * (len(word) + 1)
    gaps[0] = 1
    for i in range(len(word) - 1):
        if word[i] == 1 and word[i + 1] == -1:
            gaps[i + 1] = 1
    spare = n - len(word) - sum(gaps)
    if spare < 0:
        raise ValueError(f"{pairs} chords do not fit on {n} vertices")
    for _ in range(spare):
        gaps[rng.randrange(len(gaps))] += 1
    chords: list[Edge] = []
    stack: list[int] = []
    pos = 0
    for i, step in enumerate(word):
        pos += gaps[i]
        if step == 1:
            stack.append(pos)
        else:
            chords.append((stack.pop(), pos))
        pos += 1
    return chords


def _relabelled(rng: random.Random | None, n: int, edges, outerplanar: bool) -> Instance:
    """The graph under a random relabelling, or as given when rng is None."""
    label = list(range(n))
    if rng is not None:
        rng.shuffle(label)
    out = sorted(
        (min(label[a], label[b]), max(label[a], label[b])) for a, b in edges
    )
    return Instance(n, tuple(out), outerplanar)


def max_chords(n: int) -> int:
    """Most chords the generator can place on n vertices."""
    return (n - 1) // 3


def outerplanar_subcubic(rng: random.Random, n: int, chords: int) -> Instance:
    """2-connected outerplanar graph, max degree 3 when chords >= 1."""
    if n < 4 or not 1 <= chords <= max_chords(n):
        raise ValueError(f"cannot place {chords} chords on {n} vertices")
    cycle = [(i, (i + 1) % n) for i in range(n)]
    return _relabelled(rng, n, cycle + _chord_positions(rng, n, chords), True)


def crossing_subcubic(rng: random.Random, n: int, chords: int) -> Instance:
    """An outerplanar_subcubic graph plus one chord that crosses another.

    Both ends of the extra chord are chord-free positions, so the maximum
    degree stays 3 and the edge count stays under 2n-3; the recognizer
    has to reduce the graph before it can reject it.
    """
    base = _chord_positions(rng, n, chords)
    used = {p for c in base for p in c}
    a, b = base[rng.randrange(len(base))]
    inside = [p for p in range(a + 1, b) if p not in used]
    outside = [p for p in range(n) if not a <= p <= b and p not in used]
    for _ in range(100):
        p, q = rng.choice(inside), rng.choice(outside)
        if (q - p) % n not in (1, n - 1):
            break
    else:
        raise ValueError("no crossing chord found")
    cycle = [(i, (i + 1) % n) for i in range(n)]
    return _relabelled(rng, n, cycle + base + [(min(p, q), max(p, q))], False)


def fan_edges(n: int) -> set[Edge]:
    """The n-fan with the ids the program documents: apex 0, fan path
    v_i = i for 1 <= i <= n-1, and w_i = n-1+i inside cell v_i v_{i+1}."""
    edges = {(0, i) for i in range(1, n)}
    for i in range(1, n - 1):
        w = n - 1 + i
        edges |= {(i, w), (i + 1, w), (i, i + 1)}
    return edges


def tklm_edges(k: int, l: int, m: int) -> set[Edge]:
    """T_{k,l,m}: triangle 0, 1, 2 with each side paralleled by a path of
    even length 2k, 2l, 2m through new vertices."""
    edges = {(0, 1), (1, 2), (0, 2)}
    nxt = 3
    for length, a, b in ((2 * k, 0, 1), (2 * l, 1, 2), (2 * m, 0, 2)):
        path = [a, *range(nxt, nxt + length - 1), b]
        nxt += length - 1
        edges |= {(min(p, q), max(p, q)) for p, q in zip(path, path[1:])}
    return edges


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One CLI call. stdin is text, or the output of the op named by
    `stdin_from` in the same round. `expect` is the exit code a correct
    program gives; `meta` is what the independent checks need. An op with
    `request` set is the second half of that op's request: `verify` after
    `color` is one request, and its latency is the two calls together."""

    name: str
    argv: list[str]
    expect: int
    stdin: str | None = None
    stdin_from: str | None = None
    request: str | None = None
    meta: dict = field(default_factory=dict)


def _graph_meta(inst: Instance, **extra) -> dict:
    return {"n": inst.n, "edges": [list(e) for e in inst.edges], **extra}


def _color_verify(ops: list[Op], tag: str, inst: Instance) -> None:
    meta = _graph_meta(inst)
    ops.append(Op(f"color/{tag}", ["color"], 0, stdin=inst.text(), meta=meta))
    ops.append(Op(f"verify/{tag}", ["verify"], 0, stdin_from=f"color/{tag}",
                  request=f"color/{tag}", meta=meta))


def _even_order(rng: random.Random, scale: int) -> list[Op]:
    ops: list[Op] = []
    for n in (128, 256, 512, 1024, 2048, 3072):
        n //= scale
        _color_verify(ops, f"n{n}", outerplanar_subcubic(rng, n, max(1, n // 6)))
    for n in (256, 1024, 2048):
        n //= scale
        for inst in (outerplanar_subcubic(rng, n, n // 6), crossing_subcubic(rng, n, n // 6)):
            kind = "accept" if inst.outerplanar else "reject"
            ops.append(Op(f"recognize/{kind}/n{n}", ["recognize"], 0 if inst.outerplanar else 1,
                          stdin=inst.text(), meta=_graph_meta(inst, outerplanar=inst.outerplanar)))
    # The program's generator flips a coin between dense and sparse chord
    # sets, and its cost moves by 20% with its seed, so the gen calls use
    # fixed program seeds: the seed of the benchmark does not touch them.
    for n in (128, 256, 512, 1024):
        n //= scale
        for seed in (1, 2):
            ops.append(Op(f"gen/n{n}/s{seed}", ["gen", "--family", "random", "--n", str(n),
                                                "--seed", str(seed)], 0,
                          meta={"n": n, "seed": seed}))
    for n in (64, 256, 1024):
        n //= scale
        ops.append(Op(f"fan/n{n}", ["fan", "--n", str(n)], 0, meta={"n": n}))
    # demo-axenovich recurses once per nested face: n stays well below the
    # depth where it ends in RecursionError
    for n in (64, 128, 256):
        n //= scale
        ops.append(Op(f"demo/n{n}", ["demo-axenovich", "--n", str(n)], 0, meta={"n": n}))
    return ops


def _odd_order(rng: random.Random, scale: int) -> list[Op]:
    # the peel recurses once per level, about n/2 levels: n stays well
    # below the size (about 700) where it ends in RecursionError
    ops: list[Op] = []
    shapes = {
        "sparse": lambda n: max(1, n // 24),
        "medium": lambda n: n // 6,
        "dense": max_chords,
    }
    for n in (101, 151, 201, 301, 401):
        n = n // scale | 1
        for shape, count in shapes.items():
            _color_verify(ops, f"{shape}/n{n}", outerplanar_subcubic(rng, n, count(n)))
    return ops


def _width_ladder(rng: random.Random, scale: int) -> list[Op]:
    graphs: list[tuple[str, Instance, int | None, tuple[int, ...], dict]] = []
    # (tag, graph, width or None when not colorable, fixed-t searches, meta)
    for k, l, m in ((1, 1, 1), (1, 1, 2), (1, 2, 2)) if scale == 1 else ((1, 1, 1),):
        n = 2 * (k + l + m)
        inst = _relabelled(None, n, sorted(tklm_edges(k, l, m)), False)
        graphs.append((f"tklm/{k}{l}{m}", inst, None, (4, 5), {"k": k, "l": l, "m": m}))
    # Searches take from 1x to 70x as long (exhaustive) or up to 25x as
    # long (first solution, even n=32) under another labelling of the same
    # shape, so these graphs are a fixed corpus that the seed does not
    # touch; otherwise wall_s and op_p50_ms would measure the seed.
    fixed = random.Random("width-ladder:fixed-corpus")
    for n in (31, 35, 41, 45) if scale == 1 else (9,):
        graphs.append((f"odd/n{n}", outerplanar_subcubic(fixed, n, max_chords(n)), 4, (3, 4), {}))
    # First-solution searches at t = max degree are over half the calls,
    # so op_p50_ms is the latency of a small query. The seed relabels the
    # cycles, whose search cost does not depend on labels.
    for n in (12, 16, 20, 24, 28, 32) if scale == 1 else (8,):
        graphs.append((f"even/n{n}", outerplanar_subcubic(fixed, n, n // 6), 3, (3,), {}))
    for n in (20, 40, 60, 80) if scale == 1 else (8,):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        graphs.append((f"cycle/n{n}", _relabelled(rng, n, cycle, True), 2, (2,), {}))
    for n in (5, 6, 7) if scale == 1 else (5,):
        inst = _relabelled(None, 2 * n - 2, sorted(fan_edges(n)), True)
        t = max(sum(v in e for e in inst.edges) for v in range(inst.n))  # max degree
        graphs.append((f"fan/n{n}", inst, t, (t,), {}))
    ops: list[Op] = []
    for tag, inst, t, fixed_t, extra in graphs:
        meta = _graph_meta(inst, t=t, **extra)
        ops.append(Op(f"width/{tag}", ["width"], 0 if t else 1, stdin=inst.text(), meta=meta))
        for ft in fixed_t:
            ops.append(Op(f"exact{ft}/{tag}", ["color", "--method", "exact", "--t", str(ft)],
                          0 if ft == t else 1, stdin=inst.text(), meta=meta))
    return ops


WORKLOADS = {
    "even-order": _even_order,
    "odd-order": _odd_order,
    "width-ladder": _width_ladder,
}


def workload_ops(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """The fixed operation list of one round of a workload."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), 8 if tiny else 1)
