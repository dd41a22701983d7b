"""Constructive interval coloring for 2-connected outerplanar graphs
with maximum degree at most 3.

`color_optimal_subcubic` is the one entry: one recognition, then one
construction per parity. Even order alternates 1, 2 around the outer
cycle and gives every chord 3 (`color_even_hamiltonian`), so an even
cycle gets 2 colors and max degree 3 gets 3. Odd order with max degree 3
gets exactly 4 colors from one dynamic program over the chord nesting
(`color_odd_subcubic`).

The peel, a reduction that colors the same class with at most 4 colors,
lives in `peel`. No CLI command runs it, so this module loads it only
when asked for one of its names (see `__getattr__`).
"""

from __future__ import annotations

from functools import cache

from .coloring import EdgeColoring, check_interval_coloring
from .graphs import Edge, Graph, make_graph, norm_edge  # make_graph: for the peel
from .outerplanar import OuterEmbedding, Rejection, recognize_outerplanar_2connected


class ColoringPreconditionError(ValueError):
    """Input outside the algorithm's graph class."""


def _assert_valid(g: Graph, col: EdgeColoring, where: str) -> EdgeColoring:
    bad = check_interval_coloring(g, col)
    if bad is not None:
        raise AssertionError(f"{where} gave an invalid coloring: {bad.describe()}")
    return col


def _coloring_of(assignment: dict[Edge, int]) -> EdgeColoring:
    return EdgeColoring(max(assignment.values()), assignment)


# the peel's names that this module hands out
_PEEL = frozenset({
    "NoConfigError",
    "PairConfig",
    "ReducibleConfig",
    "ReductionStep",
    "TriangleConfig",
    "_color_rec",
    "color_subcubic_le4_traced",
    "find_reducible_config",
})


def __getattr__(name: str):
    # PEP 562: the exact solver and the peel are loaded on first use, and
    # each name is bound here as a global that a tracer or a test may
    # replace. The peel calls `_color_rec` and the solver through these
    # bindings. Nothing here calls either, so `color` loads neither.
    if name == "find_interval_coloring":
        from .solver import find_interval_coloring as value
    elif name in _PEEL:
        from . import peel

        value = getattr(peel, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, value)


def _check_preconditions(g: Graph) -> OuterEmbedding:
    emb = recognize_outerplanar_2connected(g)
    if isinstance(emb, Rejection):
        raise ColoringPreconditionError(
            f"not a 2-connected outerplanar graph: {emb.reason}"
        )
    if g.max_degree > 3:
        raise ColoringPreconditionError(f"max degree {g.max_degree} exceeds 3")
    # a 2-connected graph with as many edges as vertices is a cycle
    if g.m == g.n and g.n % 2 == 1:
        raise ColoringPreconditionError("odd cycles have no interval coloring")
    return emb


def color_even_hamiltonian(g: Graph, emb: OuterEmbedding) -> EdgeColoring:
    """Construction for even order and max degree 2 or 3: alternate 1, 2
    around the outer cycle, give every chord color 3.

    Degree 3 means the chords form a matching, so each chord endpoint
    sees {1, 2, 3} and everything else sees {1, 2}: exactly 3 colors. An
    even cycle has no chords and gets 2. The walk starts at vertex 0 and
    goes toward its lower neighbor (see `OuterEmbedding`), so a cycle
    gets the coloring the peel gives it.
    """
    if g.n % 2 != 0:
        raise ColoringPreconditionError("even order required")
    if not 2 <= g.max_degree <= 3:
        raise ColoringPreconditionError("max degree must be 2 or 3")
    # a record field read is a descriptor call, so the loop reads locals
    order, n = emb.order, g.n
    colors: dict[Edge, int] = {}
    for i in range(n):
        e = norm_edge(order[i], order[(i + 1) % n])
        colors[e] = 1 + (i % 2)
    for e in emb.chords:
        colors[e] = 3
    return _assert_valid(g, _coloring_of(colors), "the even hamiltonian construction")


# ---------------------------------------------------------------------------
# Odd order: one dynamic program over the chord nesting
# ---------------------------------------------------------------------------
#
# A relation between two edges' colors is a 16-bit int: with colors
# 1..4 stored as 0..3, bit 4a + b says "color a on the first edge and
# color b on the second fit together". The helpers are cached on first
# use; only 27 relations are reachable from _IDENTITY, bounding each cache.

_IDENTITY = 0x8421
# the colors that differ by 1 from each color
_NEXT = (0b0010, 0b0101, 0b1010, 0b0100)
_DIFFER_BY_ONE = sum(_NEXT[a] << 4 * a for a in range(4))
# the lowest color in each nonempty set of colors
_LOWEST = tuple((s & -s).bit_length() - 1 for s in range(16))
# for chord color c, the ordered pairs (x, y) that make {x, y, c} three
# consecutive colors
_RUN_PAIRS = tuple(
    tuple(
        (x, y)
        for x in range(4)
        for y in range(4)
        if len({x, y, c}) == 3 and max(x, y, c) - min(x, y, c) == 2
    )
    for c in range(4)
)


@cache
def _compose(r: int, s: int) -> int:
    # (a, b) such that (a, p) is in r and (p, b) in s for some p
    out = 0
    for a in range(4):
        row = r >> 4 * a & 15
        for p in range(4):
            if row >> p & 1:
                out |= (s >> 4 * p & 15) << 4 * a
    return out


@cache
def _jump(inside: int) -> int:
    # (p, q) for the cycle edges p before and q after a chord whose inside
    # path runs from color alpha to color beta as `inside` allows
    out = 0
    for pairs in _RUN_PAIRS:
        for p, alpha in pairs:
            row = inside >> 4 * alpha & 15
            for beta, q in pairs:
                if row >> beta & 1:
                    out |= 1 << 4 * p + q
    return out


@cache
def _close_chord(before: int, inside: int, q: int) -> tuple[int, int, int, int]:
    # (p, alpha, beta, c): colors for the chord and the three cycle edges
    # around it, with p in the set `before` and (alpha, beta) in `inside`
    for c, pairs in enumerate(_RUN_PAIRS):
        for beta, q2 in pairs:
            if q2 != q:
                continue
            for p, alpha in pairs:
                if before >> p & 1 and inside >> 4 * alpha + beta & 1:
                    return p, alpha, beta, c
    raise AssertionError(f"no chord colors fit relation {inside:#06x} and {q + 1} after it")


def color_odd_subcubic(g: Graph, emb: OuterEmbedding) -> EdgeColoring:
    """Interval 4-coloring of odd order with max degree 3, by one exact
    dynamic program over the chord nesting of the embedding.

    The walk starts at a degree-2 root r and numbers the cycle edges
    e_0, ..., e_{n-1} in order, e_0 leaving r and e_{n-1} entering it. At
    degree 3 the chords are a matching and they do not cross, so they
    nest like brackets, and each chord (i, j) has an inside: the cycle
    edges e_i, ..., e_{j-1} and the chords between them. Only the colors
    of e_i and e_{j-1} and of the chord tie the inside to the rest.

    rel[k] is the relation "color of the first edge of the scope of e_k
    -> colors e_k can take", over every coloring of the scope so far that
    is valid at each vertex passed. The scope of e_k is the innermost
    chord spanning it, or the whole cycle with first edge e_0. The first
    edge of a scope relates only to itself. Two compositions move along:

    - past a degree-2 vertex, with "colors differ by 1", the one rule at
      a vertex of degree 2;
    - past the closing end of a chord (i, j), with its jump: p before the
      chord and q after it fit when some chord color c and inside colors
      (alpha, beta) in rel[j-1] make {p, alpha, c} and {beta, c, q} each
      three consecutive colors, the rule at the chord's two ends.

    Each composition keeps exactly the colorings valid so far, so the
    program is exact: it finds a coloring inside 1..4 whenever one
    exists, and the root closes the cycle when e_0 and e_{n-1} differ by
    1. Such a coloring uses all four colors: the colors of an interval
    coloring of a connected graph form one block (see `coloring`), and a
    block of three or fewer would be a 3-coloring, which odd order rules
    out (see `color_optimal_subcubic`). The paper's theorem says the
    coloring exists, so a miss raises AssertionError.

    The colors are traced back from e_{n-1} to e_0 with a stack of scope
    colors; nothing recurses. The relation helpers are cached per
    process, keyed by relations and colors, never by position, so the
    caches stay small at any n and a later call reuses them.
    """
    if g.n % 2 != 1:
        raise ColoringPreconditionError("odd order required")
    if g.max_degree != 3:
        raise ColoringPreconditionError("max degree must be exactly 3")
    order, n = emb.order, g.n
    partner = [-1] * n  # each vertex's chord end
    for u, v in emb.chords:
        partner[u] = v
        partner[v] = u
    # the walk starts at a vertex no chord touches
    root = next(i for i, v in enumerate(order) if partner[v] < 0)
    order = order[root:] + order[:root]

    rel = [_IDENTITY] * n
    mate = [-1] * n  # the other end of each position's chord
    opened: list[int] = []  # the positions of the chords open at k
    r = _IDENTITY
    for k in range(1, n):
        w = partner[order[k]]
        if w < 0:
            r = _compose(r, _DIFFER_BY_ONE)
        elif opened and order[opened[-1]] == w:
            # chords do not cross, so a chord closes the innermost open one
            j = opened.pop()
            mate[j] = k
            mate[k] = j
            r = _compose(rel[j - 1], _jump(r))
        else:
            opened.append(k)
            r = _IDENTITY
        rel[k] = r

    closing = r & _DIFFER_BY_ONE
    if not closing:
        raise AssertionError(f"no interval 4-coloring closes the cycle at {order[0]}")
    first, last = divmod((closing & -closing).bit_length() - 1, 4)

    col = [0] * n  # col[k] is the color of e_k, less 1
    col[n - 1] = last
    chord_col: dict[int, int] = {}  # by closing position
    scope, outer = first, []
    for k in range(n - 1, 0, -1):
        j = mate[k]
        if j < 0:
            col[k - 1] = _LOWEST[rel[k - 1] >> 4 * scope & _NEXT[col[k]]]
        elif j < k:
            before = rel[j - 1] >> 4 * scope & 15
            p, alpha, col[k - 1], chord_col[k] = _close_chord(before, rel[k - 1], col[k])
            col[j - 1] = p
            outer.append(scope)
            scope = alpha
        else:
            scope = outer.pop()

    colors: dict[Edge, int] = {}
    u = order[-1]
    for v, c in zip(order, col[-1:] + col[:-1]):
        colors[(u, v) if u < v else (v, u)] = c + 1
        u = v
    for k, c in chord_col.items():
        u, v = order[k], order[mate[k]]
        colors[(u, v) if u < v else (v, u)] = c + 1
    return _assert_valid(g, _coloring_of(colors), "the odd-order dynamic program")


def color_optimal_subcubic(g: Graph) -> tuple[int, EdgeColoring]:
    """Minimum-color interval coloring for max degree at most 3: two
    colors for an even cycle; at max degree 3, three colors at even order
    and four at odd.

    Odd order cannot do better: a 3-coloring would force the color-2
    edges to form a perfect matching, which odd order rules out.

    Below degree 3 the only 2-connected graphs are cycles. The checks
    reject an odd one, and an even one takes the even construction.
    """
    emb = _check_preconditions(g)
    if g.n % 2 == 0:
        col = color_even_hamiltonian(g, emb)
        return col.t, col
    col = color_odd_subcubic(g, emb)
    if col.t != 4:
        raise AssertionError(f"odd-order construction used {col.t} colors, wanted 4")
    return 4, col
