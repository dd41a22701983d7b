"""Interval colorings of triangular fans using exactly max-degree colors.

The fans with n <= 6 come from a base table that the exact solver
derives on first use, once per process; only they load the solver. A
larger fan is colored in closed form, cell by cell. With the ids of
`gen_triangular_fan` (u = 0, v_j = j, w_j = n - 1 + j), let a_j say that
j and n have the same parity. Then (u, v_j) = j + 1 if a_j, else j - 1;
and for each cell v_j, w_j, v_{j+1}: (v_j, v_{j+1}) = j - 1 if a_j, else
j + 1; (v_j, w_j) = j - 3 if a_j, else j; (v_{j+1}, w_j) = j - 2 if a_j,
else j - 1. A few entries in the first cells take fixed values in place
of the formula, one set for each parity of n.

Why that holds for every n >= 7: past the fixed entries, the four
colors at j, on (u, v_j) and on cell j, are those at j - 2 plus 2. So
each fan vertex past the first few sees the palette of the one two
before it plus 2, and each w_j sees two consecutive colors. For a given
parity of n, the first cells are the same at every n. The apex sees
exactly 1..n - 1 and the last fan vertex {n - 4, n - 3, n - 2}. So
checking one period of each parity proves every n. The validator
re-checks every coloring regardless, and since any interval coloring
needs at least max-degree colors, hitting exactly that many certifies
the fan's width.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .coloring import EdgeColoring, check_interval_coloring
from .graphs import Graph, gen_triangular_fan
from .outerplanar import (
    OuterEmbedding,
    recognize_outerplanar_2connected,  # unused here; perfbench/tracing.py wraps it
    separating_triangles,
    verify_embedding,
)


def fan_max_degree(n: int) -> int:
    """Max degree of the n-fan: 3 for the single-cell fan, then the apex
    or an interior fan vertex, whichever is larger."""
    if n < 3:
        raise ValueError(f"fan needs n >= 3, got {n}")
    return 3 if n == 3 else max(n - 1, 5)


@cache
def load_base_table() -> dict[int, EdgeColoring]:
    """The colorings of the fans n = 3..6: the exact solver's first
    solution at t = max degree, so every run yields the same table.
    Derived once per process; color_fan hands out copies of the entries."""
    from .solver import find_interval_coloring

    table: dict[int, EdgeColoring] = {}
    for n in range(3, 7):
        t = fan_max_degree(n)
        col = find_interval_coloring(gen_triangular_fan(n), t)
        if col is None:
            raise AssertionError(f"no interval {t}-coloring of the {n}-fan found")
        table[n] = col
    return table


def _closed_form(n: int) -> EdgeColoring:
    # the module docstring's formula, for n >= 7
    w = n - 1  # w_j is w + j
    colors = {}
    for j in range(2 - n % 2, n - 1, 2):  # a_j: j has the parity of n
        colors[0, j] = j + 1
        colors[j, j + 1] = j - 1
        colors[j, w + j] = j - 3
        colors[j + 1, w + j] = j - 2
    for j in range(1 + n % 2, n - 1, 2):
        colors[0, j] = j - 1
        colors[j, j + 1] = j + 1
        colors[j, w + j] = j
        colors[j + 1, w + j] = j - 1
    colors[0, n - 1] = n - 2  # j = n - 1 has the other parity
    # the fixed entries of the first cells
    if n % 2 == 0:
        colors.update({(0, 1): 2, (0, 3): 1, (1, 2): 4, (1, w + 1): 3, (2, 3): 5,
                       (2, w + 1): 2, (2, w + 2): 1, (3, w + 2): 2})
    else:
        colors.update({(1, 2): 4, (1, w + 1): 3, (2, w + 1): 2, (2, w + 2): 5,
                       (3, w + 2): 6, (3, w + 3): 5, (4, w + 3): 6})
    return EdgeColoring(n - 1, colors)


def color_fan(n: int, g: Graph | None = None) -> EdgeColoring:
    """Interval coloring of the n-fan with exactly max-degree colors.

    The coloring is validated against g, the n-fan graph as
    gen_triangular_fan(n) builds it; a caller that already has that
    graph passes it, and otherwise it is built here.
    """
    if n < 3:
        raise ValueError(f"fan needs n >= 3, got {n}")
    if n <= 6:
        base = load_base_table()[n]
        col = EdgeColoring(base.t, base.assignment)
    else:
        col = _closed_form(n)
    if g is None:
        g = gen_triangular_fan(n)
    bad = check_interval_coloring(g, col)
    if bad is not None:
        raise AssertionError(f"fan coloring invalid at n={n}: {bad.describe()}")
    if col.t != fan_max_degree(n):
        raise AssertionError(f"fan coloring used {col.t} colors at n={n}")
    return col


class FanReport(NamedTuple):
    """What the separating-triangle demonstration found for one fan."""

    n: int
    separating_triangles: tuple[tuple[int, int, int], ...]
    coloring: EdgeColoring
    conclusion: str


def separating_triangle_demo(n: int) -> FanReport:
    """Exhibit a fan with separating triangles that still colors.

    Separating triangles were a candidate obstruction to interval
    colorability of outerplanar triangulations; the n-fan has n-4 of
    them and an interval coloring with exactly max-degree colors, so
    they obstruct nothing.

    No recognition runs: the outer walk u, v_1, w_1, v_2, ..., w_{n-2},
    v_{n-1} is known from the construction, and verify_embedding checks
    it and puts it in canonical form. A 2-connected outerplanar graph has
    one Hamiltonian cycle, so that is the embedding recognition gives.
    """
    if n < 5:
        raise ValueError(f"demo needs n >= 5 for a nonempty triangle list, got {n}")
    g = gen_triangular_fan(n)
    walk = [0]
    for i in range(1, n - 1):
        walk += (i, n - 1 + i)
    walk.append(n - 1)
    emb = verify_embedding(g, walk)
    if not isinstance(emb, OuterEmbedding):
        raise AssertionError(f"fan walk failed verification: {emb.reason}")
    tris = tuple(separating_triangles(emb))
    if len(tris) != n - 4:
        raise AssertionError(f"expected {n - 4} separating triangles, found {len(tris)}")
    col = color_fan(n, g)
    conclusion = (
        f"the {n}-fan has {len(tris)} separating triangle(s) yet admits an "
        f"interval {col.t}-coloring, so a separating triangle does not force "
        f"non-colorability"
    )
    return FanReport(n, tris, col, conclusion)
