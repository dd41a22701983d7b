"""Interval colorings of triangular fans using exactly max-degree colors.

Small fans (n <= 8) come from a base table that the exact solver derives
under constraints on first use, once per process; larger fans grow from
the n=7 or n=8 entry by repeating a fixed local recoloring-free
extension step that adds one fan cell pair and eight edges per step.
Every produced coloring is re-validated, and since any interval coloring
needs at least max-degree colors, hitting exactly that many certifies
the fan's width.

The table entries for n=7 and n=8 are not arbitrary: the extension step
reads the palettes at the apex and at the last fan vertex, so the search
pins those palettes to the values the step needs. One compatible step
implies all later steps are compatible (the rules shift by one color per
step), and the validator re-checks every n regardless.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .coloring import EdgeColoring, check_interval_coloring
from .graphs import Edge, Graph, gen_triangular_fan, norm_edge
from .outerplanar import (
    OuterEmbedding,
    recognize_outerplanar_2connected,
    separating_triangles,
)
from .solver import find_interval_coloring


def fan_max_degree(n: int) -> int:
    """Max degree of the n-fan: 3 for the single-cell fan, then the apex
    or an interior fan vertex, whichever is larger."""
    if n < 3:
        raise ValueError(f"fan needs n >= 3, got {n}")
    return 3 if n == 3 else max(n - 1, 5)


def _extend(colors: dict[Edge, int], n: int, k: int) -> None:
    """Grow a k-fan coloring into a (k+2)-fan coloring in place: add
    v_k, v_{k+1}, w_{k-1}, w_k and their eight edges. Ids are those of
    the target n-fan, as gen_triangular_fan numbers it: u = 0, v_i = i
    and w_i = n - 1 + i."""
    u = 0

    def v(i: int) -> int:
        return i

    def w(i: int) -> int:
        return n - 1 + i

    for a, b, c in (
        (u, v(k), k + 1),
        (u, v(k + 1), k),
        (v(k), w(k - 1), k - 2),
        (w(k), v(k + 1), k - 2),
        (v(k), v(k + 1), k - 1),
        (v(k - 1), w(k - 1), k - 1),
        (v(k - 1), v(k), k),
        (v(k), w(k), k - 3),
    ):
        colors[norm_edge(a, b)] = c


def _base_constraints(n: int) -> dict[int, frozenset[int]] | None:
    # the first extension step adds colors {t, t+1} at the apex and
    # {t-3, t-2, t-1}-ish at the boundary; concretely it needs the apex u
    # (id 0) to see 1..t and the last fan vertex v_{n-1} (id n - 1) to
    # sit three below the top, where t = n - 1 for the n = 7 and 8 entries
    if n not in (7, 8):
        return None
    return {0: frozenset(range(1, n)), n - 1: frozenset({n - 4, n - 3, n - 2})}


def derive_base_table() -> dict[int, EdgeColoring]:
    """Search out the six base colorings (n = 3..8) with the exact solver.

    Deterministic: the solver's first solution is taken, so every run
    yields the same table. The n=7 and n=8 entries are searched under the
    extension-compatibility constraints and then proof-tested by actually
    extending them twice.
    """
    table: dict[int, EdgeColoring] = {}
    for n in range(3, 9):
        g, _ = gen_triangular_fan(n)
        t = fan_max_degree(n)
        col = find_interval_coloring(g, t, require_palettes=_base_constraints(n))
        if col is None:
            raise AssertionError(f"no interval {t}-coloring of the {n}-fan found")
        table[n] = col
    for start in (7, 8):
        for target in (start + 2, start + 4):
            probe = _extended_from(table[start], start, target)
            g, _ = gen_triangular_fan(target)
            bad = check_interval_coloring(g, probe)
            if bad is not None:
                raise AssertionError(
                    f"base entry {start} fails extension to {target}: {bad.describe()}"
                )
    return table


def _extended_from(base: EdgeColoring, base_n: int, n: int) -> EdgeColoring:
    """The n-fan coloring grown from the base_n-fan coloring, n - base_n even."""

    def moved(x: int) -> int:
        # u and the v_i keep their ids; w_i moves from base_n - 1 + i to n - 1 + i
        return x if x < base_n else x + n - base_n

    colors = {norm_edge(moved(a), moved(b)): c for (a, b), c in base.assignment.items()}
    for k in range(base_n, n, 2):
        _extend(colors, n, k)
    return EdgeColoring(fan_max_degree(n), colors)


# derived once per process; color_fan hands out copies of the entries
load_base_table = cache(derive_base_table)


def color_fan(n: int, g: Graph | None = None) -> EdgeColoring:
    """Interval coloring of the n-fan with exactly max-degree colors.

    The coloring is validated against g, the n-fan graph as
    gen_triangular_fan(n) builds it; a caller that already has that
    graph passes it, and otherwise it is built here.
    """
    if n < 3:
        raise ValueError(f"fan needs n >= 3, got {n}")
    table = load_base_table()
    if n <= 8:
        col = EdgeColoring(table[n].t, table[n].assignment)  # copies the assignment
    else:
        base_n = 7 if n % 2 == 1 else 8
        col = _extended_from(table[base_n], base_n, n)
    if g is None:
        g, _ = gen_triangular_fan(n)
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
    """
    if n < 5:
        raise ValueError(f"demo needs n >= 5 for a nonempty triangle list, got {n}")
    g, _ = gen_triangular_fan(n)
    emb = recognize_outerplanar_2connected(g)
    if not isinstance(emb, OuterEmbedding):
        raise AssertionError(f"fan graph failed recognition: {emb.reason}")
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
