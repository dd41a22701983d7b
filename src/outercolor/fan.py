"""Interval colorings of triangular fans using exactly max-degree colors.

Small fans (n <= 8) come from a golden table recovered by constrained
exact search; larger fans grow from the n=7 or n=8 entry by repeating a
fixed local recoloring-free extension step that adds one fan cell pair
and eight edges per step. Every produced coloring is re-validated, and
since any interval coloring needs at least max-degree colors, hitting
exactly that many certifies the fan's width.

The table entries for n=7 and n=8 are not arbitrary: the extension step
reads the palettes at the apex and at the last fan vertex, so the search
pins those palettes to the values the step needs. One compatible step
implies all later steps are compatible (the rules shift by one color per
step), and the validator re-checks every n regardless.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .coloring import EdgeColoring, check_interval_coloring, coloring_from_json
from .graphs import Graph, Labels, gen_triangular_fan, norm_edge
from .outerplanar import (
    OuterEmbedding,
    recognize_outerplanar_2connected,
    separating_triangles,
)
from .solver import find_interval_coloring

# label-space edge: (("u"|"v"|"w", index), (kind, index)) sorted
LabelEdge = tuple[tuple[str, int], tuple[str, int]]


def fan_max_degree(n: int) -> int:
    """Max degree of the n-fan: 3 for the single-cell fan, then the apex
    or an interior fan vertex, whichever is larger."""
    if n < 3:
        raise ValueError(f"fan needs n >= 3, got {n}")
    return 3 if n == 3 else max(n - 1, 5)


def _parse_label(name: str) -> tuple[str, int]:
    if name == "u":
        return ("u", 0)
    return (name[0], int(name[1:]))


def _label_edge(a: tuple[str, int], b: tuple[str, int]) -> LabelEdge:
    return (a, b) if a <= b else (b, a)


def _to_label_space(col: EdgeColoring, labels: Labels) -> dict[LabelEdge, int]:
    named = {v: _parse_label(name) for v, name in labels.items()}
    return {
        _label_edge(named[u], named[v]): c for (u, v), c in col.assignment.items()
    }


def _to_id_space(lab: dict[LabelEdge, int], labels: Labels, t: int) -> EdgeColoring:
    ids = {_parse_label(name): v for v, name in labels.items()}
    return EdgeColoring(
        t, {norm_edge(ids[a], ids[b]): c for (a, b), c in lab.items()}
    )


def _u() -> tuple[str, int]:
    return ("u", 0)


def _v(i: int) -> tuple[str, int]:
    return ("v", i)


def _w(i: int) -> tuple[str, int]:
    return ("w", i)


def _extend_odd(lab: dict[LabelEdge, int], i: int) -> None:
    """Grow a (2i+1)-fan coloring into a (2i+3)-fan coloring in place."""
    e = _label_edge
    lab[e(_u(), _v(2 * i + 1))] = 2 * i + 2
    lab[e(_u(), _v(2 * i + 2))] = 2 * i + 1
    lab[e(_v(2 * i + 1), _w(2 * i))] = 2 * i - 1
    lab[e(_w(2 * i + 1), _v(2 * i + 2))] = 2 * i - 1
    lab[e(_v(2 * i + 1), _v(2 * i + 2))] = 2 * i
    lab[e(_v(2 * i), _w(2 * i))] = 2 * i
    lab[e(_v(2 * i), _v(2 * i + 1))] = 2 * i + 1
    lab[e(_v(2 * i + 1), _w(2 * i + 1))] = 2 * i - 2


def _extend_even(lab: dict[LabelEdge, int], i: int) -> None:
    """Grow a (2i+2)-fan coloring into a (2i+4)-fan coloring in place."""
    e = _label_edge
    lab[e(_u(), _v(2 * i + 2))] = 2 * i + 3
    lab[e(_u(), _v(2 * i + 3))] = 2 * i + 2
    lab[e(_v(2 * i + 2), _w(2 * i + 1))] = 2 * i
    lab[e(_w(2 * i + 2), _v(2 * i + 3))] = 2 * i
    lab[e(_v(2 * i + 2), _v(2 * i + 3))] = 2 * i + 1
    lab[e(_v(2 * i + 1), _w(2 * i + 1))] = 2 * i + 1
    lab[e(_v(2 * i + 1), _v(2 * i + 2))] = 2 * i + 2
    lab[e(_v(2 * i + 2), _w(2 * i + 2))] = 2 * i - 1


def _base_constraints(n: int, g: Graph, labels: Labels) -> dict[int, frozenset[int]] | None:
    # the first extension step adds colors {t, t+1} at the apex and
    # {t-3, t-2, t-1}-ish at the boundary; concretely it needs the apex
    # palette 1..t and the last fan vertex to sit three below the top
    ids = {name: v for v, name in labels.items()}
    if n == 7:
        return {
            ids["u"]: frozenset(range(1, 7)),
            ids["v6"]: frozenset({3, 4, 5}),
        }
    if n == 8:
        return {
            ids["u"]: frozenset(range(1, 8)),
            ids["v7"]: frozenset({4, 5, 6}),
        }
    return None


def derive_base_table() -> dict[int, EdgeColoring]:
    """Search out the six base colorings (n = 3..8) with the exact solver.

    Deterministic: the solver's first solution is taken, so regenerating
    the table always reproduces the shipped golden data. The n=7 and n=8
    entries are searched under the extension-compatibility constraints
    and then proof-tested by actually extending them twice.
    """
    table: dict[int, EdgeColoring] = {}
    for n in range(3, 9):
        g, labels = gen_triangular_fan(n)
        t = fan_max_degree(n)
        col = find_interval_coloring(g, t, require_palettes=_base_constraints(n, g, labels))
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
    _, base_labels = gen_triangular_fan(base_n)
    lab = _to_label_space(base, base_labels)
    if base_n % 2 == 1:
        for i in range(3, (n - 3) // 2 + 1):
            _extend_odd(lab, i)
    else:
        for i in range(3, (n - 4) // 2 + 1):
            _extend_even(lab, i)
    _, labels = gen_triangular_fan(n)
    return _to_id_space(lab, labels, fan_max_degree(n))


def load_base_table() -> dict[int, EdgeColoring]:
    """The golden base colorings shipped with the package."""
    text = resources.files("outercolor").joinpath("data/fan_base_table.json").read_text()
    raw = json.loads(text)
    return {int(n): coloring_from_json(json.dumps(entry)) for n, entry in raw.items()}


@cache
def _base_table() -> dict[int, EdgeColoring]:
    # read once per process; every entry handed out is a copy
    return load_base_table()


def color_fan(n: int) -> EdgeColoring:
    """Interval coloring of the n-fan with exactly max-degree colors."""
    if n < 3:
        raise ValueError(f"fan needs n >= 3, got {n}")
    table = _base_table()
    if n <= 8:
        col = EdgeColoring(table[n].t, table[n].assignment)  # copies the assignment
    else:
        col = _extended_from(table[7 if n % 2 == 1 else 8], 7 if n % 2 == 1 else 8, n)
    g, _ = gen_triangular_fan(n)
    bad = check_interval_coloring(g, col)
    if bad is not None:
        raise AssertionError(f"fan coloring invalid at n={n}: {bad.describe()}")
    if col.t != fan_max_degree(n):
        raise AssertionError(f"fan coloring used {col.t} colors at n={n}")
    return col


@dataclass(frozen=True)
class FanReport:
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
    tris = tuple(separating_triangles(g, emb))
    if len(tris) != n - 4:
        raise AssertionError(f"expected {n - 4} separating triangles, found {len(tris)}")
    col = color_fan(n)
    conclusion = (
        f"the {n}-fan has {len(tris)} separating triangle(s) yet admits an "
        f"interval {col.t}-coloring, so a separating triangle does not force "
        f"non-colorability"
    )
    return FanReport(n, tris, col, conclusion)
