"""Edge colorings and the interval-coloring validator.

An interval t-coloring assigns colors 1..t to edges so that the coloring
is proper, every color in 1..t appears on some edge, and the set of
colors at each vertex is a consecutive run of integers. The validator
here is deliberately direct (dict scans, no cleverness) because every
other component in the package treats it as ground truth.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphs import Edge, Graph, GraphError, make_graph, norm_edge


class ColoringError(ValueError):
    """Malformed coloring value or serialized coloring."""


@dataclass(frozen=True)
class EdgeColoring:
    """Colors 1..t on the edges of some graph.

    The assignment maps (min, max) edge tuples to colors. t is carried
    explicitly: a coloring may be invalid precisely because some color
    in 1..t is unused, so t cannot be inferred from the assignment.
    """

    t: int
    assignment: Mapping[Edge, int]

    def __post_init__(self):
        if self.t < 1:
            raise ColoringError(f"t must be >= 1, got {self.t}")
        frozen = dict(self.assignment)
        for (u, v), c in frozen.items():
            if u >= v:
                raise ColoringError(f"edge ({u}, {v}) not in (min, max) form")
            if not isinstance(c, int) or isinstance(c, bool):
                raise ColoringError(f"color {c!r} on edge ({u}, {v}) is not an int")
        object.__setattr__(self, "assignment", frozen)

    def palette(self, g: Graph, v: int) -> tuple[int, ...]:
        """Sorted colors on the edges at v."""
        return tuple(sorted(self.assignment[norm_edge(v, w)] for w in g.neighbors(v)))

    def used_colors(self) -> set[int]:
        return set(self.assignment.values())


@dataclass(frozen=True)
class Violation:
    """First defect found by the validator.

    kind is one of:
      "uncolored-edge"      an edge of the graph has no color
      "unknown-edge"        a colored pair is not an edge of the graph
      "color-out-of-range"  a color falls outside 1..t
      "not-proper"          two edges at a vertex share a color
      "not-interval"        a vertex palette has a gap
      "color-unused"        some color in 1..t is on no edge
    edge/vertex/color identify the witness where applicable.
    """

    kind: str
    edge: Edge | None = None
    vertex: int | None = None
    color: int | None = None

    def describe(self) -> str:
        parts = [self.kind]
        if self.edge is not None:
            parts.append(f"edge={self.edge}")
        if self.vertex is not None:
            parts.append(f"vertex={self.vertex}")
        if self.color is not None:
            parts.append(f"color={self.color}")
        return " ".join(parts)


def check_interval_coloring(g: Graph, coloring: EdgeColoring) -> Violation | None:
    """Return the first violation in a fixed scan order, or None if the
    coloring is a valid interval t-coloring of g.

    Scan order: edge cover and color range over sorted edges, then
    properness and interval gaps per vertex in ascending order, then
    unused colors ascending. Deterministic so tests can pin witnesses.
    Only vertices with edges are visited, so the cost does not grow with
    g.n.
    """
    for e in g.sorted_edges():
        if e not in coloring.assignment:
            return Violation("uncolored-edge", edge=e)
    for e in sorted(coloring.assignment):
        if e not in g.edges:
            return Violation("unknown-edge", edge=e)
        c = coloring.assignment[e]
        if not (1 <= c <= coloring.t):
            return Violation("color-out-of-range", edge=e, color=c)
    # both loops passed, so the assignment colors exactly the edges of g
    palettes: dict[int, list[int]] = defaultdict(list)
    for (u, v), c in coloring.assignment.items():
        palettes[u].append(c)
        palettes[v].append(c)
    for v in sorted(palettes):
        colors = sorted(palettes[v])
        for a, b in zip(colors, colors[1:]):
            if a == b:
                return Violation("not-proper", vertex=v, color=a)
        if colors[-1] - colors[0] != len(colors) - 1:
            # proper already, so a span wider than the count means a gap
            return Violation("not-interval", vertex=v)
    used = coloring.used_colors()
    for c in range(1, coloring.t + 1):
        if c not in used:
            return Violation("color-unused", color=c)
    return None


def normalize(coloring: EdgeColoring) -> EdgeColoring:
    """Shift colors so the minimum used color is 1 and t is the maximum.

    For a proper coloring of a connected graph whose vertex palettes are
    all intervals, the used colors already form one consecutive block, so
    this yields an interval t-coloring whenever one is reachable by
    translation.
    """
    if not coloring.assignment:
        raise ColoringError("cannot normalize an empty coloring")
    lo = min(coloring.assignment.values())
    hi = max(coloring.assignment.values())
    shift = 1 - lo
    return EdgeColoring(hi + shift, {e: c + shift for e, c in coloring.assignment.items()})


def shift(coloring: EdgeColoring, k: int) -> EdgeColoring:
    """Translate every color by k, stretching t to keep colors in range."""
    new = {e: c + k for e, c in coloring.assignment.items()}
    return EdgeColoring(max(coloring.t + k, max(new.values())), new)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def coloring_to_json(coloring: EdgeColoring) -> str:
    """Serialize as {"t": t, "edges": [[u, v, c], ...]} with edges sorted
    by (min, max). Byte-stable for a given coloring.
    """
    edges = [[u, v, coloring.assignment[(u, v)]] for u, v in sorted(coloring.assignment)]
    return json.dumps({"t": coloring.t, "edges": edges}, separators=(", ", ": ")) + "\n"


def coloring_from_json(text: str) -> EdgeColoring:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ColoringError(f"invalid coloring JSON: {exc}") from None
    if not isinstance(data, dict) or "t" not in data or "edges" not in data:
        raise ColoringError('coloring JSON must be {"t": ..., "edges": [...]}')
    t = data["t"]
    if not isinstance(t, int) or isinstance(t, bool):
        raise ColoringError(f"t must be an int, got {t!r}")
    assignment: dict[Edge, int] = {}
    for item in data["edges"]:
        if not (isinstance(item, list) and len(item) == 3):
            raise ColoringError(f"edge entry {item!r} must be [u, v, color]")
        u, v, c = item
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v, c)):
            raise ColoringError(f"edge entry {item!r} must hold ints")
        e = norm_edge(u, v)
        if e in assignment:
            raise ColoringError(f"duplicate edge {e} in coloring JSON")
        assignment[e] = c
    return EdgeColoring(t, assignment)


def graph_of_coloring(coloring: EdgeColoring) -> Graph:
    """The graph implied by a coloring's edges, on ids 0..max.

    Lets a serialized coloring be verified standalone: the edge set is
    the graph. Callers that know the real graph should pass it instead.
    """
    if not coloring.assignment:
        raise ColoringError("coloring has no edges")
    n = max(v for e in coloring.assignment for v in e) + 1
    try:
        return make_graph(n, sorted(coloring.assignment))
    except GraphError as exc:
        raise ColoringError(str(exc)) from None


def coloring_from_pairs(t: int, pairs: Iterable[tuple[int, int, int]]) -> EdgeColoring:
    """Convenience constructor from (u, v, color) triples."""
    return EdgeColoring(t, {norm_edge(u, v): c for u, v, c in pairs})
