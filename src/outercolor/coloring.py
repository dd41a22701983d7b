"""Edge colorings and the interval-coloring validator.

An interval t-coloring assigns colors 1..t to edges so that the coloring
is proper, every color in 1..t appears on some edge, and the set of
colors at each vertex is a consecutive run of integers. Every other
component in the package treats the validator as ground truth, so
`tests/test_validator_oracle.py` holds it to two plain reference
validators, one that sorts every edge and palette and one that walks
every vertex id: all three name the same first defect. The validator
itself makes one linear pass: set tests decide that a coloring is valid,
and only a failed test goes looking for its witness.

Lemma (used by any exact method that tracks only the extreme colors): in
a connected graph, a proper coloring whose vertex palettes are all
intervals uses one consecutive block of colors, since adjacent palettes
share a color and the union of two overlapping intervals is an interval.
So every color in 1..t is in use iff colors 1 and t both are.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from itertools import chain, starmap
from operator import lt
from typing import Mapping, NamedTuple

from .graphs import Edge, Graph, norm_edge


class ColoringError(ValueError):
    """Malformed coloring value or serialized coloring."""


class EdgeColoring:
    """Colors 1..t on the edges of some graph.

    The assignment maps (min, max) edge tuples to colors. t is carried
    explicitly: a coloring may be invalid precisely because some color
    in 1..t is unused, so t cannot be inferred from the assignment.

    The coloring keeps its own copy of the assignment. Equal by (t,
    assignment); unhashable, since the assignment is a dict. Assignment
    is refused.
    """

    t: int
    assignment: dict[Edge, int]

    def __init__(self, t: int, assignment: Mapping[Edge, int]) -> None:
        if t < 1:
            raise ColoringError(f"t must be >= 1, got {t}")
        frozen = dict(assignment)
        # two bulk tests; only when one fails does the loop name the edge
        if not (all(starmap(lt, frozen)) and set(map(type, frozen.values())) <= {int}):
            for (u, v), c in frozen.items():
                if u >= v:
                    raise ColoringError(f"edge ({u}, {v}) not in (min, max) form")
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ColoringError(f"color {c!r} on edge ({u}, {v}) is not an int")
        fields = self.__dict__
        fields["t"] = t
        fields["assignment"] = frozen

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.t == other.t and self.assignment == other.assignment
        return NotImplemented

    def __repr__(self) -> str:
        return f"EdgeColoring(t={self.t!r}, assignment={self.assignment!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(NamedTuple):
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

    Scan order: uncolored edges, then unknown edges and colors out of
    range (at the smallest such edge, an unknown edge first), then
    properness and interval gaps at the smallest failing vertex (the
    smallest repeated color there), then the smallest unused color.
    Deterministic so tests can pin witnesses.

    One linear pass over the assignment: set equality for the edge
    cover, then every (vertex, color) pair packed into one int key. The
    keys are distinct iff the coloring is proper, and a proper palette
    is an interval iff exactly one of its keys lacks a predecessor. No
    cost grows with g.n or t. A failed test looks for its witness with
    min() over the failing items, never by sorting.
    """
    a = coloring.assignment
    t = coloring.t
    covered = a.keys() == g.edges
    if not covered:
        missing = g.edges - a.keys()
        if missing:
            return Violation("uncolored-edge", edge=min(missing))
    colors = a.values()
    if a and (not covered or min(colors) < 1 or max(colors) > t):
        e = min(e for e, c in a.items() if e not in g.edges or not 1 <= c <= t)
        if e not in g.edges:
            return Violation("unknown-edge", edge=e)
        return Violation("color-out-of-range", edge=e, color=a[e])
    # the assignment now colors exactly the edges of g, within 1..t
    if a:
        us, vs = zip(*a)
        # key v * base + c: colors are 1..base - 1, so k + 1 is the next
        # color at the same vertex or no key at all
        base = max(colors) + 1
        packed = [u * base + c for u, c in zip(us, colors)]
        packed += [v * base + c for v, c in zip(vs, colors)]
        keys = set(packed)
        runs = len(keys) - len(keys.intersection([k + 1 for k in packed]))
        if len(keys) != 2 * len(a) or runs != len(set(us).union(vs)):
            return _palette_violation(a)
    used = set(colors)
    if len(used) < t:
        # some color in 1..len(used) + 1 is missing, so t never bounds the scan
        return Violation("color-unused", color=min(set(range(1, len(used) + 2)) - used))
    return None


def _palette_violation(assignment: Mapping[Edge, int]) -> Violation:
    """The not-proper or not-interval witness at the smallest failing
    vertex; some vertex must fail."""
    palettes: dict[int, list[int]] = defaultdict(list)
    for (u, v), c in assignment.items():
        palettes[u].append(c)
        palettes[v].append(c)
    v = min(
        v
        for v, p in palettes.items()
        if len(set(p)) != len(p) or max(p) - min(p) != len(p) - 1
    )
    repeated = [c for c, k in Counter(palettes[v]).items() if k > 1]
    if repeated:
        return Violation("not-proper", vertex=v, color=min(repeated))
    # proper, so a span wider than the count means a gap
    return Violation("not-interval", vertex=v)


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
    if not isinstance(data, dict) or "t" not in data or not isinstance(data.get("edges"), list):
        raise ColoringError('coloring JSON must be {"t": ..., "edges": [...]}')
    t = data["t"]
    if not isinstance(t, int) or isinstance(t, bool):
        raise ColoringError(f"t must be an int, got {t!r}")
    items = data["edges"]
    if (
        set(map(type, items)) <= {list}
        and set(map(len, items)) <= {3}
        and set(map(type, chain.from_iterable(items))) <= {int}
    ):
        # every entry is [int, int, int] (a JSON bool is no int here)
        assignment = {((u, v) if u < v else (v, u)): c for u, v, c in items}
        if len(assignment) == len(items):
            return EdgeColoring(t, assignment)
    # some entry is malformed or repeated: name the first one
    assignment = {}
    for item in items:
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
    EdgeColoring already rules out loops and the dict rules out repeated
    edges, so a negative id is the one defect left to reject.
    """
    a = coloring.assignment
    if not a:
        raise ColoringError("coloring has no edges")
    n = max(v for _, v in a) + 1  # every edge is (min, max)
    first = min(a)
    if first[0] < 0:
        if n < 0:
            raise ColoringError(f"vertex count must be nonnegative, got {n}")
        raise ColoringError(f"edge {first} out of range for n={n}")
    return Graph(n, frozenset(a))

