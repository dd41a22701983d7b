"""Spans around calls into the program's layers, recorded from outside.

The program binds its cross-module calls with `from .x import y`, so a
function is reached through the attribute of the module that calls it
(`outercolor.cli.width`, `outercolor.solver.find_interval_coloring`, ...).
`Tracer.install` replaces those attributes with timing wrappers and
`Tracer.remove` puts the originals back. Nothing in the program changes.

A span is (name, start, end, parent, size, tag): parent is the index of
the enclosing span or -1, size is the graph order when the call has one,
and tag is a short outcome label such as "neg" or "pos" for a search.
Spans stay in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import math
import statistics
from collections import defaultdict
from time import perf_counter


def _graph_n(args) -> int | None:
    return getattr(args[0], "n", None) if args else None


def _int_arg(args) -> int | None:
    return args[0] if args and isinstance(args[0], int) else None


def _search_tag(result) -> str:
    return "neg" if result is None else "pos"


# (module, attribute, span name, size of the call, outcome tag)
SITES = [
    ("outercolor.cli", "read_edge_list", "graphs.read_edge_list", None, None),
    ("outercolor.cli", "write_edge_list", "graphs.write_edge_list", _graph_n, None),
    ("outercolor.cli", "gen_random_outerplanar_subcubic", "graphs.gen_random", _int_arg, None),
    ("outercolor.cli", "gen_cycle", "graphs.gen_family", None, None),
    ("outercolor.cli", "gen_triangle_graph", "graphs.gen_family", None, None),
    ("outercolor.cli", "gen_triangular_fan", "graphs.gen_family", None, None),
    ("outercolor.cli", "recognize_outerplanar_2connected", "outerplanar.recognize", _graph_n, None),
    ("outercolor.cli", "color_optimal_subcubic", "subcubic.optimal", _graph_n, None),
    ("outercolor.cli", "color_subcubic_le4_traced", "subcubic.le4", _graph_n, None),
    ("outercolor.cli", "color_fan", "fan.color_fan", _int_arg, None),
    ("outercolor.cli", "separating_triangle_demo", "fan.demo", _int_arg, None),
    ("outercolor.cli", "width", "solver.width", _graph_n, None),
    ("outercolor.cli", "find_interval_coloring", "solver.search", _graph_n, _search_tag),
    ("outercolor.cli", "check_interval_coloring", "coloring.check", _graph_n, None),
    ("outercolor.cli", "coloring_to_json", "coloring.json", None, None),
    ("outercolor.cli", "coloring_from_json", "coloring.json", None, None),
    ("outercolor.cli", "graph_of_coloring", "coloring.graph_of_coloring", None, None),
    ("outercolor.subcubic", "recognize_outerplanar_2connected", "outerplanar.recognize",
     _graph_n, None),
    ("outercolor.subcubic", "color_even_hamiltonian", "subcubic.even", _graph_n, None),
    ("outercolor.subcubic", "make_graph", "graphs.make_graph", _int_arg, None),
    ("outercolor.subcubic", "find_reducible_config", "subcubic.peel.find_config", _graph_n,
     None),
    ("outercolor.subcubic", "check_interval_coloring", "coloring.check", _graph_n, None),
    ("outercolor.subcubic", "find_interval_coloring", "solver.search", _graph_n, _search_tag),
    ("outercolor.fan", "recognize_outerplanar_2connected", "outerplanar.recognize", _graph_n,
     None),
    ("outercolor.fan", "separating_triangles", "outerplanar.separating_triangles", _graph_n,
     None),
    ("outercolor.fan", "color_fan", "fan.color_fan", _int_arg, None),
    ("outercolor.fan", "load_base_table", "fan.load_base_table", None, None),
    ("outercolor.fan", "check_interval_coloring", "coloring.check", _graph_n, None),
    ("outercolor.fan", "gen_triangular_fan", "graphs.gen_family", None, None),
    ("outercolor.solver", "find_interval_coloring", "solver.search", _graph_n, _search_tag),
]

# The peel recurses through this module attribute once per level. Only
# the outermost call gets a span: the wrapper puts the original back for
# the inner levels, so the traced run adds one stack frame, not one per
# level, and stays as far from the recursion limit as the untraced one.
PEEL_SITE = ("outercolor.subcubic", "_color_rec", "subcubic.peel", _graph_n, None)

CASES = ("Case11", "Case12", "Case12OddCycle", "Case2", "Case2OddCycle", "BaseSmall",
         "BaseEvenCycle")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int | None, str | None]] = []
        self.steps: list[tuple[str, int]] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args, kwargs, size, tag):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, None, None))
        self._open.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, size(args) if size else None, None)
        if tag is not None:
            self.spans[idx] = self.spans[idx][:5] + (tag(result),)
        return result

    def _wrapper(self, name, fn, size, tag):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, size, tag)
        return wrapped

    def install(self) -> None:
        for mod_name, attr, name, size, tag in SITES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            wrapped = self._wrapper(name, fn, size, tag)
            if attr == "color_subcubic_le4_traced":
                wrapped = self._keep_steps(wrapped)
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, wrapped)
        mod_name, attr, name, size, _ = PEEL_SITE
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)

        def outermost(*args, **kwargs):
            setattr(mod, attr, original)
            try:
                return self.call(name, original, args, kwargs, size, None)
            finally:
                setattr(mod, attr, outermost)

        self._installed.append((mod, attr, original))
        setattr(mod, attr, outermost)

    def _keep_steps(self, fn):
        def wrapped(*args, **kwargs):
            col, steps = fn(*args, **kwargs)
            self.steps.extend((s.case, s.depth) for s in steps)
            return col, steps
        return wrapped

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def root(self, name: str, fn):
        """Run fn() as a top-level span (one CLI operation)."""
        return self.call(name, fn, (), {}, None, None)


# ---------------------------------------------------------------------------
# Per-layer figures from the spans of one round
# ---------------------------------------------------------------------------

def _self_times(spans) -> list[float]:
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _under(spans, idx: int, ancestor: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def round_figures(spans, steps) -> dict[str, float]:
    """Self seconds per span name and the counts, for one round."""
    own = _self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for i, (name, _, _, _, _, tag) in enumerate(spans):
        out[f"{name}.s"] += own[i]
        if name == "solver.search":
            out[f"solver.search_{tag}.s"] += own[i]
            out["solver.searches"] += 1
        elif name == "fan.load_base_table":
            out["fan.load_base_table_calls"] += 1
        if name in ("coloring.check", "graphs.make_graph") and _under(spans, i, "subcubic.peel"):
            short = "check" if name == "coloring.check" else "make_graph"
            out[f"subcubic.peel.{short}.s"] += own[i]
            out[f"subcubic.peel.{short}_calls"] += 1
        if name == "cli.main":
            out["cli.main.self.s"] += own[i]
    out["subcubic.steps"] = len(steps)
    out["subcubic.max_depth"] = max((d for _, d in steps), default=0)
    for case in CASES:
        out[f"subcubic.case.{case}"] = sum(1 for c, _ in steps if c == case)
    return out


def growth_exponent(rounds, name: str) -> float:
    """Least-squares slope of log(seconds) against log(n) over the
    distinct sizes of the outermost spans called `name` in all rounds,
    each size taken at the median duration of its spans; 0.0 with fewer
    than two sizes."""
    by_n: dict[int, list[float]] = defaultdict(list)
    for spans in rounds:
        for span_name, start, end, parent, size, _ in spans:
            if span_name == name and size and not (parent >= 0 and spans[parent][0] == name):
                by_n[size].append(end - start)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(d)) for d in by_n.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
