"""The names the benchmark's tracer binds still exist in the program.

`perfbench/tracing.py` wraps the program's functions by (module,
attribute) and calls `getattr` with no default, so a renamed or deleted
function breaks every traced benchmark run. The file is loaded by path
and only read here; the benchmark directory is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

from outercolor import cli
from outercolor.graphs import gen_random_outerplanar_subcubic, make_graph

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = load_tracing()
    for mod_name, attr, *_ in [*tracing.SITES, tracing.PEEL_SITE]:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_tracer_records_the_peel_steps():
    # the tracer unpacks (coloring, steps) from color_subcubic_le4_traced
    # and reads each step's case and depth
    tracing = load_tracing()
    tracer = tracing.Tracer()
    g = gen_random_outerplanar_subcubic(21, 0)
    tracer.install()
    try:
        col, steps = cli.color_subcubic_le4_traced(g)
    finally:
        tracer.remove()
    assert col.t == 4
    assert tracer.steps == [(s.case, s.depth) for s in steps]
    assert {name for name, *_ in tracer.spans} >= {"subcubic.le4", "subcubic.peel"}


def test_tracer_times_the_base_small_search():
    # subcubic loads the solver only when BaseSmall needs it; the tracer's
    # wrapper on `subcubic.find_interval_coloring` is what that case calls
    tracing = load_tracing()
    tracer = tracing.Tracer()
    diamond = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    tracer.install()
    try:
        col, steps = cli.color_subcubic_le4_traced(diamond)
    finally:
        tracer.remove()
    assert [s.case for s in steps] == ["BaseSmall"]
    assert col.t == 3
    names = [name for name, *_ in tracer.spans]
    peel = names.index("subcubic.peel")
    search = names.index("solver.search")
    assert tracer.spans[search][3] == peel
