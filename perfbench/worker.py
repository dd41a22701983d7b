"""Run one workload's rounds in a fresh interpreter and report them.

Reads a JSON spec on stdin: {"ops": [...], "seconds": s, "trace": 0|1,
"spans_out": path or null}. Imports `outercolor.cli` (timed), then runs
whole rounds of the op list, one `cli.main(argv)` call at a time, until
`seconds` have passed; every round runs to its end. With trace 1 the
first half of the time runs untraced and the second half traced, so the
tracing overhead is measured within one process. Prints one JSON object
on stdout: the round times, the per-op latencies, the first round's exit
codes and outputs, the failures, the peak RSS and, when traced, the
per-layer figures.
"""

from __future__ import annotations

import gc
import io
import sys
from time import perf_counter


def run_round(main, ops, tracer, first, result) -> float:
    outputs: dict[str, str] = {}
    latency: dict[str, float] = {}
    gc.collect()  # every round starts from the same collector state
    start = perf_counter()
    for op in ops:
        text = op["stdin"] if op["stdin"] is not None else outputs.get(op["stdin_from"], "")
        sys.stdin = io.StringIO(text)
        sys.stdout = buf = io.StringIO()
        t0 = perf_counter()
        try:
            if tracer is None:
                code = main(op["argv"])
            else:
                code = tracer.root("cli.main", lambda: main(op["argv"]))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = None
            result["errors"].setdefault(op["name"], f"{type(exc).__name__}: {exc}")
        finally:
            dt = perf_counter() - t0
            sys.stdout, sys.stdin = sys.__stdout__, sys.__stdin__
        outputs[op["name"]] = out = buf.getvalue()
        result["attempted"] += 1
        if code is None:
            result["failed"] += 1
        request = op["request"] or op["name"]
        latency[request] = latency.get(request, 0.0) + dt
        if op["name"] not in first:
            first[op["name"]] = (code, out)
        elif first[op["name"]] != (code, out):
            result["unstable"].append(op["name"])
    wall = perf_counter() - start
    if tracer is None:
        result["latencies"].extend(latency.values())
    return wall


def main() -> None:
    # the program is imported before the modules the worker itself needs
    # (io and sys are loaded by every interpreter), so the import pays
    # for all it pulls in, as in a fresh `outercolor` process
    t0 = perf_counter()
    from outercolor import cli
    import_s = perf_counter() - t0

    import json
    import resource
    import statistics

    from tracing import Tracer, growth_exponent, round_figures

    spec = json.load(sys.stdin)
    ops = spec["ops"]
    result = {"import_s": import_s, "attempted": 0, "failed": 0, "errors": {},
              "latencies": [], "unstable": [], "rounds": []}
    first: dict[str, tuple] = {}
    traced = bool(spec["trace"])

    deadline = perf_counter() + (spec["seconds"] / 2 if traced else spec["seconds"])
    while not result["rounds"] or perf_counter() < deadline:
        result["rounds"].append(run_round(cli.main, ops, None, first, result))

    if traced:
        tracer = Tracer()
        tracer.install()
        traced_rounds, span_rounds, figures = [], [], []
        deadline = perf_counter() + spec["seconds"] / 2
        try:
            while not traced_rounds or perf_counter() < deadline:
                tracer.spans, tracer.steps = [], []
                traced_rounds.append(run_round(cli.main, ops, tracer, first, result))
                span_rounds.append(tracer.spans)
                figures.append(round_figures(tracer.spans, tracer.steps))
        finally:
            tracer.remove()
        names = {k for f in figures for k in f}
        layers = {k: statistics.median([f.get(k, 0.0) for f in figures]) for k in names}
        for name in ("outerplanar.recognize", "graphs.gen_random", "subcubic.peel"):
            layers[f"{name}.exp"] = growth_exponent(span_rounds, name)
        layers["cli.import.s"] = import_s
        layers["trace.overhead_s"] = (statistics.median(traced_rounds)
                                      - statistics.median(result["rounds"]))
        result["layers"] = layers
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w") as f:
                for name, start, end, parent, size, tag in span_rounds[0]:
                    f.write(json.dumps({"name": name, "start": start, "end": end,
                                        "parent": parent, "size": size, "tag": tag}) + "\n")

    result["first"] = first
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
