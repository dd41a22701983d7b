"""The outercolor benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload even-order --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is used from `src/`.
Each run starts fresh interpreters, one client issuing one operation at a
time (a closed loop), nothing concurrent:

* set-up samples: a fresh interpreter imports `outercolor.cli` and runs
  one round of the workload at tiny sizes; `setup_s` is the median;
* the workers: three fresh interpreters in turn run whole rounds of the
  workload for a third of `--seconds` each (see worker.py); `wall_s` is
  the median round, `op_p50_ms` the median request, `peak_rss_mb` the
  largest worker peak RSS;
* pipe samples: the real `gen | color | verify` (or `gen | width`) chain
  of `python -m outercolor.cli` processes; `pipe_s` is the median.

Set-up and pipe samples are taken before, between and after the workers.

With `--trace 1` only the worker runs, half untraced and half traced, and
the per-layer figures are printed instead. Every output of the first
round is checked by checks.py; later rounds must repeat it byte for byte.
The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
# The worker time is split over SEGMENTS fresh worker processes, and
# SAMPLES set-up and pipe samples are taken before, between and after
# them, so every metric is drawn from the whole length of the run.
SEGMENTS = 3
SAMPLES = 6
CHILD_TIMEOUT_S = 170

PER_LAYER = {
    "outerplanar.recognize.s": "s",
    "outerplanar.recognize.exp": "exponent",
    "outerplanar.separating_triangles.s": "s",
    "graphs.gen_random.s": "s",
    "graphs.gen_random.exp": "exponent",
    "graphs.read_edge_list.s": "s",
    "graphs.write_edge_list.s": "s",
    "graphs.gen_family.s": "s",
    "subcubic.even.s": "s",
    "subcubic.peel.s": "s",
    "subcubic.peel.exp": "exponent",
    "subcubic.peel.check_calls": "count",
    "subcubic.peel.check.s": "s",
    "subcubic.peel.make_graph_calls": "count",
    "subcubic.peel.make_graph.s": "s",
    "subcubic.peel.find_config.s": "s",
    "subcubic.steps": "count",
    "subcubic.max_depth": "count",
    **{f"subcubic.case.{case}": "count" for case in
       ("Case11", "Case12", "Case12OddCycle", "Case2", "Case2OddCycle", "BaseSmall",
        "BaseEvenCycle")},
    "fan.color_fan.s": "s",
    "fan.load_base_table_calls": "count",
    "solver.width.s": "s",
    "solver.search.s": "s",
    "solver.search_neg.s": "s",
    "solver.search_pos.s": "s",
    "solver.searches": "count",
    "coloring.check.s": "s",
    "coloring.json.s": "s",
    "cli.import.s": "s",
    "cli.main.self.s": "s",
    "trace.overhead_s": "s",
}

PIPES = {
    "even-order": lambda rng: [["gen", "--family", "random", "--n", "24",
                                "--seed", str(rng.randrange(2**31))], ["color"], ["verify"]],
    "odd-order": lambda rng: [["gen", "--family", "random", "--n", "25",
                               "--seed", str(rng.randrange(2**31))], ["color"], ["verify"]],
    "width-ladder": lambda rng: [["gen", "--family", "tklm", "--k", "1", "--l", "1", "--m", "1"],
                                 ["width"]],
}


def child_env() -> dict[str, str]:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def run_worker(ops: list[dict], seconds: float, trace: int, spans_out: str | None) -> dict:
    spec = json.dumps({"ops": ops, "seconds": seconds, "trace": trace, "spans_out": spans_out})
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=spec,
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def run_pipe(cmds: list[list[str]]) -> tuple[float, list[int], str]:
    """Time one shell-style pipeline of CLI processes, pinned to one CPU.

    Unpinned, the chain times in two modes (its processes overlapped on
    two cores, or not) in shares that change from run to run; pinned, it
    is the serial cost of the chain. The processes inherit the pin from
    this one, which is unpinned again afterwards.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    procs: list[subprocess.Popen] = []
    start = perf_counter()
    try:
        for argv in cmds:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "outercolor.cli", *argv],
                stdin=procs[-1].stdout if procs else subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT))
            if len(procs) > 1:
                procs[-2].stdout.close()  # the next process owns the read end now
        out = procs[-1].communicate(timeout=CHILD_TIMEOUT_S)[0].decode()
        codes = [p.wait(timeout=CHILD_TIMEOUT_S) for p in procs]
        seconds = perf_counter() - start
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
        os.sched_setaffinity(0, allowed)
    return seconds, codes, out


def check_pipe(workload: str, codes: list[int], out: str) -> None:
    verdict = json.loads(out)
    if workload == "width-ladder":
        checks.check_op({"name": "width/tklm", "expect": 1,
                         "meta": {"t": None, "k": 1, "l": 1, "m": 1}}, codes[-1], out, {})
        return
    t = 3 if workload == "even-order" else 4
    if codes != [0, 0, 0] or verdict.get("verdict") != "ok" or verdict.get("t") != t:
        raise checks.CheckError(f"pipe exit codes {codes}, verify said {out.strip()}")


def check_outputs(ops: list[dict], result: dict) -> list[str]:
    problems = [f"{name}: {err}" for name, err in result["errors"].items()]
    problems += [f"{name}: output differs between rounds" for name in set(result["unstable"])]
    first = {name: tuple(v) for name, v in result["first"].items()}
    for op in ops:
        if op["name"] in result["errors"]:
            continue  # counted in `failed`; correctness speaks of the rest
        code, out = first[op["name"]]
        try:
            checks.check_op(op, code, out, first)
        except (checks.CheckError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{op['name']}: {type(exc).__name__}: {exc}")
    return problems


def merge_segments(segments: list[dict]) -> dict:
    """One worker result from several; outputs must agree across them."""
    merged = dict(segments[0], errors={}, unstable=[], rounds=[], latencies=[],
                  attempted=0, failed=0)
    for seg in segments:
        for key in ("rounds", "latencies", "unstable"):
            merged[key] += seg[key]
        merged["attempted"] += seg["attempted"]
        merged["failed"] += seg["failed"]
        merged["errors"].update(seg["errors"])
        merged["unstable"] += [k for k, v in seg["first"].items() if v != merged["first"][k]]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], seg["peak_rss_mb"])
    return merged


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke run")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "outercolor" / "cli.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'outercolor'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = [dataclasses.asdict(op) for op in inputs.workload_ops(args.workload, args.seed, args.tiny)]
    problems: list[str] = []
    metrics: dict[str, dict] = {}

    if args.trace:
        spans_out = str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result = run_worker(ops, args.seconds, 1, spans_out)
        for name, unit in PER_LAYER.items():
            value = result["layers"].get(name, 0)
            metrics[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
    else:
        tiny_ops = [dataclasses.asdict(op)
                    for op in inputs.workload_ops(args.workload, args.seed, tiny=True)]
        rng = random.Random(f"pipe:{args.workload}:{args.seed}")
        setup: list[float] = []
        pipe: list[float] = []

        def sample(count: int) -> None:
            for _ in range(count):
                tiny = run_worker(tiny_ops, 0, 0, None)
                setup.append(tiny["import_s"] + tiny["rounds"][0])
                problems.extend(check_outputs(tiny_ops, tiny))
                seconds, codes, out = run_pipe(PIPES[args.workload](rng))
                pipe.append(seconds)
                try:
                    check_pipe(args.workload, codes, out)
                except (checks.CheckError, ValueError) as exc:
                    problems.append(f"pipe: {exc}")

        sample(1)  # the first set-up also byte-compiles the program; dropped
        del setup[:], pipe[:]
        sample(SAMPLES)
        segments = []
        for _ in range(SEGMENTS):
            segments.append(run_worker(ops, args.seconds / SEGMENTS, 0, None))
            sample(SAMPLES)
        result = merge_segments(segments)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(result["rounds"]), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(result["latencies"]), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "pipe_s": {"value": statistics.median(pipe), "unit": "s"},
        }

    problems += check_outputs(ops, result)
    report = {"correct": not problems, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics}
    detail = dict(report, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=len(result["rounds"]), ops_per_round=len(ops), problems=problems)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
