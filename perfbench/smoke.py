"""Smoke run of the benchmark at tiny sizes; not part of the test suite.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced for one second at the
`--tiny` sizes, and checks that each run exits 0 and ends with a result
object that is correct, has no failed operation, and carries exactly the
metrics, with the units, that BENCHMARK.json lists. Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    bad = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=170)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            units = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            ok = (proc.returncode == 0 and result.get("correct") is True
                  and result.get("failed") == 0 and result.get("attempted", 0) >= 1
                  and units == expected[trace])
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace}")
            if not ok:
                print(proc.stderr[-2000:], file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
