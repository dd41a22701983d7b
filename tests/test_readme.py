"""The README's examples run as written.

The library example runs in this process. The shell block of the CLI
section runs under `bash -e -o pipefail`, with `outercolor` on PATH as a
small script that starts `python -m outercolor.cli` from this checkout,
so a command or option the CLI no longer takes fails here. CI runs the
same block against the installed console script.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_block(section: str, fence: str) -> str:
    """The first ```fence block under the README heading `## section`."""
    text = (ROOT / "README.md").read_text()
    body = text.split(f"\n## {section}\n", 1)[1]
    return body.split(f"\n```{fence}\n", 1)[1].split("\n```\n", 1)[0] + "\n"


def test_library_example_runs():
    exec(compile(readme_block("Library example", "python"), "README.md", "exec"), {})


def test_cli_usage_block_runs(tmp_path):
    shim = tmp_path / "outercolor"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m outercolor.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{tmp_path}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(["bash", "-e", "-o", "pipefail"], input=readme_block("CLI", "sh"),
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert '"verdict": "ok"' in done.stdout
    assert "graph {" in done.stdout
