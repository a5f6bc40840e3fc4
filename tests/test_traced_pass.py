"""The benchmark's traced pass of a workload, run as the benchmark runs it.

`perfbench/one_pass.py W SEED DIR trace -` wraps every traced name of the
package, runs the workload's segments at --jobs 1 and lists as `problems`
every traced name that recorded no call, every exact case that did not pass
with a residual of exactly 0.0, and a catalog whose flagged set moved; it
exits nonzero when a segment's case count differs from its pin. So a change
that unhooks a traced name, or moves a pinned count, fails here.

Each pass runs in a fresh interpreter: operators built by earlier tests sit
in the `named_operator` cache and would hide the `DiffOperator.compose` and
`DiffOperator.power` calls the tracer looks for. The output directory lies
under the repository root, because the pass records its spans file
relative to that root.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["oracle-n7", "closed-form", "float-n9"])
def test_traced_pass_reports_no_problems(workload):
    out_root = ROOT / ".perfbench-out"
    out_root.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"traced-{workload}-", dir=out_root))
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "one_pass.py"), workload, "0",
             str(out), "trace", "-"],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["problems"] == []
    finally:
        shutil.rmtree(out, ignore_errors=True)
