"""What a fresh interpreter loads, and a real pooled run.

A pooled run forks its workers with `os.fork` and passes results back over
pipes, so no run, pooled or not, loads `concurrent.futures` or
`multiprocessing`: not importing the package, not `eval`, not `verify` at
any `--jobs`. The records are named tuples, so start-up loads no
`dataclasses` either. Each run here is a fresh interpreter: the test
process may have imported any of them long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slicekernels import suites

SRC = Path(__file__).resolve().parent.parent / "src"

POOL_PACKAGES = ("concurrent", "multiprocessing")


def _pool_modules(code: str, packages=POOL_PACKAGES) -> list:
    """The modules of `packages`, the pool's by default, loaded after `code`
    runs in a fresh interpreter."""
    code += ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
             f" if m.split('.')[0] in {packages!r})))")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import slicekernels",
    "from slicekernels import cli",
    "from slicekernels import cli\n"
    "assert cli.main(['eval', '--kernel', 'fueter-sce', '--n', '3',"
    " '--s', '2,1/2,0,0', '--x', '1/3,1,-1,0']) == 0",
    "from slicekernels import cli\n"
    "assert cli.main(['verify', '--suite', 'theorem-dbar', '--n', '3', '--trials', '2',"
    " '--jobs', '1', '--format', 'text']) == 0",
], ids=["import", "import-cli", "eval", "verify-jobs-1"])
def test_a_run_that_forks_no_worker_imports_no_pool(code):
    assert _pool_modules(code) == []


def test_start_up_loads_no_dataclasses():
    assert _pool_modules("from slicekernels import cli", ("dataclasses",)) == []


def test_a_pooled_run_in_a_fresh_interpreter_reports_as_a_serial_one(tmp_path):
    reports = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.json"
        argv = ["verify", "--suite", "theorem-dbar", "--n", "3,5", "--trials", "2",
                "--jobs", str(jobs), "--out", str(out)]
        # two usable CPUs or more: the --jobs 2 run forks one worker, and the
        # parent is the other
        forked = int(jobs > 1 and suites._usable_cpus() > 1)
        loaded = _pool_modules(
            "import os\nfrom slicekernels import cli\nforks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            f"assert cli.main({argv!r}) == 0\nassert len(forks) == {forked}, forks")
        assert loaded == []
        report = json.loads(out.read_text())
        for case in report["cases"]:
            del case["wall_time"]
        reports[jobs] = report
    assert reports[1]["summary"]["passed"] == reports[1]["summary"]["total"] > 2
    assert reports[2] == reports[1]
