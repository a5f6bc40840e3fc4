"""Run every workload untraced and traced at one seed and collect the records.

Usage: python3 perfbench/record.py LABEL [SEED] [SECONDS]
Writes perfbench/results/BENCH_<LABEL>.json: for each workload, the printed
result of `--trace 0` and `--trace 1` with per-segment case counts, failures,
report SHA-256 and pass wall times.
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(label: str, seed: int = 0, seconds: int = 30) -> None:
    records = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            subprocess.run(cmd, cwd=HERE.parent, check=True, stdout=subprocess.DEVNULL)
            out = HERE.parent / ".perfbench-out" / name / f"seed{seed}" / f"result-trace{trace}.json"
            records.append(json.loads(out.read_text()))
    path = HERE / "results" / f"BENCH_{label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"label": label, "records": records}, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main(sys.argv[1], *map(int, sys.argv[2:4]))
