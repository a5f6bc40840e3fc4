"""Verifier benchmark: time to verdict of `slicekernels verify` on one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload oracle-n7 --seed 0 --seconds 30 --trace 0

Every pass runs in a fresh interpreter (perfbench/one_pass.py), because every
real `verify` invocation pays to fill the jet caches. With --trace 0 the run
makes the workload's fixed number of untraced passes for --seconds, with
set-ups between them, and prints the end-to-end metrics. With --trace 1 it
makes untraced passes, for the pool metrics, and traced passes at --jobs 1,
and prints the per-layer metrics: each one is the lowest over the traced
passes. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

Estimator. Wall time equals CPU time on a shared VM, and slow episodes of
+30-80% last seconds to a minute, one core at a time, so neither clock is
steady by itself. Serial passes therefore take turns on each usable core
(pinned). Episodes only ever slow work down, so verdict_s adds up the
fastest repeat of each unit of work over the run's passes: an episode must
cover the same unit in every pass, on every core, to move it. Serial units
are the cases (each report's wall_time) plus each segment's time outside its
cases; a pooled segment runs its cases concurrently and is one unit. The
number of passes depends on --seconds alone (Workload.passes_for), so the
minimum is taken over the same number of repeats on both sides of a change.
setup_s is the lower quartile of SETUP_SAMPLES fresh-interpreter set-ups
spread between the passes, by the same reasoning, and peak_rss_mb the
median over passes.

Slow periods of the whole machine can outlast a run. Each set-up-only
interpreter therefore also times a fixed calibration loop (calibrate.py),
and verdict_s and setup_s are divided by the run's slowdown: the lower
quartile of those timings over calibrate.REFERENCE_S. They are seconds at
the reference machine's speed; stderr and the run record also give them
unscaled.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 30
PASS_TIMEOUT_S = 170
UNTRACED_PASSES = 1
TRACED_PASSES = 2

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_pass(workload: str, seed: int, mode: str, tag: str, cpu: int | None) -> dict:
    """Run one_pass.py in a fresh interpreter, pinned to `cpu` unless None."""
    out_dir = ROOT / ".perfbench-out" / workload / f"seed{seed}" / tag
    cmd = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed), str(out_dir), mode,
           "-" if cpu is None else str(cpu)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise workloads.BenchmarkError(f"{workload} pass {tag} exceeded {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise workloads.BenchmarkError(
            f"{workload} pass {tag} exited {proc.returncode}:\n{stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def pass_verdict_s(result: dict) -> float:
    return sum(seg["wall_s"] for seg in result["segments"])


def fastest_repeat(repeats: list, pooled: bool) -> float:
    """Least-contended time of one segment from its repeats in several passes."""
    if pooled:
        return min(seg["wall_s"] for seg in repeats)
    outside = min(seg["wall_s"] - sum(seg["case_walls"]) for seg in repeats)
    return outside + sum(map(min, zip(*(seg["case_walls"] for seg in repeats))))


def verdict_s(passes: list, pooled: bool) -> float:
    return sum(fastest_repeat([p["segments"][i] for p in passes], pooled)
               for i in range(len(passes[0]["segments"])))


def verdicts(passes: list) -> tuple[bool, int, int]:
    """(correct, attempted, failed) of a run; every pass must give identical reports."""
    first = passes[0]["segments"]
    digests = [[seg["digest"] for seg in p["segments"]] for p in passes]
    correct = all(not p["problems"] for p in passes) and all(d == digests[0] for d in digests)
    for p in passes:
        for problem in p["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
    if any(d != digests[0] for d in digests):
        print("problem: reports differ between passes with the same seed", file=sys.stderr)
    for line in passes[0]["wrong_float_verdicts"]:
        print(f"wrong float verdict (ROADMAP item 2): {line}", file=sys.stderr)
    return correct, sum(s["cases"] for s in first), sum(s["failed"] for s in first)


def pass_cpus(workload: str):
    """Cores to pin successive passes to: serial passes take turns on each usable core."""
    if workloads.WORKLOADS[workload].jobs() > 1:
        return itertools.repeat(None)
    return itertools.cycle(sorted(os.sched_getaffinity(0)))


def measure(workload: str, seed: int, seconds: float) -> tuple[list, dict, dict]:
    count = workloads.WORKLOADS[workload].passes_for(seconds)
    per_pass = -(-(SETUP_SAMPLES - count) // count)  # set-ups after each pass
    passes, setups, calibrations = [], [], []
    cpus = pass_cpus(workload)
    cores = itertools.cycle(sorted(os.sched_getaffinity(0)))
    for i in range(count):
        passes.append(run_pass(workload, seed, "run", f"pass{i}", next(cpus)))
        setups.append(passes[-1]["setup_s"])
        for _ in range(min(per_pass, SETUP_SAMPLES - len(setups))):
            setup = run_pass(workload, seed, "setup", "setup", next(cores))
            setups.append(setup["setup_s"])
            calibrations.append(setup["calibration_s"])
    for i, seg in enumerate(passes[0]["segments"]):
        times = " ".join(f"{p['segments'][i]['wall_s']:.3f}" for p in passes)
        print(f"{seg['suite']}: {seg['cases']} cases, failed {seg['failed']}, "
              f"wall_s [{times}], sha256 {seg['digest']}", file=sys.stderr)
    raw = {
        "verdict_s": verdict_s(passes, workloads.WORKLOADS[workload].jobs() > 1),
        "setup_s": statistics.quantiles(setups, n=4)[0],
        "slowdown": statistics.quantiles(calibrations, n=4)[0] / calibrate.REFERENCE_S,
    }
    metrics = {
        "verdict_s": raw["verdict_s"] / raw["slowdown"],
        "setup_s": raw["setup_s"] / raw["slowdown"],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    print(f"{workload}: {len(passes)} passes, {len(setups)} set-ups; unscaled verdict_s "
          f"{raw['verdict_s']:.4f}, setup_s {raw['setup_s']:.5f}, "
          f"slowdown {raw['slowdown']:.4f}", file=sys.stderr)
    return passes, metrics, raw


def trace(workload: str, seed: int) -> tuple[list, dict, dict]:
    """UNTRACED_PASSES untraced passes as the workload runs them, for the pool
    metrics, then TRACED_PASSES traced passes at --jobs 1, pinned in turn on
    each usable core. trace.overhead_s is each traced pass's span count times
    the calibrated cost of one span.
    """
    cpus = pass_cpus(workload)
    plain = [run_pass(workload, seed, "run", f"untraced{i}", next(cpus))
             for i in range(UNTRACED_PASSES)]
    cores = itertools.cycle(sorted(os.sched_getaffinity(0)))
    traced = [run_pass(workload, seed, "trace", f"traced{i}", next(cores))
              for i in range(TRACED_PASSES)]
    jobs = workloads.WORKLOADS[workload].jobs()
    layers = [t["layers"] for t in traced]
    metrics = {name: min(layer[name] for layer in layers) for name in layers[0]}
    best = min(plain, key=pass_verdict_s)
    wall = pass_verdict_s(best)
    busy = sum(sum(seg["case_walls"]) for seg in best["segments"])
    metrics["suites.pool_idle_s"] = jobs * wall - busy
    metrics["suites.pool_efficiency"] = busy / (jobs * wall)
    for t in traced:
        print(f"spans written to {t['spans_file']}", file=sys.stderr)
    return plain + traced, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slicekernels" / "__init__.py").is_file():
        print(f"error: no slicekernels sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            passes, values, unscaled = trace(args.workload, args.seed)
            units = tracer.PER_LAYER
        else:
            passes, values, unscaled = measure(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except workloads.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    correct, attempted, failed = verdicts(passes)
    print(f"cases_attempted={attempted} cases_failed={failed} correct={correct}",
          file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} usable cores",
        "result": result,
        "unscaled": unscaled,
        "segments": [{"suite": seg["suite"], "cases": seg["cases"], "failed": seg["failed"],
                      "sha256": seg["digest"],
                      "wall_s": [p["segments"][i]["wall_s"] for p in passes]}
                     for i, seg in enumerate(passes[0]["segments"])],
        "wrong_float_verdicts": passes[0]["wrong_float_verdicts"],
    }
    out = ROOT / ".perfbench-out" / args.workload / f"seed{args.seed}" / f"result-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
