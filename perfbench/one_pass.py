"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/one_pass.py WORKLOAD SEED OUT_DIR MODE CPU
MODE is `setup` (set up, time the calibration loop and stop), `run` (set up
and run every segment) or `trace` (run every segment at --jobs 1 with the
layer tracer installed). CPU is the core to pin the pass to, or `-` to leave
it unpinned. Prints one JSON object.

Set-up is what every real `slicekernels verify` invocation pays before its
first case: importing the package (which builds the literature catalog) and
building the argument lists. The clock starts before any other import.
"""

import time

SETUP_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from slicekernels import cli  # noqa: E402

import workloads  # noqa: E402


def main(workload_name: str, seed: int, out_dir: Path, mode: str) -> dict:
    workload = workloads.WORKLOADS[workload_name]
    jobs = 1 if mode == "trace" else workload.jobs()
    out_dir.mkdir(parents=True, exist_ok=True)
    calls = [(seg, workloads.verify_argv(seg, seed, jobs, str(out_dir / f"{seg.suite}.json")))
             for seg in workload.segments]
    setup_s = time.perf_counter() - SETUP_START
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"slicekernels imported from {cli.__file__}, not from {ROOT / 'src'}")
    if mode == "setup":
        import calibrate

        return {"setup_s": setup_s, "calibration_s": calibrate.calibration_s()}

    import json
    import resource

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    walls = []
    exit_codes = []
    for seg, argv in calls:
        if tracer is not None:
            tracer.request = f"{workload_name}/{seg.suite}"
        start = time.perf_counter()
        exit_codes.append(cli.main(argv))
        walls.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.uninstall()

    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result = {"setup_s": setup_s, "peak_rss_mb": max(usage) / 1024.0,
              "segments": [], "problems": [], "wrong_float_verdicts": []}
    for (seg, argv), wall, code in zip(calls, walls, exit_codes):
        with open(argv[-1], encoding="utf-8") as fh:
            report = json.load(fh)
        result["problems"] += workloads.check_report(seg, report, code)
        if seg.float_mode:
            result["wrong_float_verdicts"] += [
                f"{seg.suite}/{c['key']} residual {c['residual']:.3g}"
                for c in report["cases"] if not c["pass"]]
        result["segments"].append({
            "suite": seg.suite, "wall_s": wall, "cases": seg.cases,
            "failed": report["summary"]["failed"],
            "case_walls": [c["wall_time"] for c in report["cases"]],
            "digest": workloads.report_digest(report)})

    if tracer is not None:
        spans_path = out_dir / "spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as out:
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")
        calls = tracing.target_calls(tracer.spans)
        result["problems"] += tracing.coverage_problems(workload_name, calls)
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.stats)
        result["layers"]["trace.overhead_s"] = len(tracer.spans) * tracing.span_cost()
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


if __name__ == "__main__":
    import json
    import os

    name, seed, out, mode, cpu = sys.argv[1:6]
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})
    print(json.dumps(main(name, int(seed), Path(out), mode)))
