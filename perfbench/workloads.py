"""Workloads, metric names and verdict checks of the verifier benchmark.

A workload is a closed loop of `slicekernels verify` calls issued back to
back by one client. Each call is a segment: one suite with fixed flags. The
benchmark seed is passed to every call as `--seed`, so the seed alone fixes
every sampled point and therefore every input the oracle sees.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Segment:
    suite: str
    flags: tuple
    cases: int  # pinned: a different count is a benchmark error, not a timing

    @property
    def float_mode(self) -> bool:
        return "float" in self.flags


def _segments(flags: tuple, counts: dict) -> tuple:
    return tuple(Segment(suite, flags, cases) for suite, cases in counts.items())


# The oracle's Laplacian^3 cases (special-cases, polyharmonic at n=7) are left
# out: one of them costs 3-11 s depending on the seed's point, so a pass holding
# them can neither be repeated inside one run nor averaged across seeds.
ORACLE_N7 = _segments(("--n", "7", "--trials", "2"), {"theorem-d": 12, "theorem-dbar": 18})

CLOSED_FORM = _segments(
    ("--n", "3,5,7", "--trials", "1"),
    {"lemmas": 240, "forms": 6, "catalog": 9, "series": 3, "monogenic": 3, "appendix": 1741},
)

# theorem-dbar runs two trials so that seed 0 keeps its known wrong float
# verdict (n9-m0-b4-t001, ROADMAP item 2) in the workload. theorem-d is left
# out to keep a pass near 9 s; it applies the same jets as theorem-dbar.
FLOAT_N9 = (
    _segments(("--n", "9", "--mode", "float", "--tol", "1e-8", "--trials", "2"),
              {"theorem-dbar": 20})
    + _segments(("--n", "9", "--mode", "float", "--tol", "1e-8", "--trials", "1"),
                {"special-cases": 11, "polyharmonic": 2, "forms": 2})
    + (Segment("quadrature", (), 66),)
)

# Every other workload also runs a small quadrature segment, so that every
# layer is exercised, and no per-layer time is a structural zero, on every workload.
SMALL_QUADRATURE = Segment("quadrature", ("--nodes", "64"), 66)


@dataclass(frozen=True)
class Workload:
    segments: tuple
    pooled: bool  # True: --jobs is the number of usable cores, else 1
    # Passes in a run of 30 s, sized on the baseline machine. A run makes a
    # number of passes that depends on --seconds alone, never on how fast the
    # passes go, so the fastest-repeat estimator takes the same minimum on
    # both sides of a change.
    passes: int

    def jobs(self) -> int:
        return len(os.sched_getaffinity(0)) if self.pooled else 1

    def passes_for(self, seconds: float) -> int:
        return max(2, round(self.passes * seconds / 30))


WORKLOADS = {
    "oracle-n7": Workload(ORACLE_N7 + (SMALL_QUADRATURE,), pooled=False, passes=3),
    "closed-form": Workload(CLOSED_FORM + (SMALL_QUADRATURE,), pooled=False, passes=7),
    "float-n9": Workload(FLOAT_N9, pooled=False, passes=3),
    "pool-mix": Workload(ORACLE_N7 + CLOSED_FORM + (SMALL_QUADRATURE,), pooled=True, passes=3),
}

# Catalog entries whose quoted form disagrees with the oracle (all at n=5).
FLAGGED = frozenset({"n5-Delta", "n5-D2", "n5-Dbar2"})


def verify_argv(segment: Segment, seed: int, jobs: int, out_path: str) -> list:
    return ["verify", "--suite", segment.suite, *segment.flags,
            "--seed", str(seed), "--jobs", str(jobs), "--out", out_path]


def report_digest(report: dict) -> str:
    """SHA-256 of a report with every case's wall_time removed.

    The report's config leaves out the worker count, so a pooled pass and a
    serial (traced) pass of the same segments give the same digest.
    """
    stripped = dict(report)
    stripped["cases"] = [{k: v for k, v in c.items() if k != "wall_time"}
                         for c in report["cases"]]
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class BenchmarkError(Exception):
    """The benchmark itself is out of step with the program (not a slow run)."""


def check_report(segment: Segment, report: dict, exit_code: int) -> list:
    """Problems with one segment's verdicts; raises when the case count moved.

    Outside float mode every case must pass, and every exact-mode residual
    must be exactly 0.0 (quadrature computes in floats in either mode).
    Float-mode failures are not problems here: the caller counts them as
    wrong verdicts, the known float defect of ROADMAP item 2.
    """
    summary = report["summary"]
    if summary["total"] != segment.cases or len(report["cases"]) != segment.cases:
        raise BenchmarkError(
            f"{segment.suite}: {summary['total']} cases, pinned {segment.cases}")
    problems = []
    if exit_code != (0 if summary["failed"] == 0 else 1):
        problems.append(f"{segment.suite}: exit code {exit_code} "
                        f"with {summary['failed']} failed cases")
    if not segment.float_mode:
        exact = segment.suite != "quadrature"
        for case in report["cases"]:
            if not case["pass"] or (exact and case["residual"] != 0.0):
                problems.append(f"{segment.suite}: {case['key']} pass={case['pass']} "
                                f"residual {case['residual']!r}")
    if segment.suite == "catalog":
        flagged = {c["key"] for c in report["cases"] if c.get("flagged")}
        if flagged != FLAGGED:
            problems.append(f"catalog: flagged {sorted(flagged)}, "
                            f"expected {sorted(FLAGGED)}")
    return problems
