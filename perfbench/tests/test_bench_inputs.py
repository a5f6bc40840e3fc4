"""Seeds fix the inputs; the verdict gate catches moved counts and inexact residuals."""

import json

import pytest

import workloads
from slicekernels import cli

FORMS = workloads.Segment("forms", ("--n", "3", "--trials", "3"), 6)


def digest_of(tmp_path, seed, name):
    out = tmp_path / f"{name}.json"
    assert cli.main(workloads.verify_argv(FORMS, seed, 1, str(out))) == 0
    report = json.loads(out.read_text())
    assert workloads.check_report(FORMS, report, 0) == []
    return workloads.report_digest(report)


def test_same_seed_same_digest_other_seed_other_inputs(tmp_path):
    a = digest_of(tmp_path, 7, "a")
    assert digest_of(tmp_path, 7, "b") == a
    assert digest_of(tmp_path, 8, "c") != a


def test_digest_ignores_wall_time_only():
    report = {"summary": {}, "cases": [{"key": "k", "residual": 0.0, "wall_time": 1.0}]}
    slower = json.loads(json.dumps(report))
    slower["cases"][0]["wall_time"] = 2.0
    assert workloads.report_digest(report) == workloads.report_digest(slower)
    slower["cases"][0]["residual"] = 1e-300
    assert workloads.report_digest(report) != workloads.report_digest(slower)


def report(cases):
    failed = sum(not c["pass"] for c in cases)
    return {"summary": {"total": len(cases), "failed": failed}, "cases": cases}


def test_changed_case_count_is_a_benchmark_error():
    seg = workloads.Segment("forms", (), 2)
    with pytest.raises(workloads.BenchmarkError, match="pinned 2"):
        workloads.check_report(seg, report([{"key": "a", "residual": 0.0, "pass": True}]), 0)


def test_exact_residual_must_be_zero_but_float_failures_are_counted_elsewhere():
    bad = report([{"key": "a", "residual": 1e-30, "pass": False}])
    exact = workloads.Segment("theorem-d", ("--n", "7"), 1)
    floats = workloads.Segment("theorem-d", ("--mode", "float"), 1)
    assert workloads.check_report(exact, bad, 1) == ["theorem-d: a pass=False residual 1e-30"]
    assert workloads.check_report(floats, bad, 1) == []
    assert workloads.check_report(floats, bad, 0) == [
        "theorem-d: exit code 0 with 1 failed cases"]


def test_catalog_flagged_set_is_pinned():
    seg = workloads.Segment("catalog", (), 1)
    one = report([{"key": "n5-Delta", "residual": 0.0, "pass": True, "flagged": True}])
    assert workloads.check_report(seg, one, 0) == [
        "catalog: flagged ['n5-Delta'], expected ['n5-D2', 'n5-Dbar2', 'n5-Delta']"]
