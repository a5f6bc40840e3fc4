import json

import pytest

from slicekernels.cli import main
from slicekernels.errors import InvalidParams
from slicekernels.suites import SUITE_NAMES, SuiteConfig, run_suite


def small(suite, **kw):
    base = dict(n_values=(3,), trials=2, seed=0, jobs=1)
    base.update(kw)
    return SuiteConfig(suite=suite, **base)


def test_all_suites_run_clean_small():
    for suite in SUITE_NAMES:
        cfg = small(suite)
        if suite == "series":
            cfg = small(suite, series_terms=20)
        if suite == "quadrature":
            cfg = small(suite, quad_nodes=64)
        report = run_suite(cfg)
        assert report.summary["failed"] == 0, (suite, report.summary)
        assert report.summary["total"] == len(report.cases)
        assert report.summary["passed"] + report.summary["failed"] == report.summary["total"]


def test_report_shape_and_summary_tallies():
    report = run_suite(small("theorem-d", n_values=(3, 5), trials=3))
    data = report.as_dict()
    assert data["schema"] == 1
    assert data["suite"] == "theorem-d"
    assert data["config"]["seed"] == 0
    # h_3 = 1 gives one (m, beta) pair; h_5 = 2 gives three
    assert data["summary"]["total"] == (1 + 3) * 3
    keys = [c["key"] for c in data["cases"]]
    assert keys == sorted(keys)
    for case in data["cases"]:
        assert set(case) >= {"key", "params", "residual", "pass", "wall_time"}
        assert case["residual"] == 0.0


def test_exact_mode_residual_is_zero_or_fail():
    report = run_suite(small("lemmas", trials=1))
    assert all(c["residual"] == 0.0 and c["pass"] for c in report.cases)


def test_determinism_across_workers_and_repeat():
    a = run_suite(small("forms", trials=3, jobs=1)).as_dict(strip_times=True)
    b = run_suite(small("forms", trials=3, jobs=2)).as_dict(strip_times=True)
    c = run_suite(small("forms", trials=3, jobs=1)).as_dict(strip_times=True)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert json.dumps(a, sort_keys=True) == json.dumps(c, sort_keys=True)
    d = run_suite(small("forms", trials=3, seed=1)).as_dict(strip_times=True)
    assert json.dumps(a, sort_keys=True) != json.dumps(d, sort_keys=True)


def test_catalog_flags():
    report = run_suite(small("catalog", n_values=(3, 5), trials=2))
    assert report.summary["failed"] == 0
    assert report.summary["flagged_known_discrepancies"] == 3
    flagged = {c["key"] for c in report.cases if c.get("flagged")}
    assert flagged == {"n5-Delta", "n5-D2", "n5-Dbar2"}
    for c in report.cases:
        if c.get("flagged"):
            assert "oracle-confirmed" in c["note"]
        assert "expected_match" in c


def test_catalog_unflagged_mismatch_fails(monkeypatch):
    # an entry whose quoted form disagrees with the oracle but is not
    # flagged must fail the suite
    from slicekernels import kernels as K
    from slicekernels.clifford import Multivector
    from slicekernels.diffop import make_dirac
    from slicekernels.rings import RATIONALS

    bad = K.CatalogEntry(
        id="bogus",
        n=3,
        op_factory=lambda: make_dirac(3),
        printed=lambda s, x: Multivector.scalar(3, RATIONALS, 999),
        printed_text="999",
        expected_match=True,
    )
    monkeypatch.setitem(K._CATALOG, "bogus", bad)
    report = run_suite(small("catalog", trials=1))
    assert report.summary["failed"] == 1
    failing = [c for c in report.cases if not c["pass"]]
    assert failing[0]["key"] == "bogus"


def test_config_validation():
    with pytest.raises(InvalidParams):
        run_suite(SuiteConfig(suite="nope"))
    with pytest.raises(InvalidParams):
        run_suite(SuiteConfig(suite="forms", n_values=(4,)))
    with pytest.raises(InvalidParams):
        run_suite(SuiteConfig(suite="forms", mode="fuzzy"))


def test_float_mode_forms_n9():
    report = run_suite(small("forms", n_values=(9,), mode="float", tol=1e-8, trials=2))
    assert report.summary["failed"] == 0
    assert all(c["residual"] <= 1e-8 for c in report.cases)


def test_float_mode_theorem_spot_checks_n9():
    # float runs cap the jet order, so only the low-order (m, beta) pairs run
    report = run_suite(
        small("theorem-d", n_values=(9,), mode="float", tol=1e-8, trials=2)
    )
    assert report.summary["failed"] == 0
    pairs = {(c["params"]["m"], c["params"]["beta"]) for c in report.cases}
    assert pairs == {(0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (1, 2)}


def test_cli_eval_text(capsys):
    code = main(["eval", "--kernel", "cauchy-II", "--n", "3",
                 "--s", "2,0,0,0", "--x", "0,1,0,0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2/5 + 1/5*e1"
    code = main(["eval", "--kernel", "fueter-sce", "--n", "3",
                 "--s", "2,0,0,0", "--x", "0,1,0,0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "-8/25 - 4/25*e1"


def test_cli_eval_json(capsys):
    code = main(["eval", "--kernel", "harmonic", "--m", "1", "--n", "5",
                 "--s", "2,0,0,0,0,0", "--x", "0,1,0,0,0,0", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == {"1": "-4/5"}


def test_cli_eval_singular_exit_code(capsys):
    code = main(["eval", "--kernel", "cauchy-II", "--n", "3",
                 "--s", "0,1,0,0", "--x", "0,1,0,0"])
    assert code == 2
    assert "singular: s in [x]" in capsys.readouterr().err


def test_cli_eval_invalid_params_exit_code(capsys):
    code = main(["eval", "--kernel", "d-beta-delta-m", "--n", "3", "--m", "5",
                 "--beta", "1", "--s", "2,0,0,0", "--x", "0,1,0,0"])
    assert code == 2


def test_cli_verify_json_and_exit(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "appendix", "--hn-max", "8",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    assert data["summary"]["failed"] == 0
    assert data["summary"]["total"] == len(data["cases"])


def test_cli_verify_text_format(capsys):
    code = main(["verify", "--suite", "catalog", "--n", "5", "--trials", "2",
                 "--jobs", "1", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "3 flagged" in out


def test_cli_verify_csv_convergence(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["verify", "--suite", "quadrature", "--nodes", "64",
                 "--jobs", "1", "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,abs_error,ratio"
    assert len(lines) > 2


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": [3], "trials": 1, "seed": 5}))
    code = main(["verify", "--suite", "forms", "--config", str(cfg),
                 "--jobs", "1", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["trials"] == 1
    assert data["config"]["seed"] == 5
    assert data["config"]["n_values"] == [3]
    # CLI flags override the file
    code = main(["verify", "--suite", "forms", "--config", str(cfg),
                 "--trials", "2", "--jobs", "1", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["trials"] == 2


def test_cli_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code = main(["verify", "--suite", "forms", "--config", str(cfg)])
    assert code == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_case_is_a_failed_entry(monkeypatch, tmp_path, jobs):
    # the suite records the raising case and runs every other case; pool
    # workers are forked from this process, so they see the patched catalog
    from slicekernels import kernels as K
    from slicekernels.diffop import make_dirac

    def boom(s, x):
        raise ZeroDivisionError("boom")

    bad = K.CatalogEntry(id="raises", n=3, op_factory=lambda: make_dirac(3),
                         printed=boom, printed_text="boom", expected_match=True)
    monkeypatch.setitem(K._CATALOG, "raises", bad)
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "catalog", "--n", "3", "--trials", "1",
                 "--jobs", str(jobs), "--out", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    assert data["summary"] == {"total": 3, "passed": 2, "failed": 1,
                               "flagged_known_discrepancies": 0}
    failed = [c for c in data["cases"] if not c["pass"]]
    assert failed == [{"key": "raises", "params": {"id": "raises", "trials": 1},
                       "pass": False, "residual": 1.0,
                       "error": "ZeroDivisionError: boom",
                       "wall_time": failed[0]["wall_time"]}]


@pytest.mark.parametrize("values, message", [
    ({"jobs": "2"}, "error: jobs must be an integer, got '2'"),
    ({"trials": None}, "error: trials must be an integer, got None"),
    ({"tol": "1e-8"}, "error: tol must be a number, got '1e-8'"),
    ({"n": [3, None]}, "error: suite dimension None must be an odd integer >= 3"),
])
def test_cli_config_value_types(tmp_path, capsys, values, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code = main(["verify", "--suite", "forms", "--config", str(cfg)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


def test_cli_eval_float_overflow(capsys):
    code = main(["eval", "--kernel", "cauchy-II", "--n", "3", "--mode", "float",
                 "--s", "1e400,0,0,0", "--x", "0,1,0,0"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: coordinates '1e400,0,0,0' out of float range"]
