import json
import os
import subprocess
import sys

import pytest

from slicekernels import axial, rings, suites
from slicekernels.cli import main
from slicekernels.clifford import parse_multivector
from slicekernels.diffop import DiffOperator, named_operator
from slicekernels.errors import InvalidParams
from slicekernels.rings import FLOATS, JetRing
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
    # flagged must fail the suite: here q-D with its sign flipped
    from slicekernels import kernels as K

    bad = K.CatalogEntry(id="bogus", n=3, op=("d", 1, 0), printed_text="2*Q^-1")
    monkeypatch.setitem(K._CATALOG, "bogus", bad)
    report = run_suite(small("catalog", trials=1))
    assert report.summary["failed"] == 1
    failing = [c for c in report.cases if not c["pass"]]
    assert failing[0]["key"] == "bogus"


@pytest.mark.parametrize("mode", ("exact", "float"))
def test_a_flagged_entry_whose_quoted_form_matches_at_one_point_fails(monkeypatch, mode):
    # a flagged entry passes only when its quoted form mismatches the oracle
    # at every point: here n5-Delta's quoted form reads the oracle's value at
    # the first of three points
    from slicekernels import kernels as K

    printed, seen = K.CatalogEntry.printed, []

    def matches_once(entry, s, x):
        seen.append(entry.id)
        if seen.count(entry.id) == 1 and entry.id == "n5-Delta":
            return axial.apply(entry.op, ("cauchy-left",), s, x)
        return printed(entry, s, x)

    monkeypatch.setattr(K.CatalogEntry, "printed", matches_once)
    report = run_suite(small("catalog", n_values=(5,), trials=3, mode=mode))
    assert seen.count("n5-Delta") == 3
    verdicts = {c["key"]: c["pass"] for c in report.cases}
    assert verdicts.pop("n5-Delta") is False
    assert all(verdicts.values())


def _count_calls(monkeypatch, cls):
    calls = [0]
    init = cls.__init__

    def counted(self, *args):
        calls[0] += 1
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


def test_operator_builds_do_not_grow_with_the_case_count(monkeypatch):
    # lemma rows build their operator once per process; the catalog is
    # decided by the axial oracle and builds none
    builds = _count_calls(monkeypatch, DiffOperator)
    for suite, n_values in (("lemmas", (3,)), ("catalog", (3, 5))):
        counts = []
        for trials in (1, 2):
            named_operator.cache_clear()
            builds[0] = 0
            assert run_suite(small(suite, n_values=n_values, trials=trials)).passed
            counts.append(builds[0])
        if suite == "catalog":
            assert counts == [0, 0], counts
        else:
            assert counts[0] == counts[1] > 0, (suite, counts)


def test_each_operator_support_builds_one_jet_ring(monkeypatch):
    # n=9 axial-link applies 24 operators through the jet oracle, with 12
    # supports: D^3 and D Delta share one, and so do D^3 Delta and D Delta^2,
    # and D-bar^beta Delta^m has the support of D^beta Delta^m; the axial
    # oracle adds one 3-variable ring for each order its walks at the one
    # point take: 8 (both Cauchy kernels and harmonic 1), 6, 4 and 2
    # (harmonic 2, 3 and 4) and 1 (fueter-sce)
    named_operator.cache_clear()
    rings.jet_ring.cache_clear()
    axial._context.cache_clear()
    builds = _count_calls(monkeypatch, JetRing)
    assert run_suite(SuiteConfig(suite="axial-link", n_values=(9,), trials=1, seed=0,
                                 jobs=1)).passed
    assert builds[0] == 12 + 5


def test_theorem_rows_at_one_point_share_one_walk(monkeypatch):
    # theorem-d at n=7, trials 2: 12 rows at 2 points build 2 walks, each on
    # one point of the axial algebra, not one per row
    points = _count_calls(monkeypatch, axial._Point)
    walks = _count_calls(monkeypatch, axial.Walk)
    report = run_suite(small("theorem-d", n_values=(7,), trials=2))
    assert report.passed and len(report.cases) == 12
    assert points[0] == walks[0] == 2
    assert not suites._WALKS and not suites._ORDERS  # freed when the group ends


def test_catalog_points_share_one_walk(monkeypatch):
    # catalog at n=3,5, trials 10: 9 entries read 20 points, one walk each on
    # the left Cauchy kernel, not one per entry and point (90)
    walks = _count_calls(monkeypatch, axial.Walk)
    report = run_suite(small("catalog", n_values=(3, 5), trials=10))
    assert report.passed and len(report.cases) == 9
    assert walks[0] == 20
    assert not suites._CATALOG_POINTS  # freed when the suite ends


def test_lemma_rows_at_one_point_share_their_jets(monkeypatch):
    # lemmas at n=3,5,7, trials 1: 80 rows at each of 3 points.  D and D-bar
    # share one jet ring, so each point is seeded once (n + 1 seeds), takes
    # one reciprocal, and the D and D-bar rows of a block read one block jet
    from slicekernels import kernels as K

    suites._pair.cache_clear()  # fresh points, so no memo holds one already
    counts = {"seed": 0, "reciprocal": 0}
    for name in counts:
        method = getattr(JetRing, name)

        def counted(self, *args, name=name, method=method):
            counts[name] += 1
            return method(self, *args)
        monkeypatch.setattr(JetRing, name, counted)
    blocks = []
    oracle_apply = K.oracle_apply

    def recorded(op, f, x):
        return oracle_apply(op, lambda y: blocks.append(f(y)) or blocks[-1], x)
    monkeypatch.setattr(K, "oracle_apply", recorded)
    report = run_suite(small("lemmas", n_values=(3, 5, 7), trials=1))
    assert report.passed and len(report.cases) == len(blocks) == 240
    assert counts == {"seed": 4 + 6 + 8, "reciprocal": 3}
    assert len({id(b) for b in blocks}) == 3 * 40  # `blocks` holds them: no id is reused


def test_rows_at_one_point_share_one_point_record():
    for suite in ("lemmas", "theorem-dbar"):
        records = {}
        for case in run_suite(small(suite, n_values=(3, 5), trials=2)).cases:
            records.setdefault((case["params"]["n"], case["params"]["trial"]),
                               set()).add(id(case["point"]))
        assert len(records) == 4 and all(len(ids) == 1 for ids in records.values()), suite


def test_theorem_d_and_theorem_dbar_check_the_same_points():
    # a point is drawn from (seed, n, trial, sampler), not from the suite or
    # the row, so every row at one (n, trial) of either suite has one point
    points = {}
    for suite in ("theorem-d", "theorem-dbar"):
        for case in run_suite(small(suite, n_values=(3, 5, 7), trials=2, seed=4)).cases:
            p = case["params"]
            points.setdefault((p["n"], p["trial"]), set()).add(json.dumps(case["point"]))
    assert len(points) == 6
    assert all(len(seen) == 1 for seen in points.values())


def test_axial_link_covers_every_catalog_point():
    from slicekernels import kernels as K

    grid = {(p["n"], p["base"], p["beta"], p["m"], p["source"])
            for p in suites._axial_link_grid(small("axial-link", n_values=(3, 5)))}
    for entry in map(K.catalog_fixture, K.catalog_ids()):
        assert (entry.n, *entry.op, ("cauchy-left",)) in grid, entry.id


def test_each_row_sets_exactly_one_test():
    for kind, check in suites.CHECKS.items():
        tests = [name for name in ("oracle", "pair", "holds", "quad", "run")
                 if getattr(check, name)]
        assert len(tests) == 1, (kind, tests)


def test_the_jet_oracle_runs_only_inside_row_functions(monkeypatch):
    # theorem-d rows name an oracle, which the runner hands to the axial
    # oracle; only the axial-link and quad-fs-oracle row functions call the
    # jet oracle, one call a case
    calls = []
    oracle_apply = suites.oracle_apply
    monkeypatch.setattr(suites, "oracle_apply",
                        lambda *args: calls.append(args) or oracle_apply(*args))
    counts = {}
    for suite in ("theorem-d", "axial-link", "quadrature"):
        calls.clear()
        report = run_suite(small(suite, n_values=(3, 5), trials=1, quad_nodes=64))
        assert report.passed, suite
        counts[suite] = len(calls)
    fs_oracle = sum(c["key"].startswith("fs-oracle-") for c in report.cases)
    assert fs_oracle == 12
    assert counts == {"theorem-d": 0, "axial-link": 18, "quadrature": fs_oracle}


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
    # float runs cap the operator order at FLOAT_ORACLE_MAX_ORDER, so only the
    # low-order (m, beta) pairs run; no oracle needs the cap, which only pins
    # the float case set, as the benchmark's float-n9 counts (20/11/2) do; it
    # goes with a benchmark change that re-pins them to 28/12/4
    report = run_suite(
        small("theorem-d", n_values=(9,), mode="float", tol=1e-8, trials=2)
    )
    assert report.summary["failed"] == 0
    pairs = {(c["params"]["m"], c["params"]["beta"]) for c in report.cases}
    assert pairs == {(0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (1, 2)}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("suite", ["monogenic", "polyharmonic"])
def test_float_zero_identities_read_an_exact_zero(suite, seed):
    # the oracle is exact at the float point and rounds once, so the value
    # these identities give, zero, reads 0.0 with no rounding of its own
    report = run_suite(small(suite, n_values=(3, 5, 7, 9), mode="float", seed=seed))
    assert report.passed, report.summary
    assert {c["residual"] for c in report.cases} == {0.0}


@pytest.mark.parametrize("seed", [0, 7])
def test_float_theorem_dbar_n9_passes(seed):
    # Clifford products must keep small float coefficients: dropping those
    # under 1e-12 fails n9-m0-b4 cases at these seeds by up to 1.6e-3
    report = run_suite(small("theorem-dbar", n_values=(9,), mode="float", tol=1e-8,
                             seed=seed))
    assert report.passed, report.summary


def test_cli_eval_text(capsys):
    code = main(["eval", "--kernel", "cauchy-II", "--n", "3",
                 "--s", "2,0,0,0", "--x", "0,1,0,0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2/5 + 1/5*e1"
    code = main(["eval", "--kernel", "fueter-sce", "--n", "3",
                 "--s", "2,0,0,0", "--x", "0,1,0,0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "-8/25 - 4/25*e1"


def test_cli_eval_ignores_the_bounds_of_an_option_the_kernel_does_not_read(capsys):
    # fueter-sce reads no --m, --k or --terms, so values past their bounds change nothing
    argv = ["eval", "--kernel", "fueter-sce", "--n", "3", "--s", "1,2,0,0", "--x", "1,0,0,1"]
    assert main(argv) == 0
    value = capsys.readouterr().out
    assert value == "-8/9*e1 - 4/9*e3\n"
    for extra in (["--m", "200"], ["--k", "500"], ["--terms", "100000"]):
        assert main([*argv, *extra]) == 0
        assert capsys.readouterr().out == value


def test_cli_eval_validation(monkeypatch, capsys):
    point = ["--s", "2,0,0,0", "--x", "0,1,0,0"]
    assert main(["eval", "--kernel", "cauchy-II", "--n", "4",
                 "--s", "2,0,0,0,0", "--x", "0,1,0,0,0"]) == 2
    assert capsys.readouterr().err == "error: kernel dimension must be odd and >= 3\n"
    assert main(["eval", "--kernel", "harmonic", "--n", "3", "--side", "right", *point]) == 2
    assert capsys.readouterr().err == "error: no printed right-sided form for harmonic\n"
    # the series bound is the one verify applies, checked before any sum is formed
    from slicekernels import kernels as K

    monkeypatch.setattr(K, "cauchy_series_sums", lambda *args: pytest.fail("summed"))
    limit = suites.MAX_SERIES_TERMS
    assert main(["eval", "--kernel", "series", "--n", "3", "--terms", str(limit + 1),
                 *point]) == 2
    assert capsys.readouterr().err == f"error: terms must be <= {limit}, got {limit + 1}\n"
    assert main(["eval", "--kernel", "series", "--n", "3", "--terms", "1600", *point]) == 2
    assert capsys.readouterr().err == f"error: terms must be <= {limit}, got 1600\n"
    # so are --m and --k, as a float zero is rechecked exactly
    monkeypatch.setattr(K, "pseudo_inverse", lambda *args: pytest.fail("computed"))
    for flag, kernel in (("--m", "pseudo-cauchy"), ("--k", "lemma")):
        assert main(["eval", "--kernel", kernel, "--n", "3", flag, "100000", "--formula", "3",
                     "--mode", "float", *point]) == 2
        assert capsys.readouterr().err == f"error: {flag[2:]} must be <= 100, got 100000\n"
    monkeypatch.undo()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--kernel", "mystery", "--n", "3", *point])
    assert exc.value.code == 2
    assert "invalid choice: 'mystery'" in capsys.readouterr().err
    assert main(["eval", "--kernel", "cauchy-II", "--n", "3", *point]) == 0
    assert capsys.readouterr().out == "2/5 + 1/5*e1\n"


@pytest.mark.parametrize("argv", [
    # (s - x0)^2 = 0 at s = x0
    ["--kernel", "polyanalytic", "--n", "5", "--s", "1,0,0,0,0,0", "--x", "1,2,0,0,0,0"],
    # the coefficient -2 (h - m + 1) of the first D lemma side is 0 at m = h + 1
    ["--kernel", "lemma", "--n", "3", "--s", "2,0,0,0", "--x", "0,1,0,0", "--m", "2"],
])
def test_cli_eval_prints_a_float_zero_that_is_exact(capsys, argv):
    assert main(["eval", *argv, "--mode", "float"]) == 0
    assert capsys.readouterr().out == "0\n"


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


def test_cli_eval_float_singular_guard_is_scale_relative(capsys):
    # Q is homogeneous in (s, x): small inputs far from [x] are not singular
    # (the exact value is 4000 + 2000*e1), while a small s on [x] still is
    code = main(["eval", "--kernel", "cauchy-II", "--n", "3", "--mode", "float",
                 "--s", "2/10000,0,0,0", "--x", "0,1/10000,0,0"])
    assert code == 0
    value = parse_multivector(capsys.readouterr().out.strip(), 3, FLOATS)
    assert list(value.blades) == [0, 1]
    assert value.blades[0] == pytest.approx(4000) and value.blades[1] == pytest.approx(2000)
    code = main(["eval", "--kernel", "cauchy-II", "--n", "3", "--mode", "float",
                 "--s", "0,1/10000,0,0", "--x", "0,0,1/10000,0"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: singular: s in [x]"]


@pytest.mark.parametrize("s, x, q_inv", [("1e100,0,0,0", "0,1,0,0", 1e-200),
                                         ("1e-100,0,0,0", "0,1e-100,0,0", 5e199)])
def test_cli_eval_float_singular_guard_at_any_scale(capsys, s, x, q_inv):
    # far from [x] at any scale: the guard tests, and Q is inverted, on copies
    # of the inputs divided by a power of two, even where |Q|^2 or the
    # guard's bound leaves float range
    argv = ["eval", "--n", "3", "--mode", "float", "--s", s, "--x", x]
    assert main(argv + ["--kernel", "cauchy-II"]) == 0
    assert capsys.readouterr().err == ""
    assert main(argv + ["--kernel", "pseudo-cauchy", "--m", "1"]) == 0
    value = parse_multivector(capsys.readouterr().out.strip(), 3, FLOATS)
    assert value.blades.keys() == {0}
    assert value.blades.get(0, 0) == pytest.approx(q_inv, rel=1e-15, abs=0)


def test_cli_eval_float_q_outside_float_range(capsys):
    # s^2 overflows, so Q itself cannot be formed in floats
    code = main(["eval", "--kernel", "cauchy-II", "--n", "3", "--mode", "float",
                 "--s", "1e200,0,0,0", "--x", "0,1,0,0"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: Q_{c,s}(x) lies outside float range"]


def test_cli_eval_float_prints_values_below_the_zero_tolerance(capsys):
    # the exact value is 1/100000000000001; a float 1e-14 is not zero
    argv = ["eval", "--kernel", "pseudo-cauchy", "--n", "3", "--m", "1",
            "--s", "1e7,0,0,0", "--x", "0,1,0,0"]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "1/100000000000001"
    assert main(argv + ["--mode", "float"]) == 0
    value = parse_multivector(capsys.readouterr().out.strip(), 3, FLOATS)
    assert value.blades.get(0, 0) == pytest.approx(1e-14) and value.blades.keys() == {0}
    assert main(argv + ["--mode", "float", "--format", "json"]) == 0
    blades = json.loads(capsys.readouterr().out)["value"]
    assert list(blades) == ["1"] and float(blades["1"]) == pytest.approx(1e-14)


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


REPORT_RUNS = {
    "appendix": ["--suite", "appendix", "--hn-max", "8"],
    "quadrature": ["--suite", "quadrature", "--nodes", "64"],
    "catalog": ["--suite", "catalog", "--n", "5", "--trials", "2"],
}


@pytest.mark.parametrize("run", REPORT_RUNS)
def test_cli_verify_json_report_bytes(tmp_path, run):
    out = tmp_path / "report.json"
    main(["verify", *REPORT_RUNS[run], "--jobs", "1", "--out", str(out)])
    text = out.read_bytes().decode("utf-8")
    expected = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    # as lists of lines, so that a failure names the first line that differs
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("run", REPORT_RUNS)
def test_cli_verify_stdout_and_out_give_the_same_bytes(tmp_path, capsys, run, fmt):
    # text and csv carry no wall_time, so two runs of one config write the same bytes
    argv = ["verify", *REPORT_RUNS[run], "--jobs", "1", "--format", fmt]
    main(argv)
    printed = capsys.readouterr().out
    out = tmp_path / f"report.{fmt}"
    main([*argv, "--out", str(out)])
    assert capsys.readouterr().out == ""
    written = out.read_bytes().decode("utf-8")
    assert written.splitlines(keepends=True) == printed.splitlines(keepends=True)


def test_cli_verify_keeps_its_verdict_when_the_reader_stops_early():
    # `verify ... | head -n 1`: the streamed report meets a closed pipe
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    with subprocess.Popen(
            [sys.executable, "-m", "slicekernels", "verify", "--suite", "appendix",
             "--hn-max", "16", "--jobs", "1"],  # 1.16 MB, past a 64 KB pipe buffer
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path}) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=300) == 0
        assert proc.stderr.read() == b""


def test_report_memory_does_not_scale_with_copies_of_its_text(tmp_path):
    # the report is written as it is encoded, and each case keeps one params
    # dict: 4,708 cases and 1.16 MB of JSON peak at about 2.7x its size, and
    # at about 10x when the text was built whole before its first byte
    import tracemalloc

    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        main(["verify", "--suite", "appendix", "--hn-max", "16", "--jobs", "1",
              "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(out.read_text())["summary"]["total"] == 4708
    assert peak < 5 * out.stat().st_size


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

    # Q^-0 is read only when the case evaluates the quoted value, and raises
    bad = K.CatalogEntry(id="raises", n=3, op=("d", 1, 0), printed_text="Q^-0")
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
                       "error": "InvalidParams: pseudo-Cauchy power needs m >= 1",
                       "wall_time": failed[0]["wall_time"]}]


@pytest.mark.parametrize("values, message", [
    ({"jobs": "2"}, "error: jobs must be an integer, got '2'"),
    ({"trials": None}, "error: trials must be an integer, got None"),
    ({"tol": "1e-8"}, "error: tol must be a number, got '1e-8'"),
    ({"n": [3, None]}, "error: suite dimension None must be an odd integer >= 3"),
    ({"n": "3,x"}, "error: --n must be integers separated by commas, got '3,x'"),
])
def test_cli_config_value_types(tmp_path, capsys, values, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code = main(["verify", "--suite", "forms", "--config", str(cfg)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


@pytest.mark.parametrize("text", ["[1]", '["trials"]', "null", "5"])
def test_cli_config_must_be_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(["verify", "--suite", "forms", "--config", str(cfg)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: config file {cfg} must hold a JSON object"]
    assert captured.out == ""


def test_cli_eval_float_overflow(capsys):
    code = main(["eval", "--kernel", "cauchy-II", "--n", "3", "--mode", "float",
                 "--s", "1e400,0,0,0", "--x", "0,1,0,0"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: coordinates '1e400,0,0,0' out of float range"]


@pytest.mark.parametrize("flags, message", [
    (["--suite", "quadrature", "--nodes", "7"], "error: quad_nodes must be even and >= 8, got 7"),
    (["--suite", "quadrature", "--nodes", "-4"], "error: quad_nodes must be even and >= 8, got -4"),
    (["--suite", "quadrature", "--nodes", "65538"],
     "error: quad_nodes must be <= 65536, got 65538"),
    (["--suite", "quadrature", "--nodes", str(2**24)],
     "error: quad_nodes must be <= 65536, got 16777216"),
    (["--suite", "series", "--terms", "-1"], "error: series_terms must be >= 0, got -1"),
    (["--suite", "series", "--terms", "1001"], "error: series_terms must be <= 1000, got 1001"),
    (["--suite", "appendix", "--hn-max", "33"], "error: hn_max must be <= 32, got 33"),
    (["--suite", "theorem-d", "--trials", "10001"], "error: trials must be <= 10000, got 10001"),
    (["--suite", "theorem-d", "--trials", "100000000"],
     "error: trials must be <= 10000, got 100000000"),
    (["--suite", "forms", "--jobs", "0"], "error: jobs must be >= 1, got 0"),
    (["--suite", "forms", "--jobs", "-2"], "error: jobs must be >= 1, got -2"),
    (["--suite", "forms", "--n="], "error: n_values must name at least one dimension"),
    (["--suite", "appendix", "--hn-max", "0"], "error: hn_max must be >= 1, got 0"),
    (["--suite", "forms", "--mode", "float", "--tol", "nan"],
     "error: tol must be a finite number > 0, got nan"),
    (["--suite", "forms", "--tol", "0"], "error: tol must be a finite number > 0, got 0.0"),
    (["--suite", "forms", "--n", "3,3"], "error: suite dimension 3 is repeated"),
    (["--suite", "forms", "--n", "5,3,5"], "error: suite dimension 5 is repeated"),
    (["--suite", "forms", "--n", "17"], "error: suite dimension 17 outside 1..15"),
    (["--suite", "forms", "--n", "3,21"], "error: suite dimension 21 outside 1..15"),
    # the catalog has entries at n=3 and 5 only: a run that checks nothing
    (["--suite", "catalog", "--n", "7", "--trials", "1", "--format", "text"],
     "error: suite catalog has no cases at n=7 in exact mode"),
    (["--suite", "axial-link", "--n", "13", "--mode", "float"],
     "error: suite axial-link has no cases at n=13 in float mode"),
    # the jet oracle's dimension limit, checked before any operator is built
    (["--suite", "axial-link", "--n", "13"],
     "error: axial-link at n=13: the jet oracle runs at n <= 11"),
    (["--suite", "axial-link", "--n", "15"],
     "error: axial-link at n=15: the jet oracle runs at n <= 11"),
    (["--suite", "axial-link", "--n", "3,13"],
     "error: axial-link at n=13: the jet oracle runs at n <= 11"),
    (["--suite", "forms", "--n", "3,x"],
     "error: --n must be integers separated by commas, got '3,x'"),
])
def test_cli_refuses_bad_config_values(tmp_path, capsys, flags, message):
    # refused before any case runs: exit 2, one stderr line, no report
    out = tmp_path / "report.json"
    code = main(["verify", *flags, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""
    assert not out.exists()


def test_config_bounds_themselves_are_admitted():
    SuiteConfig(suite="appendix", trials=suites.MAX_TRIALS, hn_max=suites.MAX_HN,
                series_terms=suites.MAX_SERIES_TERMS).validate()


def test_cli_eval_lemma_runs_no_oracle(monkeypatch, capsys):
    # eval prints the printed side of a lemma block, so it needs no oracle;
    # the m, k checks and the k = 0 rule of formulas 1 and 2 still apply
    from slicekernels import kernels as K

    def no_oracle(*args):
        raise AssertionError("eval --kernel lemma ran the oracle")

    monkeypatch.setattr(K, "oracle_apply", no_oracle)
    point = ["--n", "3", "--s", "2,1/2,0,0", "--x", "1/3,1,-1,0"]
    assert main(["eval", "--kernel", "lemma", *point]) == 0
    assert capsys.readouterr().out == "-11736/30169 + 4320/30169*e1\n"
    assert main(["eval", "--kernel", "lemma", "--formula", "2", "--k", "5", *point]) == 0
    k5 = capsys.readouterr().out
    assert main(["eval", "--kernel", "lemma", "--formula", "2", *point]) == 0
    assert capsys.readouterr().out == k5
    assert main(["eval", "--kernel", "lemma", "--formula", "3", "--k", "-1", *point]) == 2
    assert capsys.readouterr().err == "error: lemma blocks need m >= 0 and k >= 0\n"


def _count_forks(monkeypatch) -> list:
    """Patch `os.fork` to record each fork in this process, then fork."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


@pytest.mark.parametrize("affinity, cpus, pooled", [
    ({0}, 8, False),   # one usable CPU on an 8-CPU host: no fork
    ({0, 3}, 8, True),
    (None, 1, False),  # no affinity call: the CPU count decides
    (None, 8, True),
])
def test_default_jobs_count_the_usable_cpus(monkeypatch, affinity, cpus, pooled):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    forks = _count_forks(monkeypatch)
    config = small("forms", jobs=None, trials=4)
    report = run_suite(config)
    # the parent is a worker: two usable CPUs fork one child; eight, for
    # four points (groups of two cases), fork three
    workers = min(len(affinity or range(cpus)), 4) if pooled else 1
    assert len(forks) == workers - 1
    assert report.passed and len(report.cases) == 8
    assert report.as_dict(strip_times=True) == run_suite(small("forms", trials=4)).as_dict(
        strip_times=True)


@pytest.mark.parametrize("jobs, cpus, trials, workers", [
    (5000, 8, 2, 2),   # two points: two workers
    (5000, 3, 4, 3),   # four points on three CPUs
    (3, 8, 4, 3),
    (None, 8, 2, 2),
    (5000, 8, 1, None),  # one point, its two cases one group: no fork
    (5000, 1, 2, None),  # one usable CPU: no fork
])
def test_pool_is_sized_to_the_work(monkeypatch, jobs, cpus, trials, workers):
    # every worker is forked before the first case runs, and a worker takes
    # whole groups of the cases at one point, so the run must never ask for
    # more than the groups or the usable CPUs; the parent is one of the workers
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
    report = run_suite(small("forms", jobs=jobs, trials=trials))
    assert len(forks) == (0 if workers is None else workers - 1)
    assert report.as_dict(strip_times=True) == run_suite(
        small("forms", trials=trials)).as_dict(strip_times=True)
