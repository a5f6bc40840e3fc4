"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Exact-mode criteria admit no tolerance at all: a case passes
only when the residual is identically zero in rational arithmetic.
"""

import time

from slicekernels import coeffs as cf
from slicekernels.suites import SuiteConfig, run_suite

JOBS = 2
NS = (3, 5, 7)
# exact n=9: operators up to order 8 in 10 variables, 1-3 s per oracle case
N9 = (9,)
N9_TRIALS = 4


def _announce(criterion, report, elapsed, extra=""):
    ok = report.summary["failed"] == 0
    line = (
        f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
        f"({report.summary['passed']}/{report.summary['total']} cases, "
        f"{elapsed:.1f}s{extra})"
    )
    print(line)
    return ok


def _run(criterion, config, extra=""):
    started = time.perf_counter()
    report = run_suite(config)
    elapsed = time.perf_counter() - started
    ok = _announce(criterion, report, elapsed, extra)
    failures = [c for c in report.cases if not c["pass"]]
    assert ok, failures[:5]
    return report, elapsed


def test_criterion_1_theorem_d_exact():
    config = SuiteConfig(
        suite="theorem-d", n_values=NS, trials=20, mode="exact", seed=0, jobs=JOBS
    )
    report, elapsed = _run("1 (D^beta Delta^m theorem)", config)
    pairs = sum(len(list(_pairs(n))) for n in NS)
    assert report.summary["total"] == pairs * 20
    assert all(c["residual"] == 0.0 for c in report.cases)
    report, elapsed_n9 = _run_exact_n9("1b (D^beta Delta^m theorem, n=9)", "theorem-d")
    assert report.summary["total"] == len(list(_pairs(9))) * N9_TRIALS
    assert elapsed + elapsed_n9 < 300.0, "n=3..9 sweep must stay under five minutes"


def _run_exact_n9(criterion, suite, trials=N9_TRIALS):
    config = SuiteConfig(suite=suite, n_values=N9, trials=trials, mode="exact",
                         seed=0, jobs=JOBS)
    report, elapsed = _run(criterion, config)
    assert all(c["residual"] == 0.0 for c in report.cases)
    return report, elapsed


def _pairs(n):
    h = (n - 1) // 2
    for m in range(0, h):
        for beta in range(1, h - m + 1):
            yield m, beta


def test_criterion_2_theorem_dbar_exact_with_boundary():
    config = SuiteConfig(
        suite="theorem-dbar", n_values=NS, trials=20, mode="exact", seed=0, jobs=JOBS
    )
    report, _ = _run("2 (Dbar^beta Delta^m theorem + boundary)", config)
    assert all(c["residual"] == 0.0 for c in report.cases)
    boundary = [c for c in report.cases if "boundary" in c["key"]]
    assert boundary and all(c["pass"] for c in boundary)
    report, _ = _run_exact_n9("2b (Dbar^beta Delta^m theorem + boundary, n=9)",
                              "theorem-dbar")
    assert report.summary["total"] == (len(list(_pairs(9))) + 4) * N9_TRIALS


def test_criterion_3_lemma_suites():
    config = SuiteConfig(
        suite="lemmas", n_values=NS, trials=10, mode="exact", seed=0, jobs=JOBS
    )
    report, _ = _run("3 (building-block lemmas)", config)
    # 2 operators x (2 k-free formulas + 2 formulas x 4 k values) x 4 m x 10 pts
    assert report.summary["total"] == len(NS) * 2 * (2 + 2 * 4) * 4 * 10


def test_criterion_4_appendix_identities():
    config = SuiteConfig(suite="appendix", hn_max=12, seed=0, jobs=1)
    report, elapsed = _run("4 (appendix identities, h_n <= 12)", config)
    assert elapsed < 10.0
    idents = {c["params"]["identity"] for c in report.cases if "identity" in c["params"]}
    assert idents == set(cf.LOWER_IDENTITIES) | set(cf.UPPER_IDENTITIES)


def test_criterion_5_monogenic_and_polyharmonic():
    config = SuiteConfig(
        suite="monogenic", n_values=NS, trials=10, mode="exact", seed=0, jobs=JOBS
    )
    _run("5a (Dirac annihilates the Fueter-Sce kernel)", config)
    config = SuiteConfig(
        suite="polyharmonic", n_values=NS, trials=10, mode="exact", seed=0, jobs=JOBS
    )
    report, _ = _run("5b (polyharmonicity of harmonic kernels)", config)
    expected = sum((n - 1) // 2 for n in NS) * 10
    assert report.summary["total"] == expected
    _run_exact_n9("5c (Dirac annihilates the Fueter-Sce kernel, n=9)", "monogenic",
                  trials=10)
    report, _ = _run_exact_n9("5d (polyharmonicity of harmonic kernels, n=9)",
                              "polyharmonic")
    assert report.summary["total"] == 4 * N9_TRIALS


def test_criterion_6_special_case_web():
    config = SuiteConfig(
        suite="special-cases", n_values=NS, trials=10, mode="exact", seed=0, jobs=JOBS
    )
    _run("6a (special-case web, exact)", config)
    config = SuiteConfig(
        suite="forms", n_values=NS, trials=10, mode="exact", seed=0, jobs=JOBS
    )
    _run("6b (form I = form II, exact)", config)
    _run_exact_n9("6e (special-case web, n=9 exact)", "special-cases")
    config = SuiteConfig(
        suite="special-cases", n_values=(9,), trials=4, mode="float", tol=1e-8,
        seed=0, jobs=JOBS,
    )
    _run("6c (special-case spot checks, n=9 float)", config)
    config = SuiteConfig(
        suite="forms", n_values=(9,), trials=10, mode="float", tol=1e-8, seed=0,
        jobs=JOBS,
    )
    _run("6d (form I = form II, n=9 float)", config)


def test_criterion_7_quadrature():
    config = SuiteConfig(suite="quadrature", quad_nodes=256, seed=0, jobs=JOBS)
    report, _ = _run("7 (contour quadrature)", config)
    recon = [c for c in report.cases if c["key"].startswith("recon")]
    assert len(recon) == 45  # k = 0..8 at 5 interior points
    assert all(c["residual"] <= 1e-10 for c in recon)
    fs = [c for c in report.cases if c["key"].startswith("fs-x2")]
    assert len(fs) == 5 and all(c["residual"] <= 1e-8 for c in fs)
    assert "convergence" in report.tables
    rows = report.tables["convergence"]
    floor = 1e-13
    for prev, row in zip(rows, rows[1:]):
        if prev["abs_error"] > floor and row["abs_error"] > floor:
            assert row["ratio"] <= 0.25
    assert rows[-1]["abs_error"] <= 1e-10


def test_criterion_8_series_tail_bound():
    config = SuiteConfig(
        suite="series", n_values=(3, 5), trials=10, seed=0, jobs=JOBS, series_terms=60
    )
    report, _ = _run("8 (Cauchy series tail bound)", config)
    for case in report.cases:
        rho = float(case["note"].split("=")[1])
        assert rho <= 0.5 + 1e-12


def test_criterion_9_catalog_arbitration():
    config = SuiteConfig(
        suite="catalog", n_values=(3, 5), trials=10, mode="exact", seed=0, jobs=JOBS
    )
    report, _ = _run("9 (literature catalog arbitration)", config)
    assert report.summary["flagged_known_discrepancies"] == 3
    flagged = {c["key"] for c in report.cases if c.get("flagged")}
    assert flagged == {"n5-Delta", "n5-D2", "n5-Dbar2"}
    matching = {c["key"] for c in report.cases if c["expected_match"]}
    assert matching == {"q-D", "q-Dbar", "n5-D", "n5-DeltaD", "n5-Dbar", "n5-DeltaDbar"}
    for c in report.cases:
        if c.get("flagged"):
            assert "oracle-confirmed" in c["note"]


def test_criterion_10_axial_oracle_link():
    config = SuiteConfig(
        suite="axial-link", n_values=NS, trials=2, mode="exact", seed=0, jobs=JOBS
    )
    report, _ = _run("10 (axial oracle = jet oracle on every exact oracle row)", config)
    assert all(c["residual"] == 0.0 for c in report.cases)
    # n=9 at one trial runs in test_each_operator_support_builds_one_jet_context


def test_criterion_11_exact_beyond_n9():
    started = time.perf_counter()
    for n in (13, 15):
        for suite in ("theorem-d", "theorem-dbar", "special-cases", "polyharmonic",
                      "monogenic"):
            config = SuiteConfig(suite=suite, n_values=(n,), trials=1, mode="exact",
                                 seed=0, jobs=1)
            report, _ = _run(f"11 ({suite}, n={n} exact)", config)
            assert all(c["residual"] == 0.0 for c in report.cases)
    assert time.perf_counter() - started < 30.0
