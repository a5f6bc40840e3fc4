"""Golden report digests: pins every suite's report, wall times stripped.

Each digest is the SHA-256 of `as_dict(strip_times=True)` serialised with
sorted keys. A refactor of the suites or the closed forms must leave every
one of them unchanged; a digest that moves means a case key, a parameter, a
sampled point, a residual or a verdict changed. Every pinned report passes.
"""

import hashlib
import json

import pytest

from slicekernels.suites import SuiteConfig, run_suite

EXACT = {
    "theorem-d": "daa654bcd56c331101f1704f32f598effb8171974c80e06c2474561946558dd3",
    "theorem-dbar": "9c1abc48bee7c5ffb7cd1d76ea7cccb35147af1e45223de31e9eeb37968e01c9",
    "lemmas": "187f3f4cd6b0a1e35181d8ebcee6954d9b29a4c295271576ceb7d4e68c17e49e",
    "special-cases": "8f180854b9ee1bb335d211593dbe45322624bb1df39547c9ffa5c8262da5c1d6",
    "appendix": "9f6d35731a2b3674c6c7d660fe62f2a4dd844b1184dd9ab318ff77edd75d7de8",
    "monogenic": "bc76743462eeb8b2793babc23a6f5b57e1578d98e07bd7c3a47e8202dbbba9aa",
    "polyharmonic": "b10819dce479aaeea48828cf2412c2777d92285d56aeac578ba9cad8380b0949",
    "forms": "017f9e0d1ff1b4b0343cbbc2d7694fc1a1eb81be549c621f3a4a125384fa07dd",
    "series": "d66415b72f694fd0d8abb4b1f1215fb8b69f442866baeea8ac9eb2ebedfeee54",
    "catalog": "9d59998218230cd8b40d2c814aa809256716a63e5af61298bcbd48ff72c52412",
    "quadrature": "74130ad25ebcc8196d4cadd1bfba9f3be6aefad4432af07ed1a902283c8cc573",
}

# n=7 is where the oracle costs most: operators up to order 5 in 8 variables
EXACT_N7 = {
    "theorem-d": "42e304b7cb1d28905ab9b396378124d9d37d0838caf7482420367dfc38c793eb",
    "theorem-dbar": "99946e311e04f63e6853984d6502349bb72e7e38e8353d683d85f79329112202",
}

FLOAT = {
    "special-cases": "1075d2200be022632260380fdbd14c2fa68fe3eb5b4216121afbc1803ddea4ba",
    "polyharmonic": "52a7d92b9e4a89841e51a9a919abe328d278f8e1e84dfd17f63d829dabc40a30",
    "theorem-dbar": "ae4793b22d5afcaa66a2b8fca6ecf3156125719159631c0193d52c367907475a",
}

EXACT_EXTRA = {"appendix": {"hn_max": 6}, "series": {"series_terms": 20},
               "quadrature": {"quad_nodes": 64}}
FLOAT_N = {"special-cases": (3, 5, 9), "polyharmonic": (3, 5, 9), "theorem-dbar": (3, 5)}


def _digest(config: SuiteConfig) -> str:
    report = run_suite(config)
    assert report.passed, report.summary
    blob = json.dumps(report.as_dict(strip_times=True), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("suite", sorted(EXACT))
def test_exact_report_digest(suite):
    config = SuiteConfig(suite=suite, n_values=(3, 5), trials=1, seed=0, jobs=1,
                         **EXACT_EXTRA.get(suite, {}))
    assert _digest(config) == EXACT[suite]


@pytest.mark.parametrize("suite", sorted(EXACT_N7))
def test_exact_n7_report_digest(suite):
    config = SuiteConfig(suite=suite, n_values=(7,), trials=1, seed=0, jobs=1)
    assert _digest(config) == EXACT_N7[suite]


@pytest.mark.parametrize("suite", sorted(FLOAT))
def test_float_report_digest(suite):
    config = SuiteConfig(suite=suite, n_values=FLOAT_N[suite], trials=1, mode="float",
                         tol=1e-8, seed=0, jobs=1)
    assert _digest(config) == FLOAT[suite]
