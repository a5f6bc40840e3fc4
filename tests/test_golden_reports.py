"""Golden report digests: pins every suite's report, wall times stripped.

Each digest is the SHA-256 of `as_dict(strip_times=True)` serialised with
sorted keys. A refactor of the suites or the closed forms must leave every
one of them unchanged; a digest that moves means a case key, a parameter, a
sampled point, a residual or a verdict changed. Every pinned report passes.
"""

import hashlib
import json

import pytest

from slicekernels.suites import SuiteConfig, _build_cases, run_suite

EXACT = {
    "theorem-d": "daa654bcd56c331101f1704f32f598effb8171974c80e06c2474561946558dd3",
    "theorem-dbar": "9c1abc48bee7c5ffb7cd1d76ea7cccb35147af1e45223de31e9eeb37968e01c9",
    "lemmas": "187f3f4cd6b0a1e35181d8ebcee6954d9b29a4c295271576ceb7d4e68c17e49e",
    "special-cases": "cd0b0ed8bf0a9191d5b90b4b2037e79dd76cca09cea94ff8b60cd03a5c249c7e",
    "appendix": "9f6d35731a2b3674c6c7d660fe62f2a4dd844b1184dd9ab318ff77edd75d7de8",
    "monogenic": "bc76743462eeb8b2793babc23a6f5b57e1578d98e07bd7c3a47e8202dbbba9aa",
    "polyharmonic": "b10819dce479aaeea48828cf2412c2777d92285d56aeac578ba9cad8380b0949",
    "forms": "017f9e0d1ff1b4b0343cbbc2d7694fc1a1eb81be549c621f3a4a125384fa07dd",
    "series": "d66415b72f694fd0d8abb4b1f1215fb8b69f442866baeea8ac9eb2ebedfeee54",
    "catalog": "9d59998218230cd8b40d2c814aa809256716a63e5af61298bcbd48ff72c52412",
    "quadrature": "0bed75d562e4df4767a3c0f51ee95dd6e8f4cd7eb27fa5b3067694478b3ff8e4",
}

# n=7 is where the oracle costs most: operators up to order 6 (Laplacian^3)
# in 8 variables
EXACT_N7 = {
    "theorem-d": "42e304b7cb1d28905ab9b396378124d9d37d0838caf7482420367dfc38c793eb",
    "theorem-dbar": "99946e311e04f63e6853984d6502349bb72e7e38e8353d683d85f79329112202",
    "special-cases": "df45ad57f50a9cea86b0c061f05b892a74c2828899d0baf6e3be2f059d1d527c",
    "polyharmonic": "0d30c52e3d649b2cac018e24d0be1f15d8143db84f28371c8f623462a7f258b4",
    "lemmas": "688a112b983effeb4b853e9bf9045a63c9eab4be4d77d9650f16018de8f01464",
}

# n=9, one trial: operators up to order 8 in 10 variables
EXACT_N9 = {
    "theorem-d": "bb044a5f19a4c7db30e95eb63dba6629e5f0738d4fa074b6323b8335a3e4bf1b",
    "theorem-dbar": "4a4172f7730fbd0d4d37f911e4a0ce700d39b262c1d99b138f3d26c0335ba250",
    "special-cases": "fac2ed1452d3ae517291a7cf1879ed164e7ab76ab80e7b3ad7c01c1aa1435677",
}

# n=11, one trial: made with the jet oracle (about 27 s and 1.4 GB each on a
# 2-core VM), now decided by the axial oracle
EXACT_N11 = {
    "theorem-d": "f9a38de57b8c6fb6f6228c160e41d340199bb5cee70604499bacde59acd6aea0",
    "theorem-dbar": "da74c992cee05c35445d6f4cf3e4b7d2527d155f39fbc6f05ad7c7cd8941659c",
}

FLOAT = {
    "special-cases": "fa15b33a1b8b029007c13d3cc6ba41fd8eef398fbb70201612c236ff46a88f5d",
    "polyharmonic": "1afbf33e9f79f9aaab46db4be8e4d1010662bcca50c06fbb6cab51773469c6f9",
    "theorem-dbar": "5ba81d7b5d6f95a8d02b8118adde4409f7b3327e404598a33a45bd51185a562a",
    "theorem-d": "2539ae764adc3027f9f2c7a4252d630d23005f0b0ca24b3d8dfbfaf59c322a02",
    "lemmas": "a79cc4893906e4246efc926fb6005298910fb5a4abd8bcff049421b17917988e",
    "monogenic": "c80eee44f09b3c66a1f9ece938fb73a1c2203727f5633abf8f5c51e8104b9f7c",
    "forms": "25875aad409530d0dae41d49e45aeb9e7c1d40689c89f9ccb9c94a9457b89c04",
    "catalog": "255853412535327032832cf009bcbca716bd39302fe606d1da10c942c09014ec",
    "series": "bdd8e73cccc7d9a3d45da66d45a3a14b2ecad3a63a01cab3bf86d8f063a53658",
}

# Float reports whose sums run through the jet product, the layered jet
# reciprocal and the oracle's grouped integer-coefficient sum (theorem-dbar at
# n=9), and the contour memo (quadrature at its default 256 nodes).
FLOAT_N9 = {
    "theorem-dbar": "517248bd8612fd090917c3d1cbc17e1f99024662d13b4f71fe874bde5ae189a4",
}
QUADRATURE_256 = "647db55c32da36151e7d8103287396767ad648a7f3301f7043f81b8b8bcd0f44"

EXACT_EXTRA = {"appendix": {"hn_max": 6}, "series": {"series_terms": 20},
               "quadrature": {"quad_nodes": 64}}
FLOAT_N = {"special-cases": (3, 5, 9), "polyharmonic": (3, 5, 9)}  # others: n=3,5


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


@pytest.mark.parametrize("suite", sorted(EXACT_N9))
def test_exact_n9_report_digest(suite):
    config = SuiteConfig(suite=suite, n_values=(9,), trials=1, seed=0, jobs=1)
    assert _digest(config) == EXACT_N9[suite]


@pytest.mark.parametrize("suite", sorted(EXACT_N11))
def test_exact_n11_report_digest(suite):
    config = SuiteConfig(suite=suite, n_values=(11,), trials=1, seed=0, jobs=1)
    assert _digest(config) == EXACT_N11[suite]


@pytest.mark.parametrize("suite", sorted(FLOAT))
def test_float_report_digest(suite):
    config = SuiteConfig(suite=suite, n_values=FLOAT_N.get(suite, (3, 5)), trials=1,
                         mode="float", tol=1e-8, seed=0, jobs=1)
    assert _digest(config) == FLOAT[suite]


@pytest.mark.parametrize("suite", sorted(FLOAT_N9))
def test_float_n9_report_digest(suite):
    config = SuiteConfig(suite=suite, n_values=(9,), trials=1, mode="float", tol=1e-8,
                         seed=0, jobs=1)
    assert _digest(config) == FLOAT_N9[suite]


def test_quadrature_default_nodes_report_digest():
    config = SuiteConfig(suite="quadrature", n_values=(3, 5), trials=1, seed=0, jobs=1)
    assert _digest(config) == QUADRATURE_256


# The float case set: the oracle points that float mode runs at each n under
# its jet-order cap, as case counts at n = 3, 5, 7, 9, 11 (one trial) and the
# SHA-256 of their keys, one per line in build order.
FLOAT_CASE_SETS = {
    "theorem-d": ((1, 3, 5, 6, 6),
                  "453dce180d993202eb91dc79f9a70044de62547d940e552b1fa35f4d8c4c4ef1"),
    "theorem-dbar": ((2, 5, 8, 10, 11),
                     "5a2fa4c1744dbbc0ed0ba64d59bfe5c906d730a7ba271a62350cdab9308e7ce6"),
    "special-cases": ((5, 8, 9, 11, 13),
                      "68c83fafa4b13fd802b777b6e59ccc0d0aca12e73a537892a8b90e20f0ca2b7c"),
    "polyharmonic": ((1, 2, 2, 2, 2),
                     "6be676954cb6d885e9fcb9ebf3257700553f9b169b1dffdfa464aabfd82e995f"),
}


@pytest.mark.parametrize("suite", sorted(FLOAT_CASE_SETS))
def test_float_case_set(suite):
    counts, keys = [], []
    for n in (3, 5, 7, 9, 11):
        cases = _build_cases(SuiteConfig(suite=suite, n_values=(n,), trials=1, mode="float"))
        counts.append(len(cases))
        keys += [case["key"] for case in cases]
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert (tuple(counts), digest) == FLOAT_CASE_SETS[suite]
