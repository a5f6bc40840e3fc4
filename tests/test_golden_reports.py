"""Golden report digests: pins every suite's report, wall times stripped.

Each digest is the SHA-256 of `as_dict(strip_times=True)` serialised with
sorted keys. A refactor of the suites or the closed forms must leave every
one of them unchanged; a digest that moves means a case key, a parameter, a
sampled point, a residual or a verdict changed. Every pinned report passes.

Every digest of a suite that samples points was made again when points came
to be drawn from (seed, n, trial, sampler) alone; at the points drawn before,
from (seed, suite, case key), every earlier digest still held.
"""

import hashlib
import json

import pytest

from slicekernels.suites import SuiteConfig, _build_cases, run_suite

EXACT = {
    "theorem-d": "84c98a5b73d25435b89e6c0c14335132ec4613e19d3ed0a52d6fe71d8fbe5d76",
    "theorem-dbar": "a3573abd871306b5b728c771758b73a751cdb911238fb520d266426c2c2dfc7d",
    "lemmas": "2b2b93e33ef35c6d093856db1351f7eb423dc9e42cabfe6c37d7d55623558f88",
    "special-cases": "2a7b2cfc42f92b9f6ada4f12056218a6464a228da386c04811eccfcd2b93bf32",
    "appendix": "9f6d35731a2b3674c6c7d660fe62f2a4dd844b1184dd9ab318ff77edd75d7de8",
    "monogenic": "5fccc36d9fde794eb1ffdfbc27f7b92a1f3adeee851b8b64e7670fd066c8c4ca",
    "polyharmonic": "16b75310af324e822c68ea372ef166c7ca8c6a5f6fa5e06908e2891d7df0fe47",
    "forms": "c74d546c78bf1ad2f9d5e5686a6103658da8616c331063c43223bd6e91fc4091",
    "series": "a332d8a4eaacb62c05972a2bf5d8db742daa73cc7793f2f96e3832b481a3c792",
    "catalog": "8bc907001a8969eab0128b750d1984a5fefe713a73a5715d2df6b51e0558b281",
    "quadrature": "3b2e34c74e0536874daa64a3e18c70c0d53fafb206d4fcb996a228e1725ebed7",
    "axial-link": "4f6ac24a54c633ed9b2e036a9f024f7d09de822029969302305915df59f94645",
}

# n=7 is where the oracle costs most: operators up to order 6 (Laplacian^3)
# in 8 variables
EXACT_N7 = {
    "theorem-d": "80024c92a1cd6731d269c8edf680640ead7c2692b4feefaa6356cbada00cfc56",
    "theorem-dbar": "675b052b7f236bef3cf701f64127b8ecd1d98b2b91dc36f021415f303b67ad10",
    "special-cases": "8dbaf6b294c806e310cf48d3acc5521bfe97bab1d90acbdac4b6544e6dff07d9",
    "polyharmonic": "844b09146298f164ca27a4e557be458dacdfb59f6e63fd100e919c8416db68e4",
    "lemmas": "7b2e19508834f3f27f2c5974b73538782aa81171724a4f48a6bb69bdf1575ac4",
    "axial-link": "49ec8d3b6c23711d0b197ccc7037eb935ad845748fc1d3a37ab09e5f39deb528",
}

# n=9, one trial: operators up to order 8 in 10 variables
EXACT_N9 = {
    "theorem-d": "b888ac847fcbd081ec0247b42fd002fb0c7b8fa7fe3c139e5781d2008580abc2",
    "theorem-dbar": "86c8871e7046fc9a5bd61372d052483162c701a3c76aeb3a5409d5d743376458",
    "special-cases": "895b755d8738765d4dfbb20e7830462b01d5d183dd58ce63d6a366762b5a1185",
}

# n=11, one trial: decided by the axial oracle; the digests at the earlier
# points were made with the jet oracle (about 27 s and 1.4 GB each on a
# 2-core VM)
EXACT_N11 = {
    "theorem-d": "adbf0ac9ba9108dedf225c921a5a056d981f378ea741a398bb3bd039ce1582ba",
    "theorem-dbar": "3cdd58d0177f3cd1e8957d184227e8b671c431b02397009674cf34d37e0df730",
}

# n=15, one trial: the lemma rows, whose block the jet oracle differentiates in
# 16 variables; and the theorem rows, long exact chains of closed-form products
# and sums
EXACT_N15 = {
    "lemmas": "c0ce98cfcc2e79deb52eff5160f6c240b25d5a77dce2153b2532fef425fc400f",
    "theorem-d": "2d1e7d12d66f6e0de97bb80293523ab019bd6ca1fcf621da170a11cfadcd80fa",
    "theorem-dbar": "8eddf9f11328c61d1ae6ae85b287ca506661066b2f7b6a9bac70f4a5aaeab429",
}

# series at 240 terms, n = 3, 5 and 7: each case sums 241 exact Clifford
# products
EXACT_SERIES_240 = "10f2334a54f4061f2fbf19defda0630a34a6612a75c338538976d86f31d29c94"

# Float reports: the closed forms in floats against the oracle's exact value
# at the float point, rounded once
FLOAT = {
    "special-cases": "2c03efc638bd9791cd15ecc78a9bccc720973d253a4044009db779a381152623",
    "polyharmonic": "d8dd94f83847551a210c27871b087440fbe1c59bb64d8db3d987af3a6fdae765",
    "theorem-dbar": "ed35ad4f1795941f7bb4472a94217baf80a6263463296e4ba30f288a0877b626",
    "theorem-d": "79aa39a9b72f2b05e3e5fa59dcaac9de496ab78297a8a5841380d10014ff462e",
    "lemmas": "ee972176ae443f00e8124f1c6cbf33cd49fac4cdaf192be43a8f86ce47ed7bda",
    "monogenic": "e3ef9d7ac4b6ee68e36332a688e15d8cd676ce4e4c9cc393f04f42bb0ab3381c",
    "forms": "9eea1577a2d67201e1990db7ce4c77ab80dabddf76ae6511d646934e2ff028f7",
    "catalog": "39225734a460ee6b6f94dbe9c95cd4a4c42b48844a0280aa7ee557e6723b30aa",
    "series": "a7d3d67560219413650f57ab6b0cb2af89b136c6cdffcab71674ed945154d740",
}

# A float report decided by the axial oracle at a float point read exactly
# (theorem-dbar at n=9), and the contour memo (quadrature at its default 256
# nodes).
FLOAT_N9 = {
    "theorem-dbar": "de8a23fad2b2275edec53380d37c707b62748da9b4b65f716b497552f4b6c6ae",
}
QUADRATURE_256 = "99dbb34fb12eb90f0e33995b6cda76ff866dae08460f0dc90428048deb93e58f"

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


@pytest.mark.parametrize("suite", sorted(EXACT_N15))
def test_exact_n15_report_digest(suite):
    config = SuiteConfig(suite=suite, n_values=(15,), trials=1, seed=0, jobs=1)
    assert _digest(config) == EXACT_N15[suite]


def test_exact_series_240_terms_report_digest():
    config = SuiteConfig(suite="series", n_values=(3, 5, 7), trials=1, seed=0, jobs=1,
                         series_terms=240)
    assert _digest(config) == EXACT_SERIES_240


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
