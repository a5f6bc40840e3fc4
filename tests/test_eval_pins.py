"""Pins of `slicekernels eval`: every kernel flavor, byte for byte.

`data/eval_outputs.json` holds the stdout of 116 runs that exit 0: all 12
flavors at their defaults and at set parameters, exact and float, text and
JSON, and `--side right` for the three flavors with a printed right-sided
form. It was recorded before `eval` read its flavors from `cli.KERNELS`,
so a change to how `eval` finds a closed form must leave every run as it is.
An option that a flavor does not read is ignored (`harmonic --beta 9`).
"""

import json
from pathlib import Path

import pytest

from slicekernels import cli
from slicekernels import kernels as K
from slicekernels.rings import FLOATS

RUNS = json.loads((Path(__file__).parent / "data" / "eval_outputs.json").read_text())

P3 = ["--s", "2,1/2,0,0", "--x", "1/3,1,-1,0"]
P5 = ["--s", "2,1/2,0,0,0,0", "--x", "1/3,1,-1,0,0,0"]


def _point(n, x0="1"):
    return ",".join([x0] + ["0"] * n)


def test_every_flavor_is_pinned():
    assert {run["argv"][1] for run in RUNS} == set(cli.KERNELS)
    sided = {run["argv"][1] for run in RUNS if "right" in run["argv"]}
    assert sided == {name for name, (_, options) in cli.KERNELS.items() if "side" in options}
    assert sided == {"cauchy-I", "cauchy-II", "fueter-sce"}


@pytest.mark.parametrize("run", RUNS, ids=[" ".join(run["argv"]) for run in RUNS])
def test_eval_output_is_pinned(capsys, run):
    assert cli.main(["eval", *run["argv"]]) == 0
    captured = capsys.readouterr()
    assert captured.out == run["stdout"]
    assert captured.err == ""


# Float values far from 1 print in full: no coefficient is dropped for its
# size alone.
EXTREME_SCALES = [
    ("1e10,0,0,0", "0,1,0,0", "9.999999999999999e-11 + 1e-20*e1"),
    ("1e100,0,0,0", "0,1,0,0", "1.0000000000000001e-100 + 1.0000000000000001e-200*e1"),
    ("1e-100,0,0,0", "0,1e-100,0,0", "5.000000000000001e+99 + 5.000000000000001e+99*e1"),
]


@pytest.mark.parametrize("s, x, expected", EXTREME_SCALES)
def test_float_eval_at_extreme_scales(capsys, s, x, expected):
    argv = ["eval", "--kernel", "cauchy-II", "--n", "3", "--mode", "float", "--s", s, "--x", x]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


# Coordinates from 1e-100 to 1e100 and 1e-300 to 16, at n=15 and at n=3:
# there the exact forms alone, at the points read as dyadic rationals, took
# 24 to 47 s.
MIXED_S15 = "1e100,1e-100,3" + ",0" * 12 + ",7"
MIXED_X15 = ",".join(["1e-300"] + [str(i) for i in range(2, 17)])
TOO_LARGE = [
    (["--kernel", "pseudo-cauchy", "--n", "15", "--m", "100", "--s", MIXED_S15, "--x", MIXED_X15],
     "exact pseudo-cauchy value (2326-bit coordinates, 115 powers) is too large; "
     "use --mode float"),
    (["--kernel", "series", "--n", "15", "--terms", "50", "--s", MIXED_S15, "--x", MIXED_X15],
     "exact series value (2326-bit coordinates, 65 powers) is too large; use --mode float"),
    (["--kernel", "lemma", "--lemma", "dirac-conj", "--formula", "4", "--n", "3", "--m", "100",
      "--k", "100", "--s", "1e100,1e-100,3,7", "--x", "1e-300,2,3,4"],
     "exact lemma value (2326-bit coordinates, 203 powers) is too large; use --mode float"),
]

# Each run gives exit 2 and this one stderr line. Checks run in this order:
# the dimension, the bounds of --terms, --m and --k, the coordinates of s
# then x, the side, the size of an exact evaluation, the flavor's own
# parameters, then the value.
ERRORS = [*TOO_LARGE,
    (["--kernel", "catalog", "--n", "3", *P3], "unknown catalog id ''"),
    (["--kernel", "catalog", "--n", "3", "--catalog-id", "n7-D", *P3],
     "unknown catalog id 'n7-D'"),
    (["--kernel", "catalog", "--n", "3", "--catalog-id", "n5-D", *P3],
     "catalog entry n5-D lives in dimension 5"),
    (["--kernel", "harmonic", "--n", "3", "--side", "right", *P3],
     "no printed right-sided form for harmonic"),
    (["--kernel", "catalog", "--n", "3", "--side", "right", "--catalog-id", "q-D", *P3],
     "no printed right-sided form for catalog"),
    (["--kernel", "pseudo-cauchy", "--n", "3", "--m", "0", *P3],
     "pseudo-Cauchy power needs m >= 1"),
    (["--kernel", "series", "--n", "3", "--terms", "-1", *P3],
     "series needs a nonnegative truncation index"),
    (["--kernel", "series", "--n", "3", "--s", "1,0,0,0", "--x", "0,1,0,0"],
     "series requires |x| < |s|"),
    (["--kernel", "lemma", "--n", "3", "--k", "-1", "--formula", "3", *P3],
     "lemma blocks need m >= 0 and k >= 0"),
    (["--kernel", "lemma", "--n", "3", "--m", "-1", *P3], "lemma blocks need m >= 0 and k >= 0"),
    (["--kernel", "pseudo-cauchy", "--n", "3", "--m", "101", *P3], "m must be <= 100, got 101"),
    (["--kernel", "lemma", "--n", "3", "--k", "500", "--formula", "3", *P3],
     "k must be <= 100, got 500"),
    (["--kernel", "d-beta-delta-m", "--n", "5", "--m", "2", "--beta", "1", *P5],
     "need beta >= 1, m >= 0, m + beta <= h_n = 2; got m=2, beta=1"),
    (["--kernel", "dbar-beta-delta-m", "--n", "5", "--beta", "0", *P5],
     "need beta >= 1, m >= 0, m + beta <= h_n = 2; got m=0, beta=0"),
    (["--kernel", "harmonic", "--n", "5", "--m", "3", *P5], "harmonic kernel needs 1 <= m <= 2"),
    (["--kernel", "pseudo-cauchy", "--n", "3", "--s", "1e300,0,0,0", "--x", "0,1,0,0",
      "--m", "20"],
     "exact pseudo-cauchy value has an integer too long to print; use --mode float"),
    (["--kernel", "laplacian-power", "--n", "5", "--m", "0", *P5],
     "laplacian power kernel needs 1 <= m <= 2"),
    (["--kernel", "polyanalytic", "--n", "5", "--ell", "3", *P5],
     "polyanalytic kernel needs 0 <= ell <= 2"),
    (["--kernel", "cauchy-II", "--n", "3", "--s", "0,1,0,0", "--x", "0,0,1,0"],
     "singular: s in [x]"),
    (["--kernel", "fueter-sce", "--n", "3", "--side", "right", "--s", "0,1,0,0",
      "--x", "0,0,1,0"], "singular: s in [x]"),
    (["--kernel", "cauchy-II", "--n", "3", "--s", "2,0,0", "--x", "0,1,0,0"],
     "expected 4 coordinates, got 3"),
    (["--kernel", "cauchy-II", "--n", "3", "--s", "2,0,0,0", "--x", "0,1,0,0,0"],
     "expected 4 coordinates, got 5"),
    (["--kernel", "cauchy-II", "--n", "3", "--s", "a,0,0,0", "--x", "0,1,0,0"],
     "Invalid literal for Fraction: 'a'"),
    (["--kernel", "cauchy-II", "--n", "3", "--s", "1/0,0,0,0", "--x", "0,1,0,0"],
     "zero denominator in coordinates '1/0,0,0,0'"),
    (["--kernel", "cauchy-II", "--n", "3", "--mode", "float", "--s", "1e400,0,0,0",
      "--x", "0,1,0,0"], "coordinates '1e400,0,0,0' out of float range"),
    # Q = 2e-320 is a float, but its inverse is not
    (["--kernel", "cauchy-II", "--n", "3", "--mode", "float", "--s", "1e-160,0,0,0",
      "--x", "0,1e-160,0,0"], "paravector inverse lies outside float range"),
    # Q underflows to zero, or overflows, off [x]; on [x] the point is singular
    (["--kernel", "cauchy-II", "--n", "3", "--mode", "float", "--s", "1e-170,0,0,0",
      "--x", "0,1e-170,0,0"], "Q_{c,s}(x) lies outside float range"),
    (["--kernel", "cauchy-II", "--n", "3", "--mode", "float", "--s", "1e170,0,0,0",
      "--x", "0,1e170,0,0"], "Q_{c,s}(x) lies outside float range"),
    (["--kernel", "cauchy-II", "--n", "3", "--mode", "float", "--s", "0,0,1e-170,0",
      "--x", "0,1e-170,0,0"], "singular: s in [x]"),
    # Q^-1 is a float, but its powers in the kernel value are not
    (["--kernel", "fueter-sce", "--n", "3", "--mode", "float", "--s", "1e-150,0,0,0",
      "--x", "0,1e-150,0,0"], "fueter-sce value lies outside float range"),
    (["--kernel", "laplacian-power", "--n", "3", "--mode", "float", "--s", "1e-145,0,0,0",
      "--x", "0,1e-145,0,0"], "laplacian-power value lies outside float range"),
    # a float value of 0 whose exact value at the same point is not 0:
    # -1e-300 - 1e-300*e1, and (1e12 + 1)^-100
    (["--kernel", "fueter-sce", "--n", "3", "--mode", "float", "--s", "1e100,0,0,0",
      "--x", "0,1e100,0,0"], "fueter-sce value underflows to 0 in float mode"),
    (["--kernel", "pseudo-cauchy", "--n", "3", "--mode", "float", "--s", "1e6,0,0,0",
      "--x", "0,1,0,0", "--m", "100"], "pseudo-cauchy value underflows to 0 in float mode"),
    (["--kernel", "harmonic", "--n", "3", "--side", "right", "--s", "2,0,0", "--x", "0,1,0,0"],
     "expected 4 coordinates, got 3"),
    (["--kernel", "harmonic", "--n", "4", "--side", "right", "--s", _point(4), "--x", _point(4)],
     "kernel dimension must be odd and >= 3"),
    (["--kernel", "cauchy-II", "--n", "4", "--s", _point(4), "--x", "0,1,0,0,0"],
     "kernel dimension must be odd and >= 3"),
    # the dimension is checked before the coordinates are counted
    (["--kernel", "cauchy-II", "--n", "4", "--s", _point(3), "--x", _point(3)],
     "kernel dimension must be odd and >= 3"),
    (["--kernel", "cauchy-II", "--n", "-3", "--s", "1,0", "--x", "1,0"],
     "kernel dimension must be odd and >= 3"),
    (["--kernel", "cauchy-II", "--n", "1", "--s", "2,0", "--x", "0,1"],
     "kernel dimension must be odd and >= 3"),
    # every flavor refuses a dimension above clifford.MAX_DIMENSION up front
    (["--kernel", "cauchy-II", "--n", "17", "--s", _point(17), "--x", "0,1" + ",0" * 16],
     "dimension 17 outside 1..15"),
    (["--kernel", "series", "--n", "17", "--s", _point(17), "--x", _point(17, "1/2")],
     "dimension 17 outside 1..15"),
    (["--kernel", "cauchy-II", "--n", "17", "--s", "1,0", "--x", "1,0"],
     "dimension 17 outside 1..15"),
]


@pytest.mark.parametrize("argv, message", ERRORS, ids=[" ".join(a) for a, _ in ERRORS])
def test_eval_error_is_pinned(capsys, argv, message):
    assert cli.main(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


def test_eval_at_the_largest_dimension(capsys):
    argv = ["eval", "--kernel", "cauchy-II", "--n", "15",
            "--s", "2" + ",0" * 15, "--x", "0,1" + ",0" * 14]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "2/5 + 1/5*e1\n"


@pytest.mark.parametrize("argv, message", TOO_LARGE, ids=[a[1] for a, _ in TOO_LARGE])
def test_an_exact_value_too_large_is_refused_before_any_closed_form(monkeypatch, argv, message):
    def refused(*args, **kwargs):
        raise AssertionError("a closed form ran")

    for name in ("pseudo_cauchy_pow", "cauchy_series_partial", "lemma_rhs"):
        monkeypatch.setattr(K, name, refused)
    assert cli.main(["eval", *argv]) == 2


MIXED_SCALE_ZERO = [
    "eval", "--kernel", "lemma", "--lemma", "dirac-conj", "--formula", "4", "--n", "15",
    "--mode", "float", "--s", "1e100,1e-100,3" + ",0" * 12 + ",7",
    "--x", ",".join(["1e-300"] + [str(i) for i in range(2, 17)]), "--m", "32", "--k", "32"]


def _refused_float_zero(capsys, monkeypatch) -> str:
    """The error line of MIXED_SCALE_ZERO, which must evaluate once, over floats."""
    rings = []
    lemma_rhs = K.lemma_rhs

    def counted(s, x, *args):
        rings.append(x.ring)
        return lemma_rhs(s, x, *args)

    monkeypatch.setattr(K, "lemma_rhs", counted)
    assert cli.main(MIXED_SCALE_ZERO) == 2
    assert rings == [FLOATS]
    return capsys.readouterr().err


def test_a_float_zero_too_large_to_recheck_exactly_is_refused_first(capsys, monkeypatch):
    # coordinates from 1e-300 to 1e100 are 2,432 bits over one denominator,
    # raised to 79 powers: the exact recheck of this float zero took 14.7 s.
    # As typed, 1e-300 is 1/10^300, 2,326 bits: --mode exact is refused too
    assert _refused_float_zero(capsys, monkeypatch) == (
        "error: lemma value is 0 in float mode, and its exact recheck "
        "(2432-bit coordinates, 79 powers) is too large; so is --mode exact "
        "(2326-bit coordinates, 79 powers): neither mode fits\n")
    assert 2326 * 79 > cli.MAX_EXACT_SIZE > 103 * 21  # the pseudo-cauchy pin above rechecks


def test_a_float_zero_suggests_exact_mode_only_when_the_typed_point_fits(capsys, monkeypatch):
    # a bound between the typed size and the recheck's refuses only the recheck
    monkeypatch.setattr(cli, "MAX_EXACT_SIZE", 190_000)
    assert 2326 * 79 < cli.MAX_EXACT_SIZE < 2432 * 79
    assert _refused_float_zero(capsys, monkeypatch) == (
        "error: lemma value is 0 in float mode, and its exact recheck "
        "(2432-bit coordinates, 79 powers) is too large; use --mode exact\n")
