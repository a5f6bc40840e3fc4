"""Command-line harness: evaluate kernels at points and run verification suites.

Exit codes: 0 success, 1 suite failures, 2 configuration or evaluation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import kernels as K
from .clifford import MAX_DIMENSION, format_multivector, blade_name, parse_paravector
from .errors import InvalidParams, SliceKernelsError
from .quadrature import write_convergence_csv
from .rings import FLOATS, RATIONALS
from .suites import MAX_SERIES_TERMS, SUITE_NAMES, SuiteConfig, run_suite


def _cauchy(form: str):
    return lambda s, x, side: (K.cauchy_left if side == "left" else K.cauchy_right)(
        s, x, form=form)


def _catalog(s, x, catalog_id):
    entry = K.catalog_fixture(catalog_id)
    if entry.n != x.n:
        raise InvalidParams(f"catalog entry {entry.id} lives in dimension {entry.n}")
    return entry.printed(s, x)


# Largest `eval --m` and `--k`, as a float zero is rechecked exactly: exact Q^-m
# and lemma sides take 0.3 s at m = k = 100 and n=3, and ran past 100 s at 1000.
MAX_POWER = 100

# Largest exact evaluation, and exact recheck of a float zero: the bits of the
# coordinates over one common denominator times the powers raised (n plus the
# flavor's m, k, beta, ell and terms), about the bit size the exact values grow
# to.  Lemma sides at n=15, m = k = 100 and one-digit decimals (26,499) recheck
# in 0.4 s; the dirac-conj lemma at n=15, m = k = 32, with coordinates from
# 1e-300 to 1e100 (2,432 bits, 79 powers), took 14.7 s.
MAX_EXACT_SIZE = 2**15

# `eval --kernel` name: (closed form, the options it reads with their defaults).
# The form is called as form(s, x, **options), an option left unset taking its
# default; options a flavor does not read are ignored. A flavor has a printed
# right-sided form exactly when it reads `side`. Forms call the closed forms as
# K.<name> when they run, so a wrapper on the module attribute sees each call.
KERNELS = {
    "cauchy-I": (_cauchy("I"), {"side": "left"}),
    "cauchy-II": (_cauchy("II"), {"side": "left"}),
    "pseudo-cauchy": (lambda s, x, m: K.pseudo_cauchy_pow(s, x, m), {"m": 1}),
    "series": (lambda s, x, terms: K.cauchy_series_partial(s, x, terms), {"terms": 0}),
    "fueter-sce": (lambda s, x, side: K.fueter_sce_kernel(s, x, side=side), {"side": "left"}),
    "d-beta-delta-m": (lambda s, x, m, beta: K.d_beta_delta_m_kernel(s, x, m, beta),
                       {"m": 0, "beta": 1}),
    "dbar-beta-delta-m": (lambda s, x, m, beta: K.dbar_beta_delta_m_kernel(s, x, m, beta),
                          {"m": 0, "beta": 1}),
    "harmonic": (lambda s, x, m: K.harmonic_kernel(s, x, m), {"m": 1}),
    "laplacian-power": (lambda s, x, m: K.laplacian_power_kernel(s, x, m), {"m": 1}),
    "polyanalytic": (lambda s, x, ell: K.polyanalytic_kernel(s, x, ell), {"ell": 0}),
    "lemma": (lambda s, x, lemma, formula, m, k: K.lemma_rhs(s, x, lemma, formula, m, k),
              {"lemma": K.LEMMA_DIRAC, "formula": 1, "m": 1, "k": 0}),
    "catalog": (_catalog, {"catalog_id": ""}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicekernels",
        description="Clifford kernel evaluation and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one kernel at a point")
    ev.add_argument("--kernel", required=True, choices=KERNELS)
    ev.add_argument("--n", type=int, required=True, help="odd Clifford dimension")
    ev.add_argument("--s", required=True, help="paravector s as x0,x1,...,xn")
    ev.add_argument("--x", required=True, help="paravector x as x0,x1,...,xn")
    ev.add_argument("--side", default="left", choices=("left", "right"))
    ev.add_argument("--m", type=int, default=None)
    ev.add_argument("--beta", type=int, default=None)
    ev.add_argument("--ell", type=int, default=None)
    ev.add_argument("--k", type=int, default=None)
    ev.add_argument("--lemma", default=None, choices=(K.LEMMA_DIRAC, K.LEMMA_DIRAC_CONJ))
    ev.add_argument("--formula", type=int, default=None, choices=(1, 2, 3, 4))
    ev.add_argument("--catalog-id", default=None)
    ev.add_argument("--terms", type=int, default=None, help="series truncation index")
    ev.add_argument("--mode", default="exact", choices=("exact", "float"))
    ev.add_argument("--format", default="text", choices=("text", "json"))

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("--suite", required=True, choices=SUITE_NAMES)
    vf.add_argument("--n", default=None, help="comma-separated odd dimensions")
    vf.add_argument("--trials", type=int, default=None)
    vf.add_argument("--mode", default=None, choices=("exact", "float"))
    vf.add_argument("--seed", type=int, default=None)
    vf.add_argument("--tol", type=float, default=None)
    vf.add_argument("--hn-max", type=int, default=None)
    vf.add_argument("--jobs", type=int, default=None)
    vf.add_argument("--terms", type=int, default=None, help="series truncation index")
    vf.add_argument("--nodes", type=int, default=None, help="quadrature node count")
    vf.add_argument("--config", default=None, help="JSON file with the same keys")
    vf.add_argument("--out", default=None, help="write the report to this path")
    vf.add_argument("--format", default="json", choices=("json", "text", "csv"))
    return parser


def _exact_size(s, x, powers: int) -> str:
    """"<bits>-bit coordinates, <powers> powers" when an exact evaluation at
    the rational points s and x is past MAX_EXACT_SIZE, else ""."""
    coords = s.coords() + x.coords()
    den = math.lcm(*(c.denominator for c in coords))
    top = max(abs(c.numerator) * (den // c.denominator) for c in coords)
    bits = top.bit_length() + den.bit_length()
    return f"{bits}-bit coordinates, {powers} powers" if bits * powers > MAX_EXACT_SIZE else ""


def _cmd_eval(args) -> int:
    if args.n % 2 == 0 or args.n < 3:
        raise InvalidParams("kernel dimension must be odd and >= 3")
    if args.n > MAX_DIMENSION:
        raise InvalidParams(f"dimension {args.n} outside 1..{MAX_DIMENSION}")
    form, defaults = KERNELS[args.kernel]
    for name, bound in (("terms", MAX_SERIES_TERMS), ("m", MAX_POWER), ("k", MAX_POWER)):
        if name in defaults and (value := getattr(args, name)) is not None and value > bound:
            raise InvalidParams(f"{name} must be <= {bound}, got {value}")
    ring = RATIONALS if args.mode == "exact" else FLOATS
    s = parse_paravector(args.s, args.n, ring)
    x = parse_paravector(args.x, args.n, ring)
    if args.side == "right" and "side" not in defaults:
        raise InvalidParams(f"no printed right-sided form for {args.kernel}")
    options = {name: default if (v := getattr(args, name)) is None else v
               for name, default in defaults.items()}
    powers = args.n + sum(options.get(name, 0) for name in ("m", "k", "beta", "ell", "terms"))
    if ring is RATIONALS and (size := _exact_size(s, x, powers)):
        raise InvalidParams(f"exact {args.kernel} value ({size}) is too large; use --mode float")
    value = form(s, x, **options)
    if ring is FLOATS and not all(map(math.isfinite, value.blades.values())):
        raise InvalidParams(f"{args.kernel} value lies outside float range")
    if ring is FLOATS and value.is_zero():  # recheck exactly at the same point
        s, x = s.cast(RATIONALS), x.cast(RATIONALS)
        if size := _exact_size(s, x, powers):
            raise InvalidParams(f"{args.kernel} value is 0 in float mode, and its exact recheck "
                                f"({size}) is too large; use --mode exact")
        if not form(s, x, **options).is_zero():
            raise InvalidParams(f"{args.kernel} value underflows to 0 in float mode")
    try:
        if args.format == "json":
            blades = {blade_name(m) or "1": str(c) for m, c in value.blades.items()}
            text = json.dumps({"kernel": args.kernel, "n": args.n, "value": blades},
                              sort_keys=True)
        else:
            text = format_multivector(value)
    except ValueError:  # an int past sys.get_int_max_str_digits() digits
        raise InvalidParams(f"exact {args.kernel} value has an integer too long to print; "
                            f"use --mode float") from None
    print(text)
    return 0


# verify option (flag dest and config-file key) -> SuiteConfig field
_CONFIG_FIELDS = {"n": "n_values", "trials": "trials", "mode": "mode", "seed": "seed",
                  "tol": "tol", "hn_max": "hn_max", "jobs": "jobs",
                  "terms": "series_terms", "nodes": "quad_nodes"}


def _suite_config(args) -> SuiteConfig:
    """The flags, then the --config file; a value set by neither keeps
    SuiteConfig's default."""
    file_values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise InvalidParams(f"config file {args.config} must hold a JSON object")
        for key in file_values:
            if key.replace("-", "_") not in _CONFIG_FIELDS:
                raise SliceKernelsError(f"unknown config key {key!r}")
    values = {}
    for name, field in _CONFIG_FIELDS.items():
        in_file = [k for k in (name.replace("_", "-"), name) if k in file_values]
        if getattr(args, name) is not None:
            values[field] = getattr(args, name)
        elif in_file:
            values[field] = file_values[in_file[0]]
    # values keep their JSON types (an integer tol becomes a float), and
    # SuiteConfig.validate refuses wrong ones
    n_raw = values.get("n_values")
    if isinstance(n_raw, str):
        try:
            values["n_values"] = tuple(int(p) for p in n_raw.split(",") if p.strip())
        except ValueError:
            raise InvalidParams(f"--n must be integers separated by commas, "
                                f"got {n_raw!r}") from None
    elif isinstance(n_raw, (list, tuple)):
        values["n_values"] = tuple(n_raw)
    elif "n_values" in values:
        values["n_values"] = (n_raw,)
    if type(values.get("tol")) is int:
        values["tol"] = float(values["tol"])
    return SuiteConfig(suite=args.suite, **values)


def _write_report(report, fmt: str, fh) -> None:
    """Write the report to `fh` as it is encoded, with no copy of its text."""
    if fmt == "json":
        json.dump(report.as_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    elif fmt == "text":
        summary = report.summary
        fh.write(f"suite {report.suite}: {summary['passed']}/{summary['total']} passed, "
                 f"{summary['failed']} failed, "
                 f"{summary['flagged_known_discrepancies']} flagged\n")
        for case in report.cases:
            status = "PASS" if case["pass"] else "FAIL"
            note = f"  ({case['note']})" if case.get("note") else ""
            fh.write(f"  {status}  {case['key']}  residual={case['residual']:.3e}{note}\n")
    elif report.tables:
        write_convergence_csv(next(iter(report.tables.values())), fh)
    else:
        fh.write("key,residual,pass\n")
        for case in report.cases:
            fh.write(f"{case['key']},{case['residual']!r},{int(case['pass'])}\n")


def _cmd_verify(args) -> int:
    report = run_suite(_suite_config(args))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_report(report, args.format, fh)
    else:
        try:
            _write_report(report, args.format, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early, as `| head` does: the verdict stands,
            # and stdout goes to devnull so that the exit flush cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_verify(args)
    except (SliceKernelsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
