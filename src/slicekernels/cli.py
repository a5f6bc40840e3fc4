"""Command-line harness: evaluate kernels at points and run verification suites.

Exit codes: 0 success, 1 suite failures, 2 configuration or evaluation errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import kernels as K
from .clifford import format_multivector, blade_name, parse_paravector
from .errors import SliceKernelsError
from .quadrature import write_convergence_csv
from .rings import FLOATS, RATIONALS
from .suites import SUITE_NAMES, SuiteConfig, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicekernels",
        description="Clifford kernel evaluation and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one kernel at a point")
    ev.add_argument("--kernel", required=True, choices=K.FLAVORS)
    ev.add_argument("--n", type=int, required=True, help="odd Clifford dimension")
    ev.add_argument("--s", required=True, help="paravector s as x0,x1,...,xn")
    ev.add_argument("--x", required=True, help="paravector x as x0,x1,...,xn")
    ev.add_argument("--side", default="left", choices=("left", "right"))
    ev.add_argument("--m", type=int, default=None)
    ev.add_argument("--beta", type=int, default=None)
    ev.add_argument("--ell", type=int, default=None)
    ev.add_argument("--k", type=int, default=0)
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


def _cmd_eval(args) -> int:
    ring = RATIONALS if args.mode == "exact" else FLOATS
    spec = K.KernelSpec(
        n=args.n,
        flavor=args.kernel,
        side=args.side,
        m=args.m,
        beta=args.beta,
        ell=args.ell,
        k=args.k,
        lemma=args.lemma,
        formula=args.formula,
        catalog_id=args.catalog_id,
        terms=args.terms,
    )
    s = parse_paravector(args.s, args.n, ring)
    x = parse_paravector(args.x, args.n, ring)
    result = K.evaluate_spec(spec, s, x)
    if args.format == "json":
        blades = {
            blade_name(mask) or "1": str(c)
            for mask, c in enumerate(result.value.coeffs)
            if not ring.is_zero(c)
        }
        print(json.dumps({"kernel": args.kernel, "n": args.n, "value": blades},
                         sort_keys=True))
    else:
        print(format_multivector(result.value))
    return 0


_CONFIG_KEYS = ("n", "trials", "mode", "seed", "tol", "hn_max", "jobs", "terms", "nodes")


def _suite_config(args) -> SuiteConfig:
    file_values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        for key in file_values:
            if key.replace("-", "_") not in {k.replace("-", "_") for k in _CONFIG_KEYS}:
                raise SliceKernelsError(f"unknown config key {key!r}")

    def pick(name, default):
        cli_val = getattr(args, name.replace("-", "_"))
        if cli_val is not None:
            return cli_val
        for k in (name, name.replace("-", "_")):
            if k in file_values:
                return file_values[k]
        return default

    # values keep their JSON types (an integer tol becomes a float), and
    # SuiteConfig.validate refuses wrong ones
    n_raw = pick("n", "3,5,7")
    if isinstance(n_raw, str):
        n_values = tuple(int(p) for p in n_raw.split(",") if p.strip())
    elif isinstance(n_raw, (list, tuple)):
        n_values = tuple(n_raw)
    else:
        n_values = (n_raw,)
    tol = pick("tol", 1e-10)
    return SuiteConfig(
        suite=args.suite,
        n_values=n_values,
        trials=pick("trials", 10),
        mode=pick("mode", "exact"),
        seed=pick("seed", 0),
        tol=float(tol) if type(tol) is int else tol,
        hn_max=pick("hn-max", 12),
        jobs=pick("jobs", None),
        series_terms=pick("terms", 60),
        quad_nodes=pick("nodes", 256),
    )


def _report_text(report) -> str:
    lines = [f"suite {report.suite}: "
             f"{report.summary['passed']}/{report.summary['total']} passed, "
             f"{report.summary['failed']} failed, "
             f"{report.summary['flagged_known_discrepancies']} flagged"]
    for case in report.cases:
        status = "PASS" if case["pass"] else "FAIL"
        note = f"  ({case['note']})" if case.get("note") else ""
        lines.append(f"  {status}  {case['key']}  residual={case['residual']:.3e}{note}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    config = _suite_config(args)
    report = run_suite(config)
    if args.format == "csv":
        import io

        buf = io.StringIO()
        if report.tables:
            rows = next(iter(report.tables.values()))
            write_convergence_csv(rows, buf)
        else:
            buf.write("key,residual,pass\n")
            for case in report.cases:
                buf.write(f"{case['key']},{case['residual']!r},{int(case['pass'])}\n")
        payload = buf.getvalue()
    elif args.format == "text":
        payload = _report_text(report) + "\n"
    else:
        payload = json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_verify(args)
    except SliceKernelsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
