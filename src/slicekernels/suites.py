"""Verification suites and machine-readable reports.

Each suite expands into a list of independent cases keyed by a stable
string; a case derives its own RNG from (seed, suite, key), so reports are
deterministic for a given config regardless of worker count or execution
order.  In exact mode a case passes only when the residual is identically
zero; in float mode the residual norm is compared against
``tol * max(1, |lhs|, |rhs|)``.

Every kind of case is one row of `CHECKS`, and `SUITES` lists the kinds
each suite runs; `_run_case` runs a case of any kind.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable

from . import coeffs as cf
from . import kernels as K
from .clifford import Multivector, Paravector, format_paravector
from .diffop import (
    make_dirac,
    make_dirac_conj,
    make_laplacian,
    operator_power_compose,
    oracle_apply,
)
from .errors import InvalidParams
from .quadrature import (
    ContourSpec,
    SliceFunction,
    cauchy_reconstruct,
    convergence_table,
    fueter_sce_integral,
)
from .rings import FLOATS, RATIONALS, FloatRing

SCHEMA_VERSION = 1

# Jet order cap for float-mode oracle cases. Down-set jets would make larger
# orders affordable, but the cap decides which float cases exist at all, and
# the float reports (and the benchmark's float-n9 case counts) pin that set.
FLOAT_ORACLE_MAX_ORDER = 4


@dataclass
class SuiteConfig:
    suite: str
    n_values: tuple = (3, 5, 7)
    trials: int = 10
    mode: str = "exact"
    seed: int = 0
    tol: float = 1e-10
    hn_max: int = 12
    jobs: int | None = None
    series_terms: int = 60
    quad_nodes: int = 256

    def validate(self):
        if self.suite not in SUITE_NAMES:
            raise InvalidParams(f"unknown suite {self.suite!r}")
        if self.mode not in ("exact", "float"):
            raise InvalidParams(f"unknown mode {self.mode!r}")
        for name in ("trials", "seed", "hn_max", "series_terms", "quad_nodes", "jobs"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "jobs" and value is None):
                raise InvalidParams(f"{name} must be an integer, got {value!r}")
        if type(self.tol) not in (int, float):
            raise InvalidParams(f"tol must be a number, got {self.tol!r}")
        if self.trials < 1:
            raise InvalidParams("trials must be >= 1")
        for n in self.n_values:
            if type(n) is not int or n < 3 or n % 2 == 0:
                raise InvalidParams(f"suite dimension {n!r} must be an odd integer >= 3")


@dataclass
class VerificationReport:
    suite: str
    config: dict
    cases: list
    summary: dict
    tables: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def as_dict(self, strip_times: bool = False) -> dict:
        cases = self.cases
        if strip_times:
            cases = [{k: v for k, v in c.items() if k != "wall_time"} for c in cases]
        out = {
            "schema": self.schema,
            "suite": self.suite,
            "config": self.config,
            "cases": cases,
            "summary": self.summary,
        }
        if self.tables:
            out["tables"] = self.tables
        return out

    @property
    def passed(self) -> bool:
        return self.summary["failed"] == 0


def _case_rng(config: SuiteConfig, key: str) -> Random:
    return Random(f"{config.seed}|{config.suite}|{key}")


def _ring(config: SuiteConfig):
    return RATIONALS if config.mode == "exact" else FloatRing(tol=1e-12)


def _compare(a: Multivector, b: Multivector, config: SuiteConfig) -> tuple[float, bool]:
    """Residual norm and pass flag under the configured mode."""
    diff = a - b
    if config.mode == "exact":
        return _zero_check(diff, config)
    residual = diff.norm_float()
    scale = max(1.0, a.norm_float(), b.norm_float())
    return residual, residual <= config.tol * scale


def _zero_check(a: Multivector, config: SuiteConfig) -> tuple[float, bool]:
    if config.mode == "exact":
        if a.is_zero():
            return 0.0, True
        return a.norm_float(), False
    residual = a.norm_float()
    return residual, residual <= config.tol

def _point_record(s: Paravector, x: Paravector) -> dict:
    return {"s": format_paravector(s), "x": format_paravector(x)}


# -- checks with their own loops ----------------------------------------------


def _run_series(params, config: SuiteConfig) -> dict:
    """Exact partial sums at a dyadic point against the geometric tail bound.

    Coordinates are floats (hence dyadic rationals); sums and the kernel
    value are computed exactly, so any bound violation is mathematical and
    not roundoff.
    """
    n = params["n"]
    rng = _case_rng(config, params["key"])
    s, x = K.sample_series_pair(n, rng)
    limit = K.cauchy_left(s, x, form="II")
    ns_f = math.sqrt(float(s.norm_sq()))
    rho = math.sqrt(float(x.norm_sq())) / ns_f
    sinv = s.inverse()
    acc = Multivector.zero(n, RATIONALS)
    worst = 0.0
    ok = True
    for k in range(params["terms"] + 1):
        acc = acc + x.pow(k).to_multivector() * sinv.pow(k + 1).to_multivector()
        err = (acc - limit).norm_float()
        bound = rho ** (k + 1) / (ns_f * (1.0 - rho))
        if err > bound * (1.0 + 1e-9):
            ok = False
            worst = max(worst, err - bound)
    return {
        "residual": worst,
        "pass": ok,
        "point": _point_record(s, x),
        "note": f"rho={rho:.4f}",
    }


def _run_catalog(params, config: SuiteConfig) -> dict:
    """One case per catalog entry; all trial points must agree on the verdict.

    A flagged entry passes when the quoted form mismatches the oracle at
    every point while the oracle-confirmed alternative matches everywhere.
    """
    entry = K.catalog_fixture(params["id"])
    rng = _case_rng(config, params["key"])
    op = entry.op_factory()
    points = [K.sample_point_pair(entry.n, rng, ring=_ring(config))
              for _ in range(params["trials"])]
    worst = 0.0
    printed_matches = True
    corrected_matches = True
    for s, x in points:
        oracle = oracle_apply(op, K.cauchy_closure(s), x)
        residual, matches = _compare(entry.printed(s, x), oracle, config)
        printed_matches = printed_matches and matches
        if entry.expected_match:
            worst = max(worst, residual)
        else:
            corr_res, corr_ok = _compare(entry.corrected(s, x), oracle, config)
            corrected_matches = corrected_matches and corr_ok
            worst = max(worst, corr_res)
    if entry.expected_match:
        ok = printed_matches
    else:
        ok = (not printed_matches) and corrected_matches
    out = {
        "residual": worst,
        "pass": ok,
        "point": _point_record(*points[0]),
        "expected_match": entry.expected_match,
        "flagged": not entry.expected_match,
    }
    if not entry.expected_match:
        out["note"] = (
            f"printed: {entry.printed_text}; oracle-confirmed: {entry.corrected_text}"
        )
    return out


def _quad_contour(n: int, nodes: int) -> ContourSpec:
    direction = tuple(1.0 if i == 0 else 0.0 for i in range(n))
    return ContourSpec(direction, 0.0, 2.0, nodes)


def _quad_interior_point(n: int, rng: Random) -> Paravector:
    coords = [rng.uniform(-0.8, 0.8)]
    coords.extend(rng.uniform(-0.5, 0.5) for _ in range(n))
    return Paravector.from_coords(FLOATS, coords)


def _quad_grid_point(n: int, rng: Random) -> Paravector:
    # keep |x| well inside the radius-2 contour so trapezoid error decays fast
    coords = [Fraction(rng.randint(-8, 8), 16) for _ in range(n + 1)]
    return Paravector.from_coords(RATIONALS, coords)


QUAD_FLOAT_FLOOR = 1e-13


def _run_quad_convergence(params, config: SuiteConfig) -> dict:
    n = params["n"]
    rng = _case_rng(config, params["key"])
    x = _quad_interior_point(n, rng)
    f = SliceFunction.from_power_series([0, 0, 0, 1])
    exact = x.pow(3).to_multivector()
    counts = [2**i for i in range(3, params["nodes"].bit_length())]  # 8, 16, ... <= nodes
    rows = convergence_table(
        cauchy_reconstruct, f, x, _quad_contour(n, 8), counts, exact
    )
    ok = True
    for prev, row in zip(rows, rows[1:]):
        at_floor = (
            prev["abs_error"] <= QUAD_FLOAT_FLOOR
            or row["abs_error"] <= QUAD_FLOAT_FLOOR
        )
        if not at_floor and row["ratio"] > 0.25:
            ok = False
    return {
        "residual": rows[-1]["abs_error"],
        "pass": ok,
        "point": {"x": format_paravector(x)},
        "table": rows,
    }


# -- the check table ------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One kind of case: its key template, its parameter grid and its test.

    `grid(config)` lists the parameter points; with `trials` each point runs
    once per trial, under a `trial` parameter. `key` is a `str.format`
    template over the parameters, or a function of them. Exactly one test is
    set:

    - `pair(params, s, x)` gives two values that must agree;
    - `zero(params, s, x)` gives a value that must vanish;
    - `holds(params)` checks an exact coefficient identity;
    - `quad(params, x)` gives a float quadrature value and its exact value at
      a point drawn by `sample(n, rng)`, which must agree within `tol`;
    - `run(params, config)` builds the whole case record itself.

    The oracle, the closed forms and the quadrature routines are looked up
    through their modules when a case runs, never stored in a row, so that a
    wrapper installed on a module attribute sees every call.
    """

    key: str | Callable
    grid: Callable
    trials: bool = False
    float_ok: Callable = lambda params: True  # False: float mode skips the point
    pair: Callable | None = None
    zero: Callable | None = None
    holds: Callable | None = None
    quad: Callable | None = None
    sample: Callable = _quad_interior_point
    tol: float = 0.0
    run: Callable | None = None


def _theorem(p, s, x):
    n, m, beta = p["n"], p["m"], p["beta"]
    if p["op"] == "d":
        closed, base = K.d_beta_delta_m_kernel(s, x, m, beta), make_dirac(n)
    else:
        closed, base = K.dbar_beta_delta_m_kernel(s, x, m, beta), make_dirac_conj(n)
    return closed, oracle_apply(operator_power_compose(base, beta, m), K.cauchy_closure(s), x)


def _quad_fs_oracle(p, x):
    h = cf.h_of(p["n"])
    f = SliceFunction.from_power_series([0] * p["k"] + [1])
    got = fueter_sce_integral(f, x.cast(FLOATS), _quad_contour(p["n"], p["nodes"]))
    exact = oracle_apply(make_laplacian(p["n"]).power(h), f.as_ring_function(), x)
    return got, exact.map_coeffs(float, FLOATS)


def _quad_slice_independence(p, x):
    f = SliceFunction.from_power_series([0, 1, 2, 0, 3])
    tilted_dir = tuple(1.0 / math.sqrt(3) if i < 3 else 0.0 for i in range(p["n"]))
    tilted = ContourSpec(tilted_dir, 0.0, 2.0, p["nodes"])
    base = cauchy_reconstruct(f, x, _quad_contour(p["n"], p["nodes"]))
    return base, cauchy_reconstruct(f, x, tilted)


CHECKS = {
    "theorem": Check(
        key="n{n}-m{m}-b{beta}-t{trial:03d}",
        grid=lambda c: [dict(op=c.suite.removeprefix("theorem-"), n=n, m=m, beta=beta)
                        for n in c.n_values for m in range(cf.h_of(n))
                        for beta in range(1, cf.h_of(n) - m + 1)],
        trials=True,
        float_ok=lambda p: p["beta"] + 2 * p["m"] <= FLOAT_ORACLE_MAX_ORDER,
        pair=_theorem,
    ),
    "dbar-boundary": Check(
        key="n{n}-m{m}-boundary-t{trial:03d}",
        grid=lambda c: [dict(n=n, m=m) for n in c.n_values for m in range(cf.h_of(n))],
        trials=True,
        pair=lambda p, s, x: (
            K.dbar_beta_delta_m_kernel(s, x, p["m"], cf.h_of(p["n"]) - p["m"]),
            K.polyanalytic_kernel(s, x, p["m"]),
        ),
    ),
    "lemma": Check(
        key="n{n}-{lemma}-f{formula}-m{m}-k{k}-t{trial:03d}",
        grid=lambda c: [dict(n=n, lemma=lemma, formula=f, m=m, k=k)
                        for n in c.n_values
                        for lemma in (K.LEMMA_DIRAC, K.LEMMA_DIRAC_CONJ)
                        for f in (1, 2, 3, 4) for m in (1, 2, 3, 4)
                        for k in ((0, 1, 2, 3) if f in (3, 4) else (0,))],
        trials=True,
        pair=lambda p, s, x: K.lemma_block_lhs_rhs(
            s, x, p["lemma"], p["formula"], p["m"], p["k"]),
    ),
    "sigma-link": Check(
        key=lambda p: f"n{2 * p['h_n'] + 1}-sigma-m{p['m']}",
        grid=lambda c: [dict(h_n=cf.h_of(n), m=m)
                        for n in c.n_values for m in range(cf.h_of(n))],
        holds=lambda p: cf.sigma_gamma_link(p["h_n"], p["m"]),
    ),
    "harmonic-link": Check(
        key="n{n}-harmlink-m{m}-t{trial:03d}",
        grid=lambda c: [dict(n=n, m=m) for n in c.n_values for m in range(cf.h_of(n))],
        trials=True,
        pair=lambda p, s, x: (K.d_beta_delta_m_kernel(s, x, p["m"], 1),
                              K.harmonic_kernel(s, x, p["m"] + 1)),
    ),
    "laplacian-power-oracle": Check(
        key="n{n}-lap-oracle-m{m}-t{trial:03d}",
        grid=lambda c: [dict(n=n, m=m)
                        for n in c.n_values for m in range(1, cf.h_of(n) + 1)],
        trials=True,
        float_ok=lambda p: 2 * p["m"] <= FLOAT_ORACLE_MAX_ORDER,
        pair=lambda p, s, x: (
            K.laplacian_power_kernel(s, x, p["m"]),
            oracle_apply(make_laplacian(p["n"]).power(p["m"]), K.cauchy_closure(s), x),
        ),
    ),
    "fueter-link": Check(
        key="n{n}-fueter-{side}-t{trial:03d}",
        grid=lambda c: [dict(n=n, side=side)
                        for n in c.n_values for side in ("left", "right")],
        trials=True,
        float_ok=lambda p: False,  # Laplacian^h_n: exact mode only, at every n
        pair=lambda p, s, x: (
            K.fueter_sce_kernel(s, x, side=p["side"]),
            oracle_apply(make_laplacian(p["n"]).power(cf.h_of(p["n"])),
                         K.cauchy_closure(s, side=p["side"]), x),
        ),
    ),
    "laplacian-power-fueter": Check(
        key="n{n}-lapfueter-t{trial:03d}",
        grid=lambda c: [dict(n=n) for n in c.n_values],
        trials=True,
        pair=lambda p, s, x: (K.laplacian_power_kernel(s, x, cf.h_of(p["n"])),
                              K.fueter_sce_kernel(s, x)),
    ),
    "appendix-identity": Check(
        key="{identity}-h{h_n:02d}-m{m:02d}-k{k}-j{j}",
        grid=lambda c: [asdict(case) for case in cf.appendix_cases(c.hn_max)],
        holds=lambda p: cf.check_appendix_identity(
            p["identity"], p["h_n"], p["m"], p["k"], p["j"]),
    ),
    "stifel": Check(
        key="stifel-p{p:02d}-q{q:02d}",
        grid=lambda c: [dict(p=p, q=q)
                        for p in range(1, c.hn_max + 1) for q in range(0, p + 1)],
        holds=lambda p: cf.check_stifel(p["p"], p["q"]),
    ),
    "boundary-vanish": Check(
        key="boundary-h{h_n:02d}-m{m:02d}",
        grid=lambda c: [dict(h_n=h, m=m)
                        for h in range(1, c.hn_max + 1) for m in range(0, h)],
        holds=lambda p: cf.boundary_vanishing_holds(p["h_n"], p["m"]),
    ),
    "monogenic": Check(
        key="n{n}-t{trial:03d}",
        grid=lambda c: [dict(n=n) for n in c.n_values],
        trials=True,
        zero=lambda p, s, x: oracle_apply(make_dirac(p["n"]), K.fueter_sce_closure(s), x),
    ),
    "polyharmonic": Check(
        key="n{n}-m{m}-t{trial:03d}",
        grid=lambda c: [dict(n=n, m=m)
                        for n in c.n_values for m in range(1, cf.h_of(n) + 1)],
        trials=True,
        float_ok=lambda p: 2 * (cf.h_of(p["n"]) - p["m"] + 1) <= FLOAT_ORACLE_MAX_ORDER,
        zero=lambda p, s, x: oracle_apply(
            make_laplacian(p["n"]).power(cf.h_of(p["n"]) - p["m"] + 1),
            K.harmonic_closure(s, p["m"]), x),
    ),
    "forms": Check(
        key="n{n}-{side}-t{trial:03d}",
        grid=lambda c: [dict(n=n, side=side)
                        for n in c.n_values for side in ("left", "right")],
        trials=True,
        pair=lambda p, s, x: [(K.cauchy_left if p["side"] == "left" else K.cauchy_right)(
            s, x, form) for form in ("I", "II")],
    ),
    "series": Check(
        key="n{n}-t{trial:03d}",
        grid=lambda c: [dict(n=n, terms=c.series_terms) for n in c.n_values],
        trials=True,
        run=_run_series,
    ),
    "catalog": Check(
        key="{id}",
        grid=lambda c: [dict(id=cid, trials=c.trials) for cid in K.catalog_ids()
                        if K.catalog_fixture(cid).n in c.n_values],
        run=_run_catalog,
    ),
    "quad-reconstruct": Check(
        key="recon-k{k}-p{trial}",
        grid=lambda c: [dict(n=3, k=k, nodes=c.quad_nodes, trial=t)
                        for k in range(0, 9) for t in range(5)],
        quad=lambda p, x: (
            cauchy_reconstruct(SliceFunction.from_power_series([0] * p["k"] + [1]), x,
                               _quad_contour(p["n"], p["nodes"])),
            x.pow(p["k"]).to_multivector(),
        ),
        tol=1e-10,
    ),
    "quad-fs-constant": Check(
        key="fs-x2-p{trial}",
        grid=lambda c: [dict(n=3, nodes=c.quad_nodes, trial=t) for t in range(5)],
        # Laplacian of x^2 in R^4 is the constant 2 - 2n = -4
        quad=lambda p, x: (
            fueter_sce_integral(SliceFunction.from_power_series([0, 0, 1]), x,
                                _quad_contour(p["n"], p["nodes"])),
            Multivector.scalar(p["n"], FLOATS, 2 - 2 * p["n"]),
        ),
        tol=1e-8,
    ),
    "quad-fs-oracle": Check(
        key="fs-oracle-n{n}-k{k}",
        grid=lambda c: [dict(n=n, k=k, nodes=c.quad_nodes)
                        for n in (3, 5) for k in range(0, 6)],
        quad=_quad_fs_oracle,
        sample=_quad_grid_point,
        tol=1e-8,
    ),
    "quad-slice-independence": Check(
        key="slice-indep-p{trial}",
        grid=lambda c: [dict(n=3, nodes=c.quad_nodes, trial=t) for t in range(3)],
        quad=_quad_slice_independence,
        tol=1e-10,
    ),
    "quad-convergence": Check(
        key="convergence",
        grid=lambda c: [dict(n=3, nodes=c.quad_nodes)],
        run=_run_quad_convergence,
    ),
}

SUITES = {
    "theorem-d": ("theorem",),
    "theorem-dbar": ("theorem", "dbar-boundary"),
    "lemmas": ("lemma",),
    "special-cases": ("sigma-link", "harmonic-link", "laplacian-power-oracle",
                      "fueter-link", "laplacian-power-fueter"),
    "appendix": ("appendix-identity", "stifel", "boundary-vanish"),
    "monogenic": ("monogenic",),
    "polyharmonic": ("polyharmonic",),
    "forms": ("forms",),
    "series": ("series",),
    "catalog": ("catalog",),
    "quadrature": ("quad-reconstruct", "quad-fs-constant", "quad-fs-oracle",
                   "quad-slice-independence", "quad-convergence"),
}

SUITE_NAMES = tuple(SUITES)


def _build_cases(config: SuiteConfig) -> list:
    cases = []
    for kind in SUITES[config.suite]:
        check = CHECKS[kind]
        for point in check.grid(config):
            if config.mode == "float" and not check.float_ok(point):
                continue  # float runs are spot checks; cap the jet order
            for t in range(config.trials) if check.trials else (None,):
                params = point if t is None else {**point, "trial": t}
                key = check.key(params) if callable(check.key) else check.key.format(**params)
                cases.append({"kind": kind, "key": key, **params})
    return cases


def _run_case(params, config: SuiteConfig) -> dict:
    check = CHECKS[params["kind"]]
    if check.holds:
        ok = check.holds(params)
        return {"residual": 0.0 if ok else 1.0, "pass": ok}
    if check.run:
        return check.run(params, config)
    rng = _case_rng(config, params["key"])
    if check.quad:
        x = check.sample(params["n"], rng)
        got, exact = check.quad(params, x)
        residual = (got - exact).norm_float()
        return {"residual": residual, "pass": residual <= check.tol,
                "point": {"x": format_paravector(x)}}
    s, x = K.sample_point_pair(params["n"], rng, ring=_ring(config))
    if check.zero:
        residual, ok = _zero_check(check.zero(params, s, x), config)
    else:
        residual, ok = _compare(*check.pair(params, s, x), config)
    return {"residual": residual, "pass": ok, "point": _point_record(s, x)}


def _execute_case(args):
    params, config = args
    started = time.perf_counter()
    try:
        out = _run_case(params, config)
    except Exception as exc:  # a raising case fails on its own; the suite runs on
        out = {"residual": 1.0, "pass": False, "error": f"{type(exc).__name__}: {exc}"}
    out["wall_time"] = time.perf_counter() - started
    out["key"] = params["key"]
    out["params"] = {
        k: v for k, v in params.items() if k not in ("kind", "key")
    }
    return out


def run_suite(config: SuiteConfig) -> VerificationReport:
    config.validate()
    cases = _build_cases(config)
    jobs = config.jobs if config.jobs is not None else (os.cpu_count() or 1)
    work = [(c, config) for c in cases]
    if jobs > 1 and len(cases) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(work) // (4 * jobs))
            results = list(pool.map(_execute_case, work, chunksize=chunk))
    else:
        results = [_execute_case(w) for w in work]
    results.sort(key=lambda r: r["key"])
    tables = {r["key"]: r.pop("table") for r in results if "table" in r}
    total = len(results)
    passed = sum(1 for r in results if r["pass"])
    flagged = sum(1 for r in results if r.get("flagged"))
    summary = {
        "total": total,
        "passed": passed,
        "failed": total - passed,
        "flagged_known_discrepancies": flagged,
    }
    cfg = asdict(config)
    cfg["n_values"] = list(config.n_values)
    del cfg["jobs"]  # execution knob only; results do not depend on it
    return VerificationReport(
        suite=config.suite, config=cfg, cases=results, summary=summary, tables=tables
    )
