"""Verification suites and machine-readable reports.

Each suite expands into a list of independent cases keyed by a stable
string; a case derives its own RNG from (seed, suite, key), so reports are
deterministic for a given config regardless of worker count or execution
order.  In exact mode a case passes only when the residual is identically
zero; in float mode the residual norm is compared against
``tol * max(1, |lhs|, |rhs|)``.

Every kind of case is one row of `CHECKS`, and `SUITES` lists the kinds
each suite runs; `_run_case` runs a case of any kind. An oracle row names
its operator D^beta Delta^m and the function it differentiates, and the
axial oracle (`axial.apply`) decides it in both modes: it reads a float
point exactly and rounds its value once, so a float residual is the float
closed form's own error.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

from . import axial
from . import coeffs as cf
from . import kernels as K
from .clifford import MAX_DIMENSION, Multivector, Paravector, format_paravector
from .diffop import named_operator, oracle_apply
from .errors import InvalidParams, WorkerFailed
from .quadrature import (
    MAX_NODES,
    ContourSpec,
    SliceFunction,
    cauchy_reconstruct,
    convergence_table,
    fueter_sce_integral,
)
from .rings import FLOATS, RATIONALS

SCHEMA_VERSION = 1

# Order cap for float-mode oracle cases. No oracle needs it, since both run
# exact jets in float mode too; it only pins the float case set, which the
# benchmark's float-n9 case counts (20/11/2) pin as well. Without it they
# would read 28/12/4, so it goes with a benchmark change that re-pins them.
FLOAT_ORACLE_MAX_ORDER = 4

# Upper bounds of the config, checked before any case is built, because every
# case is built before any runs: past them a case list or one case takes
# seconds or more (`appendix` at hn_max 32 has 58,376 cases; one n=3
# `series` case at 960 terms takes about 3 s).
MAX_TRIALS = 10_000
MAX_HN = 32
MAX_SERIES_TERMS = 1000

# Largest dimension at which `axial-link` runs the jet oracle, checked before
# any point is listed: every `axial-link` grid holds Delta^{h_n}, whose jet
# table grows fastest. The n=11 Delta^5 table has 5,718,636 entries (that run
# took 93.7 s and peaked at 1.85 GB); the n=13 Delta^6 one would need
# 136,508,632.
MAX_JET_ORACLE_N = 11


class SuiteConfig(NamedTuple):
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
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidParams(f"tol must be a finite number > 0, got {self.tol!r}")
        if self.hn_max < 1:
            raise InvalidParams(f"hn_max must be >= 1, got {self.hn_max}")
        if self.series_terms < 0:
            raise InvalidParams(f"series_terms must be >= 0, got {self.series_terms}")
        if self.quad_nodes < 8 or self.quad_nodes % 2:
            raise InvalidParams(f"quad_nodes must be even and >= 8, got {self.quad_nodes}")
        for name, bound in (("trials", MAX_TRIALS), ("hn_max", MAX_HN),
                            ("series_terms", MAX_SERIES_TERMS), ("quad_nodes", MAX_NODES)):
            if (value := getattr(self, name)) > bound:
                raise InvalidParams(f"{name} must be <= {bound}, got {value}")
        if self.jobs is not None and self.jobs < 1:
            raise InvalidParams(f"jobs must be >= 1, got {self.jobs}")
        if not self.n_values:
            raise InvalidParams("n_values must name at least one dimension")
        for i, n in enumerate(self.n_values):
            if type(n) is not int or n < 3 or n % 2 == 0:
                raise InvalidParams(f"suite dimension {n!r} must be an odd integer >= 3")
            if n > MAX_DIMENSION:
                raise InvalidParams(f"suite dimension {n} outside 1..{MAX_DIMENSION}")
            if n in self.n_values[:i]:
                raise InvalidParams(f"suite dimension {n} is repeated")


class VerificationReport(NamedTuple):
    suite: str
    config: dict
    cases: list
    summary: dict
    tables: dict
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
    return RATIONALS if config.mode == "exact" else FLOATS


def _compare(a: Multivector, b: Multivector, config: SuiteConfig) -> tuple[float, bool]:
    """Residual norm and pass flag under the configured mode."""
    diff = a - b
    if config.mode == "exact":
        return (0.0, True) if diff.is_zero() else (diff.norm_float(), False)
    residual = diff.norm_float()
    scale = max(1.0, a.norm_float(), b.norm_float())
    return residual, residual <= config.tol * scale


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
    worst = 0.0
    ok = True
    for k, acc in enumerate(K.cauchy_series_sums(s, x, params["terms"])):
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

    The axial oracle applies the entry's operator to the left Cauchy kernel
    at each point. A flagged entry, one that gives a `corrected` form, passes
    when the quoted form mismatches the oracle at every point while the
    oracle-confirmed alternative matches everywhere.
    """
    entry = K.catalog_fixture(params["id"])
    flagged = entry.corrected is not None
    rng = _case_rng(config, params["key"])
    points = [K.sample_point_pair(entry.n, rng, ring=_ring(config))
              for _ in range(params["trials"])]
    worst = 0.0
    printed_matches = True
    corrected_matches = True
    for s, x in points:
        oracle = axial.apply(entry.op, ("cauchy-left",), s, x)
        residual, matches = _compare(entry.printed(s, x), oracle, config)
        printed_matches = printed_matches and matches
        if flagged:
            corr_res, corr_ok = _compare(entry.corrected(s, x), oracle, config)
            corrected_matches = corrected_matches and corr_ok
            worst = max(worst, corr_res)
        else:
            worst = max(worst, residual)
    ok = (not printed_matches and corrected_matches) if flagged else printed_matches
    out = {
        "residual": worst,
        "pass": ok,
        "point": _point_record(*points[0]),
        "expected_match": not flagged,
        "flagged": flagged,
    }
    if flagged:
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
    f = SliceFunction([0, 0, 0, 1])
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


class Check(NamedTuple):
    """One kind of case: its key template, its parameter grid and its test.

    `grid(config)` lists the parameter points; with `trials` each point runs
    once per trial, under a `trial` parameter. `key` is a `str.format`
    template over the parameters, or a function of them. Exactly one test is
    set:

    - `pair(params, s, x)` gives two values that must agree;
    - `holds(params)` checks an exact coefficient identity;
    - `quad(params, x)` gives a float quadrature value and its reference
      value at a point drawn by `sample(n, rng)`, which must agree within
      `tol`;
    - `run(params, config)` builds the whole case record itself.

    A `pair` row may name its oracle as `oracle(params) = (op, source)`: the
    operator `op = (base, beta, m)`, D^beta Delta^m for base "d" and
    D-bar^beta Delta^m for "dbar", and the function `source = (name, *args)`,
    a key of `axial.SOURCES`, that it is applied to. Its `pair` then gives the
    closed form alone, which must agree with the axial oracle's value at x,
    in either mode. Float mode skips a point whose order beta + 2m exceeds
    `FLOAT_ORACLE_MAX_ORDER`.

    The oracles, the closed forms and the quadrature routines are looked up
    through their modules when a case runs, never stored in a row, so that a
    wrapper installed on a module attribute sees every call.
    """

    key: str | Callable
    grid: Callable
    trials: bool = False
    oracle: Callable | None = None
    pair: Callable | None = None
    holds: Callable | None = None
    quad: Callable | None = None
    sample: Callable = _quad_interior_point
    tol: float = 0.0
    run: Callable | None = None


# The jet oracle's form of each source: the library kernel, evaluated over jets.
JET_SOURCES = {
    "cauchy-left": lambda s: K.kernel_closure(K.cauchy_left, s),
    "cauchy-right": lambda s: K.kernel_closure(K.cauchy_right, s),
    "fueter-sce": lambda s: K.kernel_closure(K.fueter_sce_kernel, s),
    "harmonic": lambda s, m: K.kernel_closure(K.harmonic_kernel, s, m=m),
}


def _theorem(p, s, x):
    kernel = K.d_beta_delta_m_kernel if p["op"] == "d" else K.dbar_beta_delta_m_kernel
    return kernel(s, x, p["m"], p["beta"])


def _axial_link_grid(c: SuiteConfig) -> list:
    """Each (n, operator, source) that the axial oracle decides at the
    configured dimensions, once: those of every exact oracle row of any
    suite, which name each catalog entry's point too (its operator on the
    left Cauchy kernel). A dimension past `MAX_JET_ORACLE_N` is refused
    before any point is listed, so no operator is built."""
    if c.mode != "exact":
        return []
    if (n := max(c.n_values)) > MAX_JET_ORACLE_N:
        raise InvalidParams(f"axial-link at n={n}: the jet oracle runs at n <= {MAX_JET_ORACLE_N}")
    points = {}
    for suite, kinds in SUITES.items():
        for check in (CHECKS[kind] for kind in kinds):
            if check.oracle:
                for p in check.grid(c._replace(suite=suite)):
                    op, source = check.oracle(p)
                    points.setdefault((p["n"], *op, source), None)
    return [dict(n=n, base=base, beta=beta, m=m, source=source)
            for n, base, beta, m, source in points]


def _axial_link(p, s, x):
    """The axial oracle against the jet oracle, which applies the operator
    `diffop.named_operator` builds once per process to `JET_SOURCES`."""
    op, (name, *args) = (p["base"], p["beta"], p["m"]), p["source"]
    value = axial.apply(op, p["source"], s, x)
    return value, oracle_apply(named_operator(p["n"], *op), JET_SOURCES[name](s, *args), x)


def _quad_fs_oracle(p, x):
    """The Fueter-Sce integral of x^k against the jet oracle's Delta^{h_n} x^k."""
    f = SliceFunction([0] * p["k"] + [1])
    got = fueter_sce_integral(f, x.cast(FLOATS), _quad_contour(p["n"], p["nodes"]))
    op = named_operator(p["n"], "d", 0, cf.h_of(p["n"]))
    return got, oracle_apply(op, f, x).map_coeffs(float, FLOATS)


def _quad_slice_independence(p, x):
    f = SliceFunction([0, 1, 2, 0, 3])
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
        oracle=lambda p: ((p["op"], p["beta"], p["m"]), ("cauchy-left",)),
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
        # m = h_n is left out: its closed form is the Fueter-Sce kernel
        # (laplacian-power-fueter), which fueter-link checks against the
        # same oracle
        grid=lambda c: [dict(n=n, m=m)
                        for n in c.n_values for m in range(1, cf.h_of(n))],
        trials=True,
        oracle=lambda p: (("d", 0, p["m"]), ("cauchy-left",)),
        pair=lambda p, s, x: K.laplacian_power_kernel(s, x, p["m"]),
    ),
    "fueter-link": Check(
        key="n{n}-fueter-{side}-t{trial:03d}",
        grid=lambda c: [dict(n=n, side=side) for n in c.n_values for side in ("left", "right")],
        trials=True,
        oracle=lambda p: (("d", 0, cf.h_of(p["n"])), (f"cauchy-{p['side']}",)),
        pair=lambda p, s, x: K.fueter_sce_kernel(s, x, side=p["side"]),
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
        grid=lambda c: [case._asdict() for case in cf.appendix_cases(c.hn_max)],
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
        oracle=lambda p: (("d", 1, 0), ("fueter-sce",)),
        pair=lambda p, s, x: Multivector.zero(p["n"], s.ring),
    ),
    "polyharmonic": Check(
        key="n{n}-m{m}-t{trial:03d}",
        grid=lambda c: [dict(n=n, m=m)
                        for n in c.n_values for m in range(1, cf.h_of(n) + 1)],
        trials=True,
        oracle=lambda p: (("d", 0, cf.h_of(p["n"]) - p["m"] + 1), ("harmonic", p["m"])),
        pair=lambda p, s, x: Multivector.zero(p["n"], s.ring),
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
            cauchy_reconstruct(SliceFunction([0] * p["k"] + [1]), x,
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
            fueter_sce_integral(SliceFunction([0, 0, 1]), x,
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
    "axial-link": Check(
        key=lambda p: "n{n}-{base}-b{beta}-m{m}-{src}-t{trial:03d}".format(
            src="-".join(map(str, p["source"])), **p),
        grid=_axial_link_grid,
        trials=True,
        pair=_axial_link,
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
    "axial-link": ("axial-link",),
    "quadrature": ("quad-reconstruct", "quad-fs-constant", "quad-fs-oracle",
                   "quad-slice-independence", "quad-convergence"),
}

SUITE_NAMES = tuple(SUITES)


def _build_cases(config: SuiteConfig) -> list:
    cases = []
    for kind in SUITES[config.suite]:
        check = CHECKS[kind]
        for point in check.grid(config):
            if config.mode == "float" and check.oracle:
                (_, beta, m), _ = check.oracle(point)
                if beta + 2 * m > FLOAT_ORACLE_MAX_ORDER:
                    continue  # pins the float case set (see FLOAT_ORACLE_MAX_ORDER)
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
    if check.oracle:  # the closed form against the axial oracle
        value, other = check.pair(params, s, x), axial.apply(*check.oracle(params), s, x)
    else:
        value, other = check.pair(params, s, x)
    residual, ok = _compare(value, other, config)
    return {"residual": residual, "pass": ok, "point": _point_record(s, x)}


def _execute_case(params, config: SuiteConfig) -> dict:
    started = time.perf_counter()
    try:
        out = _run_case(params, config)
    except Exception as exc:  # a raising case fails on its own; the suite runs on
        out = {"residual": 1.0, "pass": False, "error": f"{type(exc).__name__}: {exc}"}
    out["wall_time"] = time.perf_counter() - started
    # the case's own dict becomes its report params: no case reads it again
    out["key"] = params.pop("key")
    del params["kind"]
    out["params"] = params
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_forked(cases: list, config: SuiteConfig, jobs: int) -> list:
    """Run `cases` here and on `jobs - 1` forked children, all taking chunks,
    the last built (at the largest n) first, from one pipe of 4-byte starts.
    A child pickles its results into its own pipe, read to EOF before it is reaped."""
    import pickle  # only a pooled run loads them
    import signal

    chunk = max(1, len(cases) // (4 * jobs))  # under 8 chunks a process: 32 bytes
    queue, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(4, "big") for i in reversed(range(0, len(cases), chunk))))
    os.close(feed)

    def drain() -> list:  # a pipe read is atomic, so each chunk runs once
        starts = (int.from_bytes(r, "big") for r in iter(lambda: os.read(queue, 4), b""))
        return [_execute_case(c, config) for i in starts for c in cases[i:i + chunk]]

    children, reaped, results = [], [], None  # (pid, result pipe) of each child
    try:
        for _ in range(jobs - 1):
            read_end, write_end = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    with open(write_end, "wb") as fh:
                        pickle.dump(drain(), fh, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        results = drain()
    finally:
        for pid, fh in children:
            if results is None:  # this process raised: the children's work is moot
                os.kill(pid, signal.SIGKILL)
            with fh:  # read to EOF first: a child blocked on a full pipe never exits
                output = fh.read()
            reaped.append((pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), output))
        os.close(queue)
    for pid, code, output in reaped:
        if code:
            died = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
            raise WorkerFailed(f"worker {pid} {died}")
        try:
            results += pickle.loads(output)
        except (pickle.UnpicklingError, EOFError):
            raise WorkerFailed(f"worker {pid} left a truncated report") from None
    return results


def run_suite(config: SuiteConfig) -> VerificationReport:
    config.validate()
    cases = _build_cases(config)
    if not cases:
        dims = ",".join(map(str, config.n_values))
        raise InvalidParams(f"suite {config.suite} has no cases at n={dims} in {config.mode} mode")
    # every worker is forked before the first case runs, so size it to the work
    cpus = _usable_cpus()
    jobs = min(config.jobs or cpus, cpus, len(cases))
    if jobs > 1 and hasattr(os, "fork"):
        results = _run_forked(cases, config, jobs)
    else:
        results = [_execute_case(c, config) for c in cases]
    results.sort(key=lambda r: r["key"])
    tables = {r["key"]: r.pop("table") for r in results if "table" in r}
    total = len(results)
    passed = sum(1 for r in results if r["pass"])
    summary = {"total": total, "passed": passed, "failed": total - passed,
               "flagged_known_discrepancies": sum(1 for r in results if r.get("flagged"))}
    cfg = config._asdict()
    cfg["n_values"] = list(config.n_values)
    del cfg["jobs"]  # execution knob only; results do not depend on it
    return VerificationReport(
        suite=config.suite, config=cfg, cases=results, summary=summary, tables=tables
    )
