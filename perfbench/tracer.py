"""Span tracer for the per-layer run of the verifier benchmark.

The tracer wraps the public functions of each slicekernels module (layer)
from outside the package, records one span per call in memory (group,
target, start, end, parent, request) and writes the spans out when the pass
ends. A layer's self time is the summed duration of its spans minus the part
of each span that its direct child spans cover.

A traced pass runs every segment at --jobs 1, so every span is recorded in
the one process that installed the tracer.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

ALL = frozenset({"oracle-n7", "closed-form", "float-n9", "pool-mix"})
NONE = frozenset()
LEMMAS = frozenset({"closed-form", "pool-mix"})  # the segments with lemmas and catalog
NOT_N7 = ALL - {"oracle-n7"}
THEOREM_DBAR = ALL - {"closed-form"}

# (group, module, attribute, workloads on which the target must be called).
# A target that is missing fails the traced run; so does a target that records
# no call on a workload listed for it. Closed forms count only when called
# outside the oracle's jet evaluation.
TRACE_POINTS = (
    ("rings.jet_mul", "rings", "Jet.__mul__", ALL),
    ("rings.jet_mul", "rings", "Jet.__rmul__", NONE),
    ("rings.jet_add", "rings", "Jet.__add__", ALL),
    ("rings.jet_add", "rings", "Jet.__sub__", ALL),
    ("rings.jet_reciprocal", "rings", "JetRing.reciprocal", ALL),
    ("diffop.seed", "rings", "JetRing.seed", ALL),
    ("diffop.operator", "diffop", "DiffOperator.compose", ALL),
    ("diffop.operator", "diffop", "DiffOperator.power", ALL),
    ("clifford.geometric_product", "clifford", "geometric_product", ALL),
    ("diffop.oracle_apply", "diffop", "oracle_apply", NONE),
    ("diffop.oracle_apply", "suites", "oracle_apply", ALL),
    ("diffop.oracle_apply", "kernels", "oracle_apply", LEMMAS),
    ("kernels.sample_point_pair", "kernels", "sample_point_pair", ALL),
    ("kernels.closed_form", "kernels", "d_beta_delta_m_kernel", ALL),
    ("kernels.closed_form", "kernels", "dbar_beta_delta_m_kernel", ALL),
    ("kernels.closed_form", "kernels", "harmonic_kernel", {"float-n9"}),
    ("kernels.closed_form", "kernels", "laplacian_power_kernel", NOT_N7),
    ("kernels.closed_form", "kernels", "fueter_sce_kernel", NOT_N7),
    ("kernels.closed_form", "kernels", "polyanalytic_kernel", THEOREM_DBAR),
    ("kernels.closed_form", "kernels", "cauchy_left", NOT_N7),
    ("kernels.closed_form", "kernels", "cauchy_right", NOT_N7),
    ("kernels.closed_form", "kernels", "_lemma_rhs", LEMMAS),
    ("quadrature", "suites", "cauchy_reconstruct", ALL),
    ("quadrature", "suites", "fueter_sce_integral", ALL),
    ("suites.run_suite", "cli", "run_suite", ALL),
    ("cli.main", "cli", "main", ALL),
)

# Every group with a self time, in report order. The geometric product is
# split by coefficient ring at call time; the oracle's closure is wrapped per call.
GROUPS = (
    "rings.jet_mul", "rings.jet_reciprocal", "rings.jet_add",
    "clifford.geometric_product.jet", "clifford.geometric_product.scalar",
    "diffop.oracle_apply", "diffop.seed", "diffop.operator", "kernels.eval_over_jets",
    "kernels.sample_point_pair", "kernels.closed_form", "quadrature",
    "suites.run_suite", "cli.main",
)

# Metric name -> unit of the traced run, in report order.
PER_LAYER = {
    **{f"{group}.{what}": unit for group in GROUPS
       for what, unit in (("self_s", "s"), ("calls", "count"))},
    "rings.jet_size": "count",
    "rings.jet_nnz_mean": "count",
    "suites.pool_idle_s": "s",
    "suites.pool_efficiency": "ratio",
    "trace.overhead_s": "s",
}


class TraceError(Exception):
    """The tracer's layer map no longer matches the package."""


class Tracer:
    def __init__(self):
        self.request = ""
        self.spans: list = []
        self.stack: list = []
        self.quiet = 0  # > 0 while closed forms run inside the oracle or another closed form
        self.stats = Counter()  # jet_size (max), nnz_sum, nnz_operands
        self._restore: list = []

    # -- wrapping -----------------------------------------------------

    def _span(self, group, target, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                name = group(*args) if callable(group) else group
                spans[idx] = (name, target, start, end, stack[-1] if stack else -1,
                              self.request)
        return traced

    def _jet_mul(self, target, fn):
        from slicekernels.rings import Jet

        stats = self.stats

        def counted(a, b):
            if isinstance(b, Jet):
                stats["nnz_sum"] += len(a.coeffs) + len(b.coeffs)
                stats["nnz_operands"] += 2
                if a.ctx.size > stats["jet_size"]:
                    stats["jet_size"] = a.ctx.size
            return fn(a, b)
        return self._span("rings.jet_mul", target, counted)

    def _geometric_product(self, target, fn):
        from slicekernels.rings import JetRing

        def group(a, b):
            kind = "jet" if isinstance(a.ring, JetRing) else "scalar"
            return f"clifford.geometric_product.{kind}"
        return self._span(group, target, fn)

    def _oracle(self, target, fn):
        def apply(op, f, *args, **kwargs):
            return fn(op, self._quieted("kernels.eval_over_jets", "kernels.eval_over_jets", f),
                      *args, **kwargs)
        return self._span("diffop.oracle_apply", target, apply)

    def _quieted(self, group, target, fn):
        def run(*args, **kwargs):
            self.quiet += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.quiet -= 1
        return self._span(group, target, run)

    def _closed_form(self, target, fn):
        traced = self._quieted("kernels.closed_form", target, fn)

        def call(*args, **kwargs):
            if self.quiet:
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)
        return call

    def install(self):
        """Wrap every trace point; raises TraceError if one no longer exists."""
        special = {"rings.jet_mul": self._jet_mul,
                   "clifford.geometric_product": self._geometric_product,
                   "diffop.oracle_apply": self._oracle,
                   "kernels.closed_form": self._closed_form}
        for group, module, attr, _ in TRACE_POINTS:
            owner = importlib.import_module(f"slicekernels.{module}")
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None) if owner is not None else None
            if not callable(fn):
                raise TraceError(f"slicekernels.{module}.{attr} does not exist")
            target = f"{module}.{attr}"
            make = special.get(group)
            wrapped = make(target, fn) if make else self._span(group, target, fn)
            setattr(owner, name, wrapped)
            self._restore.append((owner, name, fn))

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()


def span_cost(calls: int = 20000, batches: int = 5) -> float:
    """Seconds that one span adds to a call: a wrapped no-op against a plain
    one, in the fastest of several batches. Times the span count, this is the
    tracer's own share of a traced pass.
    """
    def noop(a, b):
        return None

    probe = Tracer()
    wrapped = probe._span("probe", "probe", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(batches):
        del probe.spans[:]
        start = clock()
        for _ in range(calls):
            noop(1, 2)
        plain = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped(1, 2)
        best = min(best, (clock() - start - plain) / calls)
    return best


def self_times(spans) -> tuple[dict, Counter]:
    """Self time and call count per group of one process's spans."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict = defaultdict(float)
    calls = Counter()
    for (group, _, start, end, _, _), child in zip(spans, covered):
        self_s[group] += end - start - child
        calls[group] += 1
    return self_s, calls


def target_calls(spans) -> Counter:
    return Counter(span[1] for span in spans)


def coverage_problems(workload: str, calls: Counter) -> list:
    return [f"{module}.{attr} recorded no call on {workload}"
            for _, module, attr, must in TRACE_POINTS
            if workload in must and calls[f"{module}.{attr}"] == 0]


def layer_metrics(spans, stats) -> dict:
    """Per-layer metrics from the spans and jet counts of one traced pass."""
    self_s, calls = self_times(spans)
    out = {}
    for group in GROUPS:
        out[f"{group}.self_s"] = self_s[group]
        out[f"{group}.calls"] = calls[group]
    out["rings.jet_size"] = stats.get("jet_size", 0)
    nnz_operands = stats.get("nnz_operands", 0)
    out["rings.jet_nnz_mean"] = stats.get("nnz_sum", 0) / nnz_operands if nnz_operands else 0.0
    return out
