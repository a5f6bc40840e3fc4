"""Self-time arithmetic, trace coverage and wrapping of the layer tracer."""

from collections import Counter
from fractions import Fraction

import pytest

import tracer


def span(group, start, end, parent, target=None):
    return (group, target or group, start, end, parent, "w/seg")


def test_self_time_of_nested_spans():
    # main [0, 10] > run_suite [1, 9] > mul [2, 4] > add [2.5, 3]
    #                                  > mul [5, 6]
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("suites.run_suite", 1.0, 9.0, 0),
        span("rings.jet_mul", 2.0, 4.0, 1),
        span("rings.jet_add", 2.5, 3.0, 2),
        span("rings.jet_mul", 5.0, 6.0, 1),
    ]
    self_s, calls = tracer.self_times(spans)
    assert self_s["cli.main"] == pytest.approx(2.0)
    assert self_s["suites.run_suite"] == pytest.approx(5.0)
    assert self_s["rings.jet_mul"] == pytest.approx(2.5)
    assert self_s["rings.jet_add"] == pytest.approx(0.5)
    assert sum(self_s.values()) == pytest.approx(10.0)  # self times tile the root span
    assert calls == Counter({"cli.main": 1, "suites.run_suite": 1, "rings.jet_mul": 2,
                             "rings.jet_add": 1})


def test_layer_metrics_fill_every_group():
    spans = [span("suites.run_suite", 0.0, 4.0, -1), span("rings.jet_mul", 1.0, 2.0, 0),
             span("rings.jet_add", 1.25, 1.5, 1)]
    out = tracer.layer_metrics(spans, {"jet_size": 10, "nnz_sum": 12, "nnz_operands": 4})
    assert out["suites.run_suite.self_s"] == pytest.approx(3.0)
    assert out["rings.jet_mul.self_s"] == pytest.approx(0.75)
    assert out["rings.jet_add.calls"] == 1
    assert out["quadrature.calls"] == 0
    assert out["rings.jet_size"] == 10
    assert out["rings.jet_nnz_mean"] == pytest.approx(3.0)
    derived = {"suites.pool_idle_s", "suites.pool_efficiency", "trace.overhead_s"}
    assert set(out) == set(tracer.PER_LAYER) - derived


def test_coverage_names_targets_without_calls():
    calls = Counter({f"{module}.{attr}": 1 for _, module, attr, _ in tracer.TRACE_POINTS})
    assert tracer.coverage_problems("oracle-n7", calls) == []
    calls["rings.JetRing.reciprocal"] = 0
    assert tracer.coverage_problems("oracle-n7", calls) == [
        "rings.JetRing.reciprocal recorded no call on oracle-n7"]


def test_install_fails_loudly_on_a_moved_function(monkeypatch):
    points = tracer.TRACE_POINTS + (("rings.jet_mul", "rings", "Jet.no_such_method", tracer.ALL),)
    monkeypatch.setattr(tracer, "TRACE_POINTS", points)
    t = tracer.Tracer()
    with pytest.raises(tracer.TraceError, match="Jet.no_such_method"):
        t.install()
    t.uninstall()


def test_wrapped_package_records_nested_spans_and_jet_counts():
    from slicekernels import cli, rings
    from slicekernels.clifford import Multivector
    from slicekernels.diffop import make_dirac
    from slicekernels import kernels, suites

    original_mul = rings.Jet.__mul__
    t = tracer.Tracer()
    t.install()
    try:
        assert rings.Jet.__mul__ is not original_mul
        assert rings.Jet.__rmul__ is not original_mul
        assert suites.oracle_apply is not kernels.oracle_apply
        s = kernels.Paravector.from_coords(rings.RATIONALS, [2, 0, 0, 0])
        x = kernels.Paravector.from_coords(rings.RATIONALS, [0, Fraction(1, 3), 1, 0])
        value = suites.oracle_apply(make_dirac(3), kernels.cauchy_closure(s), x)
        assert isinstance(value, Multivector)
    finally:
        t.uninstall()
    assert rings.Jet.__mul__ is original_mul
    assert cli.main.__name__ == "main"
    groups = Counter(sp[0] for sp in t.spans)
    assert groups["diffop.oracle_apply"] == 1
    assert groups["kernels.eval_over_jets"] == 1
    assert groups["kernels.closed_form"] == 0  # closed forms inside the oracle do not count
    assert groups["clifford.geometric_product.jet"] > 0
    assert groups["rings.jet_mul"] > 0
    assert t.stats["jet_size"] == 5  # order 1 in 4 variables
    root = [i for i, sp in enumerate(t.spans) if sp[4] == -1]
    assert [t.spans[i][0] for i in root] == ["diffop.oracle_apply"]


def test_span_cost_is_a_small_positive_time():
    cost = tracer.span_cost(calls=2000, batches=3)
    assert 0 < cost < 1e-4
