"""The axial oracle against the jet oracle, and the jet oracle's cost bound."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from slicekernels import axial, cli, rings, suites
from slicekernels import coeffs as cf
from slicekernels import kernels as K
from slicekernels.clifford import Paravector
from slicekernels.diffop import jet_cost, named_operator, oracle_apply
from slicekernels.rings import RATIONALS, JetContext
from slicekernels.suites import JET_SOURCES

coord = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@st.composite
def oracle_cases(draw):
    n = draw(st.sampled_from((3, 5)))
    h = cf.h_of(n)
    base = draw(st.sampled_from(("d", "dbar")))
    m = draw(st.integers(0, h))
    beta = draw(st.integers(0 if m else 1, 3 if n == 3 else 2))
    source = draw(st.sampled_from(
        [("cauchy-left",), ("cauchy-right",), ("fueter-sce",)]
        + [("harmonic", k) for k in range(1, h + 1)]))
    s, x = (Paravector.from_coords(RATIONALS, draw(st.lists(coord, min_size=n + 1,
                                                            max_size=n + 1)))
            for _ in range(2))
    return n, (base, beta, m), source, s, x


@settings(max_examples=40, deadline=None)
@given(oracle_cases())
def test_axial_oracle_equals_jet_oracle(case):
    n, op, source, s, x = case
    assume(K.pseudo_denominator(s, x).norm_sq() != 0)  # s off the sphere [x]
    name, *args = source
    jet = oracle_apply(named_operator(n, *op), JET_SOURCES[name](s, *args), x)
    assert axial.apply(op, source, s, x) == jet


def test_sources_are_the_same_functions():
    assert set(axial.SOURCES) == set(JET_SOURCES)


def test_axial_oracle_at_n15_matches_the_closed_form():
    # no jet oracle reaches n=15: the closed form is the reference there
    s = Paravector.from_coords(RATIONALS, [Fraction(k, 3) for k in range(16)])
    x = Paravector.from_coords(RATIONALS, [Fraction(1 - k, 5) for k in range(16)])
    value = axial.apply(("dbar", 2, 5), ("cauchy-left",), s, x)
    assert value == K.dbar_beta_delta_m_kernel(s, x, 5, 2)


@pytest.mark.parametrize("n, base, beta, m", [
    (3, "d", 1, 0), (3, "dbar", 1, 1), (5, "d", 0, 2), (5, "dbar", 2, 1), (7, "d", 1, 2),
])
def test_jet_cost_counts_the_context_oracle_apply_builds(n, base, beta, m):
    op = named_operator(n, base, beta, m)
    ctx = op.blade_terms()[0]
    assert jet_cost(op) == (ctx.size, sum(map(len, ctx.products)))


def test_jet_cost_of_the_n9_and_n11_laplacian_powers():
    assert jet_cost(named_operator(9, "d", 0, 4)) == (8_361, 242_361)
    assert jet_cost(named_operator(11, "d", 0, 5)) == (85_305, 5_718_636)


def _no_jet_oracle_tables(monkeypatch):
    """Fail on any jet context but the axial oracle's, in 3 variables."""
    init = JetContext.__init__

    def build(self, num_vars, corners):
        assert num_vars == 3, f"a jet context in {num_vars} variables was built"
        init(self, num_vars, corners)

    rings.jet_context.cache_clear()
    axial._shifts.cache_clear()
    monkeypatch.setattr(JetContext, "__init__", build)


def test_a_run_past_the_jet_budget_is_refused_before_any_table(monkeypatch, capsys):
    _no_jet_oracle_tables(monkeypatch)
    assert cli.main(["verify", "--suite", "axial-link", "--n", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: axial-link at n=13: the jet oracle for D^0 Delta^6 needs 880,685 jet "
        "indices and a 136,508,632-entry product table, over the limit of 20,000,000 entries"]
    assert captured.out == ""


def test_exact_oracle_rows_past_n11_build_no_jet_operator(monkeypatch):
    _no_jet_oracle_tables(monkeypatch)
    named_operator.cache_clear()
    report = suites.run_suite(suites.SuiteConfig(suite="special-cases", n_values=(15,),
                                                 trials=1, seed=0, jobs=1))
    assert report.passed
    assert named_operator.cache_info().currsize == 0
