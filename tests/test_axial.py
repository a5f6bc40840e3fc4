"""The axial oracle against the jet oracle, and the jet oracle's dimension limit."""

from fractions import Fraction
from random import Random

from hypothesis import assume, given, settings, strategies as st

from slicekernels import axial, cli, rings, suites
from slicekernels import coeffs as cf
from slicekernels import kernels as K
from slicekernels.clifford import Paravector
from slicekernels.diffop import named_operator, oracle_apply
from slicekernels.rings import FLOATS, RATIONALS, JetContext
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


def test_both_oracles_read_a_float_point_exactly_and_round_once():
    # D Delta of the left Cauchy kernel at n=5: at a float point both oracles
    # give the exact value at the rationals the floats hold, each blade rounded
    # once, bit for bit
    op, rng = ("d", 1, 1), Random(5)
    jet_op = named_operator(5, *op)
    for _ in range(20):
        s, x = K.sample_point_pair(5, rng, ring=FLOATS)
        exact = oracle_apply(jet_op, JET_SOURCES["cauchy-left"](s.cast(RATIONALS)),
                             x.cast(RATIONALS))
        want = {m: float(c).hex() for m, c in exact.blades.items()}
        for got in (oracle_apply(jet_op, JET_SOURCES["cauchy-left"](s), x),
                    axial.apply(op, ("cauchy-left",), s, x)):
            assert got.ring is FLOATS
            assert {m: c.hex() for m, c in got.blades.items()} == want


def test_sources_are_the_same_functions():
    assert set(axial.SOURCES) == set(JET_SOURCES)


def test_axial_oracle_at_n15_matches_the_closed_form():
    # no jet oracle reaches n=15: the closed form is the reference there
    s = Paravector.from_coords(RATIONALS, [Fraction(k, 3) for k in range(16)])
    x = Paravector.from_coords(RATIONALS, [Fraction(1 - k, 5) for k in range(16)])
    value = axial.apply(("dbar", 2, 5), ("cauchy-left",), s, x)
    assert value == K.dbar_beta_delta_m_kernel(s, x, 5, 2)


def _no_jet_oracle_tables(monkeypatch):
    """Fail on any jet context but the axial oracle's, in 3 variables."""
    init = JetContext.__init__

    def build(self, num_vars, corners):
        assert num_vars == 3, f"a jet context in {num_vars} variables was built"
        init(self, num_vars, corners)

    rings.jet_context.cache_clear()
    axial._context.cache_clear()
    monkeypatch.setattr(JetContext, "__init__", build)


def test_axial_link_past_n11_is_refused_before_any_operator(monkeypatch):
    _no_jet_oracle_tables(monkeypatch)
    named_operator.cache_clear()
    assert cli.main(["verify", "--suite", "axial-link", "--n", "3,13"]) == 2
    assert named_operator.cache_info().currsize == 0


def test_axial_link_admits_n11():
    cases = suites._build_cases(suites.SuiteConfig(suite="axial-link", n_values=(11,),
                                                   trials=1))
    assert len(cases) == 42


def test_exact_oracle_rows_past_n11_build_no_jet_operator(monkeypatch):
    _no_jet_oracle_tables(monkeypatch)
    named_operator.cache_clear()
    report = suites.run_suite(suites.SuiteConfig(suite="special-cases", n_values=(15,),
                                                 trials=1, seed=0, jobs=1))
    assert report.passed
    assert named_operator.cache_info().currsize == 0
