"""The axial oracle against the jet oracle, and the jet oracle's dimension limit."""

import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from slicekernels import axial, cli, rings, suites
from slicekernels import coeffs as cf
from slicekernels import kernels as K
from slicekernels.clifford import Multivector, Paravector
from slicekernels.diffop import named_operator, oracle_apply
from slicekernels.errors import InvalidParams
from slicekernels.rings import FLOATS, RATIONALS, JetRing
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
    # at order 0 the axial oracle returns its source's value, which must be
    # the closed-form kernel the jet oracle differentiates: every source at
    # every odd n up to 15, every harmonic m up to h_n
    assert set(axial.SOURCES) == set(JET_SOURCES)
    checks = 0
    for n in range(3, 16, 2):
        rng = Random(n)
        sources = [("cauchy-left",), ("cauchy-right",), ("fueter-sce",)]
        sources += [("harmonic", m) for m in range(1, cf.h_of(n) + 1)]
        for _ in range(2):
            s, x = K.sample_point_pair(n, rng)
            for name, *args in sources:
                want = JET_SOURCES[name](s, *args)(x)
                assert axial.apply(("d", 0, 0), (name, *args), s, x) == want, (n, name, args)
                checks += 1
    assert checks == 98


def test_catalog_points_are_in_the_axial_link_grid():
    # the oracle rows name every catalog entry's point, so the axial-link
    # grid needs no catalog loop of its own
    for entry in map(K.catalog_fixture, K.catalog_ids()):
        grid = suites._axial_link_grid(suites.SuiteConfig(suite="axial-link",
                                                          n_values=(entry.n,)))
        points = {(p["n"], p["base"], p["beta"], p["m"], p["source"]) for p in grid}
        assert (entry.n, *entry.op, ("cauchy-left",)) in points, entry.id


def test_axial_oracle_refuses_a_malformed_operator_or_source():
    s, x = K.sample_point_pair(3, Random(79))
    for op, source in [
        (("D", 1, 0), ("cauchy-left",)), (("d", -1, 0), ("cauchy-left",)),
        (("d", 0, -2), ("cauchy-left",)), (("d", 1.0, 0), ("cauchy-left",)),
        (("d", True, 0), ("cauchy-left",)), (("d", 1, 0), ("cauchy",)),
        (("d", 1, 0), ("cauchy-left", 1)), (("d", 0, 1), ("harmonic",)),
        (("d", 0, 1), ("harmonic", 1, 1)),
        # a source argument that is not an int, and an operator of the wrong length
        (("d", 0, 1), ("harmonic", 1.5)), (("d", 0, 1), ("harmonic", "1")),
        (("d", 0, 1), ("harmonic", True)), (("d", 1), ("cauchy-left",)),
        (("d", 1, 0, 0), ("cauchy-left",)), (("d", 1, 0), ()),
    ]:
        with pytest.raises(InvalidParams):
            axial.apply(op, source, s, x)


def test_axial_oracle_at_n15_matches_the_closed_form():
    # no jet oracle reaches n=15: the closed form is the reference there
    s = Paravector.from_coords(RATIONALS, [Fraction(k, 3) for k in range(16)])
    x = Paravector.from_coords(RATIONALS, [Fraction(1 - k, 5) for k in range(16)])
    value = axial.apply(("dbar", 2, 5), ("cauchy-left",), s, x)
    assert value == K.dbar_beta_delta_m_kernel(s, x, 5, 2)


def test_axial_context_is_a_cached_jet_ring():
    for order in (1, 4):
        ring = axial._context(order)
        assert isinstance(ring, JetRing) and ring is axial._context(order)
        assert ring.num_vars == 3 and max(map(sum, ring.exponents)) == order


def _no_jet_oracle_tables(monkeypatch):
    """Fail on any jet ring but the axial oracle's, in 3 variables."""
    init = JetRing.__init__

    def build(self, num_vars, corners):
        assert num_vars == 3, f"a jet ring in {num_vars} variables was built"
        init(self, num_vars, corners)

    rings.jet_ring.cache_clear()
    axial._context.cache_clear()
    monkeypatch.setattr(JetRing, "__init__", build)


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


def _cubic(rng):
    """A polynomial of degree <= 3 in (x0, rho, t): exponents -> rational."""
    return {(a, b, c): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for a in range(4) for b in range(4 - a) for c in range(4 - a - b)}


def _at(poly, ring, x0, rho, t):
    acc = ring.zero()
    for exponents, coeff in poly.items():
        term = ring.lift(coeff)
        for base, e in zip((x0, rho, t), exponents):
            for _ in range(e):
                term = term * base
        acc = acc + term
    return acc


def _full_ring(order):
    """The total-degree jet ring of `order` in (x0, rho, t), t^2 terms and all."""
    return rings.jet_ring(3, tuple(a for a in itertools.product(range(order + 1), repeat=3)
                                   if sum(a) == order))


def test_every_source_is_linear_in_t():
    # the axial ring keeps only t-degree <= 1, which is exact because no
    # source has a t^2 term: on the total-degree ring none has one up to order 4
    ring = _full_ring(4)
    for n in range(3, 16, 2):
        s, x = K.sample_point_pair(n, Random(n))
        p = axial._Point(s, x, ring)
        sources = [("cauchy-left",), ("cauchy-right",), ("fueter-sce",)]
        for name, *args in sources + [("harmonic", m) for m in range(1, cf.h_of(n) + 1)]:
            element = axial.SOURCES[name](p, *args)
            assert all(ring.exponents[k][2] <= 1 for g in element for k in g._nums), (n, name)
            if name == "cauchy-right":
                assert any(ring.exponents[k][2] == 1 for g in element for k in g._nums)


def test_axial_rules_are_the_jet_oracle_on_an_element_of_the_algebra_at_every_n():
    # D, D-bar and the Laplacian of g1 + u gu + v gv + uv guv, with g's drawn
    # as cubics in (x0, rho, t): the four d_u rules on their jets, against
    # the jet oracle on the same F built by Clifford arithmetic in x's
    # coordinates; n enters the rules only as a coefficient, so this checks
    # them at every admitted n, with jets of order 2 in n + 1 variables
    rng = Random(3)
    for n in [n for n in range(3, 16, 2) for _ in range(2)]:
        s, x = (Paravector.from_coords(
            RATIONALS, [Fraction(rng.randint(-16, 16), rng.randint(1, 16)) for _ in range(n + 1)])
            for _ in range(2))
        g = [_cubic(rng) for _ in range(4)]

        def F(y):
            ring = y.ring
            t = ring.zero()
            for a, b in zip(y.xu, s.xu):
                t = t + a * ring.lift(b)
            g1, gu, gv, gw = (_at(p, ring, y.x0, y.vector_norm_sq(), t) for p in g)
            u = Paravector(ring, ring.zero(), y.xu).to_multivector()
            v = Paravector(ring, ring.zero(), s.cast(ring).xu).to_multivector()
            return Multivector.scalar(n, ring, g1) + u.scale(gu) + v.scale(gv) + (u * v).scale(gw)

        p = axial._Point(s, x, _full_ring(2))  # the cubics have t^2 and t^3 terms
        element = tuple(_at(q, p.ring, p.x0, p.rho, p.t) for q in g)
        u = Paravector(RATIONALS, 0, x.xu).to_multivector()
        v = Paravector(RATIONALS, 0, s.xu).to_multivector()
        for op, rule in ((("d", 1, 0), lambda e: p.dirac(e, 1)),
                         (("dbar", 1, 0), lambda e: p.dirac(e, -1)),
                         (("d", 0, 1), p.laplacian)):
            c1, cu, cv, cw = (a.constant_term() for a in rule(element))
            axial_value = (Multivector.scalar(n, RATIONALS, c1) + u.scale(cu) + v.scale(cv)
                           + (u * v).scale(cw))
            assert all((c1, cu, cv, cw))
            assert axial_value == oracle_apply(named_operator(n, *op), F, x), (n, op)


def test_every_oracle_row_kind_reads_from_its_group_walk_what_a_one_row_walk_gives():
    # a group's walk on a source is built at the highest order its rows
    # reach, with the coefficients each step no longer needs dropped; each
    # row reads the value that its own walk, at its own order, gives
    kinds = set()
    for suite in ("theorem-d", "theorem-dbar", "special-cases", "monogenic", "polyharmonic"):
        for n in (3, 5, 7, 9):
            config = suites.SuiteConfig(suite=suite, n_values=(n,), trials=1, seed=0)
            for group in suites._groups(suites._build_cases(config)):
                if isinstance(group, dict):  # a case that draws no point
                    continue
                rows = [(case["kind"], suites._walk_row(case)) for case in group]
                rows = [(kind, row) for kind, row in rows if row]
                if not rows:
                    continue
                s, x = K.sample_point_pair(n, suites._point_rng(config, group[0], "pair"))
                orders = {}
                for _, ((_, beta, m), source) in rows:
                    orders[source] = max(orders.get(source, 0), beta + 2 * m)
                walks = {source: axial.Walk(source, s, x, order)
                         for source, order in orders.items()}
                for kind, (op, source) in rows:
                    assert walks[source].value(op) == axial.apply(op, source, s, x), (n, op)
                    kinds.add(kind)
    assert kinds == {kind for kind, check in suites.CHECKS.items() if check.oracle}


def test_a_walk_refuses_an_operator_past_its_order():
    s, x = K.sample_point_pair(5, Random(80))
    walk = axial.Walk(("cauchy-left",), s, x, 3)
    assert walk.value(("d", 1, 1)) == axial.apply(("d", 1, 1), ("cauchy-left",), s, x)
    with pytest.raises(InvalidParams):
        walk.value(("d", 0, 2))
    with pytest.raises(InvalidParams):
        axial.Walk(("cauchy",), s, x, 3)
