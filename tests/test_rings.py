from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slicekernels.errors import InvalidParams, NonInvertibleConstantTerm, OrderExceeded
from slicekernels.rings import (
    FLOATS,
    RATIONALS,
    Jet,
    JetRing,
    jet_context,
    jet_extract_derivative,
    jet_mul,
    jet_reciprocal,
    jet_seed_coordinate,
    total_degree,
)


def test_rational_ring_basics():
    r = RATIONALS
    assert r.lift(0.5) == Fraction(1, 2)
    assert r.invert(Fraction(2, 3)) == Fraction(3, 2)
    assert r.is_zero(Fraction(0)) and not r.is_zero(Fraction(1, 10**30))


def test_float_ring_tolerance():
    assert FLOATS.is_zero(5e-13)
    assert not FLOATS.is_zero(5e-12)


def test_seed_is_base_value_plus_coordinate():
    jet = jet_seed_coordinate(0, 3, num_vars=2, order=2)
    assert jet.constant_term() == 3
    assert jet.derivative((1, 0)) == 1
    assert jet.derivative((0, 1)) == 0
    sq = jet * jet  # (3 + t)^2 = 9 + 6t + t^2
    assert sq.constant_term() == 9
    assert sq.derivative((1, 0)) == 6
    assert sq.derivative((2, 0)) == 2


def test_order_zero_seed_is_constant():
    jet = jet_seed_coordinate(1, Fraction(7, 2), num_vars=3, order=0)
    assert jet.constant_term() == Fraction(7, 2)
    assert jet.coeffs == {0: Fraction(7, 2)}


def test_seed_index_out_of_range():
    with pytest.raises(InvalidParams):
        jet_seed_coordinate(2, 1, num_vars=2, order=1)


def test_mul_truncates_degree():
    ring = JetRing(total_degree(1, 1))
    t = ring.seed(0, 0)
    assert ring.is_zero(t * t)  # degree-2 term dropped at order 1


def test_mul_one_minus_t_times_one_plus_t():
    ring = JetRing(total_degree(1, 2))
    t = ring.seed(0, 0)
    one = ring.one()
    prod = jet_mul(one + t, one - t)  # 1 - t^2
    assert prod.derivative((0,)) == 1
    assert prod.derivative((1,)) == 0
    assert prod.derivative((2,)) == -2


def test_constant_scales_jet():
    ring = JetRing(total_degree(2, 2))
    t = ring.seed(0, 1)
    assert ring.lift(3) * t == t.scale(3)


def test_reciprocal_geometric_series():
    ring = JetRing(total_degree(1, 3))
    one_minus_t = ring.one() - ring.seed(0, 0)
    rec = jet_reciprocal(one_minus_t)
    # 1 + t + t^2 + t^3
    assert [rec.derivative((k,)) for k in range(4)] == [1, 1, 2, 6]
    assert ring.is_zero(one_minus_t * rec - ring.one())


def test_reciprocal_of_constant():
    ring = JetRing(total_degree(2, 2))
    assert ring.reciprocal(ring.lift(2)) == ring.lift(Fraction(1, 2))


def test_reciprocal_zero_constant_term():
    ring = JetRing(total_degree(1, 2))
    with pytest.raises(NonInvertibleConstantTerm):
        ring.reciprocal(ring.seed(0, 0))


def test_extract_derivatives_of_polynomial():
    # f(x0, x1) = x0^2 + x1^2 at the point (1, 2)
    ring = JetRing(total_degree(2, 2))
    x0 = ring.seed(0, 1)
    x1 = ring.seed(1, 2)
    f = x0 * x0 + x1 * x1
    assert jet_extract_derivative(f, (1, 0)) == 2
    assert jet_extract_derivative(f, (0, 1)) == 4
    assert jet_extract_derivative(f, (2, 0)) == 2


def test_extract_beyond_order_raises():
    ring = JetRing(total_degree(2, 2))
    with pytest.raises(OrderExceeded):
        ring.one().derivative((3, 0))


def test_context_graded_lex_order():
    ctx = total_degree(2, 2)
    assert ctx.exponents[: 3] == ((0, 0), (0, 1), (1, 0))
    assert sum(ctx.exponents[-1]) == 2
    assert ctx.size == 6


def test_down_set_context_is_the_union_of_corner_boxes():
    ctx = jet_context(3, ((2, 0, 0), (0, 1, 1)))
    assert ctx.exponents == (
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (2, 0, 0),
    )
    assert jet_context(2, ()).exponents == ((0, 0),)
    with pytest.raises(InvalidParams):
        jet_context(2, ((1, 0, 0),))


def test_jets_of_different_supports_do_not_mix():
    # equal variable count and equal top order, different down-sets
    a = JetRing(jet_context(2, ((2, 0),))).seed(0, 1)
    b = JetRing(jet_context(2, ((0, 2),))).seed(0, 1)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(InvalidParams):
            op(a, b)
    # an equal down-set from another corner tuple is the same shape
    c = JetRing(jet_context(2, ((2, 0), (1, 0)))).seed(0, 1)
    assert a * c == a * a


def test_derivative_outside_support_raises():
    # (1, 1) has total degree 2 but lies outside the down-set of (2, 0), (0, 2)
    ring = JetRing(jet_context(2, ((2, 0), (0, 2))))
    jet = ring.seed(0, 1) * ring.seed(1, 2)
    assert jet.derivative((2, 0)) == 0 and jet.derivative((0, 1)) == 1
    with pytest.raises(OrderExceeded):
        jet.derivative((1, 1))
    with pytest.raises(OrderExceeded):
        jet.derivative((3, 0))


def test_jet_reciprocal_alias_keeps_the_jet_shape():
    ctx = jet_context(2, ((3, 0), (1, 1)))
    ring = JetRing(ctx)
    a = ring.one() - ring.seed(0, 0) - ring.seed(1, 0)
    rec = jet_reciprocal(a)
    assert rec.ctx is ctx
    assert rec == ring.reciprocal(a)
    assert ring.is_zero(a * rec - ring.one())


def _poly_eval_jet(coeff_grid, ring):
    """Jet of sum c[i][j] x0^i x1^j at base (1/2, -1/3) by Horner-free assembly."""
    x0 = ring.seed(0, Fraction(1, 2))
    x1 = ring.seed(1, Fraction(-1, 3))
    acc = ring.zero()
    for i, row in enumerate(coeff_grid):
        for j, c in enumerate(row):
            if c == 0:
                continue
            term = ring.lift(c)
            for _ in range(i):
                term = term * x0
            for _ in range(j):
                term = term * x1
            acc = acc + term
    return acc


def test_polynomial_jet_reproduces_all_derivatives():
    # degree-2 polynomial, order-2 jet: derivatives must be exact
    ring = JetRing(total_degree(2, 2))
    grid = [[Fraction(3), Fraction(-2)], [Fraction(5), Fraction(7)], [Fraction(-1)]]
    f = _poly_eval_jet(grid, ring)
    u, v = Fraction(1, 2), Fraction(-1, 3)
    assert f.derivative((0, 0)) == 3 - 2 * v + 5 * u + 7 * u * v - u * u
    assert f.derivative((1, 0)) == 5 + 7 * v - 2 * u
    assert f.derivative((0, 1)) == -2 + 7 * u
    assert f.derivative((1, 1)) == 7
    assert f.derivative((2, 0)) == -2


small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)


def _jets(num_vars=2, order=3):
    ring = JetRing(total_degree(num_vars, order))
    size = ring.ctx.size

    def build(values):
        return Jet(ring.ctx, RATIONALS, {i: v for i, v in values.items() if v != 0})

    return st.dictionaries(
        st.integers(min_value=0, max_value=size - 1), small_fractions, max_size=5
    ).map(build)


@settings(max_examples=60, deadline=None)
@given(_jets(), _jets(), _jets())
def test_jet_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(_jets())
def test_jet_reciprocal_two_sided(a):
    ring = JetRing(total_degree(2, 3))
    a = a + ring.one()  # ensure invertible constant term most of the time
    if RATIONALS.is_zero(a.constant_term()):
        return
    rec = ring.reciprocal(a)
    assert ring.is_zero(a * rec - ring.one())
    assert ring.is_zero(rec * a - ring.one())


@settings(max_examples=60, deadline=None)
@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_rational_field_axioms(a, b, c, d):
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    if d != 0:
        assert (a / d) * d == a


@st.composite
def _corner_sets(draw):
    num_vars = draw(st.integers(min_value=2, max_value=3))
    corner = st.tuples(*[st.integers(min_value=0, max_value=3)] * num_vars)
    return num_vars, tuple(draw(st.lists(corner, min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(_corner_sets(), st.sampled_from([RATIONALS, FLOATS]), st.data())
def test_down_set_jets_agree_with_total_degree_jets(shape, scalar, data):
    # truncation to a down-set is a ring homomorphism: +, * and reciprocal on
    # down-set jets equal the full total-degree results on every index of the
    # down-set; floats are summed in the same order, so they agree bit for bit
    small = jet_context(*shape)
    full = total_degree(shape[0], max(map(sum, small.exponents)))
    values = st.dictionaries(
        st.integers(min_value=0, max_value=full.size - 1),
        small_fractions.filter(bool).map(scalar.lift),
        max_size=8,
    )

    def restrict(jet):
        return Jet(small, scalar, {
            small.index[full.exponents[i]]: v
            for i, v in jet.coeffs.items() if full.exponents[i] in small.index
        })

    a, b = (Jet(full, scalar, data.draw(values)) for _ in range(2))
    assert restrict(a + b) == restrict(a) + restrict(b)
    assert restrict(a - b) == restrict(a) - restrict(b)
    assert restrict(a * b) == restrict(a) * restrict(b)
    if a.constant_term() != 0:
        assert restrict(JetRing(full, scalar).reciprocal(a)) == (
            JetRing(small, scalar).reciprocal(restrict(a))
        )
