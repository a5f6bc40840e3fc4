import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slicekernels.clifford import (
    Multivector,
    Paravector,
    blade_product,
    geometric_product,
    same_sphere,
)
from slicekernels.errors import InvalidParams, NonInvertibleConstantTerm, OrderExceeded
from slicekernels.rings import (
    FLOATS,
    RATIONALS,
    Jet,
    JetRing,
    Lanes,
    jet_context,
    mul_into,
)


def degree_corners(num_vars, order):
    """Corners of the total-degree down-set: every multi-index with |alpha| = order."""
    return tuple(c for c in itertools.product(range(order + 1), repeat=num_vars)
                 if sum(c) == order)


def test_rational_ring_basics():
    r = RATIONALS
    assert r.lift(0.5) == Fraction(1, 2)
    assert r.invert(Fraction(2, 3)) == Fraction(3, 2)
    assert not Fraction(0) and Fraction(1, 10**30)


def test_float_zero_is_exact():
    # a tiny float is not zero: it moves a point off [x]
    x = Paravector.from_coords(FLOATS, (1, 2, 0, 0))
    assert not same_sphere(x, Paravector.from_coords(FLOATS, (1 + 1e-13, 0, 2, 0)))


_mixed_values = st.dictionaries(st.integers(0, 20), st.one_of(
    st.fractions(max_denominator=10**6), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, Fraction(0), 0.0, -0.0])), max_size=8)


@settings(max_examples=80, deadline=None)
@given(_mixed_values)
def test_scalar_ring_number_format_round_trips(values):
    nonzero = {k: v for k, v in values.items() if v}
    nums, den = RATIONALS.split(values)
    assert nums.keys() == nonzero.keys()
    assert all(type(c) is int and c for c in nums.values())
    assert den == math.lcm(*(Fraction(v).denominator for v in nonzero.values()))
    assert all(RATIONALS.quotient(nums[k], den) == Fraction(v) for k, v in nonzero.items())


def test_seed_is_base_value_plus_coordinate():
    jet = JetRing(jet_context(2, degree_corners(2, 2))).seed(0, 3)
    assert jet.constant_term() == 3
    assert jet.derivative((1, 0)) == 1
    assert jet.derivative((0, 1)) == 0
    sq = jet * jet  # (3 + t)^2 = 9 + 6t + t^2
    assert sq.constant_term() == 9
    assert sq.derivative((1, 0)) == 6
    assert sq.derivative((2, 0)) == 2


def test_order_zero_seed_is_constant():
    jet = JetRing(jet_context(3, degree_corners(3, 0))).seed(1, Fraction(7, 2))
    assert jet.constant_term() == Fraction(7, 2)
    assert jet.coeffs == {0: Fraction(7, 2)}


def test_seed_index_out_of_range():
    with pytest.raises(InvalidParams):
        JetRing(jet_context(2, degree_corners(2, 1))).seed(2, 1)


def test_mul_truncates_degree():
    ring = JetRing(jet_context(1, degree_corners(1, 1)))
    t = ring.seed(0, 0)
    assert not t * t  # degree-2 term dropped at order 1


def test_mul_one_minus_t_times_one_plus_t():
    ring = JetRing(jet_context(1, degree_corners(1, 2)))
    t = ring.seed(0, 0)
    one = ring.one()
    prod = (one + t) * (one - t)  # 1 - t^2
    assert prod.derivative((0,)) == 1
    assert prod.derivative((1,)) == 0
    assert prod.derivative((2,)) == -2


def test_constant_scales_jet():
    ring = JetRing(jet_context(2, degree_corners(2, 2)))
    t = ring.seed(0, 1)
    assert ring.lift(3) * t == t.scale(3)


def test_reciprocal_geometric_series():
    ring = JetRing(jet_context(1, degree_corners(1, 3)))
    one_minus_t = ring.one() - ring.seed(0, 0)
    rec = ring.reciprocal(one_minus_t)
    # 1 + t + t^2 + t^3
    assert [rec.derivative((k,)) for k in range(4)] == [1, 1, 2, 6]
    assert not (one_minus_t * rec - ring.one())


def test_reciprocal_of_constant():
    ring = JetRing(jet_context(2, degree_corners(2, 2)))
    assert ring.reciprocal(ring.lift(2)) == ring.lift(Fraction(1, 2))


def test_reciprocal_zero_constant_term():
    ring = JetRing(jet_context(1, degree_corners(1, 2)))
    with pytest.raises(NonInvertibleConstantTerm):
        ring.reciprocal(ring.seed(0, 0))


def test_extract_derivatives_of_polynomial():
    # f(x0, x1) = x0^2 + x1^2 at the point (1, 2)
    ring = JetRing(jet_context(2, degree_corners(2, 2)))
    x0 = ring.seed(0, 1)
    x1 = ring.seed(1, 2)
    f = x0 * x0 + x1 * x1
    assert f.derivative((1, 0)) == 2
    assert f.derivative((0, 1)) == 4
    assert f.derivative((2, 0)) == 2


def test_extract_beyond_order_raises():
    ring = JetRing(jet_context(2, degree_corners(2, 2)))
    with pytest.raises(OrderExceeded):
        ring.one().derivative((3, 0))


def test_context_graded_lex_order():
    ctx = jet_context(2, degree_corners(2, 2))
    assert ctx.exponents[: 3] == ((0, 0), (0, 1), (1, 0))
    assert sum(ctx.exponents[-1]) == 2
    assert ctx.size == 6
    for shape in ((2, degree_corners(2, 2)), (3, ((2, 0, 0), (0, 1, 1))), (2, ())):
        ctx = jet_context(*shape)
        assert [k for ks in ctx.layers for k in ks] == list(range(ctx.size))
        assert all(sum(ctx.exponents[k]) == d for d, ks in enumerate(ctx.layers) for k in ks)


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
    # 1 + x0 and 1 + x1 store the same indices, each in its own shape
    d = JetRing(b.ctx).seed(1, 1)
    for other in (b, d):
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
            with pytest.raises(InvalidParams):
                op(a, other)
        assert a != other and other != a
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


def test_jet_reciprocal_keeps_the_jet_shape():
    ctx = jet_context(2, ((3, 0), (1, 1)))
    ring = JetRing(ctx)
    a = ring.one() - ring.seed(0, 0) - ring.seed(1, 0)
    rec = JetRing(a.ctx).reciprocal(a)
    assert rec.ctx is ctx
    assert rec == ring.reciprocal(a)
    assert not (a * rec - ring.one())


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
    ring = JetRing(jet_context(2, degree_corners(2, 2)))
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
    ring = JetRing(jet_context(num_vars, degree_corners(num_vars, order)))
    size = ring.ctx.size

    def build(values):
        return Jet(ring.ctx, {i: v for i, v in values.items() if v != 0})

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
    ring = JetRing(jet_context(2, degree_corners(2, 3)))
    a = a + ring.one()  # ensure invertible constant term most of the time
    if not a.constant_term():
        return
    rec = ring.reciprocal(a)
    assert not (a * rec - ring.one())
    assert not (rec * a - ring.one())


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
@given(_corner_sets(), st.data())
def test_down_set_jets_agree_with_total_degree_jets(shape, data):
    # truncation to a down-set is a ring homomorphism: +, * and reciprocal on
    # down-set jets equal the full total-degree results on every index of the
    # down-set
    small = jet_context(*shape)
    full = jet_context(shape[0], degree_corners(shape[0], max(map(sum, small.exponents))))
    values = st.dictionaries(
        st.integers(min_value=0, max_value=full.size - 1),
        small_fractions.filter(bool),
        max_size=8,
    )

    def restrict(jet):
        return Jet(small, {
            small.index[full.exponents[i]]: v
            for i, v in jet.coeffs.items() if full.exponents[i] in small.index
        })

    a, b = (Jet(full, data.draw(values)) for _ in range(2))
    assert restrict(a + b) == restrict(a) + restrict(b)
    assert restrict(a - b) == restrict(a) - restrict(b)
    assert restrict(a * b) == restrict(a) * restrict(b)
    if a.constant_term() != 0:
        assert restrict(JetRing(full).reciprocal(a)) == (
            JetRing(small).reciprocal(restrict(a))
        )


def _reference_mul(ctx, a, b):
    out = {}
    for i, av in a.items():
        for j, bv in b.items():
            k = ctx.index.get(tuple(p + q for p, q in zip(ctx.exponents[i], ctx.exponents[j])))
            if k is not None:
                out[k] = out.get(k, 0) + av * bv
    return {k: v for k, v in out.items() if v}


def _reference_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def _assert_well_formed(jet):
    # numerators need not be in lowest terms; the value checks read Fractions
    assert type(jet.den) is int and jet.den > 0
    assert all(type(v) is int and v for v in jet._nums.values())


@settings(max_examples=80, deadline=None)
@given(_corner_sets(), st.data())
def test_exact_jets_match_a_fraction_reference(shape, data):
    # exact jets keep nonzero int numerators over one shared positive
    # denominator; every operation must equal the same operation on plain
    # Fraction dicts
    ctx = jet_context(*shape)
    ring = JetRing(ctx)
    fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    values = st.dictionaries(st.integers(0, ctx.size - 1), fractions, max_size=8)
    a, b = (data.draw(values) for _ in range(2))
    a = {k: v for k, v in a.items() if v}
    b = {k: v for k, v in b.items() if v}
    ja, jb = Jet(ctx, a), Jet(ctx, b)
    c = data.draw(fractions)
    cases = [
        (ja, a), (jb, b),
        (ja + jb, _reference_add(a, b)),
        (ja - jb, _reference_add(a, b, -1)),
        (ja * jb, _reference_mul(ctx, a, b)),
        (ja.scale(c), {k: v * c for k, v in a.items() if v * c}),
        (ja - ja, {}),
    ]
    if a.get(0):
        rec = ring.reciprocal(ja)
        assert _reference_mul(ctx, a, dict(rec.coeffs)) == {0: 1}
        cases.append((rec, dict(rec.coeffs)))
    for jet, ref in cases:
        _assert_well_formed(jet)
        assert dict(jet.coeffs) == ref
        assert jet.constant_term() == ref.get(0, 0)
        for k, alpha in enumerate(ctx.exponents):
            assert jet.derivative(alpha) == ref.get(k, 0) * math.prod(map(math.factorial, alpha))


@settings(max_examples=60, deadline=None)
@given(_corner_sets(), st.data(), st.integers(min_value=2, max_value=10**6))
def test_unreduced_exact_jets_equal_the_reduced_jet(shape, data, g):
    # scaling by g and multiplying by the constant 1/g leaves numerators and
    # den multiplied by the common factor g; values, and every result built
    # from them, are those of the reduced jet
    ctx = jet_context(*shape)
    ring = JetRing(ctx)
    values = st.dictionaries(st.integers(0, ctx.size - 1),
                             st.fractions(min_value=-6, max_value=6, max_denominator=12),
                             max_size=8)
    ja, jb = (Jet(ctx, data.draw(values)) for _ in range(2))
    ua = ja.scale(g) * ring.lift(Fraction(1, g))
    assert ua.den == ja.den * g and ua._nums == {k: v * g for k, v in ja._nums.items()}
    assert ua == ja and ja == ua
    assert dict(ua.coeffs) == dict(ja.coeffs)
    assert ua.constant_term() == ja.constant_term()
    assert all(ua.derivative(alpha) == ja.derivative(alpha) for alpha in ctx.exponents)
    assert ua + jb == ja + jb and ua * jb == ja * jb and jb - ua == jb - ja
    assert (ua == ja + ring.one()) is False
    if ja.constant_term():
        ra, rua = ring.reciprocal(ja), ring.reciprocal(ua)
        assert rua == ra and dict(rua.coeffs) == dict(ra.coeffs)


def _all_pairs_mul_into(ctx, target, a, b, scale):
    out = dict(target)
    for i, av in a.items():
        for j, bv in b.items():
            k = ctx.products[i].get(j)
            if k is not None:
                out[k] = out.get(k, 0) + scale * av * bv
    return out


@settings(max_examples=80, deadline=None)
@given(_corner_sets(), st.data())
def test_integer_kernel_matches_the_all_pairs_loop(shape, data):
    # mul_into adds scale * a * b into a given table, walking rows and
    # scaling b by a's constant term; it keeps the entries that sum to zero
    ctx = jet_context(*shape)
    nums = st.dictionaries(st.integers(0, ctx.size - 1),
                           st.integers(-9, 9).filter(bool), max_size=ctx.size)
    a, b = data.draw(nums), data.draw(nums)
    for target in ({}, data.draw(nums), dict(b)):
        for scale in (1, -1, 6, -35):
            out = dict(target)
            mul_into(out, ctx.products, a, b, scale)
            assert out == _all_pairs_mul_into(ctx, target, a, b, scale)
    # a - a cancels: every touched entry is an explicit zero
    out = {}
    mul_into(out, ctx.products, a, b, 1)
    mul_into(out, ctx.products, a, b, -1)
    assert not any(out.values())


@settings(max_examples=60, deadline=None)
@given(_corner_sets(), st.integers(min_value=1, max_value=3), st.data())
def test_exact_jet_geometric_product_matches_jet_arithmetic(shape, n, data):
    # over exact jets each output blade accumulates one int table; it must
    # equal the sum of sign * (a_i * b_j) built with Jet * and +, with the
    # same nonzero blades, for empty operands, cancelling blades and jets
    # whose numerators and den share a factor
    ctx = jet_context(*shape)
    ring = JetRing(ctx)
    values = st.dictionaries(st.integers(0, ctx.size - 1),
                             st.fractions(min_value=-4, max_value=4, max_denominator=6),
                             max_size=4)

    def jet():
        out = Jet(ctx, data.draw(values))
        g = data.draw(st.integers(min_value=1, max_value=50))
        return out.scale(g) * ring.lift(Fraction(1, g))  # den times g, not reduced

    blades = st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=1 << n)
    a = Multivector(n, ring, {m: jet() for m in data.draw(blades)})
    b = Multivector(n, ring, {m: jet() for m in data.draw(blades)})
    u, v = jet(), jet()
    e1 = 1
    e12 = 0b11 if n > 1 else 1
    # (u e1 + u e12)(v e1 - v e12) = 2 u v e2: the scalar blades cancel
    cancel_a = Multivector(n, ring, {e1: u, e12: u})
    cancel_b = Multivector(n, ring, {e1: v, e12: -v})
    empty = Multivector.zero(n, ring)
    for x, y in ((a, b), (b, a), (a, a), (a, empty), (empty, b), (cancel_a, cancel_b)):
        ref: dict = {}
        for i, ci in x.blades.items():
            for j, cj in y.blades.items():
                mask, sign = blade_product(i, j)
                p = ci * cj if sign > 0 else -(ci * cj)
                ref[mask] = ref[mask] + p if mask in ref else p
        ref = {m: c for m, c in ref.items() if c}
        got = geometric_product(x, y)
        assert list(got.blades) == sorted(ref)
        for m, c in got.blades.items():
            _assert_well_formed(c)
            assert c == ref[m] and c.ctx is ctx


def test_exact_jet_geometric_product_checks_the_jet_shape():
    a = Jet(jet_context(2, ((2, 0),)), {0: 1, 1: 2})
    b = Jet(jet_context(2, ((0, 2),)), {0: 1, 1: 2})
    ring = JetRing(a.ctx)
    with pytest.raises(InvalidParams):
        geometric_product(Multivector(1, ring, {0: a}), Multivector(1, ring, {1: b}))
    with pytest.raises(InvalidParams):
        geometric_product(Multivector(1, ring, {0: a, 1: b}), Multivector(1, ring, {0: a}))
    # an equal down-set from another corner tuple is the same shape
    c = Jet(jet_context(2, ((2, 0), (1, 0))), {0: 1, 1: 2})
    assert (geometric_product(Multivector(1, ring, {1: a}), Multivector(1, ring, {1: c}))
            == Multivector(1, ring, {0: -(a * a)}))


# Values where IEEE arithmetic has its edge cases: signed zeros, subnormals,
# infinities, NaN, and magnitudes whose products over- or underflow.
_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1074 * 3, 2.0 ** -1022 / 3,
                         2.0 ** -1000, -2.0 ** -1000, 2.0 ** 1000, -2.0 ** 1000,
                         1.7976931348623157e308, math.inf, -math.inf, math.nan])
_LANE = st.one_of(st.floats(allow_nan=True, allow_infinity=True), _EDGE)


def _hexes(values):
    return [v.hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.tuples(*[st.lists(_LANE, min_size=k, max_size=k)] * 2)), _LANE)
def test_lane_operations_are_float_operations_lane_by_lane(lanes, c):
    a, b = lanes
    x, y = Lanes(list(a)), Lanes(list(b))
    for op in (operator.add, operator.sub, operator.mul):
        assert _hexes(op(x, y).v) == _hexes(map(op, a, b))
        # a plain float broadcasts, on either side and in its operand order
        assert _hexes(op(x, c).v) == _hexes(op(u, c) for u in a)
        assert _hexes(op(c, x).v) == _hexes(op(c, u) for u in a)
    assert _hexes((-x).v) == _hexes(-u for u in a)
    assert _hexes(abs(x).v) == _hexes(map(abs, a))
    assert _hexes(FLOATS.magnitude(x).v) == _hexes(map(FLOATS.magnitude, a))
    # true when any lane is nonzero: -0.0 is zero, NaN is not
    assert bool(x) is any(u != 0.0 for u in a)
    assert _hexes(x.v) == _hexes(a)  # no operation changed its operand
