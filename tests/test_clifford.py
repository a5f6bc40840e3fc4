import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from slicekernels.clifford import (
    Multivector,
    Paravector,
    blade_name,
    blade_product,
    format_multivector,
    format_paravector,
    geometric_product,
    mask_from_name,
    parse_multivector,
    parse_paravector,
    same_sphere,
)
from slicekernels.errors import DimensionMismatch, InvalidParams, SliceKernelsError, ZeroNorm
from slicekernels.rings import FLOATS, RATIONALS, Jet, JetRing, jet_context


def degree_corners(num_vars, order):
    """Corners of the total-degree down-set: every multi-index with |alpha| = order."""
    return tuple(c for c in itertools.product(range(order + 1), repeat=num_vars)
                 if sum(c) == order)


R = RATIONALS


def mv(n, text):
    return parse_multivector(text, n, R)


def pv(*coords):
    return Paravector.from_coords(R, list(coords))


def test_defining_relations():
    n = 4
    for i in range(1, n + 1):
        ei = Multivector.blade(n, R, 1 << (i - 1))
        assert ei * ei == Multivector.scalar(n, R, -1)
        for j in range(1, n + 1):
            if i != j:
                ej = Multivector.blade(n, R, 1 << (j - 1))
                assert ei * ej == -(ej * ei)


def test_blade_reordering_example():
    # e1 e2 * e1 = -e1 e1 e2 = e2, expanded by anticommutation
    n = 2
    e1 = Multivector.blade(n, R, 1)
    e12 = Multivector.blade(n, R, 0b11)
    assert e12 * e1 == Multivector.blade(n, R, 2)
    assert blade_product(0b11, 0b01) == (0b10, 1)


def test_difference_of_squares():
    n = 1
    one = Multivector.scalar(n, R, 1)
    e1 = Multivector.blade(n, R, 1)
    assert (one + e1) * (one - e1) == Multivector.scalar(n, R, 2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        geometric_product(Multivector.scalar(2, R, 1), Multivector.scalar(3, R, 1))


def _random_mv(n, rng, sparsity=6):
    out = {}
    for _ in range(sparsity):
        out[rng.randrange(1 << n)] = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    return Multivector(n, R, out)


def test_associativity_n7_seeded():
    rng = Random(2024)
    for _ in range(5):
        a, b, c = (_random_mv(7, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_associativity_and_distributivity(n, data):
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    def draw_mv():
        return Multivector(n, R, data.draw(st.dictionaries(masks, coeffs, max_size=4)))
    a, b, c = draw_mv(), draw_mv(), draw_mv()
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


# -- sparse storage against the dense loops it replaced -------------------

JR = JetRing(jet_context(2, degree_corners(2, 2)))


def _dense_product(ring, a, b):
    out = [ring.zero()] * len(a)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            mask, sign = blade_product(i, j)
            p = ca * cb
            out[mask] = out[mask] - p if sign < 0 else out[mask] + p
    return out


def _dense_norm(ring, coeffs):
    # the plain sum of squares, left to right: the built-in sum compensates
    # float sums from Python 3.12 on
    total = 0.0
    for c in coeffs:
        total += ring.magnitude(c) ** 2
    return total ** 0.5


# every coefficient kind with exact zeros among the draws; the small floats
# lie under FloatRing's 1e-12 zero tolerance, and the product keeps them
_SCALARS = {
    "fraction": (R, st.one_of(st.just(Fraction(0)),
                              st.fractions(min_value=-4, max_value=4, max_denominator=6))),
    "float": (FLOATS, st.one_of(st.just(0.0),
                                st.floats(min_value=-1e-12, max_value=1e-12),
                                st.floats(min_value=-4, max_value=4))),
    "jet": (JR, st.dictionaries(st.integers(0, JR.ctx.size - 1),
                                st.fractions(min_value=-3, max_value=3, max_denominator=4),
                                max_size=3).map(lambda d: Jet(JR.ctx, R, d))),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_SCALARS)), st.integers(min_value=1, max_value=5), st.data())
def test_sparse_operations_match_dense_loops(kind, n, data):
    ring, values = _SCALARS[kind]
    dense = st.lists(st.one_of(st.just(ring.zero()), values), min_size=1 << n, max_size=1 << n)
    da, db = data.draw(dense), data.draw(dense)
    c = data.draw(values)
    a, b = Multivector(n, ring, da), Multivector(n, ring, db)
    # == on floats is bit equality except for the sign of zero
    for mv, dense_result in (
        (a, da), (b, db),
        (a + b, [x + y for x, y in zip(da, db)]),
        (a - b, [x - y for x, y in zip(da, db)]),
        (a.scale(c), [x * c for x in da]),
        (geometric_product(a, b), _dense_product(ring, da, db)),
    ):
        assert list(mv.blades) == sorted(mv.blades) and all(mv.blades.values())
        assert mv.coeffs == tuple(dense_result)
    if kind != "jet":
        # the plain sum of squares, bit for bit, while the largest magnitude
        # is well inside float range; beyond, that sum overflows or loses the
        # norm, and norm_float rescales
        mags = [ring.magnitude(v) for v in da if v]
        if 2.0 ** -400 <= max(mags, default=1.0) <= 2.0 ** 400:
            assert a.norm_float() == _dense_norm(ring, da)
        else:
            assert a.norm_float() == pytest.approx(math.hypot(*mags), rel=1e-15)


def test_norm_float_sums_in_mask_order():
    rng = Random(7)
    for n in (3, 5, 7):
        d = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3) for _ in range(1 << n)]
        assert Multivector(n, FLOATS, d).norm_float() == _dense_norm(FLOATS, d)


def test_norm_float_is_the_same_on_every_python():
    # left to right, 1 + 1e-16 rounds back to 1 four times; a compensated sum
    # (the built-in sum from Python 3.12 on) gives 1.0000000000000002
    mv = Multivector(3, FLOATS, {0: 1.0, 1: 1e-8, 2: 1e-8, 4: 1e-8, 7: 1e-8})
    assert mv.norm_float() == 1.0


def test_norm_float_at_the_ends_of_float_range():
    # far outside 2^±500, magnitudes are divided by a power of two before
    # they are squared, so neither 1e200 overflows nor 1e-200 underflows
    for v in (1e200, -1e200, 1e-200, 5e-324, 1.7e308):
        assert Multivector.scalar(3, FLOATS, v).norm_float() == abs(v)
    for scale in (1e200, 1e-200):
        pair = Multivector(3, FLOATS, {0: 3 * scale, 6: -4 * scale})
        assert pair.norm_float() == pytest.approx(5 * scale, rel=1e-15)
    assert Multivector(3, FLOATS, {0: 1.7e308, 1: 1.7e308}).norm_float() == math.inf
    # a NaN or infinity passes through, wherever it stands
    assert math.isnan(Multivector(3, FLOATS, {0: math.nan, 1: 4.0}).norm_float())
    assert math.isnan(Multivector(3, FLOATS, {0: 4.0, 1: math.nan}).norm_float())
    assert math.isnan(Multivector(3, FLOATS, {0: math.inf, 1: math.nan}).norm_float())
    assert Multivector(3, FLOATS, {0: 4.0, 2: -math.inf}).norm_float() == math.inf


def test_stored_zero_equals_absent_blade():
    a = Multivector(3, R, {0: Fraction(2), 5: Fraction(0)})
    assert a == Multivector(3, R, {0: Fraction(2)}) == Multivector.scalar(3, R, 2)
    assert list(a.blades) == [0]
    assert Multivector(2, FLOATS, [0.0, 1.5, -0.0, 0.0]) == Multivector.blade(2, FLOATS, 1, 1.5)
    assert Multivector(1, JR, {1: JR.zero()}) == Multivector.zero(1, JR)


def test_is_zero_is_exact():
    # blades store no zeros, so only the empty multivector is zero, whatever
    # the ring's tolerance
    assert Multivector.zero(3, FLOATS).is_zero() and Multivector.zero(3, R).is_zero()
    assert Multivector(2, FLOATS, [0.0, -0.0, 0.0, 0.0]).is_zero()
    assert not Multivector.scalar(3, FLOATS, 1e-13).is_zero()
    assert not Multivector.blade(3, R, 5, Fraction(1, 10**30)).is_zero()


def test_blade_mask_outside_dimension_raises():
    with pytest.raises(InvalidParams):
        Multivector(3, R, {8: Fraction(1)})
    with pytest.raises(InvalidParams):
        Multivector(3, R, {-1: Fraction(1)})
    with pytest.raises(InvalidParams):
        Multivector(3, R, [Fraction(1)] * 4)


def test_coeffs_is_read_only():
    a = Multivector.scalar(2, R, 1)
    with pytest.raises(TypeError):
        a.coeffs[1] = Fraction(3)
    assert a.coeffs == (1, 0, 0, 0)


def test_paravector_conjugate_examples():
    x = pv(1, 1, 0, 0)
    assert x.conjugate() == pv(1, -1, 0, 0)
    five = pv(5, 0, 0, 0)
    assert five.conjugate() == five
    rng = Random(5)
    for _ in range(10):
        y = pv(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])
        assert y.conjugate().conjugate() == y
        # x xbar = xbar x = |x|^2
        prod = y * y.conjugate()
        assert prod == Multivector.scalar(3, R, y.norm_sq())
        assert y.conjugate() * y == prod


def test_norm_sq_examples():
    assert pv(1, 1, 0, 0).norm_sq() == 2
    assert pv(0, 1, 1, 0).norm_sq() == 2
    x = pv(Fraction(1, 2), 3, Fraction(-2, 5), 1)
    assert x.norm_sq() == (x * x.conjugate()).blades.get(0, 0)


def test_paravector_inverse():
    x = pv(1, 1, 0, 0)
    assert x.inverse() == pv(Fraction(1, 2), Fraction(-1, 2), 0, 0)
    assert pv(2, 0, 0, 0).inverse() == pv(Fraction(1, 2), 0, 0, 0)
    with pytest.raises(ZeroNorm):
        pv(0, 0, 0, 0).inverse()
    rng = Random(9)
    one = Multivector.scalar(3, R, 1)
    for _ in range(10):
        y = pv(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])
        if not y.norm_sq():
            continue
        assert y * y.inverse() == one
        assert y.inverse() * y == one


@pytest.mark.parametrize("scale", [1e-200, 1e-157, 1e200])
def test_float_paravector_inverse_outside_the_norm_range(scale):
    # |x|^2 underflows to 0, is subnormal, or overflows to inf, but x^-1 is in range
    x = Paravector.from_coords(FLOATS, [3 * scale, 0.0, 4 * scale, 0.0])
    inv = x.inverse()
    assert inv.coords() == pytest.approx((0.12 / scale, 0.0, -0.16 / scale, 0.0), rel=1e-15, abs=0)
    with pytest.raises(ZeroNorm):
        Paravector.from_coords(FLOATS, [0.0] * 4).inverse()


def test_float_paravector_inverse_beyond_float_range():
    # 1 / 1e-320 exceeds the largest float
    with pytest.raises(SliceKernelsError, match="outside float range"):
        Paravector.from_coords(FLOATS, [1e-320, 0, 0, 0]).inverse()


def test_paravector_pow():
    e1 = pv(0, 1, 0, 0)
    assert e1.pow(2).to_multivector() == Multivector.scalar(3, R, -1)
    x = pv(Fraction(2, 3), 1, -1, Fraction(1, 2))
    assert x.pow(0).to_multivector() == Multivector.scalar(3, R, 1)
    assert pv(1, 1, 0, 0).pow(2) == pv(0, 2, 0, 0)  # (1+e1)^2 = 2 e1
    # closure matches the geometric product route
    acc = Multivector.scalar(3, R, 1)
    for k in range(5):
        assert x.pow(k).to_multivector() == acc
        acc = acc * x.to_multivector()


def _reference_pow(x, k):
    # the recurrence from (1, 0) that takes l for every k >= 1
    ring = x.ring
    a, b = ring.one(), ring.zero()
    if k:
        ell = x.vector_norm_sq()
        for _ in range(k):
            a, b = a * x.x0 - b * ell, a + b * x.x0
    return Paravector(ring, a, tuple(b * c for c in x.xu))


def _bits(x):
    """Coordinates of a float or float-jet paravector, bit for bit and in
    storage order."""
    def one(c):
        if isinstance(c, Jet):
            return tuple((k, v.hex()) for k, v in c.coeffs.items())
        return c.hex()
    return tuple(one(c) for c in x.coords())


_coords = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                   min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(_coords, st.integers(min_value=0, max_value=6),
       st.sampled_from(["rational", "float", "exact-jet", "float-jet"]))
def test_powers_match_pow_and_the_reference_recurrence(coords, k, kind):
    x = Paravector.from_coords(R, coords)
    if kind == "float":
        x = x.cast(FLOATS)
    elif kind.endswith("jet"):
        jr = JetRing(jet_context(3, degree_corners(3, 2)),
                     FLOATS if kind == "float-jet" else R)
        x = Paravector(jr, jr.seed(0, coords[0]),
                       (jr.seed(1, coords[1]), jr.seed(2, coords[2])))
    assert x.pow(1) is x
    ps = x.powers(k)
    assert len(ps) == k + 1
    for j, p in enumerate(ps):
        assert p == x.pow(j) == _reference_pow(x, j)
        if kind.startswith("float"):
            assert _bits(p) == _bits(x.pow(j)) == _bits(_reference_pow(x, j))


def test_same_sphere():
    assert same_sphere(pv(1, 2, 0, 0), pv(1, 0, 2, 0))
    assert not same_sphere(pv(1, 2, 0, 0), pv(2, 2, 0, 0))
    real = pv(Fraction(7, 3), 0, 0, 0)
    assert same_sphere(real, real)


def test_multivector_works_over_float_and_jet_rings():
    xf = Paravector.from_coords(FLOATS, [1.0, 2.0, 0.0, 0.0])
    assert abs((xf * xf.conjugate()).blades.get(0, 0) - 5.0) < 1e-12
    jr = JetRing(jet_context(2, degree_corners(2, 2)))
    a = Multivector(1, jr, {0: jr.seed(0, 1)})
    b = Multivector.blade(1, jr, 1)
    prod = (a + b) * (a - b)  # (x + e1)(x - e1) = x^2 + 1 over jets
    assert not prod.coeffs[1]
    assert prod.coeffs[0].derivative((0, 0)) == 2  # 1^2 + 1
    assert prod.coeffs[0].derivative((1, 0)) == 2


def test_text_encoding_round_trip():
    a = mv(3, "2 + 3*e1 + 1*e12")
    assert a.coeffs[0] == 2 and a.coeffs[1] == 3 and a.coeffs[3] == 1
    assert format_multivector(a) == "2 + 3*e1 + 1*e12"
    b = mv(3, "-8/25 - 4/25*e1")
    assert format_multivector(b) == "-8/25 - 4/25*e1"
    assert format_multivector(Multivector.zero(3, R)) == "0"
    assert mask_from_name("e{1,12}") == (1 << 0) | (1 << 11)
    assert all(mask_from_name(blade_name(m)) == m for m in range(1, 1 << 12))


def test_float_text_round_trip():
    coeffs = [0.0] * 8
    coeffs[0], coeffs[1], coeffs[3], coeffs[6] = 1e-05, -2.5e103, 9.99e-07, -0.125
    a = Multivector(3, FLOATS, coeffs)
    text = format_multivector(a)
    assert text == "1e-05 - 2.5e+103*e1 + 9.99e-07*e12 - 0.125*e23"
    assert parse_multivector(text, 3, FLOATS) == a
    assert parse_multivector("1e-05*e1", 3, FLOATS).coeffs[1] == 1e-05
    assert parse_multivector("2 + -3*e1 - e2", 3, R) == mv(3, "2 - 3*e1 - 1*e2")


@pytest.mark.parametrize("text", ["1e*e1", "2 + x", "1/0", "2 +", "3*e1.5", "3*f1", "1e400",
                                  # a blade name needs an index, and strictly ascending ones
                                  "e11", "e21", "e{2,1}", "e{1,1}", "3*e"])
def test_malformed_multivector_text(text):
    with pytest.raises(InvalidParams):
        parse_multivector(text, 3, FLOATS)


def test_paravector_text_round_trip():
    x = parse_paravector("2,0,-1/3,4", 3, R)
    assert x == pv(2, 0, Fraction(-1, 3), 4)
    assert format_paravector(x) == "2,0,-1/3,4"
    with pytest.raises(InvalidParams):
        parse_paravector("1,2", 3, R)
