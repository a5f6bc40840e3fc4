from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from slicekernels.clifford import (
    Multivector,
    Paravector,
    blade_product,
    format_multivector,
    format_paravector,
    geometric_product,
    mask_from_name,
    parse_multivector,
    parse_paravector,
    same_sphere,
)
from slicekernels.errors import DimensionMismatch, InvalidParams, ZeroNorm
from slicekernels.rings import FLOATS, RATIONALS, JetRing, total_degree

R = RATIONALS


def mv(n, text):
    return parse_multivector(text, n, R)


def pv(*coords):
    return Paravector.from_coords(R, list(coords))


def test_defining_relations():
    n = 4
    for i in range(1, n + 1):
        ei = Multivector.basis_vector(n, R, i)
        assert ei * ei == Multivector.scalar(n, R, -1)
        for j in range(1, n + 1):
            if i != j:
                ej = Multivector.basis_vector(n, R, j)
                assert ei * ej == -(ej * ei)


def test_blade_reordering_example():
    # e1 e2 * e1 = -e1 e1 e2 = e2, expanded by anticommutation
    n = 2
    e1 = Multivector.basis_vector(n, R, 1)
    e12 = Multivector.blade(n, R, 0b11)
    assert e12 * e1 == Multivector.basis_vector(n, R, 2)
    assert blade_product(0b11, 0b01) == (0b10, 1)


def test_difference_of_squares():
    n = 1
    one = Multivector.scalar(n, R, 1)
    e1 = Multivector.basis_vector(n, R, 1)
    assert (one + e1) * (one - e1) == Multivector.scalar(n, R, 2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        geometric_product(Multivector.scalar(2, R, 1), Multivector.scalar(3, R, 1))


def _random_mv(n, rng, sparsity=6):
    out = Multivector.zero(n, R)
    for _ in range(sparsity):
        out.coeffs[rng.randrange(1 << n)] = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    return out


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
        d = data.draw(st.dictionaries(masks, coeffs, max_size=4))
        out = Multivector.zero(n, R)
        for k, v in d.items():
            out.coeffs[k] = v
        return out
    a, b, c = draw_mv(), draw_mv(), draw_mv()
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


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
    assert x.norm_sq() == (x * x.conjugate()).scalar_part()


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
        if R.is_zero(y.norm_sq()):
            continue
        assert y * y.inverse() == one
        assert y.inverse() * y == one


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


def test_same_sphere():
    assert same_sphere(pv(1, 2, 0, 0), pv(1, 0, 2, 0))
    assert not same_sphere(pv(1, 2, 0, 0), pv(2, 2, 0, 0))
    real = pv(Fraction(7, 3), 0, 0, 0)
    assert same_sphere(real, real)


def test_multivector_works_over_float_and_jet_rings():
    xf = Paravector.from_coords(FLOATS, [1.0, 2.0, 0.0, 0.0])
    assert abs((xf * xf.conjugate()).scalar_part() - 5.0) < 1e-12
    jr = JetRing(total_degree(2, 2))
    a = Multivector.zero(1, jr)
    a.coeffs[0] = jr.seed(0, 1)
    b = Multivector.basis_vector(1, jr, 1)
    prod = (a + b) * (a - b)  # (x + e1)(x - e1) = x^2 + 1 over jets
    assert jr.is_zero(prod.coeffs[1])
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


def test_float_text_round_trip():
    coeffs = [0.0] * 8
    coeffs[0], coeffs[1], coeffs[3], coeffs[6] = 1e-05, -2.5e103, 9.99e-07, -0.125
    a = Multivector(3, FLOATS, coeffs)
    text = format_multivector(a)
    assert text == "1e-05 - 2.5e+103*e1 + 9.99e-07*e12 - 0.125*e23"
    assert parse_multivector(text, 3, FLOATS) == a
    assert parse_multivector("1e-05*e1", 3, FLOATS).coeffs[1] == 1e-05
    assert parse_multivector("2 + -3*e1 - e2", 3, R) == mv(3, "2 - 3*e1 - 1*e2")


@pytest.mark.parametrize("text", ["1e*e1", "2 + x", "1/0", "2 +", "3*e1.5", "3*f1", "1e400"])
def test_malformed_multivector_text(text):
    with pytest.raises(InvalidParams):
        parse_multivector(text, 3, FLOATS)


def test_paravector_text_round_trip():
    x = parse_paravector("2,0,-1/3,4", 3, R)
    assert x == pv(2, 0, Fraction(-1, 3), 4)
    assert format_paravector(x) == "2,0,-1/3,4"
    with pytest.raises(InvalidParams):
        parse_paravector("1,2", 3, R)
