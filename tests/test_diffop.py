from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from slicekernels.clifford import Multivector, Paravector
from slicekernels.diffop import (
    DiffOperator,
    identity_operator,
    make_dirac,
    make_dirac_conj,
    make_laplacian,
    named_operator,
    operator_power_compose,
    oracle_apply,
)
from slicekernels.errors import DimensionMismatch
from slicekernels.kernels import (
    cauchy_left,
    cauchy_right,
    fueter_sce_kernel,
    kernel_closure,
    sample_point_pair,
)
from slicekernels.quadrature import SliceFunction
from slicekernels.rings import FLOATS, RATIONALS, JetRing, jet_context

R = RATIONALS


def pv(*coords):
    return Paravector.from_coords(R, list(coords))


def _identity_fn(x):
    return x.to_multivector()


def _norm_sq_fn(x):
    return Multivector.scalar(x.n, x.ring, x.norm_sq())


def _square_fn(x):
    return x.pow(2).to_multivector()


def test_dirac_on_identity_map():
    # D x = 1 + sum e_i e_i = 1 - n, and Dbar x = 1 + n
    for n in (2, 3, 5):
        x = pv(*[Fraction(k + 1, 3) for k in range(n + 1)])
        assert oracle_apply(make_dirac(n), _identity_fn, x) == Multivector.scalar(n, R, 1 - n)
        assert oracle_apply(make_dirac_conj(n), _identity_fn, x) == Multivector.scalar(n, R, 1 + n)
        assert oracle_apply(make_laplacian(n), _identity_fn, x).is_zero()


def test_dirac_on_norm_square():
    # D |x|^2 = 2 x0 + 2 sum e_i x_i = 2x
    n = 3
    x = pv(Fraction(1, 2), 2, -1, Fraction(3, 4))
    got = oracle_apply(make_dirac(n), _norm_sq_fn, x)
    assert got == x.scale(2).to_multivector()


def test_laplacian_on_square():
    # Laplacian of x^2 is the constant 2 - 2n
    n = 3
    x = pv(1, Fraction(1, 3), 0, 2)
    got = oracle_apply(make_laplacian(n), _square_fn, x)
    assert got == Multivector.scalar(n, R, 2 - 2 * n)


def test_oracle_takes_a_slice_function_as_it_is():
    # f(x) = x^2 + 3 x^3 is a function of x alone, so the oracle calls it
    # as it calls any other f(x): once, at x seeded over jets
    f = SliceFunction([0, 0, 1, 3])

    def by_hand(xx):
        return xx.pow(2).to_multivector() + xx.pow(3).to_multivector().scale(3)

    n = 3
    for x in (pv(1, Fraction(1, 3), 0, 2),
              Paravector.from_coords(FLOATS, [0.5, 0.25, -1.0, 0.125])):
        for op in (make_laplacian(n), make_dirac(n), make_dirac_conj(n)):
            assert oracle_apply(op, f, x) == oracle_apply(op, by_hand, x)
        # the Laplacian of x^2 is the constant 2 - 2n
        assert (oracle_apply(make_laplacian(n), SliceFunction([0, 0, 1]), x)
                == Multivector.scalar(n, x.ring, 2 - 2 * n))


def test_factorizations_of_laplacian():
    for n in range(1, 10):
        D = make_dirac(n)
        Db = make_dirac_conj(n)
        L = make_laplacian(n)
        assert D.compose(Db) == L
        assert Db.compose(D) == L
        # D + Dbar = 2 d/dx0 as term maps
        two_d0 = DiffOperator(
            n, {tuple([1] + [0] * n): Multivector.scalar(n, R, 2)}
        )
        assert D + Db == two_d0


def test_compose_with_identity_and_powers():
    D = make_dirac(3)
    assert D.compose(identity_operator(3)) == D
    assert operator_power_compose(D, 1, 0) == D
    assert operator_power_compose(D, 0, 1) == make_laplacian(3)
    # Laplacian has scalar coefficients, so the two orderings agree
    L = make_laplacian(3)
    assert operator_power_compose(D, 2, 1) == L.compose(D.power(2))


def test_laplacian_squared_term_map():
    # Delta^2 = sum over i, j of d_i^2 d_j^2; mixed pairs carry multiplicity 2
    n = 2
    L2 = make_laplacian(n).power(2)
    assert L2.terms[(4, 0, 0)] == Multivector.scalar(n, R, 1)
    assert L2.terms[(2, 2, 0)] == Multivector.scalar(n, R, 2)
    assert L2.terms[(0, 2, 2)] == Multivector.scalar(n, R, 2)
    assert len(L2.terms) == 6


def test_dirac_squared_term_map():
    # hand expansion for n=2: d0^2 + 2 e1 d0 d1 + 2 e2 d0 d2 - d1^2 - d2^2,
    # with the mixed e1 e2 terms cancelling by anticommutation
    n = 2
    D2 = make_dirac(n).power(2)
    expected = DiffOperator(
        n,
        {
            (2, 0, 0): Multivector.scalar(n, R, 1),
            (1, 1, 0): Multivector.blade(n, R, 1).scale(2),
            (1, 0, 1): Multivector.blade(n, R, 2).scale(2),
            (0, 2, 0): Multivector.scalar(n, R, -1),
            (0, 0, 2): Multivector.scalar(n, R, -1),
        },
    )
    assert D2 == expected


def test_compose_orders_clifford_coefficients():
    # coefficients multiply in application order: e1 d1 after e2 d2 carries
    # e1 e2, the reverse carries e2 e1 = -e1 e2
    n = 2
    a = DiffOperator(n, {(0, 1, 0): Multivector.blade(n, R, 1)})
    b = DiffOperator(n, {(0, 0, 1): Multivector.blade(n, R, 2)})
    ab = a.compose(b)
    ba = b.compose(a)
    e12 = Multivector.blade(n, R, 0b11)
    assert ab.terms[(0, 1, 1)] == e12
    assert ba.terms[(0, 1, 1)] == -e12

    # scalar-coefficient operators commute: applying D after the Laplacian
    # agrees with the Laplacian after D on a cubic
    x = pv(Fraction(1, 3), Fraction(-1, 2), 1)

    def cube(xx):
        return xx.pow(3).to_multivector()

    D, L = make_dirac(n), make_laplacian(n)
    assert oracle_apply(D.compose(L), cube, x) == oracle_apply(L.compose(D), cube, x)


def test_monogenicity_of_fueter_sce_kernel():
    rng = Random(3)
    for n in (3, 5):
        D = make_dirac(n)
        s, x = sample_point_pair(n, rng)
        assert oracle_apply(D, kernel_closure(fueter_sce_kernel, s), x).is_zero()


def test_oracle_linearity():
    rng = Random(4)
    n = 3
    s1, x = sample_point_pair(n, rng)
    s2, _ = sample_point_pair(n, rng)
    D = make_dirac(n)
    f = kernel_closure(cauchy_left, s1)
    g = kernel_closure(cauchy_left, s2)

    def fg(xx):
        return f(xx) + g(xx)

    assert oracle_apply(D, fg, x) == oracle_apply(D, f, x) + oracle_apply(D, g, x)


def test_left_multiplication_semantics():
    # constant Clifford factors pass through derivatives on the left only:
    # D(c f) equals c D(f) for scalar c but not for general c
    n = 2
    x = pv(Fraction(1, 5), Fraction(2, 3), 1)

    def coordinate(xx):
        return Multivector.scalar(n, xx.ring, xx.xu[0])  # f = x1

    def e2_times_coordinate(xx):
        return Multivector.blade(n, xx.ring, 2).scale(xx.xu[0])

    def five_times_coordinate(xx):
        return Multivector.scalar(n, xx.ring, xx.xu[0] * 5)

    D = make_dirac(n)
    base = oracle_apply(D, coordinate, x)
    e2 = Multivector.blade(n, R, 2)
    assert oracle_apply(D, e2_times_coordinate, x) != e2 * base
    assert oracle_apply(D, five_times_coordinate, x) == base.scale(5)


def test_operators_with_one_support_share_one_jet_context():
    # D^3 and D Delta read the same multi-indices, so their jets are one shape
    ctx = named_operator(7, "d", 3, 0).blade_terms()[0]
    assert ctx is named_operator(7, "d", 1, 1).blade_terms()[0]
    assert ctx is not named_operator(7, "d", 2, 0).blade_terms()[0]


def _reference_apply(op, f, x):
    # sum of c_alpha * d^alpha f as Fraction Clifford products of the jet
    # derivatives, one term at a time
    jring = JetRing(jet_context(op.n + 1, tuple(op.terms)), R)
    value = f(Paravector(jring, jring.seed(0, x.x0),
                         [jring.seed(i + 1, c) for i, c in enumerate(x.xu)]))
    acc = Multivector.zero(op.n, R)
    for alpha, c in op.terms.items():
        acc = acc + c * Multivector(op.n, R, [jet.derivative(alpha) for jet in value.coeffs])
    return acc


@pytest.mark.parametrize("n", (3, 5))
def test_operator_coefficients_with_denominators(n):
    # the exact oracle puts the coefficients over one common denominator E;
    # every D^beta Delta^m has E = 1, so these operators cover E > 1
    s, x = sample_point_pair(n, Random(n))
    f = kernel_closure(cauchy_left, s)
    D = make_dirac(n)
    third = Fraction(1, 3)
    assert oracle_apply(D.scale(third), f, x) == oracle_apply(D, f, x).scale(third)
    # d/dx1 carries e1 + 3/7 e1e2 after the sum, and the Laplacian terms 2/5
    tilt = DiffOperator(n, {(0, 1) + (0,) * (n - 1): Multivector.blade(n, R, 0b11, Fraction(3, 7))})
    mixed = D + tilt + make_laplacian(n).scale(Fraction(2, 5))
    assert mixed.terms[(0, 1) + (0,) * (n - 1)].coeffs[0b11] == Fraction(3, 7)
    for op in (D.scale(third), mixed):
        assert oracle_apply(op, f, x) == _reference_apply(op, f, x)


def test_dimension_mismatch():
    n = 2
    x = pv(1, 1, 1)
    with pytest.raises(DimensionMismatch):
        oracle_apply(make_dirac(3), _square_fn, x)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(3, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 1), (5, 2, 0)]),
       st.booleans(), st.sampled_from(["left", "right"]), st.integers(0, 10**6))
def test_oracle_matches_the_per_alpha_sum(shape, conj, side, seed):
    # the exact oracle takes one integer dot product per blade pair; the
    # reference sums c_alpha * d^alpha f one alpha at a time
    n, beta, m = shape
    base = make_dirac_conj(n) if conj else make_dirac(n)
    op = operator_power_compose(base, beta, m)
    s, x = sample_point_pair(n, Random(seed))
    f = kernel_closure(cauchy_left if side == "left" else cauchy_right, s)
    assert oracle_apply(op, f, x) == _reference_apply(op, f, x)
