import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from slicekernels import clifford, kernels as K
from slicekernels.clifford import Multivector, Paravector, parse_multivector, same_sphere
from slicekernels.diffop import (
    make_dirac,
    make_dirac_conj,
    make_laplacian,
    named_operator,
    oracle_apply,
)
from slicekernels.errors import InvalidParams, SingularKernel, ZeroNorm
from slicekernels.rings import FLOATS, RATIONALS, JetRing, Lanes, jet_context

R = RATIONALS


def pv(*coords):
    return Paravector.from_coords(R, list(coords))


def mv(n, text):
    return parse_multivector(text, n, R)


S2_N3 = pv(2, 0, 0, 0)
X_E1_N3 = pv(0, 1, 0, 0)
S2_N5 = Paravector.from_coords(R, [2, 0, 0, 0, 0, 0])
X_E1_N5 = Paravector.from_coords(R, [0, 1, 0, 0, 0, 0])


def test_cauchy_forms_at_reference_point():
    expected = mv(3, "2/5 + 1/5*e1")
    assert K.cauchy_left(S2_N3, X_E1_N3, "II") == expected
    assert K.cauchy_left(S2_N3, X_E1_N3, "I") == expected
    assert K.cauchy_right(S2_N3, X_E1_N3, "II") == expected


def test_cauchy_form_equivalence_random():
    rng = Random(13)
    for n in (3, 5):
        for _ in range(5):
            s, x = K.sample_point_pair(n, rng)
            assert K.cauchy_left(s, x, "I") == K.cauchy_left(s, x, "II")
            assert K.cauchy_right(s, x, "I") == K.cauchy_right(s, x, "II")


def test_singular_kernel():
    e1 = pv(0, 1, 0, 0)
    with pytest.raises(SingularKernel):
        K.cauchy_left(e1, e1)
    # any point of the sphere [x] is singular, not just x itself
    e2 = pv(0, 0, 1, 0)
    with pytest.raises(SingularKernel):
        K.cauchy_left(e2, e1)
    with pytest.raises(SingularKernel):
        K.fueter_sce_kernel(e1, e1)


def test_float_singularity_guard():
    e1 = Paravector.from_coords(FLOATS, [0.0, 1.0, 0.0, 0.0])
    near = Paravector.from_coords(FLOATS, [1e-14, 1.0, 0.0, 0.0])
    with pytest.raises(SingularKernel):
        K.cauchy_left(near, e1)
    # at any scale, and Q comes back unscaled
    for t in (1e-150, 1e150):
        s = Paravector.from_coords(FLOATS, [t, 0.0, 0.0, 0.0])
        x = e1.scale(t)
        assert K.check_not_singular(s, x) == K.pseudo_denominator(s, x)
        with pytest.raises(SingularKernel):
            K.check_not_singular(x.scale(1 + 1e-14), x)


def test_pseudo_cauchy_pow():
    assert K.pseudo_cauchy_pow(S2_N3, X_E1_N3, 1) == mv(3, "1/5")
    assert K.pseudo_cauchy_pow(S2_N3, X_E1_N3, 2) == mv(3, "1/25")
    rng = Random(17)
    for _ in range(5):
        s, x = K.sample_point_pair(3, rng)
        q = K.pseudo_denominator(s, x).to_multivector()
        assert q * K.pseudo_cauchy_pow(s, x, 1) == Multivector.scalar(3, R, 1)
    with pytest.raises(InvalidParams):
        K.pseudo_cauchy_pow(S2_N3, X_E1_N3, 0)


def test_pseudo_cauchy_commutes_with_s_minus_x0():
    rng = Random(19)
    s, x = K.sample_point_pair(3, rng)
    q = K.pseudo_cauchy_pow(s, x, 2)
    smx0 = Paravector(R, s.x0 - x.x0, s.xu).to_multivector()
    assert q * smx0 == smx0 * q


def test_series_trivial_cases():
    sinv = S2_N3.inverse().to_multivector()
    zero = pv(0, 0, 0, 0)
    assert K.cauchy_series_partial(S2_N3, zero, 7) == sinv
    assert K.cauchy_series_partial(S2_N3, X_E1_N3, 0) == sinv
    with pytest.raises(InvalidParams):
        K.cauchy_series_partial(X_E1_N3, S2_N3, 3)


def test_series_tail_bound_reference_point():
    # |x|/|s| = 1/2: after 60 terms the exact error is below 2^-58
    partial = K.cauchy_series_partial(S2_N3, X_E1_N3, 60)
    limit = K.cauchy_left(S2_N3, X_E1_N3, "II")
    assert (partial - limit).norm_float() <= 2.0**-58


def test_fueter_sce_kernel_values():
    assert K.fueter_sce_kernel(S2_N3, X_E1_N3) == mv(3, "-8/25 - 4/25*e1")
    # left and right kernels differ at a point with noncommuting parts
    s = pv(1, 0, 1, 0)
    x = pv(0, 1, 0, 0)
    left = K.fueter_sce_kernel(s, x, "left")
    right = K.fueter_sce_kernel(s, x, "right")
    assert left != right
    with pytest.raises(InvalidParams):
        K.fueter_sce_kernel(S2_N3, X_E1_N3, side="middle")


def test_fueter_sce_is_laplacian_power_image():
    rng = Random(23)
    for n in (3, 5):
        h = (n - 1) // 2
        s, x = K.sample_point_pair(n, rng)
        f = K.kernel_closure(K.cauchy_left, s)
        oracle = oracle_apply(make_laplacian(n).power(h), f, x)
        assert oracle == K.fueter_sce_kernel(s, x)
        fs = K.kernel_closure(K.fueter_sce_kernel, s)
        assert oracle_apply(make_dirac(n), fs, x).is_zero()


def test_kernel_closure_is_the_kernel_at_s_cast_to_the_ring_of_x():
    s, x = K.sample_point_pair(3, Random(31))
    jring = JetRing(jet_context(4, ((1, 1, 0, 0), (0, 0, 2, 0))))
    jets = Paravector(jring, jring.seed(0, x.x0),
                      [jring.seed(i + 1, c) for i, c in enumerate(x.xu)])
    for point in (x, x.cast(FLOATS), jets):
        for kernel, options in ((K.cauchy_left, {}), (K.cauchy_right, {"form": "I"}),
                                (K.harmonic_kernel, {"m": 1})):
            got = K.kernel_closure(kernel, s, **options)(point)
            assert got.ring is point.ring
            assert got == kernel(s.cast(point.ring), point, **options)


def test_d_beta_delta_m_reference_values():
    # five-dimensional values at s=2, x=e1 (Q = 5)
    assert K.d_beta_delta_m_kernel(S2_N5, X_E1_N5, 0, 1) == mv(5, "-4/5")
    assert K.d_beta_delta_m_kernel(S2_N5, X_E1_N5, 1, 1) == mv(5, "16/25")
    assert K.d_beta_delta_m_kernel(S2_N5, X_E1_N5, 0, 2) == mv(5, "-16/25 + 8/25*e1")


def test_dbar_beta_delta_m_reference_values():
    assert K.dbar_beta_delta_m_kernel(S2_N5, X_E1_N5, 0, 1) == mv(5, "26/25 + 8/25*e1")
    assert K.dbar_beta_delta_m_kernel(S2_N5, X_E1_N5, 0, 2) == mv(5, "256/125 + 128/125*e1")


def test_theorem_kernels_match_oracle_spot():
    from slicekernels.diffop import make_dirac_conj, operator_power_compose

    rng = Random(29)
    for n, m, beta in ((3, 0, 1), (5, 1, 1), (5, 0, 2), (7, 1, 2)):
        s, x = K.sample_point_pair(n, rng)
        f = K.kernel_closure(K.cauchy_left, s)
        opD = operator_power_compose(make_dirac(n), beta, m)
        assert oracle_apply(opD, f, x) == K.d_beta_delta_m_kernel(s, x, m, beta)
        opDb = operator_power_compose(make_dirac_conj(n), beta, m)
        assert oracle_apply(opDb, f, x) == K.dbar_beta_delta_m_kernel(s, x, m, beta)


def test_theorem_kernel_invalid_params():
    with pytest.raises(InvalidParams):
        K.d_beta_delta_m_kernel(S2_N5, X_E1_N5, 0, 3)  # m + beta > h_5 = 2
    with pytest.raises(InvalidParams):
        K.d_beta_delta_m_kernel(S2_N5, X_E1_N5, 2, 1)
    with pytest.raises(InvalidParams):
        K.dbar_beta_delta_m_kernel(S2_N5, X_E1_N5, 0, 0)


def test_special_case_kernels():
    assert K.harmonic_kernel(S2_N5, X_E1_N5, 1) == mv(5, "-4/5")
    assert K.laplacian_power_kernel(S2_N5, X_E1_N5, 1) == mv(5, "-16/25 - 8/25*e1")
    rng = Random(31)
    for n in (3, 5, 7):
        h = (n - 1) // 2
        s, x = K.sample_point_pair(n, rng)
        # harmonic kernel is the beta=1 theorem kernel, one Laplacian higher
        for m in range(0, h):
            assert K.d_beta_delta_m_kernel(s, x, m, 1) == K.harmonic_kernel(s, x, m + 1)
        # top Laplacian power reproduces the Fueter-Sce kernel
        assert K.laplacian_power_kernel(s, x, h) == K.fueter_sce_kernel(s, x)
        # polyanalytic at ell = h is the kernel itself
        assert K.polyanalytic_kernel(s, x, h) == K.fueter_sce_kernel(s, x)
        # boundary reduction of the conjugate theorem
        for m in range(0, h):
            assert K.dbar_beta_delta_m_kernel(s, x, m, h - m) == K.polyanalytic_kernel(s, x, m)
    with pytest.raises(InvalidParams):
        K.harmonic_kernel(S2_N5, X_E1_N5, 3)
    with pytest.raises(InvalidParams):
        K.polyanalytic_kernel(S2_N5, X_E1_N5, 3)


def test_harmonic_kernel_is_paravector_in_plane_of_s():
    rng = Random(37)
    s, x = K.sample_point_pair(5, rng)
    value = K.harmonic_kernel(s, x, 2)
    assert all(mask.bit_count() <= 1 for mask in value.blades)


def test_commutation_inside_plane_of_s_only():
    s = pv(1, 0, 1, 0)
    x = pv(0, 1, 0, 0)
    q = K.pseudo_cauchy_pow(s, x, 1)
    s_mv = s.to_multivector()
    sbar_mv = s.conjugate().to_multivector()
    smx0 = Paravector(R, s.x0 - x.x0, s.xu).to_multivector()
    for a, b in ((q, s_mv), (q, sbar_mv), (q, smx0), (s_mv, sbar_mv)):
        assert a * b == b * a
    smxbar = (s - x.conjugate()).to_multivector()
    assert smxbar * q != q * smxbar


def test_lemma_blocks_match_oracle():
    rng = Random(41)
    for lemma in (K.LEMMA_DIRAC, K.LEMMA_DIRAC_CONJ):
        for formula in (1, 2, 3, 4):
            s, x = K.sample_point_pair(5, rng)
            lhs, rhs = K.lemma_block_lhs_rhs(s, x, lemma, formula, m=2, k=2)
            assert lhs == rhs


def test_lemma_reference_values():
    # D((s - xbar) Q^-1) = -2 h Q^-1 = -4/5 at the reference point (n=5, m=1)
    _, rhs = K.lemma_block_lhs_rhs(S2_N5, X_E1_N5, K.LEMMA_DIRAC, 1, m=1)
    assert rhs == mv(5, "-4/5")
    # Dbar(Q^-1) = 2 (s - xbar) Q^-2
    lhs, rhs = K.lemma_block_lhs_rhs(S2_N3, X_E1_N3, K.LEMMA_DIRAC_CONJ, 2, m=1)
    assert rhs == mv(3, "4/25 + 2/25*e1")
    assert lhs == rhs


def test_lemma_block_k0_reduces():
    rng = Random(43)
    s, x = K.sample_point_pair(3, rng)
    lhs3, rhs3 = K.lemma_block_lhs_rhs(s, x, K.LEMMA_DIRAC, 3, m=2, k=0)
    lhs2, rhs2 = K.lemma_block_lhs_rhs(s, x, K.LEMMA_DIRAC, 2, m=2)
    assert lhs3 == lhs2 and rhs3 == rhs2


def test_quaternionic_conjugate_chain():
    # Dbar S maps to the Fueter-Sce kernel chain: -F^3 s + x0 F^3
    rng = Random(47)
    s, x = K.sample_point_pair(3, rng)
    f3 = K.fueter_sce_kernel(s, x)
    chained = -(f3 * s.to_multivector()) + f3.scale(x.x0)
    assert K.dbar_beta_delta_m_kernel(s, x, 0, 1) == chained


def test_catalog_fixtures():
    assert set(K.catalog_ids()) == {
        "q-D", "q-Dbar", "n5-D", "n5-Delta", "n5-DeltaD", "n5-Dbar", "n5-D2",
        "n5-DeltaDbar", "n5-Dbar2",
    }
    flagged = {cid for cid in K.catalog_ids() if K.catalog_fixture(cid).corrected is not None}
    assert flagged == {"n5-Delta", "n5-D2", "n5-Dbar2"}
    with pytest.raises(InvalidParams):
        K.catalog_fixture("n7-D")


def test_named_operators_equal_the_compositions_they_replace():
    # the compiled form fixes the oracle's float summation order, so it must
    # match term for term: D Delta and Delta D list their terms in different
    # orders, but group them into the same columns blade by blade
    references = {
        "q-D": make_dirac(3),
        "q-Dbar": make_dirac_conj(3),
        "n5-D": make_dirac(5),
        "n5-Delta": make_laplacian(5),
        "n5-DeltaD": make_laplacian(5).compose(make_dirac(5)),
        "n5-Dbar": make_dirac_conj(5),
        "n5-D2": make_dirac(5).power(2),
        "n5-DeltaDbar": make_laplacian(5).compose(make_dirac_conj(5)),
        "n5-Dbar2": make_dirac_conj(5).power(2),
    }
    assert set(references) == set(K.catalog_ids())
    cases = [((K.catalog_fixture(cid).n, *K.catalog_fixture(cid).op), ref)
             for cid, ref in references.items()]
    for n in (3, 5, 7):  # the lemma operators
        cases += [((n, "d", 1, 0), make_dirac(n)), ((n, "dbar", 1, 0), make_dirac_conj(n))]
    for args, ref in cases:
        op = named_operator(*args)
        assert op.blade_terms() == ref.blade_terms(), args
        assert named_operator(*args) is op


def test_catalog_arbitration_spot():
    rng = Random(53)
    entry = K.catalog_fixture("n5-Delta")
    s, x = K.sample_point_pair(5, rng)
    oracle = oracle_apply(named_operator(5, *entry.op), K.kernel_closure(K.cauchy_left, s), x)
    assert entry.printed(s, x) != oracle
    assert entry.corrected(s, x) == oracle


def test_sample_point_pair_is_deterministic_and_regular():
    a1 = K.sample_point_pair(5, Random("fixed"))
    a2 = K.sample_point_pair(5, Random("fixed"))
    assert a1[0] == a2[0] and a1[1] == a2[1]
    for _ in range(20):
        s, x = K.sample_point_pair(3, Random(_))
        assert not same_sphere(s, x)
        assert K.pseudo_denominator(s, x).norm_sq()


def test_series_pair_radius():
    for seed in range(5):
        s, x = K.sample_series_pair(3, Random(seed))
        assert 4 * x.norm_sq() <= s.norm_sq()


# -- the plane-form blocks against the paravector compositions they replace


def _q_composed(s, x):
    p = s.pow(2) - s.scale(x.x0 + x.x0)
    return Paravector(p.ring, p.x0 + x.norm_sq(), p.xu)


def _form1_composed(s, x):
    p = x.pow(2) - x.scale(s.x0 + s.x0)
    return Paravector(p.ring, p.x0 + s.norm_sq(), p.xu)


def _smxbar_composed(s, x):
    return (s - x.conjugate()).to_multivector()


def _blocks(s, x):
    """(Q, form-I denominator, s - xbar), from the kernels and composed."""
    built = (K.pseudo_denominator(s, x), K.pseudo_denominator(x, s), K._smxbar(s, x))
    return built, (_q_composed(s, x), _form1_composed(s, x), _smxbar_composed(s, x))


def _float_bits(value):
    """Coordinates or blades as float.hex, so a signed zero, an inf or a NaN counts."""
    if isinstance(value, Paravector):
        return [c.hex() for c in value.coords()]
    return [(m, c.hex()) for m, c in value.blades.items()]


_EXTREME = st.sampled_from([0.0, -0.0, math.inf, -math.inf])


def _float_paravector(n):
    coord = st.one_of(st.floats(min_value=-2.0, max_value=2.0), _EXTREME)
    return st.tuples(st.lists(coord, min_size=n + 1, max_size=n + 1),
                     st.integers(min_value=-500, max_value=500))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(_float_paravector(n), _float_paravector(n))))
def test_plane_blocks_match_compositions_bit_for_bit_over_floats(pair):
    (sc, se), (xc, xe) = pair
    s = Paravector.from_coords(FLOATS, [math.ldexp(c, se) for c in sc])
    x = Paravector.from_coords(FLOATS, [math.ldexp(c, xe) for c in xc])
    built, composed = _blocks(s, x)
    assert list(map(_float_bits, built)) == list(map(_float_bits, composed))


_FRACTION = st.fractions(min_value=-64, max_value=64, max_denominator=64)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(*[st.lists(_FRACTION, min_size=n + 1, max_size=n + 1)] * 2)))
def test_plane_blocks_match_compositions_over_rationals(pair):
    s, x = (Paravector.from_coords(R, coords) for coords in pair)
    built, composed = _blocks(s, x)
    assert built == composed


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(*[st.lists(_FRACTION, min_size=n + 1, max_size=n + 1)] * 2)),
    st.integers(min_value=1, max_value=3))
def test_plane_blocks_match_compositions_over_exact_jets(pair, order):
    sc, xc = pair
    num_vars = len(xc)
    corners = tuple(tuple(order if k == i else 0 for k in range(num_vars))
                    for i in range(num_vars))
    ring = JetRing(jet_context(num_vars, corners))
    # x varies in every coordinate, s also moves along the first one
    x = Paravector.from_coords(ring, [ring.seed(i, c) for i, c in enumerate(xc)])
    s = Paravector.from_coords(ring, [ring.seed(0, sc[0]), *sc[1:]])
    built, composed = _blocks(s, x)
    assert built == composed


def test_kernels_build_their_blocks_without_paravector_arithmetic(monkeypatch):
    # Q and s - xbar come from coordinates: only the power Q^-m is a
    # Paravector method call, and each kernel makes its one Clifford product
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(clifford, "geometric_product",
                        counted("product", clifford.geometric_product))
    for name in ("pow", "scale", "__sub__", "conjugate"):
        monkeypatch.setattr(Paravector, name, counted(name, getattr(Paravector, name)))
    s = Paravector.from_coords(FLOATS, [0.5, 1.5, -0.25, 0.75])
    x = Paravector.from_coords(FLOATS, [0.3, 0.1, -0.2, 0.4])
    K.cauchy_left(s, x, form="II")
    assert counts == {"product": 1}
    counts.clear()
    K.fueter_sce_kernel(s, x)
    assert counts == {"product": 1, "pow": 1}


def _scaled_paravector(n):
    """Coordinates in [-2, 2] or a signed zero, times 2^e for e up to 600 in size."""
    coord = st.one_of(st.floats(min_value=-2.0, max_value=2.0), st.sampled_from([0.0, -0.0]))
    return st.builds(lambda cs, e: Paravector.from_coords(FLOATS, [math.ldexp(c, e) for c in cs]),
                     st.lists(coord, min_size=n + 1, max_size=n + 1),
                     st.integers(min_value=-600, max_value=600))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 5]).flatmap(lambda n: st.tuples(
    st.lists(_scaled_paravector(n), min_size=1, max_size=6), _scaled_paravector(n),
    st.booleans())))
def test_kernels_over_lanes_are_the_float_kernels_lane_by_lane(case):
    # every lane that stays finite holds its node's float kernel, bit for
    # bit but for a zero's sign (a node drops a zero blade, a lane keeps
    # it); a node whose float kernel raises reads NaN in its lane, unless
    # the kernel is zero in every lane (every lane is s = xbar), which hides it
    nodes, x, on_sphere = case
    if on_sphere:
        nodes[0] = x.conjugate()  # s on [x]: singular, or out of range
    columns = zip(*(s.coords() for s in nodes))
    x0, *xu = (Lanes(list(c)) for c in columns)
    lanes = Paravector(FLOATS, x0, xu)
    for kernel in (lambda s, y: K.cauchy_left(s, y, form="II"), K.fueter_sce_kernel):
        got = kernel(lanes, x).blades
        for j, s in enumerate(nodes):
            lane = {m: c.v[j] for m, c in got.items()}
            try:
                alone = kernel(s, x).blades
            except (SingularKernel, InvalidParams, ZeroNorm):
                assert not got or any(map(math.isnan, lane.values()))
                continue
            if all(map(math.isfinite, lane.values())):
                assert {m: v.hex() for m, v in lane.items() if v} == \
                    {m: v.hex() for m, v in alone.items()}
