from random import Random

import pytest

from slicekernels import kernels as K
from slicekernels.clifford import Multivector, Paravector, parse_multivector, same_sphere
from slicekernels.diffop import make_dirac, make_laplacian, oracle_apply
from slicekernels.errors import InvalidParams, SingularKernel
from slicekernels.rings import FLOATS, RATIONALS

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
        oracle = oracle_apply(make_laplacian(n).power(h), K.cauchy_closure(s), x)
        assert oracle == K.fueter_sce_kernel(s, x)
        assert oracle_apply(make_dirac(n), K.fueter_sce_closure(s), x).is_zero()


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
        opD = operator_power_compose(make_dirac(n), beta, m)
        assert oracle_apply(opD, K.cauchy_closure(s), x) == K.d_beta_delta_m_kernel(s, x, m, beta)
        opDb = operator_power_compose(make_dirac_conj(n), beta, m)
        assert oracle_apply(opDb, K.cauchy_closure(s), x) == K.dbar_beta_delta_m_kernel(s, x, m, beta)


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
    assert value.is_paravector()


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
    flagged = {cid for cid in K.catalog_ids() if not K.catalog_fixture(cid).expected_match}
    assert flagged == {"n5-Delta", "n5-D2", "n5-Dbar2"}
    for cid in flagged:
        assert K.catalog_fixture(cid).corrected is not None
    with pytest.raises(InvalidParams):
        K.catalog_fixture("n7-D")


def test_catalog_arbitration_spot():
    rng = Random(53)
    entry = K.catalog_fixture("n5-Delta")
    s, x = K.sample_point_pair(5, rng)
    oracle = oracle_apply(entry.op_factory(), K.cauchy_closure(s), x)
    assert entry.printed(s, x) != oracle
    assert entry.corrected(s, x) == oracle


def test_kernel_spec_validation():
    with pytest.raises(InvalidParams):
        K.KernelSpec(n=4, flavor="cauchy-II").validate()
    with pytest.raises(InvalidParams):
        K.KernelSpec(n=3, flavor="harmonic", side="right").validate()
    with pytest.raises(InvalidParams):
        K.KernelSpec(n=3, flavor="mystery").validate()
    spec = K.KernelSpec(n=3, flavor="cauchy-II")
    out = K.evaluate_spec(spec, S2_N3, X_E1_N3)
    assert out.value == mv(3, "2/5 + 1/5*e1")
    assert out.spec is spec


def test_sample_point_pair_is_deterministic_and_regular():
    a1 = K.sample_point_pair(5, Random("fixed"))
    a2 = K.sample_point_pair(5, Random("fixed"))
    assert a1[0] == a2[0] and a1[1] == a2[1]
    for _ in range(20):
        s, x = K.sample_point_pair(3, Random(_))
        assert not same_sphere(s, x)
        assert not R.is_zero(K.pseudo_denominator(s, x).norm_sq())


def test_series_pair_radius():
    for seed in range(5):
        s, x = K.sample_series_pair(3, Random(seed))
        assert 4 * x.norm_sq() <= s.norm_sq()
