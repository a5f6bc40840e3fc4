import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
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
from slicekernels.rings import FLOATS, RATIONALS, Lanes, jet_ring

R = RATIONALS
SRC = Path(__file__).resolve().parent.parent / "src"


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
    jring = jet_ring(4, ((1, 1, 0, 0), (0, 0, 2, 0)))
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


def _written_block(s, x, formula, m, k):
    """A lemma block as written, multiplied out in Clifford products."""
    qp = K.pseudo_inverse(s, x).pow(m).to_multivector()
    smxbar = K._smxbar(s, x)
    smx0 = K._smx0(s, x)
    if formula == 1:
        return smxbar * qp
    if formula == 2:
        return qp
    if formula == 3:
        return smx0.pow(k).to_multivector() * qp
    return smxbar * qp * smx0.pow(k).to_multivector()


@pytest.mark.parametrize("n", [3, 5, 7, 15])
def test_block_is_the_written_product(n):
    rng = Random(59 + n)
    for _ in range(2):
        s, x = K.sample_point_pair(n, rng)
        for formula in (1, 2, 3, 4):
            for m in range(5):
                for k in range(4):
                    assert K._block(s, x, formula, m, k) == _written_block(s, x, formula, m, k)
    with pytest.raises(InvalidParams, match="unknown block formula 5"):
        K._block(s, x, 5, 1, 0)
    with pytest.raises(InvalidParams, match="m >= 0 and k >= 0"):
        K._block(s, x, 3, 1, -1)


# Each row at a fresh copy of its point, so that no call meets a point the
# last one seeded or built a chain at: the values without any sharing.
_UNSHARED_ROWS = """
import pickle, sys
from slicekernels import kernels as K
calls = pickle.load(sys.stdin.buffer)
out = [K.lemma_block_lhs_rhs(*pickle.loads(point), *row) for point, row in calls]
sys.stdout.buffer.write(pickle.dumps(out))
"""


def test_lemma_rows_at_alternating_points_give_the_unshared_values():
    rng = Random(67)
    a, b = K.sample_point_pair(5, rng), K.sample_point_pair(5, rng)
    a_copy = pickle.loads(pickle.dumps(a))  # equal to a, distinct objects
    assert a_copy == a and a_copy[0] is not a[0] and a_copy[1] is not a[1]
    mixed = (b[0], a[1])  # the x of a, seeded once, at another s
    assert not same_sphere(*mixed)
    rows = [(lemma, formula, m, k) for m, k in ((1, 0), (2, 3)) for formula in (1, 3, 4)
            for lemma in (K.LEMMA_DIRAC, K.LEMMA_DIRAC_CONJ)]
    calls = ([(a, row) for row in rows] + [(b, row) for row in rows]
             + [(point, row) for row in rows for point in (a_copy, b, a, mixed)]
             + [(point, row) for row in rows for point in (a, a_copy)])
    got = [K.lemma_block_lhs_rhs(*point, *row) for point, row in calls]
    proc = subprocess.run([sys.executable, "-c", _UNSHARED_ROWS], capture_output=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
                          input=pickle.dumps([(pickle.dumps(p), row) for p, row in calls]))
    assert got == pickle.loads(proc.stdout)
    assert all(lhs == rhs for lhs, rhs in got)


def test_lemma_oracle_shares_no_helper_with_the_printed_side(monkeypatch):
    # the printed sides first, then every helper they build from refuses
    rng = Random(61)
    rows = [(s, x, lemma, formula, m, k, K.lemma_rhs(s, x, lemma, formula, m, k))
            for n in (3, 5)
            for lemma in (K.LEMMA_DIRAC, K.LEMMA_DIRAC_CONJ)
            for formula in (1, 2, 3, 4)
            for m, k in ((1, 0), (2, 3))
            for s, x in [K.sample_point_pair(n, rng)]]

    def refused(*args, **kwargs):
        raise AssertionError("the lemma oracle called a helper of the printed side")

    for name in ("pseudo_inverse", "_smxbar", "_smx0", "pseudo_denominator", "pseudo_cauchy_pow"):
        monkeypatch.setattr(K, name, refused)
    for name in ("pow", "powers"):
        monkeypatch.setattr(Paravector, name, refused)
    for s, x, lemma, formula, m, k, rhs in rows:
        monkeypatch.setattr(K, "_lemma_rhs", lambda *args: rhs)
        lhs, _ = K.lemma_block_lhs_rhs(s, x, lemma, formula, m, k)
        assert lhs == rhs


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
    flagged = {cid for cid in K.catalog_ids() if K.catalog_fixture(cid).corrected_text}
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


# The call each oracle row's closed form and each flagged catalog entry's
# oracle-confirmed form made before `closed_form` picked them: the kernel's
# name, its arguments after (s, x) and its keywords, or None for zero.
FORMER_ROW_CALLS = {
    "theorem": lambda p: (f"{p['op']}_beta_delta_m_kernel", (p["m"], p["beta"]), {}),
    "laplacian-power-oracle": lambda p: ("laplacian_power_kernel", (p["m"],), {}),
    "fueter-link": lambda p: ("fueter_sce_kernel", (), {"side": p["side"]}),
    "monogenic": lambda p: None,
    "polyharmonic": lambda p: None,
}
FORMER_CORRECTED_CALLS = {
    "n5-Delta": ("laplacian_power_kernel", (1,), {}),
    "n5-D2": ("d_beta_delta_m_kernel", (0, 2), {}),
    "n5-Dbar2": ("dbar_beta_delta_m_kernel", (0, 2), {}),
}


@pytest.mark.parametrize("ring", (RATIONALS, FLOATS), ids=("exact", "float"))
def test_closed_form_calls_the_kernel_each_row_and_flagged_entry_called(monkeypatch, ring):
    from slicekernels import suites

    cases = []  # (op, source, n, former call)
    for suite, kinds in suites.SUITES.items():
        for kind in kinds:
            check = suites.CHECKS[kind]
            if check.oracle:
                for p in check.grid(suites.SuiteConfig(suite, n_values=(3, 5, 7, 15))):
                    cases.append((*check.oracle(p), p["n"], FORMER_ROW_CALLS[kind](p)))
    assert {kind for kind, check in suites.CHECKS.items() if check.oracle} == set(FORMER_ROW_CALLS)
    flagged = {cid for cid in K.catalog_ids() if K.catalog_fixture(cid).corrected_text}
    assert flagged == set(FORMER_CORRECTED_CALLS)
    for cid, call in FORMER_CORRECTED_CALLS.items():
        cases.append((K.catalog_fixture(cid).op, ("cauchy-left",), 5, call))

    kernels = {name: getattr(K, name) for name in (
        "d_beta_delta_m_kernel", "dbar_beta_delta_m_kernel", "laplacian_power_kernel",
        "fueter_sce_kernel")}
    calls = []
    for name, kernel in kernels.items():
        monkeypatch.setattr(K, name, lambda s, x, *args, _name=name, _kernel=kernel, **kw: (
            calls.append((_name, args, kw)) or _kernel(s, x, *args, **kw)))
    rng = Random(71)
    points = {n: K.sample_point_pair(n, rng, ring=ring) for n in (3, 5, 7, 15)}
    for op, source, n, former in cases:
        s, x = points[n]
        calls.clear()
        got = K.closed_form(op, source, s, x)
        if former is None:
            assert calls == [] and got == Multivector.zero(n, ring), (op, source, n)
            continue
        assert calls == [former], (op, source, n)
        name, args, kw = former
        want = kernels[name](s, x, *args, **kw)
        assert got.ring is want.ring is ring
        if ring is RATIONALS:
            assert got == want, (op, source, n)
        else:
            assert {m: c.hex() for m, c in got.blades.items()} == {
                m: c.hex() for m, c in want.blades.items()}, (op, source, n)


def test_closed_form_refuses_every_other_pair():
    s, x = K.sample_point_pair(5, Random(73))  # h_n = 2
    refused = [
        (("d", 1, 0), ("cauchy-right",)), (("dbar", 2, 0), ("cauchy-right",)),
        (("dbar", 1, 0), ("fueter-sce",)), (("d", 0, 1), ("fueter-sce",)),
        (("d", 1, 2), ("harmonic", 1)), (("d", 0, 0), ("cauchy-left",)),
        (("d", 0, 3), ("cauchy-left",)), (("d", 2, 1), ("cauchy-left",)),
        (("d", 1, 0), ("cauchy",)), (("d", 1, 0), ("cauchy-left", 1)),
        (("d", 0, 2), ("harmonic",)), (("d", 0, 2), ("harmonic", 1, 1)),
        (("D", 1, 0), ("cauchy-left",)), (("d", -1, 0), ("cauchy-left",)),
        (("d", 0, -2), ("cauchy-left",)), (("d", 1.0, 0), ("cauchy-left",)),
        (("d", True, 0), ("cauchy-left",)), (("d", 0, 0), ("harmonic", 3)),
        (("d", 0, 3), ("harmonic", 0)), (("d", 0, 2), ("harmonic", True)),
        (("d", 0, 2), ("harmonic", 1.0)), (("d", 0, 2), ("harmonic", "1")),
        (("d", 1), ("cauchy-left",)), (("d", 1, 0, 0), ("cauchy-left",)),
        (("d", 1, 0), ()),
    ]
    refused += [(("d", 0, k), ("harmonic", m)) for m in (1, 2) for k in range(5) if k != 3 - m]
    for op, source in refused:
        with pytest.raises(InvalidParams):
            K.closed_form(op, source, s, x)
    for m in (1, 2):  # the one power that the source's m admits
        assert K.closed_form(("d", 0, 3 - m), ("harmonic", m), s, x) == Multivector.zero(5, R)


def test_public_kernels_refuse_an_index_that_is_not_an_int():
    # a float or bool m, beta or ell is refused as bad input, not read as an
    # int by a range or a power
    s, x = K.sample_point_pair(5, Random(74))
    for call in [
        lambda: K.d_beta_delta_m_kernel(s, x, 0, 1.0),
        lambda: K.d_beta_delta_m_kernel(s, x, 0.0, 1),
        lambda: K.dbar_beta_delta_m_kernel(s, x, True, 1),
        lambda: K.dbar_beta_delta_m_kernel(s, x, 0, True),
        lambda: K.harmonic_kernel(s, x, 1.5),
        lambda: K.harmonic_kernel(s, x, True),
        lambda: K.laplacian_power_kernel(s, x, 1.5),
        lambda: K.polyanalytic_kernel(s, x, 0.5),
        lambda: K.polyanalytic_kernel(s, x, False),
    ]:
        with pytest.raises(InvalidParams):
            call()


def test_catalog_arbitration_spot():
    rng = Random(53)
    entry = K.catalog_fixture("n5-Delta")
    s, x = K.sample_point_pair(5, rng)
    oracle = oracle_apply(named_operator(5, *entry.op), K.kernel_closure(K.cauchy_left, s), x)
    assert entry.printed(s, x) != oracle
    assert K.closed_form(entry.op, ("cauchy-left",), s, x) == oracle


def test_corrected_texts_read_as_their_closed_forms():
    # the report's "oracle-confirmed: ..." note names text that is checked
    flagged = [K.catalog_fixture(cid) for cid in K.catalog_ids()
               if K.catalog_fixture(cid).corrected_text]
    assert len(flagged) == 3
    rng = Random(59)
    for _ in range(20):
        s, x = K.sample_point_pair(5, rng)
        for entry in flagged:
            assert K.quoted_value(entry.corrected_text, s, x) == K.closed_form(
                entry.op, ("cauchy-left",), s, x), entry.id


def test_quoted_values_read_their_terms_in_order():
    s, x = K.sample_point_pair(3, Random(61))
    f3, smx0 = K.fueter_sce_kernel(s, x), K._smx0(s, x)
    assert K.quoted_value("-F^3*s + x0*F^3", s, x) == -(f3 * s.to_multivector()) + f3.scale(x.x0)
    assert K.quoted_value("3*(s-x0)^2 - Q^-1", s, x) == (
        smx0.pow(2).to_multivector().scale(3) - K.pseudo_cauchy_pow(s, x, 1))
    assert K.quoted_value("(s-x0)", s, x) == smx0.to_multivector()


@pytest.mark.parametrize("text", ["2*P^-1", "F^5", "Q^2", "(s-x0)^-1", "2", "2*Q^-1 + "])
def test_unknown_quoted_factor_is_refused(text):
    s, x = K.sample_point_pair(3, Random(67))
    with pytest.raises(InvalidParams):
        K.quoted_value(text, s, x)


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
    ring = jet_ring(num_vars, corners)
    # x varies in every coordinate, s also moves along the first one
    x = Paravector.from_coords(ring, [ring.seed(i, c) for i, c in enumerate(xc)])
    s = Paravector.from_coords(ring, [ring.seed(0, sc[0]), *sc[1:]])
    built, composed = _blocks(s, x)
    assert built == composed


@st.composite
def _sphere_pairs(draw):
    """Rational (s, x): unrelated, s on [x] (the same x0 and a permuted vector
    part), or with zero vector parts, their x0 equal or not."""
    n = draw(st.integers(min_value=1, max_value=5))
    coords = st.lists(_FRACTION, min_size=n + 1, max_size=n + 1)
    s, x = draw(coords), draw(coords)
    kind = draw(st.sampled_from(["unrelated", "on-sphere", "zero-vector"]))
    if kind == "on-sphere":
        s = [x[0], *draw(st.permutations(x[1:]))]
    elif kind == "zero-vector":
        if draw(st.booleans()):
            s = [s[0]] + [0] * n
        if draw(st.booleans()):
            x = [x[0]] + [0] * n
        if draw(st.booleans()):
            x[0] = s[0]
    return Paravector.from_coords(R, s), Paravector.from_coords(R, x)


@settings(max_examples=200, deadline=None)
@given(_sphere_pairs())
def test_same_sphere_is_a_vanishing_pseudo_denominator(pair):
    # sample_point_pair rejects s on [x] by same_sphere, in place of the
    # norm of Q_{c,s}(x): both must decide the same points
    s, x = pair
    assert same_sphere(s, x) == (not K.pseudo_denominator(s, x).norm_sq())


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


def _series_sums(s, x, terms):
    return list(K.cauchy_series_sums(s, x, terms))


@pytest.mark.parametrize("n", [3, 15])
def test_exact_closed_forms_do_no_fraction_arithmetic(monkeypatch, n):
    # exact blocks, powers and products run on int numerators: Fractions are
    # built and read (points, prefactors), never added, multiplied or divided
    rng = Random(n)
    s, x = K.sample_point_pair(n, rng)
    ops = [(1, 0), (2, 0), (1, 1), (2, 1), (3, 2)] if n > 3 else [(1, 0)]
    calls = [(K._lemma_rhs, lemma, formula, s, x, 2, 3)
             for lemma in (K.LEMMA_DIRAC, K.LEMMA_DIRAC_CONJ) for formula in (1, 2, 3, 4)]
    calls += [(kernel, s, x, m, beta) for beta, m in ops
              for kernel in (K.d_beta_delta_m_kernel, K.dbar_beta_delta_m_kernel)]
    calls += [(K.pseudo_cauchy_pow, s, x, 3), (_series_sums, *K.sample_series_pair(n, rng), 8)]
    # form I's x - sbar and the sphere test also run on numerators
    calls += [(kernel, s, x, "I") for kernel in (K.cauchy_left, K.cauchy_right)]
    calls += [(same_sphere, s, x), (same_sphere, s, s.conjugate().scale(Fraction(1, 3)))]
    expected = [fn(*args) for fn, *args in calls]

    def refused(*args):
        raise AssertionError("Fraction arithmetic in an exact closed form")

    for name in ("add", "sub", "mul", "truediv"):
        monkeypatch.setattr(Fraction, f"__{name}__", refused)
        monkeypatch.setattr(Fraction, f"__r{name}__", refused)
    got = [fn(*args) for fn, *args in calls]
    monkeypatch.undo()
    assert got == expected


def _hex(v):
    return [c.hex() for c in v.v] if isinstance(v, Lanes) else v.hex()


def _sum_sq_from_zero(coords):
    acc = 0.0
    for c in coords:
        acc = acc + c * c
    return acc


@pytest.mark.parametrize("n", [3, 5])
def test_float_and_lane_paravector_paths_match_per_coordinate_loops(n):
    # left to right, as before numerators: |x|^2 from the first square, the
    # vector norm from 0.0 (0.0 + y is y for y >= +0, so both starts agree)
    rng = Random(300 + n)

    def point():
        return [rng.uniform(-2, 2) * 2.0 ** rng.randint(-30, 30) for _ in range(n + 1)]

    nodes = [point() for _ in range(4)]
    for p in nodes:
        p[2:] = [0.0] * (n - 1)  # off the plane of e1: 0.0 at every node
    # as `quadrature._nodes` builds them: a plain 0.0 where every lane is zero
    x0, *xu = (Lanes(list(c)) if any(c) else 0.0 for c in zip(*nodes))
    lanes = Paravector(FLOATS, x0, xu)
    floats = [Paravector.from_coords(FLOATS, c) for c in (point(), point())]
    for x, y in ((floats[0], floats[1]), (lanes, floats[0]), (floats[1], lanes), (lanes, lanes)):
        xc, yc = x.coords(), y.coords()
        ns = xc[0] * xc[0]
        for c in xc[1:]:
            ns = ns + c * c
        assert _hex(x.norm_sq()) == _hex(ns)
        assert _hex(x.vector_norm_sq()) == _hex(_sum_sq_from_zero(xc[1:]))
        assert list(map(_hex, (x + y).coords())) == [_hex(a + b) for a, b in zip(xc, yc)]
        assert list(map(_hex, (x - y).coords())) == [_hex(a - b) for a, b in zip(xc, yc)]
        on = not (xc[0] - yc[0]) and not (_sum_sq_from_zero(xc[1:]) - _sum_sq_from_zero(yc[1:]))
        assert same_sphere(x, y) == on
        (s0, *su), x0 = xc, yc[0]
        a = ((s0 * s0 - _sum_sq_from_zero(su)) - s0 * (x0 + x0)) + y.norm_sq()
        q = [a] + [(s0 + s0) * c - c * (x0 + x0) for c in su]
        assert list(map(_hex, K.pseudo_denominator(x, y).coords())) == list(map(_hex, q))
    assert same_sphere(lanes, lanes) and same_sphere(floats[0], floats[0].conjugate())


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


def _plane_point(n):
    """A point of the plane of e1 in dimension n, scaled as `_scaled_paravector`."""
    return _scaled_paravector(1).map(
        lambda p: Paravector(FLOATS, p.x0, (p.xu[0],) + (0.0,) * (n - 1)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 5, 9]).flatmap(lambda n: st.tuples(
    st.lists(_plane_point(n), min_size=1, max_size=6), _scaled_paravector(n),
    st.booleans())))
def test_kernels_over_plane_lanes_are_the_float_kernels_lane_by_lane(case):
    # the twin of the test above, with nodes in the plane of e1 built as
    # `quadrature._nodes` builds a C_{e1} contour's: each coordinate off the
    # plane is one plain 0.0, and a product by it is the plain 0.0 only
    # while every lane is finite, so a node whose float kernel raises reads
    # NaN in every blade of its lane
    nodes, x, on_sphere = case
    n = x.n
    if on_sphere:  # s on [x] in the plane of e1: singular, or out of range
        nodes[0] = Paravector(FLOATS, x.x0, (math.hypot(*x.xu),) + (0.0,) * (n - 1))
    # a contour's nodes vary in x0 and e1, so those two are always lanes
    x0, x1 = (Lanes(list(c)) for c in zip(*((s.x0, s.xu[0]) for s in nodes)))
    lanes = Paravector(FLOATS, x0, (x1,) + (0.0,) * (n - 1))
    # Q^-1 by coordinate, a plain 0.0 included, and each kernel by blade
    kernels = (lambda s, y: dict(enumerate(K.pseudo_inverse(s, y).coords())),
               lambda s, y: K.cauchy_left(s, y, form="II").blades,
               lambda s, y: K.cauchy_right(s, y, form="II").blades,
               lambda s, y: K.fueter_sce_kernel(s, y).blades)
    for kernel in kernels:
        got = kernel(lanes, x)
        for j, s in enumerate(nodes):
            lane = {m: c.v[j] if isinstance(c, Lanes) else c for m, c in got.items()}
            try:
                alone = kernel(s, x)
            except (SingularKernel, InvalidParams, ZeroNorm):
                assert all(map(math.isnan, lane.values()))
                continue
            if all(map(math.isfinite, lane.values())):
                assert {m: v.hex() for m, v in lane.items() if v} == \
                    {m: v.hex() for m, v in alone.items() if v}
