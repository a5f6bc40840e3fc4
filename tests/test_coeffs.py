import hashlib
import math

import pytest

from slicekernels import coeffs as cf
from slicekernels.errors import InvalidParams


def test_binomial_guarded():
    assert cf.binomial_guarded(5, 2) == 10
    assert cf.binomial_guarded(0, -1) == 0
    assert cf.binomial_guarded(-1, -1) == 1
    assert cf.binomial_guarded(3, 7) == 0
    assert cf.binomial_guarded(-2, -1) == 0
    assert cf.binomial_guarded(4, 0) == 1


def test_pochhammer_neg():
    assert cf.pochhammer_neg(2, 2) == 2       # (-2)(-1)
    assert cf.pochhammer_neg(1, 1) == -1
    assert cf.pochhammer_neg(6, 0) == 1       # empty product
    assert cf.pochhammer_neg(2, 3) == 0       # crosses zero
    # matches the gamma-quotient definition on the nonzero range
    for a in range(0, 9):
        for b in range(0, a + 1):
            expect = (-1) ** b * math.factorial(a) // math.factorial(a - b)
            assert cf.pochhammer_neg(a, b) == expect


def test_gamma_and_sigma_values():
    assert cf.gamma_n(3) == -4
    assert cf.gamma_n(5) == 64
    assert cf.gamma_n(7) == -2304
    assert cf.gamma_m(2, 1) == -8
    assert cf.gamma_m(4, 0) == 1
    assert cf.sigma_nm(2, 1) == -4
    with pytest.raises(InvalidParams):
        cf.sigma_nm(3, 0)
    with pytest.raises(InvalidParams):
        cf.gamma_n(2)


def test_gamma_n_equals_gamma_m_at_top():
    for n in (3, 5, 7, 9, 11):
        h = cf.h_of(n)
        assert cf.gamma_n(n) == cf.gamma_m(h, h)


def test_family_values():
    assert cf.coeff("b1", 0, 0, 3, 5) == math.factorial(3)
    assert cf.coeff("a1", 0, 1, 1, 4) == 12     # 2*3!*1*C(1,1)*C(0,0)
    assert cf.coeff("b2", 0, 1, 1, 4) == 4
    assert cf.coeff("A1", 0, 0, 0, 2) == 2
    assert cf.coeff("B1", 0, 0, 0, 2) == 1
    # at the boundary beta = h_n - m only the survivor 2^(h_n-m) h_n! is left
    for h in range(1, 13):
        for m in range(0, h):
            assert cf.boundary_vanishing_holds(h, m)


def test_families_are_integers():
    for h in range(1, 8):
        for m in range(0, h):
            for k in range(0, (h - m) // 2 + 1):
                for j in range(0, k + 1):
                    for family in ("b1", "A1", "B1", "A2", "B2"):
                        assert isinstance(cf.coeff(family, j, k, m, h), int)
                    if j < k:
                        for family in ("a1", "a2", "b2"):
                            assert isinstance(cf.coeff(family, j, k, m, h), int)


def test_family_table_digest():
    # every family's value (or the type of the error it raises) over
    # h_n <= 12, 0 <= m, k <= h_n and 0 <= j <= k + 1, hashed in this order;
    # the digest was taken from the eight separately written family formulas
    # that the offset table replaced
    lines = []
    for family in ("a1", "b1", "a2", "b2", "A1", "B1", "A2", "B2"):
        for h in range(13):
            for m in range(h + 1):
                for k in range(h + 1):
                    for j in range(k + 2):
                        try:
                            out = cf.coeff(family, j, k, m, h)
                        except Exception as exc:
                            out = type(exc).__name__
                        lines.append(f"{family} {h} {m} {k} {j} {out}")
    assert len(lines) == 42952
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "4b51907bf0afc19a02a7402ae648ff2427e201ab70d754218c5e46d857f00162"


def test_appendix_identity_spot_cases():
    # c1 with k2=1, m=1, h=4: both sides evaluate to 24
    assert 2 * (1 + 2) * cf.coeff("b2", 0, 1, 1, 4) == 24
    assert 2 * cf.coeff("a1", 0, 1, 1, 4) == 24
    assert cf.check_appendix_identity("c1", 4, 1, 1)
    # c5 with k2=1, m=0, h=3
    assert cf.check_appendix_identity("c5", 3, 0, 1)
    assert cf.check_stifel(6, 3)


def test_appendix_identities_all_admissible():
    count = 0
    for case in cf.appendix_cases(12):
        assert cf.check_appendix_identity(case.identity, case.h_n, case.m, case.k, case.j), case
        count += 1
    assert count > 1000


def test_appendix_out_of_range_params_raise():
    with pytest.raises(InvalidParams):
        cf.check_appendix_identity("c2", 8, 0, 1, j=0)   # c2 needs j <= k2-2
    with pytest.raises(InvalidParams):
        cf.check_appendix_identity("zz", 4, 0, 1)
    # m and k outside the range, where the sides once compared anyway
    with pytest.raises(InvalidParams, match=r"^c3 is not defined at h_n=3, m=5, k=1, j=0$"):
        cf.check_appendix_identity("c3", 3, 5, 1)
    with pytest.raises(InvalidParams, match=r"^c1 is not defined at h_n=2, m=0, k=5, j=0$"):
        cf.check_appendix_identity("c1", 2, 0, 5)


def test_appendix_cases_are_exactly_the_parameters_the_checker_admits():
    hn_max = 9
    admitted = []
    for h in range(0, hn_max + 1):
        for ident in cf.IDENTITY_RANGES:
            for k in range(-1, h + 2):
                for m in range(-1, h + 2):
                    for j in range(-1, k + 3):
                        try:
                            cf.check_appendix_identity(ident, h, m, k, j)
                        except InvalidParams:
                            continue
                        admitted.append(cf.IdentityCase(ident, h, m, k, j))
    assert sorted(admitted, key=repr) == sorted(cf.appendix_cases(hn_max), key=repr)


def test_sigma_gamma_link():
    for h in range(1, 13):
        for m in range(0, h):
            assert cf.sigma_gamma_link(h, m)


def test_boundary_vanishing():
    for h in range(1, 13):
        for m in range(0, h):
            assert cf.boundary_vanishing_holds(h, m)
