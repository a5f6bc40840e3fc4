"""Exact combinatorial coefficients for the kernel formulas.

Everything here is big-integer arithmetic; no floats.  The binomial follows
a guarded convention: equal upper and lower index gives 1 even when both
are negative.  That convention is what makes the boundary reduction of the
even/odd coefficient families to the polyanalytic kernel literally true,
and every consequence is cross-validated against the differentiation
oracle in the kernel suites.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidParams


def factorial(k: int) -> int:
    if k < 0:
        raise InvalidParams(f"factorial of negative {k}")
    return math.factorial(k)


def binomial_guarded(p: int, q: int) -> int:
    """Binomial with degenerate conventions: C(p,p)=1 always, 0 out of range."""
    if p == q:
        return 1
    if q < 0 or p < 0:
        return 0
    if q > p:
        return 0
    return math.comb(p, q)


def pochhammer_neg(alpha: int, beta: int) -> int:
    """Rising factorial (-alpha)_beta = (-alpha)(-alpha+1)...(-alpha+beta-1).

    Zero when beta > alpha (the product crosses zero), else
    (-1)^beta * alpha!/(alpha-beta)!.
    """
    if alpha < 0 or beta < 0:
        raise InvalidParams("pochhammer_neg needs nonnegative arguments")
    if beta > alpha:
        return 0
    value = factorial(alpha) // factorial(alpha - beta)
    return -value if beta & 1 else value


def h_of(n: int) -> int:
    """(n-1)/2 for odd dimension n."""
    if n < 1 or n % 2 == 0:
        raise InvalidParams(f"dimension {n} must be odd and >= 1")
    return (n - 1) // 2


def gamma_n(n: int) -> int:
    """4^h h! (-h)_h for h=(n-1)/2; the constant in the Fueter-Sce kernel."""
    if n < 3:
        raise InvalidParams("gamma_n needs odd n >= 3")
    h = h_of(n)
    return 4**h * factorial(h) * pochhammer_neg(h, h)


def gamma_m(h_n: int, m: int) -> int:
    """4^m m! (-h_n)_m, the Laplacian-power kernel constant."""
    if h_n < 0 or m < 0:
        raise InvalidParams("gamma_m needs nonnegative h_n, m")
    return 4**m * factorial(m) * pochhammer_neg(h_n, m)


def sigma_nm(h_n: int, m: int) -> int:
    """2^(2m-1) (m-1)! (-h_n)_m, the harmonic kernel constant; 1 <= m <= h_n."""
    if not 1 <= m <= h_n:
        raise InvalidParams(f"sigma_nm needs 1 <= m <= h_n, got m={m}, h_n={h_n}")
    return 2 ** (2 * m - 1) * factorial(m - 1) * pochhammer_neg(h_n, m)


# -- coefficient families ------------------------------------------------
#
# a1/b1 pair with odd Dirac powers beta = 2k+1, a2/b2 with even beta = 2k;
# the bold families A1/B1/A2/B2 play the same roles for the conjugate
# Dirac operator.  Every family is one product with its own offsets
# (e, f, g, p, q, r, t):
#
#   2^(2j+e) (m+k+j+f)! (k-j+g)! C(k+j+p, 2j+q) C(h_n-m-k-j+r, h_n-m-2k+t)

FAMILIES = {
    "a1": (1, 1, -1, 0, 1, -2, -1),
    "b1": (0, 0, 0, 0, 0, -1, -1),
    "a2": (0, 0, -1, -1, 0, -1, 0),
    "b2": (1, 0, -1, 0, 1, -1, 0),
    "A1": (1, 1, 0, 1, 1, -2, -2),
    "B1": (0, 0, 1, 0, 0, -1, -2),
    "A2": (0, 0, 0, 0, 0, -1, -1),
    "B2": (1, 0, 0, 0, 1, -1, -1),
}


def coeff(family: str, j: int, k: int, m: int, h_n: int) -> int:
    """Coefficient j of `family` (a key of FAMILIES) at Dirac half-power k."""
    e, f, g, p, q, r, t = FAMILIES[family]
    return (
        2 ** (2 * j + e)
        * factorial(m + k + j + f)
        * factorial(k - j + g)
        * binomial_guarded(k + j + p, 2 * j + q)
        * binomial_guarded(h_n - m - k - j + r, h_n - m - 2 * k + t)
    )


def sigma_gamma_link(h_n: int, m: int) -> bool:
    """-2 (h_n - m) gamma_m equals sigma at m+1, for 0 <= m < h_n."""
    if not 0 <= m < h_n:
        raise InvalidParams("link needs 0 <= m < h_n")
    return -2 * (h_n - m) * gamma_m(h_n, m) == sigma_nm(h_n, m + 1)


# -- identity checkers ----------------------------------------------------


class IdentityCase(NamedTuple):
    identity: str
    h_n: int
    m: int
    k: int
    j: int


def _only_j0(k: int) -> range:
    """The j range of an identity that takes no j."""
    return range(1)


# identity -> (least k, d, the j range at k): the admissible parameters are
# k >= least k, 0 <= m <= h_n - 2k - d and j in that range.  The lowercase
# identities arise when one more Dirac operator is applied at even power
# 2*k2, so they need k2 >= 1 and h_n >= m + 2*k2; the uppercase ones step
# from odd power 2*k1+3 to 2*k1+4 and need k1 >= 0 and h_n >= m + 2*k1 + 3.
IDENTITY_RANGES = {
    "c1": (1, 0, _only_j0),
    "c2": (1, 0, lambda k: range(0, k - 1)),
    "c3": (1, 0, _only_j0),
    "c4": (1, 0, lambda k: range(1, k)),
    "c5": (1, 0, _only_j0),
    "C1": (0, 3, lambda k: range(0, k + 1)),
    "C2": (0, 3, _only_j0),
    "C3": (0, 3, lambda k: range(0, k + 1)),
    "C4": (0, 3, _only_j0),
}
LOWER_IDENTITIES = tuple(i for i in IDENTITY_RANGES if i.islower())
UPPER_IDENTITIES = tuple(i for i in IDENTITY_RANGES if i.isupper())


def check_appendix_identity(identity: str, h_n: int, m: int, k: int, j: int = 0) -> bool:
    """Exact LHS-RHS evaluation of one coefficient identity; True iff zero.

    `k` is k2 for the lowercase identities and k1 for the uppercase ones.
    Parameters outside the identity's range (`IDENTITY_RANGES`) raise.
    """
    if identity not in IDENTITY_RANGES:
        raise InvalidParams(f"unknown identity {identity!r}")
    least_k, d, js = IDENTITY_RANGES[identity]
    if not (k >= least_k and 0 <= m <= h_n - 2 * k - d and j in js(k)):
        raise InvalidParams(f"{identity} is not defined at h_n={h_n}, m={m}, k={k}, j={j}")
    if identity == "c1":
        lhs = 2 * (m + 2 * k) * coeff("b2", k - 1, k, m, h_n)
        rhs = 2 * coeff("a1", k - 1, k, m, h_n)
    elif identity == "c2":
        lhs = ((-2 * j - 2) * coeff("a2", j + 1, k, m, h_n)
               + 2 * (m + k + j + 1) * coeff("b2", j, k, m, h_n))
        rhs = 2 * coeff("a1", j, k, m, h_n)
    elif identity == "c3":
        lhs = 2 * coeff("a2", 0, k, m, h_n) * (h_n - m - k) - coeff("b2", 0, k, m, h_n)
        rhs = 2 * coeff("b1", 0, k, m, h_n)
    elif identity == "c4":
        lhs = (
            2 * coeff("a2", j, k, m, h_n) * (h_n - m - j - k)
            + 4 * (m + k + j) * coeff("b2", j - 1, k, m, h_n)
            - (2 * j + 1) * coeff("b2", j, k, m, h_n)
        )
        rhs = 2 * coeff("b1", j, k, m, h_n)
    elif identity == "c5":
        lhs = 4 * (m + 2 * k) * coeff("b2", k - 1, k, m, h_n)
        rhs = 2 * coeff("b1", k, k, m, h_n)
    elif identity == "C1":
        lhs = (-(2 * j + 1) * coeff("a1", j, k + 1, m, h_n)
               + 2 * (m + k + j + 2) * coeff("b1", j, k + 1, m, h_n))
        rhs = 2 * coeff("a2", j, k + 2, m, h_n)
    elif identity == "C2":
        lhs = 2 * (m + 2 * k + 3) * coeff("b1", k + 1, k + 1, m, h_n)
        rhs = 2 * coeff("a2", k + 1, k + 2, m, h_n)
    elif identity == "C3":
        lhs = (
            2 * (h_n - m - k - 2 - j) * coeff("a1", j, k + 1, m, h_n)
            + 4 * (m + k + j + 2) * coeff("b1", j, k + 1, m, h_n)
            - 2 * (j + 1) * coeff("b1", j + 1, k + 1, m, h_n)
        )
        rhs = 2 * coeff("b2", j, k + 2, m, h_n)
    else:  # C4
        lhs = 4 * (m + 2 * k + 3) * coeff("b1", k + 1, k + 1, m, h_n)
        rhs = 2 * coeff("b2", k + 1, k + 2, m, h_n)
    return lhs == rhs


def appendix_cases(hn_max: int):
    """Every admissible parameter combination of the nine identities, by
    h_n, then identity, k, m and j."""
    for h_n in range(1, hn_max + 1):
        for ident, (least_k, d, js) in IDENTITY_RANGES.items():
            for k in range(least_k, (h_n - d) // 2 + 1):
                for m in range(0, h_n - 2 * k - d + 1):
                    for j in js(k):
                        yield IdentityCase(ident, h_n, m, k, j)


def check_stifel(p: int, q: int) -> bool:
    """Pascal rule C(p,q) = C(p-1,q) + C(p-1,q-1) for standard-range arguments."""
    if p < 1 or not 0 <= q <= p:
        raise InvalidParams("stifel check needs p >= 1, 0 <= q <= p")
    return binomial_guarded(p, q) == binomial_guarded(p - 1, q) + binomial_guarded(
        p - 1, q - 1
    )


def _boundary_families(h_n: int, m: int):
    """(A, B, k) at beta = h_n - m: ("A1", "B1", k1) for odd beta = 2 k1 + 1
    and ("A2", "B2", k2) for even beta = 2 k2, the bold families of that parity."""
    beta = h_n - m
    if beta < 1:
        raise InvalidParams("boundary needs m < h_n")
    families = ("A1", "B1") if beta % 2 else ("A2", "B2")
    return (*families, beta // 2)


def boundary_vanishing_holds(h_n: int, m: int) -> bool:
    """At beta = h_n - m all non-surviving bold coefficients vanish and the
    survivor equals 2^(h_n-m) h_n!."""
    A, B, k = _boundary_families(h_n, m)
    # B runs over j < k + (beta mod 2) = beta - k, as in the kernel sums
    return (coeff(A, k, k, m, h_n) == 2 ** (h_n - m) * factorial(h_n)
            and not any(coeff(A, j, k, m, h_n) for j in range(k))
            and not any(coeff(B, j, k, m, h_n) for j in range(h_n - m - k)))
