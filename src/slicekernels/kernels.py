"""Closed-form kernels: Cauchy kernels, their Dirac/Laplacian derivatives,
and the Fueter-Sce kernel, together with regression fixtures for values
quoted in the quaternionic and five-dimensional literature, each kept as its
quoted text and read by `quoted_value`.

Every formula is evaluated in its exact written multiplication order; no
commutation shortcuts are applied outside the commutative plane generated
by the parameter paravector s.  The same code paths evaluate over exact
rationals, floats, and jets.  Rows that name a `source` are decided by
`axial.apply`, which shares no code with these forms.  The jet oracle runs
them over jets only in `axial-link` (`suites.JET_SOURCES`) and in the lemma
rows, whose `_block` is built from `pseudo_inverse`, `_smxbar` and `_smx0`,
the helpers of the printed side `_lemma_rhs` it is checked against.

The shared blocks, Q_{c,s}(x) in its plane form (see `pseudo_denominator`),
its form-I twin with s and x exchanged, and s - xbar, are built in one pass
from coordinates, with the operations of the paravector compositions they
stand for in the same order, so float values match those bit for bit.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple, Optional

from . import coeffs as cf
from .clifford import Multivector, Paravector, same_sphere
from .diffop import named_operator, oracle_apply
from .errors import InvalidParams, SingularKernel
from .rings import RATIONALS, Lanes


def _plane_quadratic(s: Paravector, x: Paravector, x_norm_sq) -> Paravector:
    """Q_{c,s}(x), given x_norm_sq = |x|^2."""
    s._check(x)
    s0, two_x0 = s.x0, x.x0 + x.x0
    two_s0 = s0 + s0
    a = ((s0 * s0 - s.vector_norm_sq()) - s0 * two_x0) + x_norm_sq
    return Paravector(s.ring, a, tuple(two_s0 * c - c * two_x0 for c in s.xu))


def pseudo_denominator(s: Paravector, x: Paravector) -> Paravector:
    """Q_{c,s}(x) = s^2 - 2 x0 s + |x|^2, a paravector in the plane of s.

    Built from coordinates as a + b s_u, with a = ((s0 s0 - |s_u|^2) -
    s0 (2 x0)) + |x|^2 and each vector coordinate (s0 + s0) s_i - s_i (2 x0),
    in that order.  These are the operations of s.pow(2) - s.scale(2 x0)
    with |x|^2 then added to its scalar part; the plane recurrence of
    `pow` only adds products by an exact 1, so the two agree bit for bit.
    """
    return _plane_quadratic(s, x, x.norm_sq())


# the float singularity guard's bound on |Q|^2 / (|s|^2 + |x|^2)^2
SINGULAR_TOL = 1e-12


def _singular_scale(s: Paravector, x_norm_sq) -> float:
    # Q is homogeneous of degree 2 in (s, x), so |Q|^2 scales as (|s|^2 + |x|^2)^2
    ring = s.ring
    base = ring.magnitude(s.norm_sq()) + ring.magnitude(x_norm_sq)
    return base * base


def _checked_denominator(s: Paravector, x: Paravector) -> tuple:
    """(Q_{c,s}(x), |Q|^2), raising SingularKernel when s lies on [x].

    The test follows the value of |Q|^2, as `Paravector._inverse` does.  A
    float is compared against a tolerance relative to the squared
    magnitudes of s and x.  When either side of that test leaves float
    range, it is made on copies of s and x divided by a power of two, which
    is exact and leaves the relative test unchanged because Q is
    homogeneous; |Q|^2 is still that of Q. A Q that overflows, or that
    underflows to zero off [x], raises InvalidParams.  Over node lanes
    (`Lanes`), a lane that would take the rescale or raise gets NaN for
    |Q|^2, so its inverse and kernel read NaN.  Any other value (a rational
    or a jet) takes an exact zero test.
    """
    nx = x.norm_sq()
    q = _plane_quadratic(s, x, nx)
    nq = q.norm_sq()
    if isinstance(nq, Lanes):
        bound = SINGULAR_TOL * _singular_scale(s, nx)
        nq = Lanes([t if 0.0 < b < t < math.inf else math.nan for t, b in zip(nq.v, bound.v)])
    elif isinstance(nq, float):
        test, bound = nq, SINGULAR_TOL * _singular_scale(s, nx)
        if test in (0.0, math.inf) or bound in (0.0, math.inf):
            if not all(map(math.isfinite, q.coords())):
                raise InvalidParams("Q_{c,s}(x) lies outside float range")
            e = max(s.binary_exponent(), x.binary_exponent())
            s, x = s.ldexp(-e), x.ldexp(-e)
            nx = x.norm_sq()
            test = _plane_quadratic(s, x, nx).norm_sq()
            bound = SINGULAR_TOL * _singular_scale(s, nx)
        if abs(test) <= bound:
            raise SingularKernel("singular: s in [x]")
        if not nq and not any(q.coords()):
            raise InvalidParams("Q_{c,s}(x) lies outside float range")
    elif not nq:
        raise SingularKernel("singular: s in [x]")
    return q, nq


def check_not_singular(s: Paravector, x: Paravector) -> Paravector:
    """Return Q_{c,s}(x), raising SingularKernel when s lies on [x]."""
    return _checked_denominator(s, x)[0]


def pseudo_inverse(s: Paravector, x: Paravector) -> Paravector:
    q, nq = _checked_denominator(s, x)
    return q._inverse(nq)


def pseudo_cauchy_pow(s: Paravector, x: Paravector, m: int) -> Multivector:
    """Q_{c,s}^{-m}(x) for m >= 1."""
    if m < 1:
        raise InvalidParams("pseudo-Cauchy power needs m >= 1")
    return pseudo_inverse(s, x).pow(m).to_multivector()


def _smxbar(s: Paravector, x: Paravector) -> Multivector:
    """The block s - xbar: blades s0 - x0 and s_i + x_i, the nonzero ones;
    a - (-b) is a + b exactly over floats, rationals and jets."""
    s._check(x)
    blades = {0: v} if (v := s.x0 - x.x0) else {}
    for i, (a, b) in enumerate(zip(s.xu, x.xu)):
        if v := a + b:
            blades[1 << i] = v
    return Multivector._make(s.n, s.ring, blades)


def _smx0(s: Paravector, x: Paravector) -> Paravector:
    """The block s - x0, a paravector in the plane of s."""
    return Paravector(x.ring, s.x0 - x.x0, s.xu)


def cauchy_left(s: Paravector, x: Paravector, form: str = "II") -> Multivector:
    """Left Cauchy kernel for slice hyperholomorphic functions."""
    return _cauchy(s, x, form, left=True)


def cauchy_right(s: Paravector, x: Paravector, form: str = "II") -> Multivector:
    """Right Cauchy kernel; mirror multiplication order of the left one."""
    return _cauchy(s, x, form, left=False)


def _cauchy(s: Paravector, x: Paravector, form: str, left: bool) -> Multivector:
    """a * b on the left, b * a on the right: form II is (s - xbar) Q^{-1},
    form I is -P^{-1} (x - sbar), with P = Q with s and x exchanged."""
    if form == "II":
        a, b = _smxbar(s, x), pseudo_inverse(s, x).to_multivector()
        return a * b if left else b * a
    if form == "I":
        check_not_singular(s, x)
        # x^2 - 2 x s0 + |s|^2, Q with s and x exchanged; its norm vanishes
        # exactly when s is on [x]
        a = pseudo_denominator(x, s).inverse().to_multivector()
        b = (x - s.conjugate()).to_multivector()
        return -(a * b if left else b * a)
    raise InvalidParams(f"unknown form {form!r}")


def cauchy_series_sums(s: Paravector, x: Paravector, terms: int):
    """The partial sums of x^k s^(-1-k) over k = 0..K, for K = 0..terms."""
    xk, sk = x.powers(terms), s.inverse().powers(terms + 1)
    acc = Multivector.zero(s.n, s.ring)
    for k in range(terms + 1):
        acc = acc + xk[k].to_multivector() * sk[k + 1].to_multivector()
        yield acc


def cauchy_series_partial(s: Paravector, x: Paravector, terms: int) -> Multivector:
    """Partial sum of x^k s^(-1-k) for k = 0..terms; needs |x| < |s|."""
    if terms < 0:
        raise InvalidParams("series needs a nonnegative truncation index")
    if not x.norm_sq() < s.norm_sq():
        raise InvalidParams("series requires |x| < |s|")
    *_, acc = cauchy_series_sums(s, x, terms)
    return acc


def fueter_sce_kernel(s: Paravector, x: Paravector, side: str = "left") -> Multivector:
    """gamma_n (s - xbar) Q^{-h-1} (left) or gamma_n Q^{-h-1} (s - xbar) (right)."""
    n = x.n
    h = cf.h_of(n)
    if n < 3:
        raise InvalidParams("Fueter-Sce kernel needs odd n >= 3")
    g = cf.gamma_n(n)
    qp = pseudo_cauchy_pow(s, x, h + 1)
    smxbar = _smxbar(s, x)
    if side == "left":
        return (smxbar * qp).scale(g)
    if side == "right":
        return (qp * smxbar).scale(g)
    raise InvalidParams(f"unknown side {side!r}")


def _admissible(n: int, m: int, beta: int) -> int:
    h = cf.h_of(n)
    if beta < 1 or m < 0 or m + beta > h:
        raise InvalidParams(
            f"need beta >= 1, m >= 0, m + beta <= h_n = {h}; got m={m}, beta={beta}"
        )
    return h


def _beta_delta_m_sums(s, x, m: int, beta: int, h: int, first, second, extra: int, combine):
    """(s - xbar) * sum_j first(j) Q^-(m+1+k+p+j) (s-x0)^(2j+p), combined with
    sum_j second(j) Q^-(m+1+k+j) (s-x0)^(2j+1-p), where p = beta mod 2 and
    k = beta // 2. The first sum runs over j < k + extra, the second over
    j < k + p; `first` and `second` name the coefficient families of the parity.
    """
    ring = x.ring
    qinv = pseudo_inverse(s, x)
    smxbar = _smxbar(s, x)
    smx0 = _smx0(s, x)
    p, k = beta % 2, beta // 2
    qk, sk = qinv.powers(m + beta + extra), smx0.powers(beta + extra - 1)
    acc = Multivector.zero(x.n, ring)
    for j in range(0, k + extra):
        term = qk[m + 1 + k + p + j].to_multivector() * sk[2 * j + p].to_multivector()
        acc = acc + term.scale(cf.coeff(first, j, k, m, h))
    acc = smxbar * acc
    for j in range(0, k + p):
        term = qk[m + 1 + k + j].to_multivector() * sk[2 * j + 1 - p].to_multivector()
        acc = combine(acc, term.scale(cf.coeff(second, j, k, m, h)))
    return acc


def d_beta_delta_m_kernel(s: Paravector, x: Paravector, m: int, beta: int) -> Multivector:
    """Closed form of D^beta Laplacian^m applied to the left Cauchy kernel (form II)."""
    h = _admissible(x.n, m, beta)
    families = ("a1", "b1") if beta % 2 else ("a2", "b2")
    acc = _beta_delta_m_sums(s, x, m, beta, h, *families, extra=0, combine=operator.sub)
    pref = Fraction(2**beta * (h - m) * cf.gamma_m(h, m), cf.factorial(m))
    return acc.scale(x.ring.lift(pref))


def dbar_beta_delta_m_kernel(s: Paravector, x: Paravector, m: int, beta: int) -> Multivector:
    """Closed form of Dbar^beta Laplacian^m applied to the left Cauchy kernel."""
    h = _admissible(x.n, m, beta)
    families = ("A1", "B1") if beta % 2 else ("A2", "B2")
    acc = _beta_delta_m_sums(s, x, m, beta, h, *families, extra=1, combine=operator.add)
    return acc.scale(2**beta * 4**m * cf.pochhammer_neg(h, m))


def harmonic_kernel(s: Paravector, x: Paravector, m: int) -> Multivector:
    """sigma_{n,m} Q^{-m}: image of the Cauchy kernel under D Laplacian^(m-1)."""
    n = x.n
    h = cf.h_of(n)
    if not 1 <= m <= h:
        raise InvalidParams(f"harmonic kernel needs 1 <= m <= {h}")
    return pseudo_cauchy_pow(s, x, m).scale(cf.sigma_nm(h, m))


def laplacian_power_kernel(s: Paravector, x: Paravector, m: int) -> Multivector:
    """gamma_m (s - xbar) Q^{-m-1}: image under Laplacian^m; m = h_n gives the
    Fueter-Sce kernel."""
    n = x.n
    h = cf.h_of(n)
    if not 1 <= m <= h:
        raise InvalidParams(f"laplacian power kernel needs 1 <= m <= {h}")
    qp = pseudo_cauchy_pow(s, x, m + 1)
    return (_smxbar(s, x) * qp).scale(cf.gamma_m(h, m))


def polyanalytic_kernel(s: Paravector, x: Paravector, ell: int) -> Multivector:
    """((-1)^(h-l)/(h-l)!) F_L^n (s-x0)^(h-l): image under Laplacian^l Dbar^(h-l)."""
    n = x.n
    h = cf.h_of(n)
    if not 0 <= ell <= h:
        raise InvalidParams(f"polyanalytic kernel needs 0 <= ell <= {h}")
    ring = x.ring
    power = h - ell
    coef = Fraction((-1) ** power, cf.factorial(power))
    f = fueter_sce_kernel(s, x, side="left")
    return (f * _smx0(s, x).pow(power).to_multivector()).scale(ring.lift(coef))


# -- building-block derivative identities ---------------------------------
#
# The blocks (s-xbar) Q^{-m}, Q^{-m}, (s-x0)^k Q^{-m}, (s-xbar) Q^{-m} (s-x0)^k
# have closed forms under D and Dbar; the suites compare those against the
# oracle applied to the block itself.

LEMMA_DIRAC = "dirac"
LEMMA_DIRAC_CONJ = "dirac-conj"


def _block(s, x, formula: int, m: int, k: int) -> Multivector:
    qp = pseudo_inverse(s, x).pow(m).to_multivector()
    smxbar = _smxbar(s, x)
    smx0 = _smx0(s, x)
    if formula == 1:
        return smxbar * qp
    if formula == 2:
        return qp
    if formula == 3:
        return smx0.pow(k).to_multivector() * qp
    if formula == 4:
        return smxbar * qp * smx0.pow(k).to_multivector()
    raise InvalidParams(f"unknown block formula {formula}")


# The printed sides, keyed by (lemma, formula).  Each term is its coefficient,
# an integer times m, k, h - m or h - m + 1, then its factors in written order:
# "b" is s - xbar, "q" and "q1" are Q^-m and Q^-(m+1), "p-", "p" and "p+" are
# (s-x0)^(k-1), (s-x0)^k and (s-x0)^(k+1).  Formulas 1 and 2 read k = 0.
_LEMMA_SIDES = {
    (LEMMA_DIRAC, 1): ((-2, "h-m+1", "q"),),
    (LEMMA_DIRAC, 2): ((4, "m", "p+", "q1"), (-2, "m", "b", "q1")),
    (LEMMA_DIRAC, 3): ((4, "m", "p+", "q1"), (-2, "m", "b", "q1", "p"), (-1, "k", "p-", "q")),
    (LEMMA_DIRAC, 4): ((-2, "h-m+1", "q", "p"), (-1, "k", "b", "q", "p-")),
    (LEMMA_DIRAC_CONJ, 1): ((2, "h-m", "q"), (4, "m", "b", "p+", "q1")),
    (LEMMA_DIRAC_CONJ, 2): ((2, "m", "b", "q1"),),
    (LEMMA_DIRAC_CONJ, 3): ((2, "m", "b", "p", "q1"), (-1, "k", "p-", "q")),
    (LEMMA_DIRAC_CONJ, 4): ((2, "h-m", "q", "p"), (4, "m", "b", "q1", "p+"),
                            (-1, "k", "b", "p-", "q")),
}


def _printed_sum(terms, factor, n: int, ring) -> Multivector:
    """A printed side: each term (c, names) with a nonzero c is its factors
    `factor(name)` multiplied left to right, then scaled by c; the terms are
    added in order."""
    out = Multivector.zero(n, ring)
    for c, (first, *rest) in terms:
        if c:
            term = factor(first)
            for name in rest:
                term = term * factor(name)
            out = out + term.scale(c)
    return out


def _lemma_rhs(lemma: str, formula: int, s, x, m: int, k: int) -> Multivector:
    """The printed side of a lemma block, from its row of `_LEMMA_SIDES`."""
    if m < 0 or k < 0:
        raise InvalidParams("lemma blocks need m >= 0 and k >= 0")
    terms = _LEMMA_SIDES.get((lemma, formula))
    if terms is None:
        raise InvalidParams(f"unknown lemma {lemma!r} or formula {formula}")
    k = k if formula in (3, 4) else 0
    h = cf.h_of(x.n)
    weights = {"m": m, "k": k, "h-m": h - m, "h-m+1": h - m + 1}
    qm, qm1 = (q.to_multivector() for q in pseudo_inverse(s, x).powers(m + 1)[m:])
    p = [None] + [v.to_multivector() for v in _smx0(s, x).powers(k + 1)]  # p[j] = (s-x0)^(j-1)
    factors = {"b": _smxbar(s, x), "q": qm, "q1": qm1, "p-": p[k], "p": p[k + 1], "p+": p[k + 2]}
    return _printed_sum(((a * weights[w], names) for a, w, *names in terms),
                        factors.__getitem__, x.n, x.ring)


def lemma_rhs(s: Paravector, x: Paravector, lemma: str, formula: int, m: int,
              k: int = 0) -> Multivector:
    """The printed side of a lemma block alone, without the oracle."""
    return _lemma_rhs(lemma, formula, s, x, m, k)


def lemma_block_lhs_rhs(s: Paravector, x: Paravector, lemma: str, formula: int, m: int,
                        k: int = 0) -> tuple[Multivector, Multivector]:
    """LHS by differentiation oracle, RHS by the printed closed form."""
    rhs = _lemma_rhs(lemma, formula, s, x, m, k)
    op = named_operator(x.n, "d" if lemma == LEMMA_DIRAC else "dbar", 1, 0)
    lhs = oracle_apply(op, kernel_closure(_block, s, formula=formula, m=m, k=k), x)
    return lhs, rhs


# -- literature catalog ----------------------------------------------------

# A sign starts a term at the start of the text or after a space, so the signs
# inside (s-xbar), (s-x0) and Q^-k do not.
_TERM_SIGN = re.compile(r"(?:^|\s+)([+-])\s*")


def _quoted_factor(name: str, s: Paravector, x: Paravector) -> Multivector:
    """One factor of a quoted value: s, (s-xbar), F^n (the Fueter-Sce kernel
    F_L^n of the dimension n of x), (s-x0) or (s-x0)^k, or Q^-k."""
    base, hat, power = name.partition("^")
    if name == "s":
        return s.to_multivector()
    if name == "(s-xbar)":
        return _smxbar(s, x)
    if name == f"F^{x.n}":
        return fueter_sce_kernel(s, x)
    if base == "(s-x0)" and (not hat or power.isdecimal()):
        return _smx0(s, x).pow(int(power or 1)).to_multivector()
    if base == "Q" and power[:1] == "-" and power[1:].isdecimal():
        return pseudo_cauchy_pow(s, x, int(power[1:]))
    raise InvalidParams(f"unknown factor {name!r} in a quoted value")


def quoted_value(text: str, s: Paravector, x: Paravector) -> Multivector:
    """The value of a quoted formula at (s, x), such as
    "16*Q^-2*(s-x0) - 8*(s-xbar)*Q^-2".  Terms are joined by " + " or " - ";
    a term is an optional coefficient, an integer or x0, then its factors
    (see `_quoted_factor`), joined by "*".  It is evaluated as a printed
    side: factors left to right, then the coefficient, terms in order."""
    parts = _TERM_SIGN.split(text if text.startswith(("+", "-")) else "+" + text)
    terms = []
    for sign, body in zip(parts[1::2], parts[2::2]):
        coeff, *names = body.split("*")
        if coeff == "x0":
            c = x.x0
        elif coeff.isdecimal():
            c = int(coeff)
        else:
            c, names = 1, [coeff, *names]
        if not names:
            raise InvalidParams(f"term {body!r} of {text!r} has no factor")
        terms.append((-c if sign == "-" else c, names))
    return _printed_sum(terms, lambda name: _quoted_factor(name, s, x), x.n, x.ring)


class CatalogEntry(NamedTuple):
    """One kernel value quoted in earlier work, kept verbatim as its text.

    `op` names the operator applied to the left Cauchy kernel as
    (base, beta, m), as an oracle row of the suites does, and `printed_text`
    is the quoted value, read by `quoted_value`.  An entry that disagrees
    with the oracle is flagged by giving `corrected`, the library closed form
    of the oracle-confirmed value, and `corrected_text`, that value as text.
    """

    id: str
    n: int
    op: tuple
    printed_text: str
    corrected: Optional[Callable[[Paravector, Paravector], Multivector]] = None
    corrected_text: str = ""

    def printed(self, s: Paravector, x: Paravector) -> Multivector:
        return quoted_value(self.printed_text, s, x)


_CATALOG = {e.id: e for e in (
    CatalogEntry("q-D", 3, ("d", 1, 0), "-2*Q^-1"),
    CatalogEntry("q-Dbar", 3, ("dbar", 1, 0), "-F^3*s + x0*F^3"),
    CatalogEntry("n5-D", 5, ("d", 1, 0), "-4*Q^-1"),
    # quoted sign disagrees with the Laplacian-power kernel at m=1
    CatalogEntry("n5-Delta", 5, ("d", 0, 1), "8*(s-xbar)*Q^-2",
                 lambda s, x: laplacian_power_kernel(s, x, 1), "-8*(s-xbar)*Q^-2"),
    CatalogEntry("n5-DeltaD", 5, ("d", 1, 1), "16*Q^-2"),
    CatalogEntry("n5-Dbar", 5, ("dbar", 1, 0), "4*(s-xbar)*Q^-2*(s-x0) + 2*Q^-1"),
    # quoted value is the negation of the oracle-confirmed one
    CatalogEntry("n5-D2", 5, ("d", 2, 0), "16*Q^-2*(s-x0) - 8*(s-xbar)*Q^-2",
                 lambda s, x: d_beta_delta_m_kernel(s, x, 0, 2),
                 "8*(s-xbar)*Q^-2 - 16*Q^-2*(s-x0)"),
    CatalogEntry("n5-DeltaDbar", 5, ("dbar", 1, 1), "-64*(s-xbar)*Q^-3*(s-x0)"),
    # quoted exponent 3 disagrees; the boundary reduction gives 2
    CatalogEntry("n5-Dbar2", 5, ("dbar", 2, 0), "32*(s-xbar)*Q^-3*(s-x0)^3",
                 lambda s, x: dbar_beta_delta_m_kernel(s, x, 0, 2),
                 "32*(s-xbar)*Q^-3*(s-x0)^2"),
)}


def catalog_ids() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog_fixture(entry_id: str) -> CatalogEntry:
    try:
        return _CATALOG[entry_id]
    except KeyError:
        raise InvalidParams(f"unknown catalog id {entry_id!r}") from None


# -- seeded random points ---------------------------------------------------


def _random_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-16, 16), rng.randint(1, 16))


def sample_point_pair(n: int, rng: Random, ring=RATIONALS) -> tuple[Paravector, Paravector]:
    """Random (s, x) with small rational coordinates and s off the sphere [x].

    Rejection keeps the pseudo-Cauchy denominator invertible and both
    points nonzero; results are exact rationals, cast afterwards for float
    suites so the same seed drives both modes.
    """
    while True:
        s = Paravector.from_coords(RATIONALS, [_random_fraction(rng) for _ in range(n + 1)])
        x = Paravector.from_coords(RATIONALS, [_random_fraction(rng) for _ in range(n + 1)])
        # Q_{c,s}(x) = 0 exactly when s is on [x], so same_sphere decides it
        if not any(s.coords()) or not any(x.coords()) or same_sphere(s, x):
            continue
        if ring is not RATIONALS:
            return s.cast(ring), x.cast(ring)
        return s, x


def sample_series_pair(n: int, rng: Random) -> tuple[Paravector, Paravector]:
    """Random (s, x) with dyadic coordinates and |x|/|s| <= 1/2, exact."""
    while True:
        s = Paravector.from_coords(
            RATIONALS,
            [Fraction(rng.randint(-16, 16), 2 ** rng.randint(0, 4)) for _ in range(n + 1)],
        )
        if not s.norm_sq():
            continue
        x = Paravector.from_coords(
            RATIONALS,
            [Fraction(rng.randint(-16, 16), 2 ** rng.randint(0, 4)) for _ in range(n + 1)],
        )
        while 4 * x.norm_sq() > s.norm_sq():
            x = x.scale(Fraction(1, 2))
        return s, x


def kernel_closure(kernel, s: Paravector, **options):
    """kernel(s, x, **options) as a function f(x) with s baked in, cast to
    the ring of x: the form `oracle_apply` evaluates over jets."""
    return lambda x: kernel(s.cast(x.ring), x, **options)


def cauchy_closure(s: Paravector):
    """The left Cauchy kernel (form II) as a function of x; the benchmark's
    tracer test calls it under this name."""
    return kernel_closure(cauchy_left, s)
