"""Closed-form kernels: Cauchy kernels, their Dirac/Laplacian derivatives,
and the Fueter-Sce kernel, together with regression fixtures for values
quoted in the quaternionic and five-dimensional literature.

Every formula is evaluated in its exact written multiplication order; no
commutation shortcuts are applied outside the commutative plane generated
by the parameter paravector s.  The same code paths evaluate over exact
rationals, floats, and jets, so the differentiation oracle exercises the
identical kernel expressions it is checked against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Optional

from . import coeffs as cf
from .clifford import Multivector, Paravector, same_sphere
from .diffop import (
    DiffOperator,
    make_dirac,
    make_dirac_conj,
    make_laplacian,
    oracle_apply,
)
from .errors import InvalidParams, SingularKernel
from .rings import RATIONALS, FloatRing


def pseudo_denominator(s: Paravector, x: Paravector) -> Paravector:
    """Q_{c,s}(x) = s^2 - 2 x0 s + |x|^2, a paravector in the plane of s."""
    s._check(x)
    two_x0 = x.x0 + x.x0
    s2 = s.pow(2)
    shifted = s.scale(two_x0)
    return (s2 - shifted).add_scalar(x.norm_sq())


def _singular_scale(s: Paravector, x: Paravector) -> float:
    ring = s.ring
    base = 1.0 + ring.magnitude(s.norm_sq()) + ring.magnitude(x.norm_sq())
    return base * base


def check_not_singular(s: Paravector, x: Paravector) -> Paravector:
    """Return Q_{c,s}(x), raising SingularKernel when s lies on [x].

    Exact zero test over exact rings; over floats the norm of Q is compared
    against a tolerance relative to the squared magnitudes of s and x.
    """
    q = pseudo_denominator(s, x)
    nq = q.norm_sq()
    ring = s.ring
    if isinstance(ring, FloatRing):
        if abs(nq) <= ring.tol * _singular_scale(s, x):
            raise SingularKernel("singular: s in [x]")
    elif ring.is_zero(nq):
        raise SingularKernel("singular: s in [x]")
    return q


def pseudo_inverse(s: Paravector, x: Paravector) -> Paravector:
    return check_not_singular(s, x).inverse()


def pseudo_cauchy_pow(s: Paravector, x: Paravector, m: int) -> Multivector:
    """Q_{c,s}^{-m}(x) for m >= 1."""
    if m < 1:
        raise InvalidParams("pseudo-Cauchy power needs m >= 1")
    return pseudo_inverse(s, x).pow(m).to_multivector()


def _form1_denominator(s: Paravector, x: Paravector) -> Paravector:
    # x^2 - 2 x s0 + |s|^2; its norm vanishes exactly when s is on [x]
    two_s0 = s.x0 + s.x0
    return (x.pow(2) - x.scale(two_s0)).add_scalar(s.norm_sq())


def cauchy_left(s: Paravector, x: Paravector, form: str = "II") -> Multivector:
    """Left Cauchy kernel for slice hyperholomorphic functions."""
    if form == "II":
        qinv = pseudo_inverse(s, x)
        return (s - x.conjugate()).to_multivector() * qinv.to_multivector()
    if form == "I":
        check_not_singular(s, x)
        p = _form1_denominator(s, x)
        pinv = p.inverse().to_multivector()
        return -(pinv * (x - s.conjugate()).to_multivector())
    raise InvalidParams(f"unknown form {form!r}")


def cauchy_right(s: Paravector, x: Paravector, form: str = "II") -> Multivector:
    """Right Cauchy kernel; mirror multiplication order of the left one."""
    if form == "II":
        qinv = pseudo_inverse(s, x)
        return qinv.to_multivector() * (s - x.conjugate()).to_multivector()
    if form == "I":
        check_not_singular(s, x)
        p = _form1_denominator(s, x)
        pinv = p.inverse().to_multivector()
        return -((x - s.conjugate()).to_multivector() * pinv)
    raise InvalidParams(f"unknown form {form!r}")


def cauchy_series_partial(s: Paravector, x: Paravector, terms: int) -> Multivector:
    """Partial sum of x^k s^(-1-k) for k = 0..terms; needs |x| < |s|."""
    if terms < 0:
        raise InvalidParams("series needs a nonnegative truncation index")
    ring = s.ring
    if not x.norm_sq() < s.norm_sq():
        raise InvalidParams("series requires |x| < |s|")
    sinv = s.inverse()
    acc = Multivector.zero(s.n, ring)
    for k in range(terms + 1):
        acc = acc + x.pow(k).to_multivector() * sinv.pow(k + 1).to_multivector()
    return acc


def fueter_sce_kernel(s: Paravector, x: Paravector, side: str = "left") -> Multivector:
    """gamma_n (s - xbar) Q^{-h-1} (left) or gamma_n Q^{-h-1} (s - xbar) (right)."""
    n = x.n
    h = cf.h_of(n)
    if n < 3:
        raise InvalidParams("Fueter-Sce kernel needs odd n >= 3")
    g = cf.gamma_n(n)
    qp = pseudo_inverse(s, x).pow(h + 1).to_multivector()
    smxbar = (s - x.conjugate()).to_multivector()
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
    j < k + p; `first` and `second` are the coefficient families of the parity.
    """
    ring = x.ring
    qinv = pseudo_inverse(s, x)
    smxbar = (s - x.conjugate()).to_multivector()
    smx0 = Paravector(ring, s.x0 - x.x0, s.xu)
    p, k = beta % 2, beta // 2
    acc = Multivector.zero(x.n, ring)
    for j in range(0, k + extra):
        term = qinv.pow(m + 1 + k + p + j).to_multivector() * smx0.pow(2 * j + p).to_multivector()
        acc = acc + term.scale(first(j, k, m, h))
    acc = smxbar * acc
    for j in range(0, k + p):
        term = qinv.pow(m + 1 + k + j).to_multivector() * smx0.pow(2 * j + 1 - p).to_multivector()
        acc = combine(acc, term.scale(second(j, k, m, h)))
    return acc


def d_beta_delta_m_kernel(s: Paravector, x: Paravector, m: int, beta: int) -> Multivector:
    """Closed form of D^beta Laplacian^m applied to the left Cauchy kernel (form II)."""
    h = _admissible(x.n, m, beta)
    families = (cf.coeff_a1, cf.coeff_b1) if beta % 2 else (cf.coeff_a2, cf.coeff_b2)
    acc = _beta_delta_m_sums(s, x, m, beta, h, *families, extra=0, combine=operator.sub)
    pref = Fraction(2**beta * (h - m) * cf.gamma_m(h, m), cf.factorial(m))
    return acc.scale(x.ring.lift(pref))


def dbar_beta_delta_m_kernel(s: Paravector, x: Paravector, m: int, beta: int) -> Multivector:
    """Closed form of Dbar^beta Laplacian^m applied to the left Cauchy kernel."""
    h = _admissible(x.n, m, beta)
    families = (cf.coeff_A1, cf.coeff_B1) if beta % 2 else (cf.coeff_A2, cf.coeff_B2)
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
    qp = pseudo_inverse(s, x).pow(m + 1).to_multivector()
    return ((s - x.conjugate()).to_multivector() * qp).scale(cf.gamma_m(h, m))


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
    smx0 = Paravector(ring, s.x0 - x.x0, s.xu)
    return (f * smx0.pow(power).to_multivector()).scale(ring.lift(coef))


# -- building-block derivative identities ---------------------------------
#
# The blocks (s-xbar) Q^{-m}, Q^{-m}, (s-x0)^k Q^{-m}, (s-xbar) Q^{-m} (s-x0)^k
# have closed forms under D and Dbar; the suites compare those against the
# oracle applied to the block itself.

LEMMA_DIRAC = "dirac"
LEMMA_DIRAC_CONJ = "dirac-conj"


def _block(formula: int, s, x, m: int, k: int) -> Multivector:
    ring = x.ring
    qp = pseudo_inverse(s, x).pow(m).to_multivector()
    smxbar = (s - x.conjugate()).to_multivector()
    smx0 = Paravector(ring, s.x0 - x.x0, s.xu)
    if formula == 1:
        return smxbar * qp
    if formula == 2:
        return qp
    if formula == 3:
        return smx0.pow(k).to_multivector() * qp
    if formula == 4:
        return smxbar * qp * smx0.pow(k).to_multivector()
    raise InvalidParams(f"unknown block formula {formula}")


def _lemma_rhs(lemma: str, formula: int, s, x, m: int, k: int) -> Multivector:
    n = x.n
    h = cf.h_of(n)
    ring = x.ring
    qinv = pseudo_inverse(s, x)
    qm = qinv.pow(m).to_multivector()
    qm1 = qinv.pow(m + 1).to_multivector()
    smxbar = (s - x.conjugate()).to_multivector()
    smx0 = Paravector(ring, s.x0 - x.x0, s.xu)
    if lemma == LEMMA_DIRAC:
        if formula == 1:
            return qm.scale(-2 * (h - m + 1))
        if formula == 2:
            return (smx0.to_multivector() * qm1).scale(4 * m) - (smxbar * qm1).scale(2 * m)
        if formula == 3:
            out = (smx0.pow(k + 1).to_multivector() * qm1).scale(4 * m)
            out = out - (smxbar * qm1 * smx0.pow(k).to_multivector()).scale(2 * m)
            if k > 0:
                out = out - (smx0.pow(k - 1).to_multivector() * qm).scale(k)
            return out
        if formula == 4:
            out = (qm * smx0.pow(k).to_multivector()).scale(2 * (m - h - 1))
            if k > 0:
                out = out - (smxbar * qm * smx0.pow(k - 1).to_multivector()).scale(k)
            return out
    elif lemma == LEMMA_DIRAC_CONJ:
        if formula == 1:
            return qm.scale(2 * (h - m)) + (smxbar * smx0.to_multivector() * qm1).scale(4 * m)
        if formula == 2:
            return (smxbar * qm1).scale(2 * m)
        if formula == 3:
            out = (smxbar * smx0.pow(k).to_multivector() * qm1).scale(2 * m)
            if k > 0:
                out = out - (smx0.pow(k - 1).to_multivector() * qm).scale(k)
            return out
        if formula == 4:
            out = (qm * smx0.pow(k).to_multivector()).scale(2 * (h - m))
            out = out + (smxbar * qm1 * smx0.pow(k + 1).to_multivector()).scale(4 * m)
            if k > 0:
                out = out - (smxbar * smx0.pow(k - 1).to_multivector() * qm).scale(k)
            return out
    raise InvalidParams(f"unknown lemma {lemma!r} or formula {formula}")


def lemma_block_lhs_rhs(
    s: Paravector, x: Paravector, lemma: str, formula: int, m: int, k: int = 0
) -> tuple[Multivector, Multivector]:
    """LHS by differentiation oracle, RHS by the printed closed form."""
    if m < 0 or k < 0:
        raise InvalidParams("lemma blocks need m >= 0 and k >= 0")
    if formula in (1, 2):
        k = 0
    op = make_dirac(x.n) if lemma == LEMMA_DIRAC else make_dirac_conj(x.n)
    s_exact = s

    def block(ring, xx):
        return _block(formula, s_exact.cast(ring), xx, m, k)

    lhs = oracle_apply(op, block, x)
    rhs = _lemma_rhs(lemma, formula, s, x, m, k)
    return lhs, rhs


# -- literature catalog ----------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One kernel value quoted in earlier work, kept verbatim as a fixture.

    `expected_match` is False for quoted entries that disagree with the
    differentiation oracle; for those, `corrected` evaluates the
    oracle-confirmed alternative.
    """

    id: str
    n: int
    op_factory: Callable[[], DiffOperator]
    printed: Callable[[Paravector, Paravector], Multivector]
    printed_text: str
    expected_match: bool
    corrected: Optional[Callable[[Paravector, Paravector], Multivector]] = None
    corrected_text: str = ""
    note: str = ""


def _q_pow(s, x, m):
    return pseudo_inverse(s, x).pow(m).to_multivector()


def _smxbar(s, x):
    return (s - x.conjugate()).to_multivector()


def _smx0(s, x):
    return Paravector(x.ring, s.x0 - x.x0, s.xu)


def _catalog_entries() -> dict[str, CatalogEntry]:
    entries = [
        CatalogEntry(
            id="q-D",
            n=3,
            op_factory=lambda: make_dirac(3),
            printed=lambda s, x: _q_pow(s, x, 1).scale(-2),
            printed_text="-2*Q^-1",
            expected_match=True,
        ),
        CatalogEntry(
            id="q-Dbar",
            n=3,
            op_factory=lambda: make_dirac_conj(3),
            printed=lambda s, x: -(
                fueter_sce_kernel(s, x) * s.to_multivector()
            )
            + fueter_sce_kernel(s, x).scale(x.x0),
            printed_text="-F^3*s + x0*F^3",
            expected_match=True,
        ),
        CatalogEntry(
            id="n5-D",
            n=5,
            op_factory=lambda: make_dirac(5),
            printed=lambda s, x: _q_pow(s, x, 1).scale(-4),
            printed_text="-4*Q^-1",
            expected_match=True,
        ),
        CatalogEntry(
            id="n5-Delta",
            n=5,
            op_factory=lambda: make_laplacian(5),
            printed=lambda s, x: (_smxbar(s, x) * _q_pow(s, x, 2)).scale(8),
            printed_text="8*(s-xbar)*Q^-2",
            expected_match=False,
            corrected=lambda s, x: laplacian_power_kernel(s, x, 1),
            corrected_text="-8*(s-xbar)*Q^-2",
            note="quoted sign disagrees with the Laplacian-power kernel at m=1",
        ),
        CatalogEntry(
            id="n5-DeltaD",
            n=5,
            op_factory=lambda: make_laplacian(5).compose(make_dirac(5)),
            printed=lambda s, x: _q_pow(s, x, 2).scale(16),
            printed_text="16*Q^-2",
            expected_match=True,
        ),
        CatalogEntry(
            id="n5-Dbar",
            n=5,
            op_factory=lambda: make_dirac_conj(5),
            printed=lambda s, x: (
                _smxbar(s, x) * _q_pow(s, x, 2) * _smx0(s, x).to_multivector()
            ).scale(4)
            + _q_pow(s, x, 1).scale(2),
            printed_text="4*(s-xbar)*Q^-2*(s-x0) + 2*Q^-1",
            expected_match=True,
        ),
        CatalogEntry(
            id="n5-D2",
            n=5,
            op_factory=lambda: make_dirac(5).power(2),
            printed=lambda s, x: (
                _q_pow(s, x, 2) * _smx0(s, x).to_multivector()
            ).scale(16)
            - (_smxbar(s, x) * _q_pow(s, x, 2)).scale(8),
            printed_text="16*Q^-2*(s-x0) - 8*(s-xbar)*Q^-2",
            expected_match=False,
            corrected=lambda s, x: d_beta_delta_m_kernel(s, x, 0, 2),
            corrected_text="8*(s-xbar)*Q^-2 - 16*Q^-2*(s-x0)",
            note="quoted value is the negation of the oracle-confirmed one",
        ),
        CatalogEntry(
            id="n5-DeltaDbar",
            n=5,
            op_factory=lambda: make_laplacian(5).compose(make_dirac_conj(5)),
            printed=lambda s, x: (
                _smxbar(s, x) * _q_pow(s, x, 3) * _smx0(s, x).to_multivector()
            ).scale(-64),
            printed_text="-64*(s-xbar)*Q^-3*(s-x0)",
            expected_match=True,
        ),
        CatalogEntry(
            id="n5-Dbar2",
            n=5,
            op_factory=lambda: make_dirac_conj(5).power(2),
            printed=lambda s, x: (
                _smxbar(s, x) * _q_pow(s, x, 3) * _smx0(s, x).pow(3).to_multivector()
            ).scale(32),
            printed_text="32*(s-xbar)*Q^-3*(s-x0)^3",
            expected_match=False,
            corrected=lambda s, x: dbar_beta_delta_m_kernel(s, x, 0, 2),
            corrected_text="32*(s-xbar)*Q^-3*(s-x0)^2",
            note="quoted exponent 3 disagrees; the boundary reduction gives 2",
        ),
    ]
    return {e.id: e for e in entries}


_CATALOG = _catalog_entries()


def catalog_ids() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog_fixture(entry_id: str) -> CatalogEntry:
    try:
        return _CATALOG[entry_id]
    except KeyError:
        raise InvalidParams(f"unknown catalog id {entry_id!r}") from None


# -- kernel spec (CLI surface) ---------------------------------------------

FLAVORS = (
    "cauchy-I",
    "cauchy-II",
    "pseudo-cauchy",
    "series",
    "fueter-sce",
    "d-beta-delta-m",
    "dbar-beta-delta-m",
    "harmonic",
    "laplacian-power",
    "polyanalytic",
    "lemma",
    "catalog",
)


@dataclass(frozen=True)
class KernelSpec:
    """Identifies one closed-form kernel and its parameters."""

    n: int
    flavor: str
    side: str = "left"
    m: Optional[int] = None
    beta: Optional[int] = None
    ell: Optional[int] = None
    k: int = 0
    lemma: Optional[str] = None
    formula: Optional[int] = None
    catalog_id: Optional[str] = None
    terms: Optional[int] = None

    def validate(self):
        if self.flavor not in FLAVORS:
            raise InvalidParams(f"unknown kernel flavor {self.flavor!r}")
        if self.n % 2 == 0 or self.n < 3:
            raise InvalidParams("kernel dimension must be odd and >= 3")
        if self.side not in ("left", "right"):
            raise InvalidParams(f"unknown side {self.side!r}")
        if self.side == "right" and self.flavor not in ("cauchy-I", "cauchy-II", "fueter-sce"):
            raise InvalidParams(f"no printed right-sided form for {self.flavor}")


@dataclass(frozen=True)
class KernelValue:
    value: Multivector
    spec: KernelSpec
    point: tuple = field(default=())


def _default(value, fallback):
    return fallback if value is None else value


def evaluate_spec(spec: KernelSpec, s: Paravector, x: Paravector) -> KernelValue:
    spec.validate()
    fl = spec.flavor
    if fl in ("cauchy-I", "cauchy-II"):
        form = fl.rsplit("-", 1)[1]
        fn = cauchy_left if spec.side == "left" else cauchy_right
        value = fn(s, x, form=form)
    elif fl == "pseudo-cauchy":
        value = pseudo_cauchy_pow(s, x, _default(spec.m, 1))
    elif fl == "series":
        value = cauchy_series_partial(s, x, _default(spec.terms, 0))
    elif fl == "fueter-sce":
        value = fueter_sce_kernel(s, x, side=spec.side)
    elif fl == "d-beta-delta-m":
        value = d_beta_delta_m_kernel(s, x, _default(spec.m, 0), _default(spec.beta, 1))
    elif fl == "dbar-beta-delta-m":
        value = dbar_beta_delta_m_kernel(s, x, _default(spec.m, 0), _default(spec.beta, 1))
    elif fl == "harmonic":
        value = harmonic_kernel(s, x, _default(spec.m, 1))
    elif fl == "laplacian-power":
        value = laplacian_power_kernel(s, x, _default(spec.m, 1))
    elif fl == "polyanalytic":
        value = polyanalytic_kernel(s, x, _default(spec.ell, 0))
    elif fl == "lemma":
        _, value = lemma_block_lhs_rhs(
            s, x, spec.lemma or LEMMA_DIRAC, _default(spec.formula, 1),
            _default(spec.m, 1), spec.k,
        )
    elif fl == "catalog":
        entry = catalog_fixture(spec.catalog_id or "")
        if entry.n != x.n:
            raise InvalidParams(f"catalog entry {entry.id} lives in dimension {entry.n}")
        value = entry.printed(s, x)
    else:  # pragma: no cover - guarded by validate
        raise InvalidParams(fl)
    return KernelValue(value=value, spec=spec, point=(s.coords(), x.coords()))


# -- seeded random points ---------------------------------------------------


def _random_fraction(rng: Random, max_num: int = 16, max_den: int = 16) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def sample_point_pair(n: int, rng: Random, ring=RATIONALS, max_num: int = 16,
                      max_den: int = 16) -> tuple[Paravector, Paravector]:
    """Random (s, x) with small rational coordinates and s off the sphere [x].

    Rejection keeps the pseudo-Cauchy denominator invertible and both
    points nonzero; results are exact rationals, cast afterwards for float
    suites so the same seed drives both modes.
    """
    while True:
        s = Paravector.from_coords(
            RATIONALS, [_random_fraction(rng, max_num, max_den) for _ in range(n + 1)]
        )
        x = Paravector.from_coords(
            RATIONALS, [_random_fraction(rng, max_num, max_den) for _ in range(n + 1)]
        )
        if RATIONALS.is_zero(s.norm_sq()) or RATIONALS.is_zero(x.norm_sq()):
            continue
        if same_sphere(s, x):
            continue
        if RATIONALS.is_zero(pseudo_denominator(s, x).norm_sq()):
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
        if RATIONALS.is_zero(s.norm_sq()):
            continue
        x = Paravector.from_coords(
            RATIONALS,
            [Fraction(rng.randint(-16, 16), 2 ** rng.randint(0, 4)) for _ in range(n + 1)],
        )
        while 4 * x.norm_sq() > s.norm_sq():
            x = x.scale(Fraction(1, 2))
        return s, x


def cauchy_closure(s: Paravector, side: str = "left", form: str = "II"):
    """Cauchy kernel as a ring-generic function of x, with s baked in."""
    fn = cauchy_left if side == "left" else cauchy_right

    def f(ring, x):
        return fn(s.cast(ring), x, form=form)

    return f


def fueter_sce_closure(s: Paravector, side: str = "left"):
    def f(ring, x):
        return fueter_sce_kernel(s.cast(ring), x, side=side)

    return f


def harmonic_closure(s: Paravector, m: int):
    def f(ring, x):
        return harmonic_kernel(s.cast(ring), x, m)

    return f
