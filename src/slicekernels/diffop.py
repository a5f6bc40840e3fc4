"""Constant-coefficient differential operators and the jet evaluation oracle.

An operator is a finite map from multi-indices over the n+1 coordinates
(x_0, ..., x_n) to Clifford coefficients that multiply from the LEFT:

    L f = sum_alpha  c_alpha * d^alpha f.

The oracle applies any such operator to any function that can be evaluated
over the jet ring: coordinates are seeded as first-order jets, the function
is evaluated once, and every partial derivative is read off the resulting
Taylor coefficients.  This path shares no code with the closed-form kernel
formulas it is used to check.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .clifford import Multivector, Paravector, blade_product
from .coeffs import check_operator
from .errors import DimensionMismatch, InvalidParams
from .rings import RATIONALS, jet_ring, multi_index_factorial


class DiffOperator:
    """Finite sum of Clifford-coefficient partial derivatives (left action)."""

    __slots__ = ("n", "terms", "_blade_terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = {a: c for a, c in terms.items() if not c.is_zero()}
        self._blade_terms = None

    def blade_terms(self) -> tuple:
        """(ring, E, [(a, [(k, C * alpha!), ...]), ...]): the jet ring the
        oracle seeds for this operator, the down-set of its support, keyed by
        the sorted support so that operators with one support share it; the
        exact coefficients as ints C over one common denominator E, grouped by
        coefficient blade a, with k the index of alpha in the ring.  Nonzero
        blades only; computed on first use, and operators have no mutators."""
        if self._blade_terms is None:
            ring = jet_ring(self.n + 1, tuple(sorted(self.terms)))
            nums, den = RATIONALS.split({(alpha, a): c for alpha, mv in self.terms.items()
                                         for a, c in mv.blades.items()})
            groups: dict = {}
            for (alpha, a), c in nums.items():
                groups.setdefault(a, []).append(
                    (ring.index[alpha], c * multi_index_factorial(alpha)))
            self._blade_terms = ring, den, list(groups.items())
        return self._blade_terms

    def _check(self, other: "DiffOperator"):
        if self.n != other.n:
            raise DimensionMismatch(f"operator dimensions {self.n} and {other.n}")

    def __add__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out[a] + c if a in out else c
        return DiffOperator(self.n, out)

    def scale(self, c) -> "DiffOperator":
        return DiffOperator(self.n, {a: mv.scale(c) for a, mv in self.terms.items()})

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self applied after other; coefficients multiply in that order."""
        self._check(other)
        out: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                g = tuple(x + y for x, y in zip(a, b))
                p = ca * cb
                out[g] = out[g] + p if g in out else p
        return DiffOperator(self.n, out)

    def power(self, k: int) -> "DiffOperator":
        if k < 0:
            raise InvalidParams("operator power must be nonnegative")
        out = identity_operator(self.n)
        for _ in range(k):
            out = out.compose(self)
        return out

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if self.n != other.n or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[a] == other.terms[a] for a in self.terms)

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"{a}: {mv.to_text()}" for a, mv in sorted(self.terms.items()))
        return f"DiffOperator(n={self.n}, {{{body}}})"


def _unit_index(n: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(n + 1))


def identity_operator(n: int) -> DiffOperator:
    zero_index = tuple(0 for _ in range(n + 1))
    return DiffOperator(n, {zero_index: Multivector.scalar(n, RATIONALS, 1)})


def _dirac(n: int, sign: int) -> DiffOperator:
    """d/dx0 + sign * sum_i e_i d/dx_i."""
    if n < 1:
        raise InvalidParams("dimension must be >= 1")
    terms = {_unit_index(n, 0): Multivector.scalar(n, RATIONALS, 1)}
    for i in range(1, n + 1):
        terms[_unit_index(n, i)] = Multivector.blade(n, RATIONALS, 1 << (i - 1), sign)
    return DiffOperator(n, terms)


def make_dirac(n: int) -> DiffOperator:
    """D = d/dx0 + sum_i e_i d/dx_i."""
    return _dirac(n, 1)


def make_dirac_conj(n: int) -> DiffOperator:
    """D-bar = d/dx0 - sum_i e_i d/dx_i."""
    return _dirac(n, -1)


def make_laplacian(n: int) -> DiffOperator:
    """Laplacian of R^{n+1}: sum of second derivatives in all coordinates."""
    if n < 1:
        raise InvalidParams("dimension must be >= 1")
    terms = {}
    for i in range(n + 1):
        a = tuple(2 if k == i else 0 for k in range(n + 1))
        terms[a] = Multivector.scalar(n, RATIONALS, 1)
    return DiffOperator(n, terms)


def operator_power_compose(base: DiffOperator, beta: int, m: int) -> DiffOperator:
    """base^beta composed with the m-th Laplacian power."""
    if beta < 0 or m < 0:
        raise InvalidParams("powers must be nonnegative")
    return base.power(beta).compose(make_laplacian(base.n).power(m))


@lru_cache(maxsize=None, typed=True)
def named_operator(n: int, base: str, beta: int, m: int) -> DiffOperator:
    """D^beta Delta^m for base "d", D-bar^beta Delta^m for "dbar", in
    dimension n: every operator the verifier applies, built once per process
    and shared, as operators have no mutators; typed, so 1.0 or True is refused."""
    check_operator((base, beta, m))
    return operator_power_compose((make_dirac if base == "d" else make_dirac_conj)(n), beta, m)


# The last point seeded, (jet ring, x, x seeded over that ring): held, so that
# neither x nor the ring can be freed and give its id to another object.
_SEEDED: list = [None, None, None]


def oracle_apply(op: DiffOperator, f, x: Paravector) -> Multivector:
    """Apply `op` to `f` at `x` by one evaluation of `f` over the jet ring.

    `f(x)` must evaluate over any ring, as a `quadrature.SliceFunction` and
    a `kernels.kernel_closure` do; it is called once, at `x` seeded over
    exact jets.  The seeded point is shared across calls at one point:
    calls at one `x` (the same object) on one ring, one after another, pass
    `f` the same paravector, which `f` must not change.  A float coordinate
    is read exactly, so the value is exact at the point x holds, and each
    blade of the result is rounded once into the ring of x.  The jets carry
    exactly the down-set of the operator's support (every multi-index below
    some alpha of `op.terms`), which is all that `op` reads; that shape, one
    cached `JetRing`, depends on the operator alone, never on `f`, and comes
    with its coefficients from `op.blade_terms()`, found once per operator.

    The sum of c_alpha * d^alpha f is assembled from numerators: the
    coefficients are ints C_alpha / E over one denominator E and the blades
    of f are N_b / den over another.  Each nonzero blade pair (a, b) takes
    one dot product, the sum over alpha of C_alpha[a] * alpha! * N_b[alpha],
    and adds it with the sign of e_a e_b = sign * e_mask to blade `mask`,
    which is divided by den * E once.
    """
    n = op.n
    if x.n != n:
        raise DimensionMismatch(f"operator in dimension {n}, point in {x.n}")
    jring, scale, groups = op.blade_terms()
    ring, point, seeded = _SEEDED
    if ring is not jring or point is not x:
        seeded = Paravector(jring, jring.seed(0, x.x0),
                            tuple(jring.seed(i + 1, c) for i, c in enumerate(x.xu)))
        _SEEDED[:] = jring, x, seeded
    value = f(seeded)
    den = math.lcm(*(jet.den for jet in value.blades.values()))
    acc: dict = {}
    for b, jet in value.blades.items():
        get, up = jet._nums.get, den // jet.den
        for a, column in groups:
            v = 0
            for k, c in column:
                u = get(k)
                if u is not None:
                    v += c * u
            if v:
                mask, sign = blade_product(a, b)
                acc[mask] = acc.get(mask, 0) + sign * up * v
    acc = {m: v for m, v in sorted(acc.items()) if v}
    return Multivector._make(n, RATIONALS, acc, den * scale).cast(x.ring)
