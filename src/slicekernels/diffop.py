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

from .clifford import Multivector, Paravector
from .errors import DimensionMismatch, InvalidParams
from .rings import RATIONALS, JetRing, jet_context


class DiffOperator:
    """Finite sum of Clifford-coefficient partial derivatives (left action)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = {a: c for a, c in terms.items() if not c.is_zero()}

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


def make_dirac(n: int) -> DiffOperator:
    """D = d/dx0 + sum_i e_i d/dx_i."""
    if n < 1:
        raise InvalidParams("dimension must be >= 1")
    terms = {_unit_index(n, 0): Multivector.scalar(n, RATIONALS, 1)}
    for i in range(1, n + 1):
        terms[_unit_index(n, i)] = Multivector.basis_vector(n, RATIONALS, i)
    return DiffOperator(n, terms)


def make_dirac_conj(n: int) -> DiffOperator:
    """D-bar = d/dx0 - sum_i e_i d/dx_i."""
    if n < 1:
        raise InvalidParams("dimension must be >= 1")
    terms = {_unit_index(n, 0): Multivector.scalar(n, RATIONALS, 1)}
    for i in range(1, n + 1):
        terms[_unit_index(n, i)] = -Multivector.basis_vector(n, RATIONALS, i)
    return DiffOperator(n, terms)


def make_laplacian(n: int) -> DiffOperator:
    """Laplacian of R^{n+1}: sum of second derivatives in all coordinates."""
    if n < 1:
        raise InvalidParams("dimension must be >= 1")
    terms = {}
    for i in range(n + 1):
        a = tuple(2 if k == i else 0 for k in range(n + 1))
        terms[a] = Multivector.scalar(n, RATIONALS, 1)
    return DiffOperator(n, terms)


def compose(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    return a.compose(b)


def operator_power_compose(base: DiffOperator, beta: int, m: int) -> DiffOperator:
    """base^beta composed with the m-th Laplacian power."""
    if beta < 0 or m < 0:
        raise InvalidParams("powers must be nonnegative")
    return base.power(beta).compose(make_laplacian(base.n).power(m))


def oracle_apply(op: DiffOperator, f, x: Paravector) -> Multivector:
    """Apply `op` to `f` at `x` by one evaluation of `f` over the jet ring.

    `f(ring, x)` must evaluate with paravector coordinates drawn from any
    coefficient ring; `x` fixes the base ring of the result.  The jets carry
    exactly the down-set of the operator's support (every multi-index below
    some alpha of `op.terms`), which is all that `op` reads; the shape
    depends on the operator alone, never on `f`.
    """
    n = op.n
    if x.n != n:
        raise DimensionMismatch(f"operator in dimension {n}, point in {x.n}")
    ring = x.ring
    jring = JetRing(jet_context(n + 1, tuple(op.terms)), ring)
    seeded = Paravector(
        jring,
        jring.seed(0, x.x0),
        tuple(jring.seed(i + 1, c) for i, c in enumerate(x.xu)),
    )
    value = f(jring, seeded)
    acc = Multivector.zero(n, ring)
    for alpha, cmv in op.terms.items():
        dmv = Multivector(n, ring, [jet.derivative(alpha) for jet in value.coeffs])
        acc = acc + cmv.map_coeffs(ring.lift, ring) * dmv
    return acc
