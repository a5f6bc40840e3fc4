"""Coefficient rings: exact rationals, guarded floats, and truncated Taylor jets.

All algebraic containers in this library (multivectors, paravectors,
differential operators) are generic over a small ring interface:

    ring.zero(), ring.one(), ring.lift(v), ring.is_zero(v), ring.invert(v)

Ring *elements* combine through ordinary Python operators, so ``Fraction``,
``float`` and :class:`Jet` all drive the same Clifford arithmetic.  Jets are
the substrate of the differentiation oracle: a jet holds the Taylor
coefficients of a scalar quantity in ``num_vars`` real coordinates on a
fixed down-set of multi-indices (see :class:`JetContext`), so evaluating any
expression over jets yields all those partial derivatives at the base point
in one pass.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import InvalidParams, NonInvertibleConstantTerm, OrderExceeded

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalRing:
    """Exact field of rationals backed by arbitrary-precision integers."""

    name = "rational"
    exact = True

    def zero(self) -> Fraction:
        return _ZERO

    def one(self) -> Fraction:
        return _ONE

    def lift(self, v) -> Fraction:
        # float inputs convert exactly (every float is dyadic rational)
        return Fraction(v)

    def is_zero(self, v) -> bool:
        return v == 0

    def invert(self, v) -> Fraction:
        return 1 / Fraction(v)

    def magnitude(self, v) -> float:
        try:
            return abs(float(v))
        except OverflowError:
            return math.inf

    def __repr__(self):
        return "RationalRing()"


class FloatRing:
    """Double-precision arithmetic with a tolerance-based zero test."""

    name = "float"
    exact = False

    def __init__(self, tol: float = 1e-12):
        self.tol = tol

    def zero(self) -> float:
        return 0.0

    def one(self) -> float:
        return 1.0

    def lift(self, v) -> float:
        return float(v)

    def is_zero(self, v) -> bool:
        return abs(v) <= self.tol

    def invert(self, v) -> float:
        return 1.0 / v

    def magnitude(self, v) -> float:
        return abs(v)

    def __repr__(self):
        return f"FloatRing(tol={self.tol!r})"


RATIONALS = RationalRing()
FLOATS = FloatRing()


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _box(corner: tuple):
    """Every multi-index <= `corner`, componentwise."""
    return itertools.product(*(range(c + 1) for c in corner))


@lru_cache(maxsize=None)
def jet_context(num_vars: int, corners: tuple) -> "JetContext":
    return JetContext(num_vars, corners)


def total_degree(num_vars: int, order: int) -> "JetContext":
    """Context of the jets that carry every multi-index with |alpha| <= order."""
    if order < 0:
        raise InvalidParams(f"bad jet order {order}")
    return jet_context(num_vars, tuple(_compositions(order, num_vars)))


class JetContext:
    """Shared index tables for jets supported on the down-set of `corners`.

    The down-set S holds every multi-index alpha <= some corner (componentwise)
    and always the zero index.  Total-degree jets of order d are the case
    whose corners are all |alpha| = d.  Multi-indices are enumerated sorted by
    (degree, exponent), which is graded lexicographic order; positions in that
    enumeration are the storage keys.

    Why truncating to S is exact: the complement I of a down-set is closed
    under adding any multi-index, so the monomials x^alpha with alpha in I
    span an ideal of the polynomial ring (and of formal power series).  A jet
    on S is a residue class modulo I, and the quotient map is a ring
    homomorphism: sums and products of jets equal the truncations of the
    untruncated sums and products.  The reciprocal is the unique inverse in
    the quotient ring, so it too equals the truncated reciprocal whenever
    the constant term is invertible.  Every coefficient in S, in particular
    every coefficient an operator supported on the corners reads, is
    therefore the same as in any larger jet.

    `products[i]` maps j to the index of exponents[i] + exponents[j] for every
    pair whose sum lies in S; `divisors[k]` lists the pairs (i, j) with
    exponents[i] + exponents[j] = exponents[k] and i > 0, in ascending i.
    """

    __slots__ = ("num_vars", "exponents", "index", "size", "products", "divisors")

    def __init__(self, num_vars: int, corners: tuple):
        if num_vars < 1:
            raise InvalidParams(f"bad jet variable count {num_vars}")
        points = {(0,) * num_vars}
        for corner in corners:
            if len(corner) != num_vars or min(corner) < 0:
                raise InvalidParams(f"bad jet corner {corner!r} for {num_vars} variables")
            points.update(_box(corner))
        exps = sorted(points, key=lambda e: (sum(e), e))
        index = {e: i for i, e in enumerate(exps)}
        products = [{} for _ in exps]
        divisors = []
        for k, alpha in enumerate(exps):
            pairs = sorted(
                (index[beta], index[tuple(a - b for a, b in zip(alpha, beta))])
                for beta in _box(alpha)
            )
            for i, j in pairs:
                products[i][j] = k
            divisors.append(tuple(pairs[1:]))  # pairs[0] is (0, k)
        self.num_vars = num_vars
        self.exponents = tuple(exps)
        self.index = index
        self.size = len(exps)
        self.products = tuple(products)
        self.divisors = tuple(divisors)


def _multi_index_factorial(alpha: Iterable[int]) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


class Jet:
    """Truncated multivariate Taylor expansion of a scalar quantity.

    Coefficients are stored per graded-lex index as Taylor coefficients
    (derivative divided by alpha factorial), sparsely: indices with exactly
    zero coefficient are absent.
    """

    __slots__ = ("ctx", "ring", "coeffs")

    def __init__(self, ctx: JetContext, ring, coeffs: dict):
        self.ctx = ctx
        self.ring = ring
        self.coeffs = coeffs

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Jet"):
        if self.ctx is not other.ctx and self.ctx.exponents != other.ctx.exponents:
            raise InvalidParams("jet shape mismatch")

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            cur = out.get(k)
            if cur is None:
                out[k] = v
            else:
                s = cur + v
                if s == 0:
                    del out[k]
                else:
                    out[k] = s
        return Jet(self.ctx, self.ring, out)

    def __neg__(self):
        return Jet(self.ctx, self.ring, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            products = self.ctx.products
            out: dict = {}
            for i, av in self.coeffs.items():
                row = products[i]
                for j, bv in other.coeffs.items():
                    k = row.get(j)
                    if k is None:
                        continue
                    p = av * bv
                    cur = out.get(k)
                    if cur is None:
                        out[k] = p
                    else:
                        s = cur + p
                        if s == 0:
                            del out[k]
                        else:
                            out[k] = s
            return Jet(self.ctx, self.ring, out)
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c):
        if c == 0:
            return Jet(self.ctx, self.ring, {})
        return Jet(self.ctx, self.ring, {k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, Jet):
            return self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = None  # mutable-dict backed; jets are not hashable

    # -- queries ------------------------------------------------------

    def constant_term(self):
        return self.coeffs.get(0, self.ring.zero())

    def derivative(self, alpha: tuple) -> object:
        """Partial derivative d^alpha at the base point (coefficient * alpha!)."""
        ctx = self.ctx
        if len(alpha) != ctx.num_vars:
            raise InvalidParams("multi-index length mismatch")
        k = ctx.index.get(tuple(alpha))
        if k is None:
            raise OrderExceeded(f"d^{tuple(alpha)} lies outside the jet's support")
        c = self.coeffs.get(k)
        if c is None:
            return self.ring.zero()
        return c * _multi_index_factorial(alpha)

    def __repr__(self):
        terms = ", ".join(
            f"{self.ctx.exponents[k]}: {v}" for k, v in sorted(self.coeffs.items())
        )
        return f"Jet({self.ctx.num_vars} vars, {self.ctx.size} indices, {{{terms}}})"


class JetRing:
    """Ring of jets of one shape (a JetContext) over a scalar ring."""

    name = "jet"

    def __init__(self, ctx: JetContext, scalar_ring=RATIONALS):
        self.ctx = ctx
        self.scalar_ring = scalar_ring
        self.exact = scalar_ring.exact

    def zero(self) -> Jet:
        return Jet(self.ctx, self.scalar_ring, {})

    def one(self) -> Jet:
        return Jet(self.ctx, self.scalar_ring, {0: self.scalar_ring.one()})

    def lift(self, v) -> Jet:
        if isinstance(v, Jet):
            return v
        sv = self.scalar_ring.lift(v)
        if sv == 0:
            return self.zero()
        return Jet(self.ctx, self.scalar_ring, {0: sv})

    def seed(self, i: int, value) -> Jet:
        """Jet of the i-th coordinate function at base value `value`."""
        ctx = self.ctx
        if not 0 <= i < ctx.num_vars:
            raise InvalidParams(f"variable index {i} out of range")
        coeffs = {}
        sv = self.scalar_ring.lift(value)
        if sv != 0:
            coeffs[0] = sv
        unit = ctx.index.get(tuple(1 if k == i else 0 for k in range(ctx.num_vars)))
        if unit is not None:
            coeffs[unit] = self.scalar_ring.one()
        return Jet(ctx, self.scalar_ring, coeffs)

    def is_zero(self, jet: Jet) -> bool:
        sr = self.scalar_ring
        return all(sr.is_zero(v) for v in jet.coeffs.values())

    def invert(self, jet: Jet) -> Jet:
        return self.reciprocal(jet)

    def reciprocal(self, jet: Jet) -> Jet:
        """Multiplicative inverse on the jet's support, index by index.

        Solves a * out = 1 for out[k] from the already known out[j], j < k,
        summing a[i] * out[j] over the divisor pairs of k in ascending i.
        """
        ctx = jet.ctx
        sr = self.scalar_ring
        c0 = jet.constant_term()
        if sr.is_zero(c0):
            raise NonInvertibleConstantTerm("jet constant term is not invertible")
        inv0 = sr.invert(c0)
        out = {0: inv0}
        coeffs = jet.coeffs
        divisors = ctx.divisors
        for k in range(1, ctx.size):
            acc = None
            for i, j in divisors[k]:
                av = coeffs.get(i)
                if av is None:
                    continue
                bv = out.get(j)
                if bv is None:
                    continue
                p = av * bv
                acc = p if acc is None else acc + p
            if acc is not None:
                val = -(inv0 * acc)
                if val != 0:
                    out[k] = val
        return Jet(ctx, sr, out)

    def magnitude(self, jet: Jet) -> float:
        sr = self.scalar_ring
        return max((sr.magnitude(v) for v in jet.coeffs.values()), default=0.0)

    def __repr__(self):
        return f"JetRing(num_vars={self.ctx.num_vars}, size={self.ctx.size}, scalar={self.scalar_ring!r})"


# Spec-level operation aliases; the methods above carry the behavior.

def jet_seed_coordinate(i: int, value, num_vars: int, order: int, scalar_ring=RATIONALS) -> Jet:
    return JetRing(total_degree(num_vars, order), scalar_ring).seed(i, value)


def jet_mul(a: Jet, b: Jet) -> Jet:
    return a * b


def jet_reciprocal(a: Jet, scalar_ring=None) -> Jet:
    return JetRing(a.ctx, scalar_ring or a.ring).reciprocal(a)


def jet_extract_derivative(a: Jet, alpha: tuple):
    return a.derivative(alpha)
