"""Coefficient rings: exact rationals, floats, and truncated Taylor jets.

All algebraic containers in this library (multivectors, paravectors,
differential operators) are generic over a small ring interface:

    ring.zero(), ring.one(), ring.lift(v), ring.invert(v), ring.magnitude(v)

Ring *elements* combine through ordinary Python operators, so ``Fraction``,
``float``, :class:`Lanes` and :class:`Jet` all drive the same Clifford
arithmetic, and zero is exact in every ring: an element is zero iff it is
false (``not v``).  A :class:`Lanes` value is a float ring value with one
float per lane (per quadrature node), so one kernel call over lanes gives
every lane's float value.
The rational ring also owns the number format of exact sums:
``RATIONALS.split(values)`` gives the nonzero values as int numerators over
their lcm denominator, and ``RATIONALS.quotient(num, den)`` turns one back
into a Fraction.

Jets are the substrate of the differentiation oracle: a jet holds the
Taylor coefficients of a scalar quantity in ``num_vars`` real coordinates
on a fixed down-set of multi-indices (see :class:`JetContext`), so
evaluating any expression over jets yields all those partial derivatives
at the base point in one pass.  Jets are exact: they keep int numerators
over one denominator, so the oracle's inner loops run on Python ints, not
Fractions, and its shared denominator is reduced only around a reciprocal.
A float point is read exactly, since every float is a dyadic rational.
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

    def zero(self) -> Fraction:
        return _ZERO

    def one(self) -> Fraction:
        return _ONE

    def lift(self, v) -> Fraction:
        # float inputs convert exactly (every float is dyadic rational)
        return Fraction(v)

    def invert(self, v) -> Fraction:
        return 1 / Fraction(v)

    def split(self, values: dict) -> tuple[dict, int]:
        """(int numerators of the nonzero values, their lcm denominator)."""
        # exact for ints, Fractions and floats alike, and builds no Fraction
        ratios = [v.as_integer_ratio() for v in values.values()]
        den = math.lcm(*[d for _, d in ratios])
        return {k: n * (den // d) for k, (n, d) in zip(values, ratios) if n}, den

    def quotient(self, num: int, den: int) -> Fraction:
        return Fraction(num, den)

    def magnitude(self, v) -> float:
        try:
            return abs(float(v))
        except OverflowError:
            return math.inf

    def __repr__(self):
        return "RationalRing()"


class FloatRing:
    """Double-precision arithmetic; zero is exactly 0.0 (or -0.0)."""

    def zero(self) -> float:
        return 0.0

    def one(self) -> float:
        return 1.0

    def lift(self, v) -> float:
        return float(v)

    def invert(self, v) -> float:
        return 1.0 / v

    def magnitude(self, v) -> float:
        return abs(v)

    def __repr__(self):
        return "FloatRing()"


class Lanes:
    """One float per lane, such as one per quadrature node, combined lane by lane.

    `+`, `-`, `*` and unary `-` apply FloatRing's IEEE operation to each
    pair of lanes, or to each lane and a plain number on the other side, in
    the written operand order, so every lane holds the float it would hold
    alone.  A value is true when any lane is nonzero, so a multivector over
    lanes keeps a blade that any lane has.  `v` is the list of lane values;
    operands of one operation have the same number of lanes.

    Lanes are FloatRing values: a paravector over lanes is a `FLOATS`
    paravector whose coordinates are lanes, and FloatRing's zero, one and
    lifts are plain floats, which broadcast against them.  Only the float
    branches that test a value (the kernels' singular guard and the range
    rescale of a paravector inverse) read each lane; they choose their
    branch from the value.  Every lane that takes their common branch
    holds its float result, and a lane that would take another branch
    reads NaN from there on, for the caller to evaluate over plain floats.
    `FLOATS.lift` and `FLOATS.invert` take no lanes: the one inverse over
    lanes, `Paravector._inverse`, reads each lane itself.
    """

    __slots__ = ("v",)

    def __init__(self, values: list):
        self.v = values

    def __add__(self, other):
        if isinstance(other, Lanes):
            return Lanes([a + b for a, b in zip(self.v, other.v)])
        return Lanes([a + other for a in self.v])

    def __radd__(self, other):
        return Lanes([other + a for a in self.v])

    def __sub__(self, other):
        if isinstance(other, Lanes):
            return Lanes([a - b for a, b in zip(self.v, other.v)])
        return Lanes([a - other for a in self.v])

    def __rsub__(self, other):
        return Lanes([other - a for a in self.v])

    def __mul__(self, other):
        if isinstance(other, Lanes):
            return Lanes([a * b for a, b in zip(self.v, other.v)])
        return Lanes([a * other for a in self.v])

    def __rmul__(self, other):
        return Lanes([other * a for a in self.v])

    def __neg__(self):
        return Lanes([-a for a in self.v])

    def __abs__(self):
        return Lanes([abs(a) for a in self.v])

    def __bool__(self):
        return any(self.v)

    def __repr__(self):
        return f"Lanes({self.v!r})"


RATIONALS = RationalRing()
FLOATS = FloatRing()


def _box(corner: tuple):
    """Every multi-index <= `corner`, componentwise."""
    return itertools.product(*(range(c + 1) for c in corner))


@lru_cache(maxsize=None)
def jet_context(num_vars: int, corners: tuple) -> "JetContext":
    return JetContext(num_vars, corners)


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
    pair whose sum lies in S, and `layers[d]` is the index range of the
    multi-indices of total degree d: graded-lex order stores each degree as
    one contiguous range, and a down-set holds every degree up to its top.
    """

    __slots__ = ("num_vars", "exponents", "index", "size", "products", "layers")

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
        for k, alpha in enumerate(exps):
            for beta in _box(alpha):
                products[index[beta]][index[tuple(a - b for a, b in zip(alpha, beta))]] = k
        starts = [k for k, e in enumerate(exps) if not k or sum(e) != sum(exps[k - 1])]
        self.num_vars = num_vars
        self.exponents = tuple(exps)
        self.index = index
        self.size = len(exps)
        self.products = tuple(products)
        self.layers = tuple(map(range, starts, [*starts[1:], len(exps)]))


def multi_index_factorial(alpha: Iterable[int]) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def mul_into(out: dict, products: tuple, a: dict, b: dict, scale: int) -> None:
    """Add scale * a * b into `out`, all int numerators on one down-set.

    `products` is the context's product table, and `scale` an int such as a
    blade sign.  Integer sums do not depend on their order, so each row i
    takes the shorter walk: its table entries looked up in b, or b looked up
    in it.  Row 0 maps every j to itself, so a's constant term is a scale of
    b.  Entries of `out` that sum to zero are kept; the caller drops them.
    """
    get = out.get
    a0 = a.get(0)
    if a0 is not None:
        c = scale * a0
        if out:
            for j, v in b.items():
                out[j] = get(j, 0) + c * v
        else:
            out.update({j: c * v for j, v in b.items()})
    b_items, b_get, nb = b.items(), b.get, len(b)
    for i, av in a.items():
        if not i:
            continue
        av *= scale
        row = products[i]
        if len(row) < nb:
            for j, k in row.items():
                bv = b_get(j)
                if bv is not None:
                    out[k] = get(k, 0) + av * bv
        else:
            for j, bv in b_items:
                k = row.get(j)
                if k is not None:
                    out[k] = get(k, 0) + av * bv


class Jet:
    """Truncated multivariate Taylor expansion of a scalar quantity.

    Coefficients are Taylor coefficients (derivative divided by alpha
    factorial) keyed by graded-lex index, stored sparsely: indices with
    exactly zero coefficient are absent.

    A jet is exact.  `coeffs` may hold ints, Fractions or floats, each read
    exactly, and the jet keeps them in the numerator form of `RATIONALS.split`:
    nonzero int numerators over one shared `den` > 0, not necessarily in
    lowest terms.  `+`, `-`, `*` and `scale` never take a gcd; `==` compares
    the shapes and the values, these by cross-multiplying.  Only the
    reciprocal reduces, its input and output, by one multi-argument gcd.
    `coeffs`, `derivative` and `constant_term` return Fractions in lowest
    terms.
    """

    __slots__ = ("ctx", "_nums", "den")

    def __init__(self, ctx: JetContext, coeffs: dict):
        self.ctx = ctx
        self._nums, self.den = RATIONALS.split(coeffs)

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients by index, as Fractions."""
        den = self.den
        return {k: Fraction(v, den) for k, v in self._nums.items()}

    def _like(self, nums: dict, den) -> "Jet":
        """Jet of this shape from nonzero numerators over den."""
        out = object.__new__(Jet)
        out.ctx, out._nums, out.den = self.ctx, nums, den
        return out

    def _lowest(self) -> "Jet":
        """This jet in lowest terms, by one multi-argument gcd."""
        g = math.gcd(self.den, *self._nums.values())
        if g == 1:
            return self
        return self._like({k: v // g for k, v in self._nums.items()}, self.den // g)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Jet"):
        if self.ctx is not other.ctx and self.ctx.exponents != other.ctx.exponents:
            raise InvalidParams("jet shape mismatch")

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        a, b = self._nums, other._nums
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        if da == db:
            out, mb = dict(a), 1
        else:
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            out = {k: v * ma for k, v in a.items()}
            da *= ma
        for k, v in b.items():
            s = out.get(k, 0) + v * mb
            if s:
                out[k] = s
            else:
                del out[k]
        return self._like(out, da)

    def __neg__(self):
        return self._like({k: -v for k, v in self._nums.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            out: dict = {}
            mul_into(out, self.ctx.products, self._nums, other._nums, 1)
            if 0 in out.values():
                out = {k: v for k, v in out.items() if v}
            return self._like(out, self.den * other.den)
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c):
        nums, den = RATIONALS.split({0: c})
        if not nums:
            return self._like({}, 1)
        p = nums[0]
        return self._like({k: v * p for k, v in self._nums.items()}, self.den * den)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx.exponents != other.ctx.exponents:
            return False
        a, b, da, db = self._nums, other._nums, self.den, other.den
        if da == db:
            return a == b
        # numerators are nonzero, so equal values store the same indices
        return a.keys() == b.keys() and all(v * db == b[k] * da for k, v in a.items())

    __hash__ = None  # dict backed; jets are not hashable

    def __bool__(self):
        """False only for the jet with no stored coefficient."""
        return bool(self._nums)

    # -- queries ------------------------------------------------------

    def constant_term(self):
        return Fraction(self._nums.get(0, 0), self.den)

    def derivative(self, alpha: tuple) -> object:
        """Partial derivative d^alpha at the base point (coefficient * alpha!)."""
        ctx = self.ctx
        if len(alpha) != ctx.num_vars:
            raise InvalidParams("multi-index length mismatch")
        k = ctx.index.get(tuple(alpha))
        if k is None:
            raise OrderExceeded(f"d^{tuple(alpha)} lies outside the jet's support")
        return Fraction(self._nums.get(k, 0) * multi_index_factorial(alpha), self.den)

    def __repr__(self):
        terms = ", ".join(
            f"{self.ctx.exponents[k]}: {v}" for k, v in sorted(self.coeffs.items())
        )
        return f"Jet({self.ctx.num_vars} vars, {self.ctx.size} indices, {{{terms}}})"


class JetRing:
    """Ring of exact jets of one shape (a JetContext)."""

    def __init__(self, ctx: JetContext):
        self.ctx = ctx

    def zero(self) -> Jet:
        return Jet(self.ctx, {})

    def one(self) -> Jet:
        return Jet(self.ctx, {0: 1})

    def lift(self, v) -> Jet:
        if isinstance(v, Jet):
            return v
        return Jet(self.ctx, {0: v})

    def seed(self, i: int, value) -> Jet:
        """Jet of the i-th coordinate function at base value `value`."""
        ctx = self.ctx
        if not 0 <= i < ctx.num_vars:
            raise InvalidParams(f"variable index {i} out of range")
        coeffs = {0: value}  # split drops a zero
        unit = ctx.index.get(tuple(1 if k == i else 0 for k in range(ctx.num_vars)))
        if unit is not None:
            coeffs[unit] = 1
        return Jet(ctx, coeffs)

    def invert(self, jet: Jet) -> Jet:
        return self.reciprocal(jet)

    def reciprocal(self, jet: Jet) -> Jet:
        """Multiplicative inverse on the jet's support, one degree layer at a time.

        With a = a[0] + rest, a * out = 1 gives, for k > 0,
        out[k] = -(sum rest[i] out[j]) / a[0] over the pairs i + j = k, and
        every such j has deg j < deg k because i > 0.  So each finished layer
        is multiplied by rest into an accumulator with `mul_into`, which adds
        its share to every higher degree; when the layers below degree d are
        pushed, the accumulator holds the whole sum for each index of degree d.

        The recurrence runs in integers.  With A the numerators of a
        (a = A / den) and r = 1 / A, r[0] = 1 / A[0] and
        r[k] = -(sum A[i] r[j]) / A[0].  By induction on the degree, the
        denominator of r[j] divides A[0]^(deg j + 1): it holds at degree 0,
        and if it holds below degree d every sum of degree d has a
        denominator dividing A[0]^d, so r[k]'s divides A[0]^(d + 1).  Hence
        R = r * D with D = A[0]^(T + 1), T the top degree of the support, is
        integral: R[0] = A[0]^T and R[k] = -(sum A[i] R[j]) // A[0], a division
        that is exact because its quotient is the integer R[k]; integer sums
        do not depend on their order.  Then out = den * R / D.
        """
        ctx = jet.ctx
        jet = jet._lowest()
        rest = dict(jet._nums)
        a0 = rest.pop(0, 0)
        if not a0:
            raise NonInvertibleConstantTerm("jet constant term is not invertible")
        top = len(ctx.layers) - 1
        layer = {0: a0 ** top}
        out = dict(layer)
        acc: dict = {}
        for ks in ctx.layers[1:]:
            mul_into(acc, ctx.products, layer, rest, 1)
            layer = {}
            for k in ks:
                if v := acc.pop(k, 0):
                    layer[k] = -v // a0
            out.update(layer)
        big = a0 ** (top + 1)
        f = jet.den if big > 0 else -jet.den
        return jet._like({k: v * f for k, v in out.items()}, abs(big))._lowest()

    def magnitude(self, jet: Jet) -> float:
        return max((RATIONALS.magnitude(v) for v in jet.coeffs.values()), default=0.0)

    def __repr__(self):
        return f"JetRing(num_vars={self.ctx.num_vars}, size={self.ctx.size})"
