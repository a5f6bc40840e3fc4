"""Real Clifford algebra R_n with generators squaring to -1, over any ring.

Elements are stored sparsely: ``blades[mask]`` is the coefficient of the
basis blade whose bitmask has bit ``i`` set when generator ``e_{i+1}`` is
present (mask 0 is the scalar part); blades with a zero coefficient are
absent.  An exact multivector keeps int numerators over one denominator, of
which ``blades`` is a view, and so does an exact paravector, of which its
coordinates are.  Values are immutable after construction and all
operations are pure, so multivectors can be shared freely between threads.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatch, InvalidParams, ZeroNorm
from .rings import RATIONALS, JetRing, Lanes, mul_into

MAX_DIMENSION = 15


@lru_cache(maxsize=None)
def blade_product(a: int, b: int) -> tuple[int, int]:
    """Product of basis blades by bitmask: (result mask, sign).

    The sign counts transpositions needed to interleave the generators plus
    one factor -1 per repeated generator (e_i^2 = -1).
    """
    swaps = 0
    x = a >> 1
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    sign = -1 if swaps & 1 else 1
    if (a & b).bit_count() & 1:
        sign = -sign
    return a ^ b, sign


def _blade_indices(mask: int) -> tuple[int, ...]:
    """1-based generator indices of a blade mask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def blade_name(mask: int) -> str:
    if mask == 0:
        return ""
    idx = _blade_indices(mask)
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    return "e{" + ",".join(str(i) for i in idx) + "}"


def mask_from_name(name: str) -> int:
    """Mask of `e<digits>` or `e{i,j,...}`, the indices strictly ascending."""
    body = name[1:]
    parts = body.strip("{}").split(",") if body.startswith("{") else list(body)
    idx = [int(p) if p.isdecimal() else 0 for p in parts]
    if (not name.startswith("e") or not idx or min(idx) < 1
            or any(a >= b for a, b in zip(idx, idx[1:]))):
        raise InvalidParams(f"bad blade name {name!r}")
    return sum(1 << (i - 1) for i in idx)


class Multivector:
    """Element of R_n over a commutative coefficient ring, stored sparsely.

    `blades` maps blade mask to coefficient and holds only the nonzero
    blades, in ascending mask order.  The constructor takes such a mapping
    (any order; a mask outside 0..2^n-1 raises) and drops the entries that
    are exactly zero.  Over `RATIONALS` a multivector stores, as an exact
    `Jet` does, nonzero int numerators `_nums` by mask, ascending, over one
    `den` > 0, but always in lowest terms (one multi-argument gcd per
    result), and `blades` is a view of Fractions built on each read; the
    arithmetic, `==`, `is_zero` and `norm_float` run on the ints.
    """

    __slots__ = ("n", "ring", "_blades", "_nums", "den")

    def __init__(self, n: int, ring, blades: Mapping):
        if not 1 <= n <= MAX_DIMENSION:
            raise InvalidParams(f"dimension {n} outside 1..{MAX_DIMENSION}")
        if not isinstance(blades, Mapping):
            raise InvalidParams(f"blades must be a mapping of blade mask to coefficient, "
                                f"got {type(blades).__name__}")
        if not all(isinstance(m, int) and 0 <= m < 1 << n for m in blades):
            raise InvalidParams(f"blade mask outside 0..{(1 << n) - 1}")
        self.n, self.ring = n, ring
        blades = {m: c for m, c in sorted(blades.items()) if c}
        if ring is RATIONALS:  # over their lcm, the values' ratios stay in lowest terms
            self._nums, self.den = RATIONALS.split(blades)
        else:
            self._blades = blades

    @classmethod
    def _make(cls, n: int, ring, blades: dict) -> "Multivector":
        """From nonzero blades already in ascending mask order, unchecked."""
        if ring is RATIONALS:
            return cls._exact(n, *RATIONALS.split(blades))
        out = object.__new__(cls)
        out.n, out.ring, out._blades = n, ring, blades
        return out

    @classmethod
    def _exact(cls, n: int, nums: dict, den: int) -> "Multivector":
        """From nonzero int numerators, ascending by mask, over den > 0; reduced by one gcd."""
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums, den = {m: v // g for m, v in nums.items()}, den // g
        out = object.__new__(cls)
        out.n, out.ring, out._nums, out.den = n, RATIONALS, nums, den
        return out

    @property
    def blades(self) -> dict:
        if self.ring is not RATIONALS:
            return self._blades
        return {m: Fraction(v, self.den) for m, v in self._nums.items()}

    @classmethod
    def zero(cls, n: int, ring):
        return cls(n, ring, {})

    @classmethod
    def scalar(cls, n: int, ring, value):
        return cls(n, ring, {0: ring.lift(value)})

    @classmethod
    def blade(cls, n: int, ring, mask: int, value=1):
        return cls(n, ring, {mask: ring.lift(value)})

    def _check(self, other: "Multivector"):
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check(other)
        if exact := self.ring is RATIONALS is other.ring:  # numerators over lcm(da, db)
            g = math.gcd(da := self.den, db := other.den)
            out = {m: v * (db // g) for m, v in self._nums.items()}
            b = {m: v * (da // g) for m, v in other._nums.items()}
        else:
            out, b = dict(self.blades), other.blades
        size, cancelled = len(out), False
        for m, c in b.items():
            v = out.get(m)
            if v is None:
                out[m] = c
            else:
                out[m] = v = v + c
                cancelled = cancelled or not v
        if len(out) != size:  # other brought new blades
            out = dict(sorted(out.items()))
        if cancelled:
            out = {m: v for m, v in out.items() if v}
        if exact:
            return Multivector._exact(self.n, out, da // g * db)
        return Multivector._make(self.n, self.ring, out)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        if self.ring is RATIONALS:
            return Multivector._exact(self.n, {m: -v for m, v in self._nums.items()}, self.den)
        return Multivector._make(self.n, self.ring, {m: -c for m, c in self._blades.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # ring scalars are central, so left and right scaling agree
        return self.scale(other)

    def scale(self, c) -> "Multivector":
        if self.ring is RATIONALS:  # c read exactly, as `RATIONALS.lift` reads it
            p, q = (c if isinstance(c, (int, Fraction)) else Fraction(c)).as_integer_ratio()
            return Multivector._exact(self.n, {m: v * p for m, v in self._nums.items() if p},
                                      self.den * q)
        c = self.ring.lift(c)
        return Multivector._make(self.n, self.ring,
                                 {m: v for m, a in self._blades.items() if (v := a * c)})

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        if self.ring is RATIONALS is other.ring:  # in lowest terms, equal values store alike
            return self.n == other.n and (self._nums, self.den) == (other._nums, other.den)
        return self.n == other.n and self.blades == other.blades

    __hash__ = None

    def __reduce__(self):  # pickled as the constructor's input, with no private slot
        return Multivector, (self.n, self.ring, self.blades)

    def is_zero(self) -> bool:
        return not (self._nums if self.ring is RATIONALS else self._blades)

    def map_coeffs(self, fn, ring=None) -> "Multivector":
        """Apply `fn` to each stored coefficient; `fn` must map zero to zero."""
        return Multivector._make(self.n, ring or self.ring,
                                 {m: v for m, c in self.blades.items() if (v := fn(c))})

    def norm_float(self) -> float:
        """Frobenius norm of the coefficients, as a float (diagnostics).  When
        the binary exponent e of the largest magnitude exceeds 500 in size,
        each magnitude is divided by 2^e, exactly, before it is squared, so no
        square overflows or loses the norm; otherwise the plain sum of squares
        is kept bit for bit, added left to right on every Python (the built-in
        `sum` compensates from 3.12 on).  A norm beyond float range reads inf."""
        total = 0.0
        try:
            # int true division rounds correctly, to the float of each Fraction
            mags = ([abs(v / self.den) for v in self._nums.values()] if self.ring is RATIONALS
                    else list(map(self.ring.magnitude, self._blades.values())))
            e = math.frexp(max(mags, default=0.0))[1]
            e = e if abs(e) > 500 else 0
            for v in mags:
                total += math.ldexp(v, -e) ** 2
            return math.ldexp(total ** 0.5, e)
        except OverflowError:
            return math.inf

    def __repr__(self):
        return f"Multivector(n={self.n}, {self.to_text()})"

    def to_text(self) -> str:
        return format_multivector(self)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Associative Clifford product; bilinear, e_i e_j + e_j e_i = -2 delta_ij.

    Walks a's blades, then b's, in ascending mask order, so float sums keep
    one order.  Exact products sum in integers: with a's stored numerators
    A_i over da and b's B_j over db, each output blade sums sign * A_i * B_j
    over da * db, and the result is put in lowest terms once.  Over
    jets the A_i and B_j are the jets' int numerator tables, and each output
    blade accumulates into one table.  Float products keep their own loop,
    which sums the values directly into a scratch list of 2^n slots, the one
    dense 2^n list left: the same loop over a dict took 18-40% longer
    (cauchy_left * x plus cauchy_left * cauchy_left at a sampled float point,
    2-core Xeon VM: 16.1 against 19.0 us at n=3, 62.6 against 76.9 us at
    n=5, 425 against 595 us at n=9).
    """
    a._check(b)
    ring = a.ring
    if ring is RATIONALS:
        nb, db = (b._nums, b.den) if b.ring is RATIONALS else ring.split(b.blades)
        acc: dict = {}
        get = acc.get
        for i, ai in a._nums.items():
            for j, bj in nb.items():
                mask, sign = blade_product(i, j)
                acc[mask] = get(mask, 0) + sign * ai * bj
        return Multivector._exact(a.n, {m: v for m, v in sorted(acc.items()) if v},
                                  a.den * db)
    if isinstance(ring, JetRing):
        return _jet_product(a, b)
    out = [None] * (1 << a.n)
    touched = []  # masks in the order first set; compacted without a 2^n scan
    b_items = b.blades.items()
    for i, ca in a.blades.items():
        for j, cb in b_items:
            mask, sign = blade_product(i, j)
            p = ca * cb
            cur = out[mask]
            if cur is None:
                out[mask] = -p if sign < 0 else p
                touched.append(mask)
            elif sign < 0:
                out[mask] = cur - p
            else:
                out[mask] = cur + p
    touched.sort()
    blades = {m: v for m in touched if (v := out[m])}
    return Multivector._make(a.n, ring, blades)


def _jet_product(a: Multivector, b: Multivector) -> Multivector:
    """geometric_product over jets: one int numerator table per output
    blade, over the product of the two lcm denominators."""
    if not a.blades or not b.blades:
        return Multivector._make(a.n, a.ring, {})
    jets = [*a.blades.values(), *b.blades.values()]
    for jet in jets[1:]:
        jets[0]._check(jet)
    products = jets[0].ctx.products
    da = math.lcm(*(jet.den for jet in a.blades.values()))
    db = math.lcm(*(jet.den for jet in b.blades.values()))
    den = da * db
    # A_i = N_i * (da / den_i): the factor rides with the sign, so no
    # numerator table is copied
    nb = [(j, jet._nums, db // jet.den) for j, jet in b.blades.items()]
    acc: dict = {}
    for i, jet in a.blades.items():
        ai, fa = jet._nums, da // jet.den
        for j, bj, fb in nb:
            mask, sign = blade_product(i, j)
            out = acc.get(mask)
            if out is None:
                acc[mask] = out = {}
            mul_into(out, products, ai, bj, sign * fa * fb)
    blades = {}
    for mask in sorted(acc):
        nums = acc[mask]
        if 0 in nums.values():
            nums = {k: v for k, v in nums.items() if v}
        if nums:
            blades[mask] = jets[0]._like(nums, den)
    return Multivector._make(a.n, a.ring, blades)


class Paravector:
    """Element x0 + x1 e_1 + ... + xn e_n of R^{n+1} inside R_n.

    Over `RATIONALS` it stores the int numerators `_nums` of all n + 1
    coordinates over one `den` > 0, in lowest terms, and `x0` and `xu` are
    views of Fractions built on each read; powers, the inverse, the norms,
    scaling, conjugation, negation and `to_multivector` run on the ints.
    """

    __slots__ = ("ring", "n", "_x0", "_xu", "_nums", "den")

    def __init__(self, ring, x0, xu):
        xu = tuple(xu)
        self.ring, self.n = ring, len(xu)
        if ring is RATIONALS:  # over their lcm, the values' ratios stay in lowest terms
            ratios = [v.as_integer_ratio() for v in (x0, *xu)]
            self.den = den = math.lcm(*[d for _, d in ratios])
            self._nums = tuple(v * (den // d) for v, d in ratios)
        else:
            self._x0, self._xu = x0, xu

    @classmethod
    def _exact(cls, nums: tuple, den: int) -> "Paravector":
        """From the int numerators of every coordinate over den > 0; reduced by one gcd."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = tuple(v // g for v in nums), den // g
        out = object.__new__(cls)
        out.ring, out.n, out._nums, out.den = RATIONALS, len(nums) - 1, nums, den
        return out

    @property
    def x0(self):
        return Fraction(self._nums[0], self.den) if self.ring is RATIONALS else self._x0

    @property
    def xu(self) -> tuple:
        if self.ring is not RATIONALS:
            return self._xu
        return tuple(Fraction(v, self.den) for v in self._nums[1:])

    @classmethod
    def from_coords(cls, ring, coords):
        coords = [ring.lift(c) for c in coords]
        if len(coords) < 2:
            raise InvalidParams("paravector needs at least x0 and x1")
        return cls(ring, coords[0], coords[1:])

    def coords(self):
        return (self.x0,) + self.xu if self.ring is RATIONALS else (self._x0,) + self._xu

    def cast(self, ring) -> "Paravector":
        if ring is RATIONALS is self.ring:
            return self
        return Paravector(ring, ring.lift(self.x0), tuple(ring.lift(c) for c in self.xu))

    def to_multivector(self) -> Multivector:
        values = self._nums if (exact := self.ring is RATIONALS) else self.coords()
        blades = {(1 << i) >> 1: c for i, c in enumerate(values) if c}  # coordinate i's mask
        if exact:
            return Multivector._exact(self.n, blades, self.den)
        return Multivector._make(self.n, self.ring, blades)

    def conjugate(self) -> "Paravector":
        if self.ring is RATIONALS:
            return Paravector._exact((self._nums[0], *(-v for v in self._nums[1:])), self.den)
        return Paravector(self.ring, self._x0, tuple(-c for c in self._xu))

    def norm_sq(self):
        if self.ring is RATIONALS:
            return Fraction(sum(v * v for v in self._nums), self.den * self.den)
        acc = self._x0 * self._x0
        for c in self._xu:
            acc = acc + c * c
        return acc

    def vector_norm_sq(self):
        ring = self.ring
        if ring is RATIONALS:
            return Fraction(sum(v * v for v in self._nums[1:]), self.den * self.den)
        acc = ring.zero()
        for c in self._xu:
            acc = acc + c * c
        return acc

    def binary_exponent(self) -> int:
        """Exponent e of math.frexp for the largest float coordinate, so the
        coordinates of self.ldexp(-e) lie in (-1, 1); 0 when all are zero."""
        return math.frexp(max(abs(c) for c in self.coords()))[1]

    def ldexp(self, e: int) -> "Paravector":
        """Float paravector times 2^e, exact unless a coordinate leaves the
        normal range."""
        return Paravector(self.ring, math.ldexp(self._x0, e),
                          tuple(math.ldexp(c, e) for c in self._xu))

    def inverse(self) -> "Paravector":
        return self._inverse(self.norm_sq())

    def _inverse(self, ns) -> "Paravector":
        """The inverse, given ns = self.norm_sq(); over floats, an inverse
        outside float range raises InvalidParams.  Over lanes, a lane whose
        ns is not a normal float, and would take the rescale below or
        raise, reads NaN.  Over rationals it is xbar q / (den p) for ns = p / q."""
        ring = self.ring
        if isinstance(ns, Lanes):
            inv = Lanes([1.0 / v if 2.0 ** -1022 <= v <= 2.0 ** 1022 else math.nan
                         for v in ns.v])
        elif (isinstance(ns, float) and not 2.0 ** -1022 <= ns <= 2.0 ** 1022
                and (e := self.binary_exponent())):
            # |x|^2 or 1 / |x|^2 is not a normal float: invert x / 2^e, of norm near 1
            try:
                return self.ldexp(-e).inverse().ldexp(-e)
            except OverflowError:
                raise InvalidParams("paravector inverse lies outside float range") from None
        elif ns == 0:
            raise ZeroNorm("paravector has zero norm")
        elif ring is RATIONALS:
            (p, q), (c0, *cu) = ns.as_integer_ratio(), self._nums
            return Paravector._exact((c0 * q, *(-v * q for v in cu)), self.den * p)
        else:
            inv = ring.invert(ns)
        return Paravector(ring, self._x0 * inv, tuple(-c * inv for c in self._xu))

    def _plane_powers(self, k: int):
        """(a_j, b_j) with x^j = a_j + b_j * (vector part), for j = 0..k.

        x^(j+1) = (a_j x0 - b_j l) + (a_j + b_j x0) * (vector part), with l
        the squared norm of the vector part, computed only when k >= 2.
        Over rationals it runs on the numerators c: x^j = (a_j + b_j c_u) / den^j.
        """
        if k < 0:
            raise InvalidParams("negative power; invert first")
        ring = self.ring
        if exact := ring is RATIONALS:
            x0, one, zero = self._nums[0], 1, 0
        else:
            x0, one, zero = self._x0, ring.one(), ring.zero()
        yield one, zero
        if k < 1:
            return
        a, b = x0, one
        yield a, b
        if k < 2:
            return
        ell = sum(v * v for v in self._nums[1:]) if exact else self.vector_norm_sq()
        for _ in range(k - 1):
            a, b = a * x0 - b * ell, a + b * x0
            yield a, b

    def _from_plane(self, j: int, a, b) -> "Paravector":
        """x^j from its pair (a_j, b_j) of `_plane_powers`."""
        if self.ring is RATIONALS:
            return Paravector._exact((a, *(b * v for v in self._nums[1:])), self.den ** j)
        return Paravector(self.ring, a, tuple(b * c for c in self._xu))

    def pow(self, k: int) -> "Paravector":
        """k-th power, k >= 0; stays in the plane spanned by 1 and the vector part."""
        if k == 1:
            return self
        for a, b in self._plane_powers(k):
            pass  # keep only the last pair
        return self._from_plane(k, a, b)

    def powers(self, k: int) -> list:
        """[x^0, ..., x^k] from one run of the recurrence; powers(k)[j] is pow(j)."""
        return [self if j == 1 else self._from_plane(j, a, b)
                for j, (a, b) in enumerate(self._plane_powers(k))]

    def scale(self, c) -> "Paravector":
        if self.ring is RATIONALS:
            p, q = RATIONALS.lift(c).as_integer_ratio()
            return Paravector._exact(tuple(v * p for v in self._nums), self.den * q)
        c = self.ring.lift(c)
        return Paravector(self.ring, self._x0 * c, tuple(v * c for v in self._xu))

    def __add__(self, other):
        if not isinstance(other, Paravector):
            return NotImplemented
        self._check(other)
        return Paravector(
            self.ring, self.x0 + other.x0, tuple(a + b for a, b in zip(self.xu, other.xu))
        )

    def __sub__(self, other):
        if not isinstance(other, Paravector):
            return NotImplemented
        self._check(other)
        return Paravector(
            self.ring, self.x0 - other.x0, tuple(a - b for a, b in zip(self.xu, other.xu))
        )

    def __neg__(self):
        if self.ring is RATIONALS:
            return Paravector._exact(tuple(-v for v in self._nums), self.den)
        return Paravector(self.ring, -self._x0, tuple(-c for c in self._xu))

    def __mul__(self, other):
        if isinstance(other, Paravector):
            return self.to_multivector() * other.to_multivector()
        return NotImplemented

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n}")

    def __eq__(self, other):
        if not isinstance(other, Paravector):
            return NotImplemented
        return self.x0 == other.x0 and self.xu == other.xu

    __hash__ = None

    def __reduce__(self):  # pickled as the constructor's input, with no private slot
        return Paravector, (self.ring, self.x0, self.xu)

    def __repr__(self):
        return f"Paravector({self.coords()})"


def same_sphere(x: Paravector, y: Paravector) -> bool:
    """True iff y lies on the sphere [x]: equal real parts and vector norms."""
    x._check(y)
    if x.ring is RATIONALS is y.ring:  # cross-multiplied numerators
        (a, *u), (b, *v), dx, dy = x._nums, y._nums, x.den, y.den
        return a * dy == b * dx and sum(c * c for c in u) * dy**2 == sum(c * c for c in v) * dx**2
    return not (x.x0 - y.x0) and not (x.vector_norm_sq() - y.vector_norm_sq())


# -- text encoding ------------------------------------------------------


def format_multivector(mv: Multivector) -> str:
    parts = []
    for mask, c in mv.blades.items():
        name = blade_name(mask)
        text = str(c)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if name:
            text = f"{text}*{name}"
        if not parts:
            parts.append(("-" if negative else "") + text)
        else:
            parts.append(("- " if negative else "+ ") + text)
    if not parts:
        return "0"
    return " ".join(parts)


# Largest decimal exponent a number literal may carry, as in 1e4300: Fraction
# builds 10**e before any check runs (7 s at 1e10000000, minutes past it).
# Past about 3,300 `cli.MAX_EXACT_SIZE` refuses any exact value anyway, and a
# float is out of range or 0. The bound is sys.get_int_max_str_digits()'s
# default.
MAX_LITERAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\s*\Z")  # as Fraction reads it


def _read_number(text: str) -> Fraction:
    """Fraction(text), refusing first an exponent past MAX_LITERAL_EXPONENT."""
    if (match := _EXPONENT.search(text)) and abs(int(match[1])) > MAX_LITERAL_EXPONENT:
        raise ValueError(f"exponent past {MAX_LITERAL_EXPONENT} in literal {text!r}")
    return Fraction(text)


# A sign starts a new term unless it follows another sign or the exponent
# marker of a float literal, as in 1e-05.
_TERM_START = re.compile(r"(?<=[^eE+-])(?=[+-])")


def parse_multivector(text: str, n: int, ring=RATIONALS) -> Multivector:
    """Parse the `coeff*e{indices}` encoding, e.g. ``2 + 3*e1 + 1*e12``.

    Coefficients are integers, fractions or decimal literals with an optional
    exponent (``-2.5e+103``), so every text `format_multivector` prints reads
    back to the same multivector.
    """
    blades: dict = {}
    for term in _TERM_START.split(text.replace(" ", "")):
        if not term:
            continue
        body = term.lstrip("+-")
        negative = term[: len(term) - len(body)].count("-") % 2 == 1
        if "*" in body:
            coeff_text, name = body.split("*", 1)
        elif body.startswith("e"):
            coeff_text, name = "1", body
        else:
            coeff_text, name = body, ""
        mask = mask_from_name(name) if name else 0
        if mask >= (1 << n):
            raise InvalidParams(f"blade {name!r} outside dimension {n}")
        try:
            value = _read_number(coeff_text)
            coeff = ring.lift(-value if negative else value)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise InvalidParams(f"bad coefficient {coeff_text!r} in {text!r}") from None
        blades[mask] = blades.get(mask, ring.zero()) + coeff
    return Multivector(n, ring, blades)


def format_paravector(x: Paravector) -> str:
    return ",".join(map(str, x.coords()))


def parse_paravector(text: str, n: int, ring=RATIONALS) -> Paravector:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n + 1:
        raise InvalidParams(f"expected {n + 1} coordinates, got {len(parts)}")
    try:
        coords = [ring.lift(_read_number(p)) for p in parts]
    except ZeroDivisionError:
        raise InvalidParams(f"zero denominator in coordinates {text!r}") from None
    except OverflowError:
        raise InvalidParams(f"coordinates {text!r} out of float range") from None
    except ValueError as exc:
        raise InvalidParams(str(exc)) from exc
    return Paravector.from_coords(ring, coords)
