"""Real Clifford algebra R_n with generators squaring to -1, over any ring.

Elements are stored sparsely: ``blades[mask]`` is the coefficient of the
basis blade whose bitmask has bit ``i`` set when generator ``e_{i+1}`` is
present (mask 0 is the scalar part); blades with a zero coefficient are
absent.  Multivectors and paravectors have one storage form in every ring:
values over one denominator ``den``.  Exact values are int numerators, of
which ``blades`` and the coordinates are views; in any other ring ``den`` is
1 and the values are the ring's own.  Both operands of an operation share
one ring, and ``cast`` moves a value to another.  Values are immutable after
construction and all operations are pure, so multivectors can be shared
freely between threads.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatch, InvalidParams, ZeroNorm
from .rings import FLOATS, RATIONALS, JetRing, Lanes, mul_into

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


def _factor(ring, c) -> tuple:
    """(f, q): scaling by c multiplies each stored value by f and den by q.
    Over `RATIONALS`, c = f / q read exactly, as `RATIONALS.lift` reads it."""
    if ring is RATIONALS:
        return (c if isinstance(c, (int, Fraction)) else Fraction(c)).as_integer_ratio()
    return ring.lift(c), 1


def _floats(nums, den) -> tuple:
    """Exact numerators over den as floats (int true division rounds correctly)."""
    try:
        return tuple(v / den for v in nums)
    except OverflowError:
        raise InvalidParams("exact value lies outside float range") from None


def sum_sq(values):
    """values[0]^2 + values[1]^2 + ..., added left to right from the first
    square on every Python (the built-in `sum` compensates from 3.12 on)."""
    acc = values[0] * values[0]
    for v in values[1:]:
        acc = acc + v * v
    return acc


class Multivector:
    """Element of R_n over a commutative coefficient ring, stored sparsely.

    `blades` maps blade mask to coefficient and holds only the nonzero
    blades, in ascending mask order.  The constructor takes such a mapping
    (any order; a mask outside 0..2^n-1 raises) and drops the entries that
    are exactly zero.  Every ring stores one form: the nonzero values
    `_nums` by mask, ascending, over one `den` > 0.  Over `RATIONALS` they
    are int numerators in lowest terms (one multi-argument gcd per result),
    as an exact `Jet` keeps them, and `blades` is a view of Fractions; in
    any other ring `den` is 1 and `_nums` is `blades`.  Operands over two
    rings raise InvalidParams (`==` reads them as unequal); `cast` moves one.
    """

    __slots__ = ("n", "ring", "_nums", "den")

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
        # over their lcm, exact values' ratios stay in lowest terms
        self._nums, self.den = RATIONALS.split(blades) if ring is RATIONALS else (blades, 1)

    @classmethod
    def _make(cls, n: int, ring, nums: dict, den: int = 1) -> "Multivector":
        """From nonzero values, ascending by mask, over den > 0, unchecked;
        exact numerators are put in lowest terms by one gcd."""
        if ring is RATIONALS and (g := math.gcd(den, *nums.values())) != 1:
            nums, den = {m: v // g for m, v in nums.items()}, den // g
        out = object.__new__(cls)
        out.n, out.ring, out._nums, out.den = n, ring, nums, den
        return out

    @property
    def blades(self) -> dict:
        exact = self.ring is RATIONALS
        return {m: Fraction(v, self.den) for m, v in self._nums.items()} if exact else self._nums

    @classmethod
    def zero(cls, n: int, ring):
        return cls(n, ring, {})

    @classmethod
    def scalar(cls, n: int, ring, value):
        return cls(n, ring, {0: ring.lift(value)})

    @classmethod
    def blade(cls, n: int, ring, mask: int, value=1):
        return cls(n, ring, {mask: ring.lift(value)})

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n}")
        if self.ring is not other.ring:
            raise InvalidParams(f"operands over two rings, {self.ring!r} and {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check(other)
        da, db = self.den, other.den
        if da == db:  # always outside RATIONALS, where den is 1
            out, b = dict(self._nums), other._nums
        else:  # numerators over lcm(da, db)
            g = math.gcd(da, db)
            out = {m: v * (db // g) for m, v in self._nums.items()}
            b = {m: v * (da // g) for m, v in other._nums.items()}
            da = da // g * db
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
        return Multivector._make(self.n, self.ring, out, da)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Multivector._make(self.n, self.ring, {m: -v for m, v in self._nums.items()},
                                 self.den)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # ring scalars are central, so left and right scaling agree
        return self.scale(other)

    def scale(self, c) -> "Multivector":
        f, q = _factor(self.ring, c)
        return Multivector._make(self.n, self.ring,
                                 {m: v for m, a in self._nums.items() if (v := a * f)},
                                 self.den * q)

    def cast(self, ring) -> "Multivector":
        """This multivector over `ring`, each blade through `ring.lift`, or an
        exact one to floats through `_floats`, dropped if that is 0.0;
        itself in its own ring."""
        if ring is self.ring:
            return self
        if self.ring is RATIONALS and ring is FLOATS:
            floats = zip(self._nums, _floats(self._nums.values(), self.den))
            return Multivector._make(self.n, ring, {m: v for m, v in floats if v})
        return Multivector(self.n, ring, {m: ring.lift(c) for m, c in self.blades.items()})

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        # in lowest terms, equal exact values store alike
        return (self.n == other.n and self.ring is other.ring
                and (self._nums, self.den) == (other._nums, other.den))

    __hash__ = None

    def __reduce__(self):  # pickled as the constructor's input, with no private slot
        return Multivector, (self.n, self.ring, self.blades)

    def is_zero(self) -> bool:
        return not self._nums

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
                    else list(map(self.ring.magnitude, self._nums.values())))
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
        acc: dict = {}
        get = acc.get
        for i, ai in a._nums.items():
            for j, bj in b._nums.items():
                mask, sign = blade_product(i, j)
                acc[mask] = get(mask, 0) + sign * ai * bj
        return Multivector._make(a.n, ring, {m: v for m, v in sorted(acc.items()) if v},
                                 a.den * b.den)
    if isinstance(ring, JetRing):
        return _jet_product(a, b)
    out = [None] * (1 << a.n)
    touched = []  # masks in the order first set; compacted without a 2^n scan
    b_items = b._nums.items()
    for i, ca in a._nums.items():
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
    if not a._nums or not b._nums:
        return Multivector._make(a.n, a.ring, {})
    jets = [*a._nums.values(), *b._nums.values()]
    for jet in jets[1:]:
        jets[0].ctx._check(jet.ctx)
    products = jets[0].ctx.products
    da = math.lcm(*(jet.den for jet in a._nums.values()))
    db = math.lcm(*(jet.den for jet in b._nums.values()))
    den = da * db
    # A_i = N_i * (da / den_i): the factor rides with the sign, so no
    # numerator table is copied
    nb = [(j, jet._nums, db // jet.den) for j, jet in b._nums.items()]
    acc: dict = {}
    for i, jet in a._nums.items():
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

    Stored as a `Multivector` is: all n + 1 coordinates `_nums` over one
    `den` > 0, int numerators in lowest terms over `RATIONALS`, of which
    `x0`, `xu` and `coords()` are Fraction views, else the ring's values
    over 1.  Operations run on `_nums`; `+`, `-` and `same_sphere` first put
    both operands, of one ring, over one denominator (`common_numerators`).
    """

    __slots__ = ("ring", "n", "_nums", "den")

    def __init__(self, ring, x0, xu):
        nums = (x0, *xu)
        self.ring, self.n = ring, len(nums) - 1
        if not 1 <= self.n <= MAX_DIMENSION:
            raise InvalidParams(f"dimension {self.n} outside 1..{MAX_DIMENSION}")
        if ring is RATIONALS:  # over their lcm, the values' ratios stay in lowest terms
            ratios = [v.as_integer_ratio() for v in nums]
            self.den = den = math.lcm(*[d for _, d in ratios])
            self._nums = tuple(v * (den // d) for v, d in ratios)
        else:
            self._nums, self.den = nums, 1

    @classmethod
    def _make(cls, ring, nums: tuple, den: int = 1) -> "Paravector":
        """From every coordinate's value over den > 0, unchecked; exact
        numerators are put in lowest terms by one gcd."""
        if ring is RATIONALS and (g := math.gcd(den, *nums)) != 1:
            nums, den = tuple(v // g for v in nums), den // g
        out = object.__new__(cls)
        out.ring, out.n, out._nums, out.den = ring, len(nums) - 1, nums, den
        return out

    def _over(self, v, power: int):
        """The ring value v / den^power of a stored value v or its square."""
        return Fraction(v, self.den ** power) if self.ring is RATIONALS else v

    @property
    def x0(self):
        return self._over(self._nums[0], 1)

    @property
    def xu(self) -> tuple:
        return self.coords()[1:]

    @classmethod
    def from_coords(cls, ring, coords):
        x0, *xu = [ring.lift(c) for c in coords] or [ring.zero()]  # none is dimension 0
        return cls(ring, x0, xu)

    def coords(self) -> tuple:
        exact = self.ring is RATIONALS
        return tuple(Fraction(v, self.den) for v in self._nums) if exact else self._nums

    def cast(self, ring) -> "Paravector":
        if self.ring is RATIONALS and ring is FLOATS:
            return Paravector._make(ring, _floats(self._nums, self.den))
        return self if ring is self.ring else Paravector.from_coords(ring, self.coords())

    def to_multivector(self) -> Multivector:
        blades = {(1 << i) >> 1: c for i, c in enumerate(self._nums) if c}  # coordinate i's mask
        return Multivector._make(self.n, self.ring, blades, self.den)

    def conjugate(self) -> "Paravector":
        c0, *cu = self._nums
        return Paravector._make(self.ring, (c0, *(-v for v in cu)), self.den)

    def norm_sq(self):
        return self._over(sum_sq(self._nums), 2)

    def vector_norm_sq(self):
        return self._over(sum_sq(self._nums[1:]), 2)

    def binary_exponent(self) -> int:
        """Exponent e of math.frexp for the largest float coordinate, so the
        coordinates of self.ldexp(-e) lie in (-1, 1); 0 when all are zero."""
        return math.frexp(max(abs(c) for c in self.coords()))[1]

    def ldexp(self, e: int) -> "Paravector":
        """Float paravector times 2^e, exact unless a coordinate leaves the
        normal range."""
        return Paravector._make(self.ring, tuple(math.ldexp(c, e) for c in self._nums))

    def inverse(self) -> "Paravector":
        return self._inverse(self.norm_sq())

    def _inverse(self, ns) -> "Paravector":
        """The inverse, given ns = self.norm_sq(); over floats, an inverse
        outside float range raises InvalidParams.  Over lanes, a lane whose
        ns is not a normal float, and would take the rescale below or
        raise, reads NaN.  Over rationals it is xbar q / (den p) for ns = p / q."""
        ring, den = self.ring, self.den
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
            p, inv = ns.as_integer_ratio()
            den *= p
        else:
            inv = ring.invert(ns)
        c0, *cu = self._nums
        return Paravector._make(ring, (c0 * inv, *(-c * inv for c in cu)), den)

    def _plane_powers(self, k: int):
        """(a_j, b_j) with x^j = (a_j + b_j * (vector part)) / den^j, for
        j = 0..k, on the stored values c (so den^j is 1 outside RATIONALS).

        x^(j+1) = (a_j c0 - b_j l) + (a_j + b_j c0) * (vector part), with l
        the sum of squares of the vector part, computed only when k >= 2.
        """
        if k < 0:
            raise InvalidParams("negative power; invert first")
        ring = self.ring
        one, zero = (1, 0) if ring is RATIONALS else (ring.one(), ring.zero())
        yield one, zero
        if k < 1:
            return
        x0 = self._nums[0]
        a, b = x0, one
        yield a, b
        if k < 2:
            return
        ell = sum_sq(self._nums[1:])
        for _ in range(k - 1):
            a, b = a * x0 - b * ell, a + b * x0
            yield a, b

    def _from_plane(self, j: int, a, b) -> "Paravector":
        """x^j from its pair (a_j, b_j) of `_plane_powers`."""
        return Paravector._make(self.ring, (a, *(b * v for v in self._nums[1:])), self.den ** j)

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
        f, q = _factor(self.ring, c)
        return Paravector._make(self.ring, tuple(v * f for v in self._nums), self.den * q)

    def __add__(self, other):
        if not isinstance(other, Paravector):
            return NotImplemented
        a, b, d = common_numerators(self, other)
        return Paravector._make(self.ring, tuple(u + v for u, v in zip(a, b)), d)

    def __sub__(self, other):
        if not isinstance(other, Paravector):
            return NotImplemented
        a, b, d = common_numerators(self, other)
        return Paravector._make(self.ring, tuple(u - v for u, v in zip(a, b)), d)

    def __neg__(self):
        return Paravector._make(self.ring, tuple(-v for v in self._nums), self.den)

    def __mul__(self, other):
        if isinstance(other, Paravector):
            return self.to_multivector() * other.to_multivector()
        return NotImplemented

    _check = Multivector._check

    def __eq__(self, other):
        if not isinstance(other, Paravector):
            return NotImplemented
        return self.ring is other.ring and (self._nums, self.den) == (other._nums, other.den)

    __hash__ = None

    def __reduce__(self):  # pickled as the constructor's input, with no private slot
        return Paravector, (self.ring, self.x0, self.xu)

    def __repr__(self):
        return f"Paravector({self.coords()})"


def common_numerators(x: Paravector, y: Paravector) -> tuple:
    """(values of x, values of y, d): both over d = lcm of their dens, so
    outside RATIONALS d is 1 and the values are the coordinates."""
    x._check(y)
    dx, dy = x.den, y.den
    if dx == dy:
        return x._nums, y._nums, dx
    d = math.lcm(dx, dy)
    return tuple(v * (d // dx) for v in x._nums), tuple(v * (d // dy) for v in y._nums), d


def same_sphere(x: Paravector, y: Paravector) -> bool:
    """True iff y lies on the sphere [x]: equal real parts and vector norms,
    compared on the values over one denominator."""
    (a, *u), (b, *v), _ = common_numerators(x, y)
    return not (a - b) and not (sum_sq(u) - sum_sq(v))


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
