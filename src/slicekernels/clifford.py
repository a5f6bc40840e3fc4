"""Real Clifford algebra R_n with generators squaring to -1, over any ring.

Elements are stored densely: ``coeffs[mask]`` is the coefficient of the
basis blade whose bitmask has bit ``i`` set when generator ``e_{i+1}`` is
present (mask 0 is the scalar part).  Values are immutable after
construction and all operations are pure, so multivectors can be shared
freely between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatch, InvalidParams, ZeroNorm
from .rings import RATIONALS

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
    body = name[1:]
    if body.startswith("{"):
        parts = body.strip("{}").split(",")
    else:
        parts = list(body)
    mask = 0
    for p in parts:
        if not name.startswith("e") or not p.isdecimal() or int(p) < 1:
            raise InvalidParams(f"bad blade name {name!r}")
        mask |= 1 << (int(p) - 1)
    return mask


class Multivector:
    """Dense element of R_n over a commutative coefficient ring."""

    __slots__ = ("n", "ring", "coeffs")

    def __init__(self, n: int, ring, coeffs):
        if not 1 <= n <= MAX_DIMENSION:
            raise InvalidParams(f"dimension {n} outside 1..{MAX_DIMENSION}")
        if len(coeffs) != 1 << n:
            raise InvalidParams("coefficient array must have 2^n entries")
        self.n = n
        self.ring = ring
        self.coeffs = list(coeffs)

    @classmethod
    def zero(cls, n: int, ring):
        z = ring.zero()
        return cls(n, ring, [z] * (1 << n))

    @classmethod
    def scalar(cls, n: int, ring, value):
        out = cls.zero(n, ring)
        out.coeffs[0] = ring.lift(value)
        return out

    @classmethod
    def blade(cls, n: int, ring, mask: int, value=1):
        out = cls.zero(n, ring)
        out.coeffs[mask] = ring.lift(value)
        return out

    @classmethod
    def basis_vector(cls, n: int, ring, i: int):
        """Generator e_i (1-based)."""
        if not 1 <= i <= n:
            raise InvalidParams(f"generator index {i} out of range")
        return cls.blade(n, ring, 1 << (i - 1))

    def _check(self, other: "Multivector"):
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check(other)
        return Multivector(
            self.n, self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check(other)
        return Multivector(
            self.n, self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return Multivector(self.n, self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # ring scalars are central, so left and right scaling agree
        return self.scale(other)

    def scale(self, c) -> "Multivector":
        c = self.ring.lift(c)
        return Multivector(self.n, self.ring, [a * c for a in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    __hash__ = None

    def is_zero(self) -> bool:
        ring = self.ring
        return all(ring.is_zero(c) for c in self.coeffs)

    def coeff(self, mask: int):
        return self.coeffs[mask]

    def scalar_part(self):
        return self.coeffs[0]

    def max_grade(self) -> int:
        ring = self.ring
        top = 0
        for mask, c in enumerate(self.coeffs):
            if not ring.is_zero(c):
                top = max(top, mask.bit_count())
        return top

    def is_paravector(self) -> bool:
        return self.max_grade() <= 1

    def map_coeffs(self, fn, ring=None) -> "Multivector":
        return Multivector(self.n, ring or self.ring, [fn(c) for c in self.coeffs])

    def norm_float(self) -> float:
        """Frobenius norm of the coefficient array, as a float (diagnostics)."""
        mag = self.ring.magnitude
        return sum(mag(c) ** 2 for c in self.coeffs) ** 0.5

    def __repr__(self):
        return f"Multivector(n={self.n}, {self.to_text()})"

    def to_text(self) -> str:
        return format_multivector(self)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Associative Clifford product; bilinear, e_i e_j + e_j e_i = -2 delta_ij."""
    a._check(b)
    ring = a.ring
    out = [ring.zero()] * (1 << a.n)
    is_zero = ring.is_zero
    bc = b.coeffs
    nonzero_b = [(j, cb) for j, cb in enumerate(bc) if not is_zero(cb)]
    for i, ca in enumerate(a.coeffs):
        if is_zero(ca):
            continue
        for j, cb in nonzero_b:
            mask, sign = blade_product(i, j)
            p = ca * cb
            if sign < 0:
                out[mask] = out[mask] - p
            else:
                out[mask] = out[mask] + p
    return Multivector(a.n, ring, out)


class Paravector:
    """Element x0 + x1 e_1 + ... + xn e_n of R^{n+1} inside R_n."""

    __slots__ = ("ring", "x0", "xu")

    def __init__(self, ring, x0, xu):
        self.ring = ring
        self.x0 = x0
        self.xu = tuple(xu)

    @classmethod
    def from_coords(cls, ring, coords):
        coords = [ring.lift(c) for c in coords]
        if len(coords) < 2:
            raise InvalidParams("paravector needs at least x0 and x1")
        return cls(ring, coords[0], coords[1:])

    @property
    def n(self) -> int:
        return len(self.xu)

    def coords(self):
        return (self.x0,) + self.xu

    def cast(self, ring) -> "Paravector":
        return Paravector(ring, ring.lift(self.x0), tuple(ring.lift(c) for c in self.xu))

    def to_multivector(self) -> Multivector:
        out = Multivector.zero(self.n, self.ring)
        out.coeffs[0] = self.x0
        for i, c in enumerate(self.xu):
            out.coeffs[1 << i] = c
        return out

    def conjugate(self) -> "Paravector":
        return Paravector(self.ring, self.x0, tuple(-c for c in self.xu))

    def norm_sq(self):
        acc = self.x0 * self.x0
        for c in self.xu:
            acc = acc + c * c
        return acc

    def vector_norm_sq(self):
        ring = self.ring
        acc = ring.zero()
        for c in self.xu:
            acc = acc + c * c
        return acc

    def inverse(self) -> "Paravector":
        ring = self.ring
        ns = self.norm_sq()
        if ring.is_zero(ns):
            raise ZeroNorm("paravector has zero norm")
        inv = ring.invert(ns)
        return Paravector(ring, self.x0 * inv, tuple(-c * inv for c in self.xu))

    def pow(self, k: int) -> "Paravector":
        """k-th power, k >= 0; stays in the plane spanned by 1 and the vector part."""
        if k < 0:
            raise InvalidParams("negative power; invert first")
        ring = self.ring
        a, b = ring.one(), ring.zero()
        if k:
            ell = self.vector_norm_sq()
            for _ in range(k):
                a, b = a * self.x0 - b * ell, a + b * self.x0
        return Paravector(ring, a, tuple(b * c for c in self.xu))

    def scale(self, c) -> "Paravector":
        c = self.ring.lift(c)
        return Paravector(self.ring, self.x0 * c, tuple(v * c for v in self.xu))

    def add_scalar(self, c) -> "Paravector":
        return Paravector(self.ring, self.x0 + self.ring.lift(c), self.xu)

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
        return Paravector(self.ring, -self.x0, tuple(-c for c in self.xu))

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

    def __repr__(self):
        return f"Paravector({self.coords()})"


def conjugate(x: Paravector) -> Paravector:
    return x.conjugate()


def norm_sq(x: Paravector):
    return x.norm_sq()


def paravector_inverse(x: Paravector) -> Paravector:
    return x.inverse()


def paravector_pow(x: Paravector, k: int) -> Paravector:
    return x.pow(k)


def same_sphere(x: Paravector, y: Paravector) -> bool:
    """True iff y lies on the sphere [x]: equal real parts and vector norms."""
    x._check(y)
    ring = x.ring
    return ring.is_zero(x.x0 - y.x0) and ring.is_zero(
        x.vector_norm_sq() - y.vector_norm_sq()
    )


# -- text encoding ------------------------------------------------------


def _format_coeff(c) -> str:
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, float):
        return repr(c)
    return str(c)


def format_multivector(mv: Multivector) -> str:
    ring = mv.ring
    parts = []
    for mask, c in enumerate(mv.coeffs):
        if ring.is_zero(c):
            continue
        name = blade_name(mask)
        text = _format_coeff(c)
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


# A sign starts a new term unless it follows another sign or the exponent
# marker of a float literal, as in 1e-05.
_TERM_START = re.compile(r"(?<=[^eE+-])(?=[+-])")


def parse_multivector(text: str, n: int, ring=RATIONALS) -> Multivector:
    """Parse the `coeff*e{indices}` encoding, e.g. ``2 + 3*e1 + 1*e12``.

    Coefficients are integers, fractions or decimal literals with an optional
    exponent (``-2.5e+103``), so every text `format_multivector` prints reads
    back to the same multivector.
    """
    out = Multivector.zero(n, ring)
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
            value = Fraction(coeff_text)
            coeff = ring.lift(-value if negative else value)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise InvalidParams(f"bad coefficient {coeff_text!r} in {text!r}") from None
        out.coeffs[mask] = out.coeffs[mask] + coeff
    return out


def format_paravector(x: Paravector) -> str:
    return ",".join(_format_coeff(c) for c in x.coords())


def parse_paravector(text: str, n: int, ring=RATIONALS) -> Paravector:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n + 1:
        raise InvalidParams(f"expected {n + 1} coordinates, got {len(parts)}")
    if ring is RATIONALS:
        coords = [Fraction(p) for p in parts]
    else:
        try:
            coords = [ring.lift(Fraction(p)) for p in parts]
        except OverflowError:
            raise InvalidParams(f"coordinates {text!r} out of float range") from None
    return Paravector.from_coords(ring, coords)
