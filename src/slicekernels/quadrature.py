"""Slice-plane contour integration: Cauchy reconstruction and the integral
form of the Fueter-Sce map, on axially symmetric balls at desk scale.

Quadrature runs in float arithmetic only; the trapezoidal rule on the
periodic circle parametrization is spectrally accurate for the analytic
integrands used here.  Each integral evaluates over the contour's nodes as
one float paravector whose coordinates are node lanes (`rings.Lanes`), so
each blade is a column of its values at the nodes, each the float it takes
at that node alone: the integrand w_j f(s_j)
is one lane product of the weights and f, and the library kernel is one
call.  When a node leaves the kernels' common float branch, the kernel is
evaluated over floats at every node, in node order, so each raises or
rescales as it does alone.  Each blade of the integral is then one exactly
rounded `math.fsum` over the products of kernel blades and integrand
blades, so the result does not depend on summation order; an integral
outside float range is refused.  A contour's nodes, node lanes and weights
are built once per contour value, and a node coordinate that is zero at
every node, as the n - 1 coordinates off a C_{e1} contour's plane are, is
one plain 0.0 rather than a lane column, so the kernels do no lane work on
it.  The integrand w_j f(s_j) is built once per f and contour value, equal
SliceFunctions sharing one.  Each memo keeps its two most recent entries,
so repeated integrals of one f over one contour, or alternating over two,
build neither again.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .clifford import Multivector, Paravector, blade_product
from .errors import DomainError, InvalidParams
from .kernels import cauchy_left, fueter_sce_kernel
from .rings import FLOATS, Lanes

# Nodes per contour, at most: a contour costs about 1.5 KB per node, and the
# suites' checks converge long before this.
MAX_NODES = 2**16


class SliceFunction:
    """The intrinsic slice function f(x) = sum of a_k x^k, real a_k.

    `coeffs` holds a_0, a_1, ... as Fractions.  `f(x)` evaluates the series
    in the ring of the paravector x (rationals, floats, node lanes or
    jets), so over floats it is the slice extension alpha(x0, |xv|)
    + (xv/|xv|) beta(x0, |xv|) of the holomorphic polynomial.  It is the
    form the quadrature and the jet oracle both evaluate.  A coefficient that
    is not finite, or over floats not a float, raises InvalidParams.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        try:
            self.coeffs = tuple(map(Fraction, coeffs))
        except (OverflowError, ValueError, ZeroDivisionError):  # inf, nan, 1/0
            raise InvalidParams("slice function coefficient is not a finite number") from None

    def __eq__(self, other):
        if not isinstance(other, SliceFunction):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x: Paravector) -> Multivector:
        ring = x.ring
        try:
            terms = [(k, ring.lift(a)) for k, a in enumerate(self.coeffs) if a]
        except OverflowError:
            raise InvalidParams("slice function coefficient lies outside float range") from None
        acc = Multivector.zero(x.n, ring)
        for k, a in terms:
            acc = acc + x.pow(k).to_multivector().scale(a)
        return acc


class ContourSpec:
    """Circle of given center (real) and radius inside the slice plane C_I."""

    __slots__ = ("I", "center", "radius", "nodes")

    def __init__(self, I, center: float, radius: float, nodes: int):
        I = tuple(float(c) for c in I)
        center, radius = float(center), float(radius)
        norm = sum(c * c for c in I)
        # written so that a NaN fails each test
        if not abs(norm - 1.0) <= 1e-9:
            raise InvalidParams("I must be a unit 1-vector (I^2 = -1)")
        if not 0 < radius < math.inf:
            raise InvalidParams("radius must be positive and finite")
        if not math.isfinite(center):
            raise InvalidParams("center must be finite")
        if nodes < 8 or nodes % 2:
            raise InvalidParams("node count must be even and >= 8")
        if nodes > MAX_NODES:
            raise InvalidParams(f"node count must be <= {MAX_NODES}, got {nodes}")
        self.I = I
        self.center = center
        self.radius = radius
        self.nodes = nodes

    @property
    def n(self) -> int:
        return len(self.I)

    def with_nodes(self, nodes: int) -> "ContourSpec":
        return ContourSpec(self.I, self.center, self.radius, nodes)

    @property
    def key(self) -> tuple:
        """The contour's value, exactly: float.hex keeps the sign of a zero."""
        return tuple(v.hex() for v in (*self.I, self.center, self.radius)) + (self.nodes,)


def contour_nodes(contour: ContourSpec) -> tuple:
    """Quadrature nodes s_j and weights ds_I * (2 pi / N), as (s, w) pairs.

    With s(t) = center + r cos t + I r sin t one has ds_I = ds (-I)
    = (s - center) dt, so the weight is just the radial offset scaled by
    the angular step.
    """
    return _nodes(contour.key)[0]


# Two contours at a time: the slice-independence check alternates two, and
# every other check stays on one, so a larger cache only holds more memory.
@lru_cache(maxsize=2)
def _nodes(key: tuple) -> tuple:
    """The (s, w) pairs of a contour, its nodes s_j, and the nodes and the
    weights as one float paravector and one float multivector whose values
    are node lanes, built once per contour value.  A coordinate that is zero
    at every node is the plain 0.0, which broadcasts against lanes."""
    *values, N = key
    *I, c, r = map(float.fromhex, values)
    step = 2.0 * math.pi / N
    pairs = []
    for j in range(N):
        t = step * j
        ct, st = math.cos(t), math.sin(t)
        s = Paravector(FLOATS, c + r * ct, tuple(comp * (r * st) for comp in I))
        w = Paravector(FLOATS, r * ct * step, tuple(comp * (r * st * step) for comp in I))
        pairs.append((s, w))
    points = tuple(s for s, _ in pairs)

    def lanes(paravectors):
        x0, *xu = (Lanes(list(c)) if any(c) else 0.0
                   for c in zip(*(p.coords() for p in paravectors)))
        return Paravector(FLOATS, x0, xu)

    return (tuple(pairs), points, lanes(points),
            lanes(w for _, w in pairs).to_multivector())


# Two entries, as for the contours: each check keeps one f on one contour,
# or alternates two contours with one f.
@lru_cache(maxsize=2)
def _integrand(f, key: tuple) -> dict:
    """p -> (column, negated column) of blade p of w_j f(s_j) over the nodes,
    one lane product built once per f and contour value; a SliceFunction is
    compared by its coefficients, any other f by identity."""
    _, _, lanes, weights = _nodes(key)
    return {p: (c.v, [-v for v in c.v]) for p, c in (weights * f(lanes)).blades.items()}


def _require_interior(x: Paravector, contour: ContourSpec):
    """Refuse an x that is not finite, or not inside the contour by more
    than 1e-9 of its radius; hypot scales, so no radius over- or underflows."""
    if x.n != contour.n:
        raise InvalidParams("point and contour dimensions differ")
    coords = [float(c) for c in x.coords()]
    if not all(map(math.isfinite, coords)):
        raise InvalidParams("x must be finite")
    dist = math.hypot(coords[0] - contour.center, *coords[1:])
    r = contour.radius
    if abs(dist - r) <= 1e-9 * r:
        raise DomainError("x lies on the contour")
    if dist > r:
        raise DomainError("x lies outside the axially symmetric domain")


def _columns(multivectors) -> dict:
    """mask -> that blade's values over the sequence, 0.0 where absent."""
    blades = [mv.blades for mv in multivectors]
    return {m: [b.get(m, 0.0) for b in blades] for m in set().union(*blades)}


def _kernel_columns(kernel, x: Paravector, key: tuple) -> dict:
    """mask -> kernel(s_j, x)[mask] over the nodes, zero where absent.

    One kernel call over the node lanes; each finite lane is its node's
    float kernel, but for the sign of a zero.  A lane that is not finite
    left the kernels' common float branch, or overflowed, and a kernel that
    is zero in every lane would hide one; then every node is evaluated
    alone, in node order, so the first that raises raises as it does alone.
    """
    _, points, lanes, _ = _nodes(key)
    columns = {m: c.v if isinstance(c, Lanes) else [c] * len(points)  # a constant blade
               for m, c in kernel(lanes, x).blades.items()}
    if columns and all(math.isfinite(sum(col)) for col in columns.values()):
        return columns
    return _columns(kernel(s, x) for s in points)


def _integral(kernel, f, x: Paravector, contour: ContourSpec) -> Multivector:
    """(1/2pi) sum of kernel(s_j, x) w_j f(s_j), one kernel call over the
    node lanes and the memoized integrand w_j f(s_j).  By bilinearity, blade
    m^p of the sum is one exactly rounded fsum of sign(m, p) K_j[m]
    (w_j f(s_j))[p] over every node j and blade pair (m, p); a sum that is
    not a finite float is refused."""
    _require_interior(x, contour)
    key = contour.key
    integrand = _integrand(f, key)
    terms: dict = {}
    for m, kc in _kernel_columns(kernel, x, key).items():
        for p, signed in integrand.items():
            mask, sign = blade_product(m, p)
            terms.setdefault(mask, []).append(map(operator.mul, kc, signed[sign < 0]))
    scale = 1.0 / (2.0 * math.pi)
    blades = {mask: v for mask in sorted(terms)
              if (v := _finite_fsum(chain.from_iterable(terms[mask])) * scale)}
    return Multivector._make(x.n, FLOATS, blades)


def _finite_fsum(terms) -> float:
    """math.fsum of the terms, refused when it is not a finite float."""
    try:
        total = math.fsum(terms)
    except (ValueError, OverflowError):  # inf - inf, or a partial sum overflowed
        total = math.nan
    if not math.isfinite(total):
        raise InvalidParams("integral lies outside float range")
    return total


def cauchy_reconstruct(f, x: Paravector, contour: ContourSpec) -> Multivector:
    """(1/2pi) sum of S_L^{-1}(s_j, x) ds_I f(s_j) over the circle nodes."""
    return _integral(lambda s, y: cauchy_left(s, y, form="II"), f, x, contour)


def fueter_sce_integral(f, x: Paravector, contour: ContourSpec) -> Multivector:
    """(1/2pi) sum of F_L^n(s_j, x) ds_I f(s_j); the axially monogenic image."""
    if x.n % 2 == 0 or x.n < 3:
        raise InvalidParams("integral Fueter-Sce map needs odd dimension >= 3")
    return _integral(lambda s, y: fueter_sce_kernel(s, y, side="left"), f, x, contour)


def convergence_table(integral, f, x: Paravector, contour: ContourSpec,
                      node_counts, reference: Multivector):
    """Error versus node count; `ratio` is the decay per row."""
    rows = []
    prev = None
    for N in node_counts:
        approx = integral(f, x, contour.with_nodes(N))
        err = (approx - reference).norm_float()
        ratio = (err / prev) if (prev and prev > 0) else None
        rows.append({"N": N, "abs_error": err, "ratio": ratio})
        prev = err
    return rows


def write_convergence_csv(rows, stream):
    stream.write("N,abs_error,ratio\n")
    for row in rows:
        ratio = "" if row["ratio"] is None else repr(row["ratio"])
        stream.write(f"{row['N']},{row['abs_error']!r},{ratio}\n")
