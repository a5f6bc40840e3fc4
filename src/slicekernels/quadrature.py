"""Slice-plane contour integration: Cauchy reconstruction and the integral
form of the Fueter-Sce map, on axially symmetric balls at desk scale.

Quadrature runs in float arithmetic only; the trapezoidal rule on the
periodic circle parametrization is spectrally accurate for the analytic
integrands used here.  The library kernel is evaluated once per integral,
over the contour's nodes as float lanes (`rings.Lanes`), so each blade of
the kernel is a column of its values at the nodes, each the float the
kernel gives at that node alone.  When a node leaves the kernels' common
float branch, every node is evaluated over floats, in node order, so each
raises or rescales as it does alone.  Each blade of the integral is then
one exactly rounded `math.fsum` over the products of kernel blades and
blades of w_j f(s_j), so the result does not depend on summation order.
A contour's nodes, node lanes and weights are built once per contour
value, and the blade columns of w_j f(s_j) once per slice function and
contour; each memo keeps its two most recent entries, so repeated
integrals over one contour, or alternating over two, pay only for one
kernel call.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain

from .clifford import Multivector, Paravector, blade_product
from .errors import DomainError, InvalidParams, ParityError
from .kernels import cauchy_left, fueter_sce_kernel
from .rings import FLOATS, LANES, Lanes

# Nodes per contour, at most: a contour costs about 1.5 KB per node, and the
# suites' checks converge long before this.
MAX_NODES = 2**16


class SliceFunction:
    """Polynomial slice function alpha(u,v) + I beta(u,v).

    `alpha` and `beta` map exponent pairs (i, j) of u^i v^j to real
    coefficients; evaluation reads their float values, taken once at
    construction.  The even-odd conditions are enforced structurally: alpha
    may only carry even powers of v and beta only odd powers.
    """

    def __init__(self, alpha: dict, beta: dict, series=None):
        self.alpha = {k: Fraction(v) for k, v in alpha.items() if v != 0}
        self.beta = {k: Fraction(v) for k, v in beta.items() if v != 0}
        for (_, j) in self.alpha:
            if j % 2 == 1:
                raise ParityError("alpha carries an odd power of v")
        for (_, j) in self.beta:
            if j % 2 == 0:
                raise ParityError("beta carries an even power of v")
        self.series = tuple(Fraction(c) for c in series) if series is not None else None
        # float terms (i, j, c) in the order _slice_value sums them; f(s)
        # depends on nothing else, so they also key the integrand memo
        self.terms = (tuple((i, j, float(c)) for (i, j), c in self.alpha.items()),
                      tuple((i, j, float(c)) for (i, j), c in self.beta.items()))

    @classmethod
    def from_power_series(cls, coeffs) -> "SliceFunction":
        """Intrinsic polynomial sum a_k x^k with real coefficients."""
        alpha: dict = {}
        beta: dict = {}
        for k, a in enumerate(coeffs):
            a = Fraction(a)
            if a == 0:
                continue
            for t in range(k + 1):
                # the term u^(k-t) (I v)^t of (u + I v)^k, with I^2 = -1
                part = beta if t % 2 else alpha
                sign = -1 if (t // 2) % 2 else 1
                part[k - t, t] = part.get((k - t, t), Fraction(0)) + sign * a * math.comb(k, t)
        return cls(alpha, beta, series=coeffs)

    def __call__(self, x: Paravector) -> Multivector:
        """Slice extension alpha(x0,|xv|) + (xv/|xv|) beta(x0,|xv|)."""
        return _slice_value(self.terms, x)

    def as_ring_function(self):
        """Ring-generic closure sum x^k a_k, usable by the jet oracle."""
        if self.series is None:
            raise InvalidParams("no power-series representation available")
        series = self.series

        def f(ring, x):
            acc = Multivector.zero(x.n, ring)
            for k, a in enumerate(series):
                if a == 0:
                    continue
                acc = acc + x.pow(k).to_multivector().scale(ring.lift(a))
            return acc

        return f


def _poly(terms, u: float, v: float) -> float:
    """The sum of c u^i v^j over float terms (i, j, c), in their order."""
    acc = 0.0
    for i, j, c in terms:
        acc += c * u**i * v**j
    return acc


def _slice_value(terms: tuple, x: Paravector) -> Multivector:
    """The slice function with float terms (alpha, beta) at x."""
    alpha, beta = terms
    u = float(x.x0)
    v2 = float(x.vector_norm_sq())
    if v2 == 0.0:
        return Multivector.scalar(x.n, FLOATS, _poly(alpha, u, 0.0))
    v = math.sqrt(v2)
    a, b = _poly(alpha, u, v), _poly(beta, u, v)
    return Paravector(FLOATS, a, tuple(float(c) / v * b for c in x.xu)).to_multivector()


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
    """The (s, w) pairs of a contour, its nodes s_j, the nodes as one
    paravector over lanes, and its weights as multivectors, built once per
    contour value."""
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
    lanes = [Lanes(list(c)) for c in zip(*(s.coords() for s in points))]
    return (tuple(pairs), points, Paravector(LANES, lanes[0], lanes[1:]),
            tuple(w.to_multivector() for _, w in pairs))


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
    columns = {m: c.v for m, c in kernel(lanes, x).blades.items()}
    if columns and all(math.isfinite(sum(col)) for col in columns.values()):
        return columns
    return _columns(kernel(s, x) for s in points)


def _integrand(f, contour: ContourSpec):
    """Per blade p of w_j f(s_j), (column, -column) over the nodes."""
    if isinstance(f, SliceFunction):
        return _slice_integrand(f.terms, contour.key)
    return _integrand_columns(f, contour.key)


# Two entries, as for _nodes: the slice-independence check alternates two
# contours with one f, and every other check keeps one f on one contour.  A
# slice function's values depend on its float terms alone, so they key it.
@lru_cache(maxsize=2)
def _slice_integrand(terms: tuple, key: tuple) -> dict:
    return _integrand_columns(partial(_slice_value, terms), key)


def _integrand_columns(f, key: tuple) -> dict:
    _, points, _, weights = _nodes(key)
    products = map(operator.mul, weights, map(f, points))
    return {p: (tuple(col), tuple(-v for v in col)) for p, col in _columns(products).items()}


def _integral(kernel, f, x: Paravector, contour: ContourSpec) -> Multivector:
    """(1/2pi) sum of kernel(s_j, x) w_j f(s_j), one kernel call over the
    node lanes.  By bilinearity, blade m^p of the sum is one exactly rounded
    fsum of sign(m, p) K_j[m] (w_j f(s_j))[p] over every node j and blade
    pair (m, p)."""
    _require_interior(x, contour)
    columns = _integrand(f, contour)
    terms: dict = {}
    for m, kc in _kernel_columns(kernel, x, contour.key).items():
        for p, signed in columns.items():
            mask, sign = blade_product(m, p)
            terms.setdefault(mask, []).append(map(operator.mul, kc, signed[sign < 0]))
    scale = 1.0 / (2.0 * math.pi)
    blades = {mask: v for mask in sorted(terms)
              if (v := math.fsum(chain.from_iterable(terms[mask])) * scale)}
    return Multivector._make(x.n, FLOATS, blades)


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
