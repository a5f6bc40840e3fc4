"""The axial oracle: D, D-bar and the Laplacian on the kernels of a fixed s.

Write x = x0 + u and s = s0 + v with u, v vectors, and put rho = |u|^2,
t = <u, v> and nu = |v|^2.  The vectors u and v generate the algebra
span{1, u, v, uv}: u^2 = -rho, v^2 = -nu and vu = -uv - 2t.  So every
function that Clifford arithmetic builds from x and s is
g1 + u gu + v gv + uv guv, with scalar g's that are functions of
(x0, rho, t).  By the chain rule (d_i rho = 2 x_i, d_i t = v_i), the vector
derivative d_u = sum_i e_i d_i, acting from the left, maps this form to
itself:

    d_u g      = 2u g_rho + v g_t
    d_u (u g)  = -n g - 2 rho g_rho - 2t g_t - uv g_t
    d_u (v g)  = 2uv g_rho - nu g_t
    d_u (uv g) = -n v g - 2 rho v g_rho - 2t v g_t + nu u g_t

D = d0 + d_u, D-bar = d0 - d_u and Delta = d0^2 - d_u^2, so D^beta Delta^m
acts on four scalar jets in the 3 variables (x0, rho, t), of total order
beta + 2m, and n is only a coefficient (F. Sommen, "Special functions in
Clifford analysis and axial symmetry", J. Math. Anal. Appl. 130, 1988).

The functions the oracle rows differentiate are written here once more, in
this algebra, and share no code with the closed forms in `kernels`.  Q =
q0 + q1 v lies in the plane of s, so Q^-1 = (q0 - q1 v) / (q0^2 + nu q1^2).
The jets are exact, and a float point is read exactly.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import coeffs as cf
from .clifford import Multivector, Paravector
from .rings import RATIONALS, JetRing, jet_context

_X0, _RHO, _T = 0, 1, 2


@lru_cache(maxsize=None)
def _context(order: int):
    """The total-degree context of `order` in (x0, rho, t)."""
    return jet_context(3, tuple(a for a in itertools.product(range(order + 1), repeat=3)
                                if sum(a) == order))


class _Point:
    """The algebra at one point: jets of x0, rho and t seeded there, with nu
    and n as numbers.  An element is a tuple (g1, gu, gv, guv) of jets."""

    def __init__(self, s: Paravector, x: Paravector, order: int):
        ctx = _context(order)
        self.shifts = ctx.shifts
        self.ring = ring = JetRing(ctx)
        self.n = x.n
        self.nu = s.vector_norm_sq()
        self.x0 = ring.seed(_X0, x.x0)
        self.rho = ring.seed(_RHO, x.vector_norm_sq())
        self.t = ring.seed(_T, sum(a * b for a, b in zip(x.xu, s.xu)))
        zero, one = ring.zero(), ring.one()
        c = ring.lift(s.x0) - self.x0
        q0, q1 = c * c + self.rho - ring.lift(self.nu), c.scale(2)
        inv = ring.reciprocal(q0 * q0 + q1 * q1 * self.nu)
        self.qinv = (q0 * inv, zero, -(q1 * inv), zero)
        self.smxbar = (c, one, one, zero)  # s - xbar = (s0 - x0) + u + v

    def mul(self, a: tuple, b: tuple) -> tuple:
        a1, au, av, aw = a
        b1, bu, bv, bw = b
        rho, t, nu = self.rho, self.t, self.nu
        return (
            a1 * b1 - rho * (au * bu) - (t * (av * bu)).scale(2) - (av * bv) * nu
            - rho * (aw * bw) * nu,
            a1 * bu + au * b1 + (av * bw - aw * bv) * nu - (t * (aw * bu)).scale(2),
            a1 * bv + av * b1 - rho * (au * bw) - (t * (av * bw)).scale(2) + rho * (aw * bu),
            a1 * bw + aw * b1 + au * bv - av * bu - (t * (aw * bw)).scale(2),
        )

    def qinv_power(self, k: int) -> tuple:
        out = self.qinv
        for _ in range(k - 1):
            out = self.mul(out, self.qinv)
        return out

    def d(self, jet, var: int):
        """d/d(x0, rho or t) of a jet, by the variable's index shift."""
        shift, nums = self.shifts[var], jet._nums
        out = {}
        for k, v in nums.items():
            if (to := shift.get(k)) is not None:
                out[to[0]] = v * to[1]
        return jet._like(out, jet.den)

    def du(self, g: tuple) -> tuple:
        """d_u g by the four rules."""
        d, rho, t, n, nu = self.d, self.rho, self.t, self.n, self.nu
        g1, gu, gv, gw = g
        gu_t, gw_t = d(gu, _T), d(gw, _T)
        euler_u = (rho * d(gu, _RHO) + t * gu_t).scale(2) + gu.scale(n)
        euler_w = (rho * d(gw, _RHO) + t * gw_t).scale(2) + gw.scale(n)
        return (-euler_u - d(gv, _T) * nu,
                d(g1, _RHO).scale(2) + gw_t * nu,
                d(g1, _T) - euler_w,
                d(gv, _RHO).scale(2) - gu_t)

    def dirac(self, g: tuple, sign: int) -> tuple:
        """D g for sign 1, D-bar g for sign -1."""
        return tuple(self.d(a, _X0) + b.scale(sign) for a, b in zip(g, self.du(g)))

    def laplacian(self, g: tuple) -> tuple:
        return tuple(self.d(self.d(a, _X0), _X0) - b for a, b in zip(g, self.du(self.du(g))))


# The functions an oracle row names as its source: (name, *args) -> element.
SOURCES = {
    "cauchy-left": lambda p: p.mul(p.smxbar, p.qinv),
    "cauchy-right": lambda p: p.mul(p.qinv, p.smxbar),
    "fueter-sce": lambda p: tuple(
        a.scale(cf.gamma_n(p.n)) for a in p.mul(p.smxbar, p.qinv_power(cf.h_of(p.n) + 1))),
    "harmonic": lambda p, m: tuple(
        a.scale(cf.sigma_nm(cf.h_of(p.n), m)) for a in p.qinv_power(m)),
}


def apply(op: tuple, source: tuple, s: Paravector, x: Paravector) -> Multivector:
    """D^beta Delta^m (base "d") or D-bar^beta Delta^m (base "dbar"), for
    op = (base, beta, m), applied to the function named by `source` at x,
    with the value of `diffop.oracle_apply` on the same function: exact at
    the point x holds, each blade rounded once into the ring of x."""
    base, beta, m = op
    name, *args = source
    ring = x.ring
    s, x = s.cast(RATIONALS), x.cast(RATIONALS)
    p = _Point(s, x, beta + 2 * m)
    g = SOURCES[name](p, *args)
    for _ in range(m):
        g = p.laplacian(g)
    for _ in range(beta):
        g = p.dirac(g, 1 if base == "d" else -1)
    n = x.n
    c1, cu, cv, cw = (a.constant_term() for a in g)
    u = Multivector(n, RATIONALS, {1 << i: c for i, c in enumerate(x.xu)})
    v = Multivector(n, RATIONALS, {1 << i: c for i, c in enumerate(s.xu)})
    value = Multivector.scalar(n, RATIONALS, c1) + u.scale(cu) + v.scale(cv) + (u * v).scale(cw)
    return value.map_coeffs(ring.lift, ring)
