import io
import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from slicekernels import clifford, quadrature, suites
from slicekernels.clifford import Multivector, Paravector, blade_product
from slicekernels.errors import DomainError, InvalidParams, SingularKernel
from slicekernels.kernels import cauchy_left, fueter_sce_kernel
from slicekernels.quadrature import (
    ContourSpec,
    SliceFunction,
    cauchy_reconstruct,
    contour_nodes,
    convergence_table,
    fueter_sce_integral,
    write_convergence_csv,
)
from slicekernels.rings import FLOATS, RATIONALS, Lanes

I3 = (1.0, 0.0, 0.0)


def fpv(*coords):
    return Paravector.from_coords(FLOATS, list(coords))


def test_square_slice_function():
    # f(x) = x^2 is the slice extension (u^2 - v^2) + I 2uv
    f = SliceFunction([0, 0, 1])
    x = fpv(0.5, 0.2, -0.3, 0.1)
    u, v = 0.5, math.sqrt(0.2**2 + 0.3**2 + 0.1**2)
    slice_extension = Paravector(FLOATS, u * u - v * v, tuple(2 * u * c for c in x.xu))
    assert (f(x) - slice_extension.to_multivector()).norm_float() < 1e-15
    # on the real axis only the scalar blade is left
    assert list(f(fpv(0.7, 0.0, 0.0, 0.0)).blades.items()) == [(0, 0.7 * 0.7)]


def test_power_series_matches_direct_powers():
    f = SliceFunction([1, 0, 3, 2])  # 1 + 3x^2 + 2x^3
    x = fpv(0.4, -0.1, 0.25, 0.3)
    expected = (
        Multivector.scalar(3, FLOATS, 1.0)
        + x.pow(2).to_multivector().scale(3.0)
        + x.pow(3).to_multivector().scale(2.0)
    )
    assert (f(x) - expected).norm_float() < 1e-13


def test_slice_function_coefficient_outside_float_range_is_refused():
    f = SliceFunction([10**400])
    x = fpv(0.1, 0.2, 0.0, 0.0)
    with pytest.raises(InvalidParams, match="coefficient lies outside float range"):
        f(x)
    # over node lanes, and so in a quadrature
    with pytest.raises(InvalidParams, match="coefficient lies outside float range"):
        cauchy_reconstruct(f, x, ContourSpec(I3, 0.0, 2.0, 16))
    # exact evaluation keeps the coefficient
    exact = x.cast(RATIONALS)
    assert f(exact) == Multivector.scalar(3, RATIONALS, 10**400)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "1/0"])
def test_slice_function_coefficient_that_is_not_a_finite_number_is_refused(bad):
    with pytest.raises(InvalidParams, match="coefficient is not a finite number"):
        SliceFunction([0, bad])


def test_contour_spec_validation():
    with pytest.raises(InvalidParams):
        ContourSpec((0.5, 0.0, 0.0), 0.0, 2.0, 16)  # not unit
    with pytest.raises(InvalidParams):
        ContourSpec(I3, 0.0, 2.0, 6)  # too few nodes
    with pytest.raises(InvalidParams):
        ContourSpec(I3, 0.0, 2.0, 9)  # odd
    with pytest.raises(InvalidParams):
        ContourSpec(I3, 0.0, -1.0, 16)
    # a NaN or infinite direction, radius or center
    nan, inf = math.nan, math.inf
    for direction, center, radius in (((nan, 0.0, 0.0), 0.0, 2.0), ((inf, 0.0, 0.0), 0.0, 2.0),
                                      (I3, 0.0, nan), (I3, 0.0, inf),
                                      (I3, nan, 2.0), (I3, inf, 2.0), (I3, -inf, 2.0)):
        with pytest.raises(InvalidParams):
            ContourSpec(direction, center, radius, 16)


def test_contour_nodes_positions_and_weights():
    contour = ContourSpec(I3, 0.0, 1.0, 8)
    nodes = contour_nodes(contour)
    assert len(nodes) == 8
    s0, w0 = nodes[0]
    assert abs(s0.x0 - 1.0) < 1e-15 and abs(s0.xu[0]) < 1e-15
    s2, _ = nodes[2]  # angle pi/2 -> node at I
    assert abs(s2.x0) < 1e-15 and abs(s2.xu[0] - 1.0) < 1e-15
    # weights sum to zero over the full circle
    total = [0.0] * 4
    for _, w in nodes:
        for i, c in enumerate(w.coords()):
            total[i] += c
    assert max(abs(t) for t in total) < 1e-14
    # residue of s^-1: (1/2pi) sum s_j^-1 w_j = 1
    acc = Multivector.zero(3, FLOATS)
    for s, w in nodes:
        acc = acc + s.inverse().to_multivector() * w.to_multivector()
    acc = acc.scale(1.0 / (2 * math.pi))
    assert (acc - Multivector.scalar(3, FLOATS, 1.0)).norm_float() < 1e-14


def test_cauchy_reconstruct_polynomials():
    contour = ContourSpec(I3, 0.0, 2.0, 256)
    x = fpv(0.5, 0.5, 0.0, 0.0)
    f2 = SliceFunction([0, 0, 1])
    got = cauchy_reconstruct(f2, x, contour)
    # ((1+e1)/2)^2 = e1/2
    expected = Multivector.blade(3, FLOATS, 1).scale(0.5)
    assert (got - expected).norm_float() < 1e-12
    one = SliceFunction([1])
    assert (
        cauchy_reconstruct(one, x, contour) - Multivector.scalar(3, FLOATS, 1.0)
    ).norm_float() < 1e-12


def test_reconstruct_domain_errors():
    contour = ContourSpec(I3, 0.0, 2.0, 64)
    f = SliceFunction([0, 1])
    with pytest.raises(DomainError):
        cauchy_reconstruct(f, fpv(2.0, 0.0, 0.0, 0.0), contour)  # on contour
    with pytest.raises(DomainError):
        cauchy_reconstruct(f, fpv(3.0, 0.0, 0.0, 0.0), contour)  # outside


def test_fueter_sce_integral_constant_output():
    contour = ContourSpec(I3, 0.0, 2.0, 256)
    f2 = SliceFunction([0, 0, 1])
    for coords in ((0.5, 0.5, 0.0, 0.0), (0.3, 0.2, -0.4, 0.25), (-0.7, 0.1, 0.3, -0.2)):
        got = fueter_sce_integral(f2, fpv(*coords), contour)
        assert (got - Multivector.scalar(3, FLOATS, -4.0)).norm_float() < 1e-8
    f0 = SliceFunction([1])
    assert fueter_sce_integral(f0, fpv(0.5, 0.1, 0.0, 0.0), contour).norm_float() < 1e-10


def test_fueter_sce_integral_needs_odd_dimension():
    contour = ContourSpec((1.0, 0.0), 0.0, 2.0, 64)
    f = SliceFunction([0, 1])
    with pytest.raises(InvalidParams):
        fueter_sce_integral(f, Paravector.from_coords(FLOATS, [0.1, 0.1, 0.0]), contour)


def test_convergence_is_geometric_until_float_floor():
    contour = ContourSpec(I3, 0.0, 2.0, 8)
    x = fpv(0.5, 0.3, -0.2, 0.1)
    f = SliceFunction([0, 0, 0, 1])
    reference = x.pow(3).to_multivector()
    rows = convergence_table(
        cauchy_reconstruct, f, x, contour, [8, 16, 32, 64, 128], reference
    )
    assert rows[0]["ratio"] is None
    for prev, row in zip(rows, rows[1:]):
        if prev["abs_error"] > 1e-13:
            assert row["ratio"] < 0.25
    assert rows[-1]["abs_error"] < 1e-12


def test_slice_independence():
    f = SliceFunction([0, 1, 2, 0, 3])
    x = fpv(0.2, 0.3, -0.1, 0.4)
    a = cauchy_reconstruct(f, x, ContourSpec(I3, 0.0, 2.0, 256))
    tilted = tuple(1.0 / math.sqrt(3.0) for _ in range(3))
    b = cauchy_reconstruct(f, x, ContourSpec(tilted, 0.0, 2.0, 256))
    assert (a - b).norm_float() < 1e-10


def test_integral_output_is_monogenic():
    # the integral produces the Laplacian-power image of f, which the Dirac
    # operator annihilates; checked through the closed-form equivalent
    from fractions import Fraction

    from slicekernels.diffop import make_dirac, make_laplacian, oracle_apply

    for n, k in ((3, 3), (3, 4), (5, 4), (5, 5)):
        h = (n - 1) // 2
        f = SliceFunction([0] * k + [1])
        op = make_dirac(n).compose(make_laplacian(n).power(h))
        x = Paravector.from_coords(
            RATIONALS, [Fraction(1, 3), Fraction(1, 4)] + [Fraction(1, 5)] * (n - 1)
        )
        assert oracle_apply(op, f, x).is_zero()


def test_convergence_csv():
    rows = [
        {"N": 8, "abs_error": 1e-3, "ratio": None},
        {"N": 16, "abs_error": 1e-6, "ratio": 1e-3},
    ]
    buf = io.StringIO()
    write_convergence_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "N,abs_error,ratio"
    assert lines[1].startswith("8,0.001,")
    assert lines[2].startswith("16,1e-06,0.001")


def _finite_fsum(terms):
    try:
        total = math.fsum(terms)
    except (ValueError, OverflowError):
        total = math.nan
    if not math.isfinite(total):
        raise InvalidParams("integral lies outside float range")
    return total


def _direct(kernel, f, x, contour):
    # the integral with nothing kept between calls: each node builds its
    # weight's multivector and w f(s) afresh, and each blade is one fsum of
    # the same products K_j[m] (w_j f(s_j))[p], refused when not finite;
    # fsum is exactly rounded, so the order of the terms does not matter
    terms = {}
    for s, w in contour_nodes(contour):
        wf = w.to_multivector() * f(s)
        for m, k in kernel(s, x).blades.items():
            for p, v in wf.blades.items():
                mask, sign = blade_product(m, p)
                terms.setdefault(mask, []).append(k * v if sign > 0 else k * -v)
    scale = 1.0 / (2.0 * math.pi)
    return Multivector(x.n, FLOATS, {m: _finite_fsum(t) * scale for m, t in terms.items()})


def _pairwise(kernel, f, x, contour):
    # the formula before exactly rounded sums: (K_j w_j) f(s_j) per node,
    # summed as a balanced tree of multivector additions
    def tree(values):
        half = len(values) // 2
        return values[0] if half == 0 else tree(values[:half]) + tree(values[half:])

    terms = [kernel(s, x) * w.to_multivector() * f(s) for s, w in contour_nodes(contour)]
    return tree(terms).scale(1.0 / (2.0 * math.pi))


def _left(s, y):
    return cauchy_left(s, y, form="II")


def _fueter(s, y):
    return fueter_sce_kernel(s, y, side="left")


def test_contour_memo_keeps_every_bit():
    a = ContourSpec(I3, 0.0, 2.0, 64)
    assert contour_nodes(a) is contour_nodes(ContourSpec([1, 0, 0], 0, 2, 64))
    assert contour_nodes(a) == contour_nodes(a.with_nodes(64))
    x = fpv(0.3, 0.1, -0.2, 0.4)
    f = SliceFunction([0, 0, 1])
    g = SliceFunction([Fraction(0), 0.0, Fraction(2, 2)])  # x^2 again
    first = cauchy_reconstruct(f, x, a)
    assert list(cauchy_reconstruct(g, x, a).blades.items()) == list(first.blades.items())
    h = SliceFunction([1, -2, 3])
    wider = ContourSpec(I3, 0.0, 2.5, 64)
    for fn, contour in ((f, a), (h, a), (h, wider), (f, wider), (g, a)):
        for integral, kernel in ((cauchy_reconstruct, _left), (fueter_sce_integral, _fueter)):
            got = integral(fn, x, contour)
            assert list(got.blades.items()) == list(_direct(kernel, fn, x, contour).blades.items())


def test_slice_independence_pairs_build_each_contour_once(monkeypatch):
    # the check alternates a base and a tilted contour with one f: the
    # two-entry contour memo builds each contour once, and each integral
    # evaluates f once, over the node lanes
    calls = Counter()
    call = SliceFunction.__call__

    def counted(self, x):
        calls["f"] += 1
        return call(self, x)

    monkeypatch.setattr(SliceFunction, "__call__", counted)
    quadrature._nodes.cache_clear()
    params = dict(n=3, nodes=64)
    rng = Random(7)
    for _ in range(3):
        base, tilted = suites._quad_slice_independence(params, suites._quad_interior_point(3, rng))
        assert (base - tilted).norm_float() <= 1e-10
    assert calls["f"] == 3 * 2
    assert quadrature._nodes.cache_info().misses == 2


TILTED = tuple(1.0 / math.sqrt(3.0) for _ in range(3))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=5),
       st.integers(min_value=4, max_value=32), st.sampled_from([I3, TILTED]),
       st.floats(min_value=-0.5, max_value=0.5),
       st.lists(st.floats(min_value=-0.3, max_value=0.3), min_size=3, max_size=3))
def test_fsum_integral_is_the_memo_free_sum_and_near_the_tree_sum(coeffs, half_nodes,
                                                                  direction, x0, xu):
    f = SliceFunction(coeffs)
    contour = ContourSpec(direction, 0.0, 2.0, 2 * half_nodes)
    x = fpv(x0, *xu)
    for integral, kernel in ((cauchy_reconstruct, _left), (fueter_sce_integral, _fueter)):
        got = integral(f, x, contour)
        assert list(got.blades.items()) == list(_direct(kernel, f, x, contour).blades.items())
        tree = _pairwise(kernel, f, x, contour)
        assert (got - tree).norm_float() <= 1e-12 * max(1.0, got.norm_float())


def test_one_kernel_call_one_f_call_and_two_products_per_integral(monkeypatch):
    # the kernel and f run once each, over the node lanes, and no node pays
    # for a Clifford product: the kernel's own product and w_j f(s_j) are
    # the only two, whether or not the contour is built yet
    contour = ContourSpec(I3, 0.0, 2.0, 64)
    x = fpv(0.3, 0.1, -0.2, 0.4)
    series = SliceFunction([0, 1, 2])
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    f = counted("f", series)
    monkeypatch.setattr(clifford, "geometric_product",
                        counted("product", clifford.geometric_product))
    for integral, name in ((cauchy_reconstruct, "cauchy_left"),
                           (fueter_sce_integral, "fueter_sce_kernel")):
        monkeypatch.setattr(quadrature, name, counted(name, getattr(quadrature, name)))
        quadrature._nodes.cache_clear()
        for _ in range(2):  # cold, then warm
            integral(f, x, contour)
            assert counts == {name: 1, "f": 1, "product": 2}
            counts.clear()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
       st.integers(min_value=4, max_value=32), st.sampled_from([I3, TILTED]),
       st.integers(min_value=-300, max_value=300), st.floats(min_value=-4.0, max_value=4.0))
def test_f_over_node_lanes_is_f_at_each_node(coeffs, half_nodes, direction, e, center):
    # bit for bit at every node, but for the sign of a zero where a node
    # drops a blade; degree <= 3 keeps x^k in float range at 2^+-300
    f = SliceFunction(coeffs)
    contour = ContourSpec(direction, math.ldexp(center, e), math.ldexp(2.0, e), 2 * half_nodes)
    points = [s for s, _ in contour_nodes(contour)]
    coords = zip(*(s.coords() for s in points))
    x0, *xu = (Lanes(list(c)) for c in coords)
    lanes = f(Paravector(FLOATS, x0, xu))
    for j, s in enumerate(points):
        at_node = {m: c.hex() for m, v in lanes.blades.items()
                   if (c := v.v[j] if isinstance(v, Lanes) else v)}  # a constant is a float
        assert at_node == {m: v.hex() for m, v in f(s).blades.items()}


def _outcome(integral, *args):
    """An integral's blades as float.hex, or the type and message it raises."""
    try:
        return [(m, v.hex()) for m, v in integral(*args).blades.items()]
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _scaled(e, coords):
    return fpv(*(math.ldexp(c, e) for c in coords))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=3),
       st.integers(min_value=4, max_value=32), st.sampled_from([I3, TILTED]),
       # scales where the nodes leave the kernels' common float branch, some
       # or all of them, are drawn more often
       st.one_of(st.integers(min_value=-300, max_value=300),
                 st.integers(min_value=-260, max_value=-252),
                 st.integers(min_value=252, max_value=258)),
       st.floats(min_value=-1.2, max_value=1.2),
       st.lists(st.floats(min_value=-0.8, max_value=0.8), min_size=3, max_size=3))
# integrals outside float range: Q^-2 overflows, so kernel blades are +-inf
@example([1], 4, I3, -300, 0.3, [0.1, -0.2, 0.4])
# Q_{c,s}(x) and f = (1 - x)^2 both leave float range
@example([1, -2, 1], 4, I3, 515, 0.3, [0.1, -0.2, 0.4])
# the lanes once read inf times a zero-filled kernel column as NaN here
@example([1], 4, I3, -256, 1.0, [0.0, 0.0, 0.0])
def test_lane_integrals_are_the_per_node_integrals_at_any_scale(coeffs, half_nodes, direction,
                                                                 e, x0, xu):
    # bit for bit, or the same exception: a scale of 2^e moves |Q|^2 by
    # 2^(4e), so near |e| = 255 some nodes, and beyond it all, take the
    # float kernels' rescale, and the Fueter-Sce kernel may over- or underflow
    f = SliceFunction(coeffs)
    contour = ContourSpec(direction, 0.0, math.ldexp(2.0, e), 2 * half_nodes)
    x = _scaled(e, (x0, *xu))
    for integral, kernel in ((cauchy_reconstruct, _left), (fueter_sce_integral, _fueter)):
        assert _outcome(integral, f, x, contour) == _outcome(_direct, kernel, f, x, contour)


def test_a_node_that_raises_raises_what_the_per_node_loop_raises():
    f = SliceFunction([0, 1])
    contour = ContourSpec(I3, 0.0, 2.0, 8)
    s = contour_nodes(contour)[2][0]  # the node at I
    # x just inside the contour, on the sphere of that node alone
    x = Paravector(FLOATS, s.x0 * (1 - 1e-8), tuple(c * (1 - 1e-8) for c in s.xu))
    big = ContourSpec(I3, 0.0, 2.0 ** 540, 8)
    for integral, kernel in ((cauchy_reconstruct, _left), (fueter_sce_integral, _fueter)):
        with pytest.raises(SingularKernel, match=r"^singular: s in \[x\]$"):
            integral(f, x, contour)
        assert _outcome(integral, f, x, contour) == _outcome(_direct, kernel, f, x, contour)
        y = _scaled(540, (0.3, 0.1, -0.2, 0.4))
        with pytest.raises(InvalidParams, match=r"^Q_\{c,s\}\(x\) lies outside float range$"):
            integral(f, y, big)
        assert _outcome(integral, f, y, big) == _outcome(_direct, kernel, f, y, big)


@pytest.mark.parametrize("e", [-300, -200, 200, 300])
def test_reconstruction_is_scale_free(e):
    # x at a quarter of the radius and the identity f(x) = x, on both sides
    # of the scales (about 2^+-255) beyond which the kernels rescale
    f = SliceFunction([0, 1])
    x = _scaled(e, (0.25, 0.1, -0.2, 0.3))
    got = cauchy_reconstruct(f, x, ContourSpec(I3, 0.0, math.ldexp(2.0, e), 64))
    expected = x.to_multivector()
    assert (got - expected).norm_float() <= 1e-14 * expected.norm_float()


def test_interior_test_is_scale_free_and_refuses_non_finite_points():
    for r in (2.0 ** -540, 2.0 ** 540, 1.0):
        contour = ContourSpec(I3, 0.0, r, 8)
        quadrature._require_interior(fpv(r / 4, 0.0, 0.0, 0.0), contour)  # no error
        with pytest.raises(DomainError, match="on the contour"):
            quadrature._require_interior(fpv(0.0, 0.0, r, 0.0), contour)
        with pytest.raises(DomainError, match="outside"):
            quadrature._require_interior(fpv(0.0, r, 0.0, r), contour)
    # |x|^2 overflows here, though x is well inside
    quadrature._require_interior(fpv(1e300, 1e299, 0.0, 0.0), ContourSpec(I3, 1e300, 1e300, 8))
    contour = ContourSpec(I3, 0.0, 2.0, 8)
    f = SliceFunction([0, 1])
    nan, inf = math.nan, math.inf
    for coords in ((nan, 0.0, 0.0, 0.0), (0.0, 0.1, nan, 0.0), (0.0, inf, 0.0, 0.0)):
        with pytest.raises(InvalidParams, match="^x must be finite$"):
            cauchy_reconstruct(f, fpv(*coords), contour)


def test_node_count_is_capped_before_anything_is_built():
    quadrature._nodes.cache_clear()
    assert ContourSpec(I3, 0.0, 2.0, quadrature.MAX_NODES).nodes == 2**16
    for nodes in (2**16 + 2, 2**24, 2**60):
        with pytest.raises(InvalidParams, match=f"^node count must be <= 65536, got {nodes}$"):
            ContourSpec(I3, 0.0, 2.0, nodes)
        with pytest.raises(InvalidParams, match=f"^quad_nodes must be <= 65536, got {nodes}$"):
            suites.SuiteConfig(suite="quadrature", quad_nodes=nodes).validate()
    assert quadrature._nodes.cache_info().currsize == 0
