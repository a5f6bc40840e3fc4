"""Clifford-algebra kernels for slice hyperholomorphic Cauchy theory, with an
exact jet-differentiation oracle and a verification harness."""

from .clifford import (
    Multivector,
    Paravector,
    format_multivector,
    format_paravector,
    geometric_product,
    parse_multivector,
    parse_paravector,
    same_sphere,
)
from .coeffs import (
    binomial_guarded,
    check_appendix_identity,
    gamma_m,
    gamma_n,
    pochhammer_neg,
    sigma_nm,
)
from .diffop import (
    DiffOperator,
    make_dirac,
    make_dirac_conj,
    make_laplacian,
    operator_power_compose,
    oracle_apply,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidParams,
    NonInvertibleConstantTerm,
    OrderExceeded,
    SingularKernel,
    SliceKernelsError,
    ZeroNorm,
)
from .kernels import (
    catalog_fixture,
    catalog_ids,
    cauchy_left,
    cauchy_right,
    cauchy_series_partial,
    d_beta_delta_m_kernel,
    dbar_beta_delta_m_kernel,
    fueter_sce_kernel,
    harmonic_kernel,
    kernel_closure,
    laplacian_power_kernel,
    lemma_block_lhs_rhs,
    polyanalytic_kernel,
    pseudo_cauchy_pow,
    sample_point_pair,
)
from .quadrature import (
    ContourSpec,
    SliceFunction,
    cauchy_reconstruct,
    contour_nodes,
    fueter_sce_integral,
)
from .rings import FLOATS, RATIONALS, FloatRing, Jet, JetRing, RationalRing
from .suites import SuiteConfig, VerificationReport, run_suite

__version__ = "0.1.0"
