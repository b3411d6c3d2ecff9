"""berezin-lab: weighted Bergman kernels, Toeplitz/Hankel operators, and
Berezin-transform compactness diagnostics on Reinhardt model domains."""

__version__ = "0.1.0"

from ._accel import backend_name
from .domains import (
    BoundaryClassification,
    EllipsoidDomain,
    PointKind,
    boundary_point,
    classify_boundary,
    domain_from_config,
    inflate,
    inflated_boundary_classification_check,
    make_domain,
)
from .quadrature import (
    MCEstimate,
    QuadratureRule,
    Scheme,
    WeightedMeasure,
    dilation_identity_check,
    inflation_constant,
    inflation_constant_mc,
    monomial_moment,
    monomial_moment_mc,
    monte_carlo_rule,
    polar_tensor_rule,
    radial_rule,
)
from .bergman import (
    WeightedSpace,
    build_space,
    diagonal_comparability_check,
    kernel_mass_outside,
    multiindices,
    slice_inequality_check,
)
from .operators import (
    OperatorExpr,
    TruncatedOperator,
    axler_zheng_report,
    berezin,
    boundary_profile,
    decompose_product,
    expr_from_json,
    hankel_gram,
    materialize,
    product_decomposition_residual,
    semi_commutator_residual,
    tail_norm,
    toeplitz,
)
from .symbols import Symbol, SymbolTag

__all__ = [name for name in dir() if not name.startswith("_")]
