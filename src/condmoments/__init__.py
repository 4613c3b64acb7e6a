"""Condition-number moments of random underdetermined polynomial systems.

Closed-form Gamma-function identities for the moments of Frobenius and
operator condition numbers of Gaussian polynomial systems and Gaussian
matrices, together with Monte Carlo estimators that verify every identity
at desk scale.
"""

from .bwspace import (
    SystemCoords,
    bezout,
    bw_inner,
    bw_norm,
    dim_space,
    evaluate,
    jacobian,
    kernel_poly,
    l0_matrix,
    make_system,
)
from .cxla import NumericError, kernel_basis
from .conditioning import empirical_moment, mu
from .formulas import (
    EspnormrestForms,
    FormulaValue,
    Volumes,
    espnorm_value,
    espnormrest_value,
    exmualpha_constant,
    invnor2mdet_value,
    main_theorem_value,
    pinv_moment_value,
    volumes,
)
from .montecarlo import (
    Comparison,
    EstimateResult,
    EstimatorConfig,
    compare,
    compare_pair,
    estimate_detweighted_rect,
    estimate_detweighted_square,
    estimate_espnorm,
    estimate_espnormrest,
    estimate_pinv_moment,
    estimate_poly_moment,
)
from .randgeom import (
    RngStream,
    complex_gaussian_vector,
    gaussian_system,
    haar_unitary,
    mix64,
    rotate_system,
)
from .roots import binary_form_roots, restrict_to_line, sample_variety_points

__version__ = "0.1.0"
