"""Bivariate polynomial-expansion densities and their correlation structure.

Construct joints f1(x) f2(y) (1 + sum_n rho_n phi_n(x) psi_n(y)) from
marginals with bounded support, verify their regression and spectral
identities, and estimate maximal correlation three independent ways
(closed form, kernel SVD, alternating conditional expectations).
"""

import os as _os

# Honor the thread cap before any BLAS-backed import happens. Best effort:
# if numpy entered the process earlier, the cap cannot bind anymore.
_cap = _os.environ.get("LANCASTER_LAB_THREADS")
if _cap:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _cap)

from .correlation import (  # noqa: E402
    AceConvergenceError,
    AceResult,
    CorrelationReport,
    DiscretizedJoint,
    SpectralFailureError,
    SvdResult,
    correlation_report,
    discretize_joint,
    discretize_model,
    joint_from_pmf,
    maxcorr_ace,
    maxcorr_analytic,
    maxcorr_discrete_pmf,
    maxcorr_svd,
    pearson,
    singular_spectrum,
)
from .lancaster import (  # noqa: E402
    BoundViolationError,
    CoefficientSequence,
    LancasterModel,
    ModelVerificationError,
    SampleStats,
    build_model,
    build_sequence_linear,
    build_sequence_quadratic,
    model_from_config,
    model_to_config,
    sample_joint,
    transpose_model,
    validate_coefficients,
)
from .orthopoly import (  # noqa: E402
    DegenerateMarginalError,
    MarginalSpec,
    OrthonormalityError,
    OrthonormalSystem,
    build_system,
    orthonormality_residual,
    sup_norm,
)
from .quadrature import (  # noqa: E402
    QuadratureRule,
    composite_gauss_legendre,
    gauss_legendre_rule,
    integrate,
    integrate_2d,
)
from .regression import (  # noqa: E402
    CounterexampleReport,
    LinearRegressionResult,
    RegressionCheckResult,
    check_eigen_regression,
    check_linear_regression,
    check_polynomial_regression,
    conditional_expectation,
    counterexample_report,
)

__version__ = "0.1.0"

__all__ = [
    "AceConvergenceError",
    "AceResult",
    "BoundViolationError",
    "CoefficientSequence",
    "CorrelationReport",
    "CounterexampleReport",
    "DegenerateMarginalError",
    "DiscretizedJoint",
    "LancasterModel",
    "LinearRegressionResult",
    "MarginalSpec",
    "ModelVerificationError",
    "OrthonormalSystem",
    "OrthonormalityError",
    "QuadratureRule",
    "RegressionCheckResult",
    "SampleStats",
    "SpectralFailureError",
    "SvdResult",
    "build_model",
    "build_sequence_linear",
    "build_sequence_quadratic",
    "build_system",
    "check_eigen_regression",
    "check_linear_regression",
    "check_polynomial_regression",
    "composite_gauss_legendre",
    "conditional_expectation",
    "correlation_report",
    "counterexample_report",
    "discretize_joint",
    "discretize_model",
    "gauss_legendre_rule",
    "integrate",
    "integrate_2d",
    "joint_from_pmf",
    "maxcorr_ace",
    "maxcorr_analytic",
    "maxcorr_discrete_pmf",
    "maxcorr_svd",
    "model_from_config",
    "model_to_config",
    "orthonormality_residual",
    "pearson",
    "sample_joint",
    "singular_spectrum",
    "sup_norm",
    "transpose_model",
    "validate_coefficients",
]
