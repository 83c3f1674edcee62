"""Numerical laboratory for determinantal point processes on finite grids.

Weighted finite ground spaces, kernel operators in measure and counting
coordinates, exact and sampled determinantal laws, multiplicative
conditioning, finite-rank subspace deformations, classical hard-edge
scaling limits, and measure-valued embeddings with tightness and
weak-convergence diagnostics.
"""

__version__ = "0.1.0"

from .conditioning import (
    InducibilityCheck,
    WeightFunction,
    check_inducibility,
    induced_distribution,
    induced_kernel,
    normalization_constant,
    psi_g,
    reweighted_distribution,
)
from .deformations import (
    DEFAULT_MIN_ANGLE,
    DeformationModel,
    ExhaustionReport,
    ExhaustionRow,
    exhaustion_suite,
    extend_projection,
    perturbation_convergence_suite,
    sqrtg_subspace_projection,
)
from .dpp import (
    Configuration,
    DppDistribution,
    brute_force_distribution,
    chi_square_gof,
    correlation,
    empirical_distribution,
    intensity,
    sample,
    total_variation,
)
from .errors import (
    AngleDegeneracyError,
    ConditioningImpossibleError,
    ConfigError,
    ContractError,
    DegenerateBasisError,
    DimensionError,
    EnumerationSizeError,
    InducibilityError,
    SpecialFunctionRangeError,
)
from .ground import GroundSpace, Window, weighted_inner, weighted_norm
from .measures import (
    FiniteMeasure,
    MassBoundCheck,
    TightnessReport,
    WeakConvergenceReport,
    chebyshev_mass_bound_check,
    energy_distance,
    int_phi,
    linear_statistics,
    permutation_energy_test,
    sigma_f,
    tightness_report,
    weak_convergence_test,
)
from .operators import (
    ConvergenceReport,
    KernelOperator,
    OperatorNorms,
    Subspace,
    angle,
    convergence_report,
    local_trace_norm,
    norms,
    orthonormalize,
    project_span,
    subspace_angle,
)
from .scaling import (
    ClassicalKernelSpec,
    ScalingReport,
    bessel_j,
    bessel_j_prime,
    bessel_kernel,
    cd_kernel_closed,
    cd_kernel_sum,
    gauss_jacobi,
    heine_mehler_suite,
    is_positive_contraction,
    jacobi_cd_kernel,
    jacobi_polynomials,
    jacobi_recurrence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
