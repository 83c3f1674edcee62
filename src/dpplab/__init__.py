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
    Samples,
    brute_force_distribution,
    chi_square_gof,
    correlation,
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
    EmptyWindowError,
    EnumerationSizeError,
    InducibilityError,
)
from .ground import GroundSpace, Window, weighted_inner, weighted_norm
from .measures import (
    MassBoundCheck,
    TightnessReport,
    WeakConvergenceReport,
    chebyshev_mass_bound_check,
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
    Projection,
    angle,
    convergence_report,
    local_trace_norm,
    norms,
    orthonormalize,
    project_span,
    projection_distance,
    subspace_angle,
)
from .scaling import (
    ScalingReport,
    bessel_kernel,
    heine_mehler_suite,
    jacobi_cd_kernel,
    jacobi_polynomials,
)

__all__ = [name for name in dir() if not name.startswith("_")]
