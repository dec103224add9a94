"""flockdyn: compactly supported flock profiles for Quasi-Morse swarming
potentials -- closed-form solver, convolution verification, phase-diagram
classification, and N-body simulation of the underlying particle models."""

__version__ = "0.1.0"

from .errors import (
    BracketFailureError,
    CaseMismatchError,
    DegenerateDenominatorError,
    DomainError,
    FlockdynError,
    LimitMismatchWarning,
    MultipleRootsWarning,
    NoRootError,
    NumericalBlowupError,
    OutOfSupportError,
    ParameterOverflowError,
    PositivityFailureError,
    QuadratureNonConvergenceError,
    RegimeError,
    UnsupportedOrderError,
    VerificationFailureError,
)
from .potentials import (
    ModelParams,
    Morse,
    MorseLike,
    QuasiMorse,
    Region,
    RegimeClass,
    Sign,
    aggregate_param,
    classify,
    minimum_radius,
    morse_like_regime,
    potential_force_magnitude,
    potential_from_dict,
    potential_to_dict,
    potential_value,
    potential_value_and_force,
    quasi_morse_u,
)
from .solver import (
    EllLimit,
    FlockProfile,
    ModeCoefficients,
    RootBracket,
    asymptotic_radius,
    boundary_coeff,
    density_eval,
    enumerate_roots,
    find_support_radius,
    flock_determinant,
    mass,
    mode_coeffs,
    solve_profile,
    tangent_offset,
)
from .convolution import (
    ConvolutionReport,
    convolution_closed,
    convolution_closed_at,
    convolution_quadrature,
    verify_flock,
)
from .simulate import (
    FromFile,
    Gaussian,
    ParticleState,
    RadialHistogram,
    SimConfig,
    UniformBall,
    compare_profile,
    initial_state,
    interaction_energy,
    load_checkpoint,
    radial_histogram,
    run,
    sample_profile_positions,
    save_checkpoint,
    step_first_order,
    step_second_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]
