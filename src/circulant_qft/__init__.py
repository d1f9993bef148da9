"""Adiabatic synthesis of phased quantum Fourier transforms.

Circulant Hamiltonians are diagonalized by the DFT whatever their
entries, so sweeping slowly from a non-degenerate diagonal Hamiltonian
into a circulant one performs a Fourier transform in a single
interaction step, up to per-state phases and a basis renumbering.  This
package simulates that protocol, verifies the resulting transform
against its analytic structure, and runs phase estimation on top of it.
"""

__version__ = "0.1.0"

from .circulant import (
    CirculantSpec,
    circulant_eigenvalues,
    dft_matrix,
    materialize,
    phase_equivalent_circulant,
    verify_dft_diagonalizes,
)
from .errors import (
    AmbiguousPermutationError,
    BranchTrackingError,
    CirculantQftError,
    ConfigError,
    CouplingPatternError,
    DegenerateSpectrumError,
    EigenConvergenceError,
    IntegrationError,
    NonHermitianError,
    NotPhaseEquivalentError,
)
from .linalg import hermitian_eigen, unitary_exp
from .models import (
    DegenerateSpectrumWarning,
    FourLevelModel,
    ShiftSolution,
    SixLevelModel,
    build_four_level,
    build_six_level,
    solve_level_shifts,
)
from .propagator import (
    EvolutionResult,
    PhasedDftFactorization,
    adiabatic_phase_prediction,
    dynamical_phase_prediction,
    evolve,
    factor_phased_dft,
    predict_permutation,
)
from .qpe import (
    PhaseValue,
    QpeResult,
    binary_fraction,
    ideal_distribution,
    ideal_phased_inverse_qft,
    prepare_register_state,
    run_qpe,
    to_bits,
)
from .schedule import (
    FORWARD,
    INVERSE,
    AdiabaticityReport,
    Schedule,
    SechMaskedPair,
    TanhPair,
    TrajectoryResult,
    adiabaticity_report,
    eigen_trajectories,
    evaluate_pulses,
)

__all__ = [
    "CirculantSpec",
    "circulant_eigenvalues",
    "dft_matrix",
    "materialize",
    "phase_equivalent_circulant",
    "verify_dft_diagonalizes",
    "AmbiguousPermutationError",
    "BranchTrackingError",
    "CirculantQftError",
    "ConfigError",
    "CouplingPatternError",
    "DegenerateSpectrumError",
    "EigenConvergenceError",
    "IntegrationError",
    "NonHermitianError",
    "NotPhaseEquivalentError",
    "hermitian_eigen",
    "unitary_exp",
    "DegenerateSpectrumWarning",
    "FourLevelModel",
    "ShiftSolution",
    "SixLevelModel",
    "build_four_level",
    "build_six_level",
    "solve_level_shifts",
    "EvolutionResult",
    "PhasedDftFactorization",
    "adiabatic_phase_prediction",
    "dynamical_phase_prediction",
    "evolve",
    "factor_phased_dft",
    "predict_permutation",
    "PhaseValue",
    "QpeResult",
    "binary_fraction",
    "ideal_distribution",
    "ideal_phased_inverse_qft",
    "prepare_register_state",
    "run_qpe",
    "to_bits",
    "FORWARD",
    "INVERSE",
    "AdiabaticityReport",
    "Schedule",
    "SechMaskedPair",
    "TanhPair",
    "TrajectoryResult",
    "adiabaticity_report",
    "eigen_trajectories",
    "evaluate_pulses",
]
