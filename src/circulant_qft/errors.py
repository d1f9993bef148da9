"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these onto exit codes (config 2, numerical 3,
physics precondition 4).
"""


class CirculantQftError(Exception):
    """Base class for all package-specific errors."""


class PhysicsError(CirculantQftError):
    """Base class for violated physics preconditions (exit code 4)."""


class NonHermitianError(PhysicsError):
    """Input matrix violates the Hermitian precondition."""


class DegenerateSpectrumError(PhysicsError):
    """An operation that needs a non-degenerate spectrum found a cluster."""


class NotPhaseEquivalentError(PhysicsError):
    """Ring coupling moduli differ, so no gauge makes the matrix circulant."""


class CouplingPatternError(PhysicsError):
    """Matrix has nonzero entries outside the cyclic nearest-neighbor ring."""


class AmbiguousPermutationError(PhysicsError):
    """Two column overlaps are too close to pick a basis renumbering."""


class IntegrationError(CirculantQftError):
    """Propagator integration lost unitarity or produced non-finite values."""


class BranchTrackingError(PhysicsError):
    """Eigenvalue branch tracking hit a near-degeneracy; carries the time."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ConfigError(CirculantQftError):
    """Experiment configuration is malformed or inconsistent."""
