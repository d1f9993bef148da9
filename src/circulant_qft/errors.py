"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these onto exit codes (config 2, numerical 3,
physics precondition 4).
"""


class CirculantQftError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianError(CirculantQftError):
    """Input matrix violates the Hermitian precondition."""


class DegenerateSpectrumError(CirculantQftError):
    """An operation that needs a non-degenerate spectrum found a cluster."""


class NotPhaseEquivalentError(CirculantQftError):
    """Ring coupling moduli differ, so no gauge makes the matrix circulant."""


class CouplingPatternError(CirculantQftError):
    """Matrix has nonzero entries outside the cyclic nearest-neighbor ring."""


class AmbiguousPermutationError(CirculantQftError):
    """Two column overlaps are too close to pick a basis renumbering."""


class IntegrationError(CirculantQftError):
    """Propagator integration lost unitarity or produced non-finite values."""


class BranchTrackingError(CirculantQftError):
    """Eigenvalue branch tracking hit a near-degeneracy; carries the time."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ConfigError(CirculantQftError):
    """Experiment configuration is malformed or inconsistent."""
