"""Exception types shared across the package, one per nonzero exit code
of the CLI (config 2, numerical 3, physics precondition 4)."""


class ConfigError(Exception):
    """Experiment configuration is malformed or inconsistent."""


class IntegrationError(Exception):
    """Propagator integration lost unitarity or produced non-finite values."""


class PhysicsError(Exception):
    """A physics precondition is violated: a non-Hermitian matrix, a
    degenerate spectrum, a ring without a circulant gauge or colliding
    eigenvalue branches."""
