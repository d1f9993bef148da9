"""Dense complex linear algebra used by every other module.

The small norm, adjoint and Hermiticity helpers the simulator leans on;
the batched eigendecompositions and step exponentials live in _kernels.
Everything is double precision and pure (inputs are never mutated).
"""

import numpy as np

from .errors import PhysicsError

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12
# Eigenvalues closer than this, relative to a scale each caller names, form a
# degenerate cluster.
CLUSTER_GAP_RTOL = 1e-9
# Accepted propagators must keep ||U'U - I||_F below this.
UNITARITY_TOL = 1e-8


def frobenius(m):
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def is_degenerate(values):
    """Whether two of the real values lie within CLUSTER_GAP_RTOL of the
    largest magnitude among them (within the smallest normal float, if
    all are 0): the spectrum then has no rank order.  The caller passes
    at least two values.  It judges the spectra at the two ends of a
    sweep; Schedule requires exactly distinct H0 entries, and the phase
    prediction and the adiabaticity scan apply their own thresholds along
    the sweep."""
    values = np.sort(values)
    scale = max(np.abs(values).max(), np.finfo(float).tiny)
    return bool(np.diff(values).min() <= CLUSTER_GAP_RTOL * scale)


def dagger(m):
    """Conjugate transpose."""
    return np.conj(np.asarray(m).T)


def hermiticity_defect(m):
    """||M - M†||_F / max(||M||_F, tiny), the relative Hermiticity error."""
    m = np.asarray(m)
    scale = max(frobenius(m), np.finfo(float).tiny)
    return frobenius(m - dagger(m)) / scale


def require_hermitian(m, what="matrix"):
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_RTOL:
        raise PhysicsError(
            f"{what} is not Hermitian: relative defect {defect:.3e} "
            f"> {HERMITIAN_RTOL:.1e}"
        )


def unitarity_defect(u):
    """||U†U - I||_F."""
    u = np.asarray(u)
    return frobenius(dagger(u) @ u - np.eye(u.shape[0]))

