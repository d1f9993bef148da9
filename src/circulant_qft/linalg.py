"""Dense complex linear algebra used by every other module.

Hermitian eigendecomposition, unitary matrix exponentials and the small
norm/adjoint helpers the simulator leans on.  Everything is double
precision and pure (inputs are never mutated).
"""

import numpy as np

from .errors import EigenConvergenceError, NonHermitianError

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12
# Eigenvalues closer than this (relative to ||M||) form a degenerate cluster.
CLUSTER_GAP_RTOL = 1e-9


def frobenius(m):
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def dagger(m):
    """Conjugate transpose."""
    return np.conj(np.asarray(m).T)


def hermiticity_defect(m):
    """||M - M†||_F / max(||M||_F, tiny), the relative Hermiticity error."""
    m = np.asarray(m)
    scale = max(frobenius(m), np.finfo(float).tiny)
    return frobenius(m - dagger(m)) / scale


def require_hermitian(m, rtol=HERMITIAN_RTOL, what="matrix"):
    defect = hermiticity_defect(m)
    if defect > rtol:
        raise NonHermitianError(
            f"{what} is not Hermitian: relative defect {defect:.3e} > {rtol:.1e}"
        )


def unitarity_defect(u):
    """||U†U - I||_F."""
    u = np.asarray(u)
    return frobenius(dagger(u) @ u - np.eye(u.shape[0]))


def hermitian_eigen(m, rtol=HERMITIAN_RTOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real ascending
    and eigenvectors as orthonormal columns, so that
    M @ v[:, k] = w[k] * v[:, k].

    Raises NonHermitianError on inputs outside the Hermitian tolerance
    and EigenConvergenceError (with the achieved residual) if the
    underlying solver does not converge.
    """
    m = np.asarray(m, dtype=np.complex128)
    require_hermitian(m, rtol=rtol)
    sym = 0.5 * (m + dagger(m))
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        residual = hermiticity_defect(m)
        raise EigenConvergenceError(
            f"Hermitian eigensolver failed to converge: {exc}", residual=residual
        ) from exc
    return w, v


def unitary_exp(h, dt, rtol=HERMITIAN_RTOL):
    """exp(-i * H * dt) for Hermitian H, exact via eigendecomposition.

    The result is unitary up to eigensolver roundoff (well below 1e-12),
    unlike truncated series approximations.
    """
    if not np.isfinite(dt):
        raise ValueError(f"time step must be finite, got {dt}")
    w, v = hermitian_eigen(h, rtol=rtol)
    phases = np.exp(-1j * w * dt)
    return (v * phases) @ dagger(v)

