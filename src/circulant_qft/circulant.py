"""Circulant matrices, their analytic spectra and Fourier machinery.

A circulant matrix is fixed by its first column c: entry (j, k) equals
c[(j - k) mod N].  Its eigenvectors are the discrete Fourier transform
columns independent of c, with eigenvalues the phased sums
lambda_n = sum_k c_k exp(-2 pi i k n / N), numpy's FFT of c.  This
module materializes circulants, evaluates that spectrum, builds the DFT
matrix and gauge-reduces Hermitian ring Hamiltonians to circulant form,
checking their couplings' moduli; the ring form is the caller's duty.
"""

import numpy as np

from .errors import PhysicsError
from .linalg import frobenius

# Unitarity / structural tolerance for the DFT and materialized circulants.
STRUCTURE_TOL = 1e-12
# Relative tolerance of the coupling checks in gauge reduction.
RING_RTOL = 1e-10


def materialize(c):
    """Dense matrix of the circulant with first column c, an array of
    N >= 2 entries: entry (j, k) = c[(j - k) mod N]."""
    n = len(c)
    j, k = np.indices((n, n))
    return c[(j - k) % n]


def circulant_eigenvalues(c):
    """Analytic spectrum lambda_n = sum_k c_k exp(-2 pi i k n / N) of the
    circulant with first column c, numpy's FFT.

    Index n labels the DFT column that is the matching eigenvector; the
    values are returned in that index order, not sorted.
    """
    return np.fft.fft(c)


def dft_matrix(n):
    """Unitary DFT matrix F[k, m] = exp(2 pi i k m / N) / sqrt(N), N >= 2."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def phase_equivalent_circulant(h):
    """Gauge phases making a cyclic nearest-neighbor Hamiltonian circulant.

    For a Hermitian H of dimension N >= 3 with nonzeros only on the
    cyclic sub/superdiagonal and an equal diagonal (the caller's duty,
    not checked here), finds beta_0..beta_{N-1} (beta_0 = 0) such that
    D H D† is circulant, with D = diag(exp(i beta_k)).  Gauge
    transformations preserve moduli, so all cyclic-subdiagonal entries
    must share one modulus; the loop product P = prod_k H[(k+1) % N, k]
    is gauge invariant and the circulant coupling c_1 is fixed as its
    principal N-th root.

    Returns (beta, first_column, residual) where residual is the
    Frobenius distance between D H D† and the circulant of first_column,
    so any departure from the ring form shows in it.

    A ring whose couplings are all exactly 0 is circulant as it is: beta
    = 0 and the first column is (H[0, 0], 0, ..., 0).  Raises
    PhysicsError when only some couplings are 0 and when the ring moduli
    differ.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[0]
    scale = max(float(np.abs(h).max()), np.finfo(float).tiny)
    sub = h[(np.arange(n) + 1) % n, np.arange(n)]
    moduli = np.abs(sub)
    if not moduli.any():  # a ring without couplings is circulant as it is
        column = np.zeros(n, dtype=np.complex128)
        column[0] = h[0, 0].real
        return np.zeros(n), column, frobenius(h - materialize(column))
    if moduli.min() <= RING_RTOL * scale:
        raise PhysicsError("cyclic subdiagonal contains a zero coupling")
    if (moduli.max() - moduli.min()) > RING_RTOL * moduli.max():
        raise PhysicsError(
            "cyclic couplings have unequal moduli "
            f"(range {moduli.min():.6g}..{moduli.max():.6g}); gauge phases "
            "cannot change moduli, so no circulant form exists"
        )

    # the loop product's argument and modulus from unit phases and moduli
    # relative to the first: the product of the couplings themselves
    # overflows for moduli above ~1e51 at N = 6
    ang = float(np.angle(np.prod(sub / moduli)))
    # pin the branch cut: arguments within roundoff of -pi belong to +pi,
    # so negative-real loop products give the principal root deterministically
    if np.pi - abs(ang) < 1e-12:
        ang = np.pi
    modulus = moduli[0] * np.prod(moduli / moduli[0]) ** (1.0 / n)
    c1 = modulus * np.exp(1j * ang / n)

    beta = np.zeros(n)
    for k in range(n - 1):
        beta[k + 1] = beta[k] + np.angle(c1 / sub[k])

    first_column = np.zeros(n, dtype=np.complex128)
    first_column[0] = h[0, 0].real
    first_column[1] = c1
    first_column[-1] = np.conj(c1)

    d = np.exp(1j * beta)
    transformed = (d[:, None] * h) * np.conj(d)[None, :]
    residual = frobenius(transformed - materialize(first_column))
    return beta, first_column, residual
