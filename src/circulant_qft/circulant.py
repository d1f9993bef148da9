"""Circulant matrices, their analytic spectra and Fourier machinery.

A circulant matrix is fixed by its first column c: entry (j, k) equals
c[(j - k) mod N].  Its eigenvectors are the discrete Fourier transform
columns independent of c, with eigenvalues the phased sums
lambda_n = sum_k c_k exp(-2 pi i k n / N).  This module materializes
circulants, evaluates that spectrum, builds the DFT matrix and
gauge-reduces ring-coupled Hamiltonians to circulant form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CouplingPatternError, NotPhaseEquivalentError
from .linalg import frobenius, require_hermitian

# Unitarity / structural tolerance for the DFT and materialized circulants.
STRUCTURE_TOL = 1e-12
# Relative tolerance of the ring pattern and modulus checks in gauge reduction.
RING_RTOL = 1e-10


@dataclass(frozen=True)
class CirculantSpec:
    """First column c_0..c_{N-1} defining an N x N circulant matrix."""

    first_column: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.first_column, dtype=np.complex128)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("first column must be 1-D with at least 2 entries")
        object.__setattr__(self, "first_column", c)

    @property
    def dim(self):
        return self.first_column.size

    def is_hermitian(self):
        """True iff c_k = conj(c_{(N-k) mod N}) for all k (forces c_0 real)."""
        c = self.first_column
        mirrored = np.conj(c[(-np.arange(self.dim)) % self.dim])
        scale = max(float(np.abs(c).max()), np.finfo(float).tiny)
        return bool(np.abs(c - mirrored).max() <= STRUCTURE_TOL * scale)


def materialize(spec):
    """Dense matrix of the circulant: entry (j, k) = c[(j - k) mod N]."""
    c = spec.first_column
    n = spec.dim
    j, k = np.indices((n, n))
    return c[(j - k) % n]


def circulant_eigenvalues(spec):
    """Analytic spectrum lambda_n = sum_k c_k exp(-2 pi i k n / N).

    Index n labels the DFT column that is the matching eigenvector; the
    values are returned in that index order, not sorted.
    """
    c = spec.first_column
    n = spec.dim
    k = np.arange(n)
    phases = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return phases @ c


def dft_matrix(n):
    """Unitary DFT matrix F[k, m] = exp(2 pi i k m / N) / sqrt(N)."""
    if n < 2:
        raise ValueError(f"DFT dimension must be >= 2, got {n}")
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def _ring_pattern_mask(n):
    """Boolean mask of allowed nonzeros: diagonal plus cyclic +-1 couplings."""
    j, k = np.indices((n, n))
    diff = (j - k) % n
    return (diff == 0) | (diff == 1) | (diff == n - 1)


def phase_equivalent_circulant(h):
    """Gauge phases making a cyclic nearest-neighbor Hamiltonian circulant.

    For Hermitian H with nonzeros only on the cyclic sub/superdiagonal
    (plus an equal diagonal), finds beta_0..beta_{N-1} (beta_0 = 0) such
    that D H D† is circulant, with D = diag(exp(i beta_k)).  Gauge
    transformations preserve moduli, so all cyclic-subdiagonal entries
    must share one modulus; the loop product P = prod_k H[(k+1) % N, k]
    is gauge invariant and the circulant coupling c_1 is fixed as its
    principal N-th root.

    Returns (beta, spec, residual) where residual is the Frobenius
    distance between D H D† and the materialized spec.

    Raises NotPhaseEquivalentError when the ring moduli differ and
    CouplingPatternError for nonzeros outside the ring or a non-constant
    diagonal.
    """
    h = np.asarray(h, dtype=np.complex128)
    require_hermitian(h, what="ring Hamiltonian")
    n = h.shape[0]
    if n < 3:
        raise CouplingPatternError(
            "cyclic ring reduction needs dimension >= 3; sub- and "
            "superdiagonal coincide for N = 2"
        )
    scale = max(float(np.abs(h).max()), np.finfo(float).tiny)

    outside = np.abs(h[~_ring_pattern_mask(n)])
    if outside.size and outside.max() > RING_RTOL * scale:
        raise CouplingPatternError(
            "nonzero entries outside the cyclic nearest-neighbor ring "
            f"(max modulus {outside.max():.3e})"
        )
    diag = np.diag(h)
    if np.abs(diag - diag[0]).max() > RING_RTOL * scale:
        raise CouplingPatternError("diagonal entries are not all equal")

    sub = h[(np.arange(n) + 1) % n, np.arange(n)]
    moduli = np.abs(sub)
    if moduli.min() <= RING_RTOL * scale:
        raise CouplingPatternError("cyclic subdiagonal contains a zero coupling")
    if (moduli.max() - moduli.min()) > RING_RTOL * moduli.max():
        raise NotPhaseEquivalentError(
            "cyclic couplings have unequal moduli "
            f"(range {moduli.min():.6g}..{moduli.max():.6g}); gauge phases "
            "cannot change moduli, so no circulant form exists"
        )

    loop = np.prod(sub)
    ang = float(np.angle(loop))
    # pin the branch cut: arguments within roundoff of -pi belong to +pi,
    # so negative-real loop products give the principal root deterministically
    if np.pi - abs(ang) < 1e-12:
        ang = np.pi
    c1 = np.abs(loop) ** (1.0 / n) * np.exp(1j * ang / n)

    beta = np.zeros(n)
    for k in range(n - 1):
        beta[k + 1] = beta[k] + np.angle(c1 / sub[k])

    first_column = np.zeros(n, dtype=np.complex128)
    first_column[0] = diag[0].real
    first_column[1] = c1
    first_column[-1] = np.conj(c1)
    spec = CirculantSpec(first_column)

    d = np.exp(1j * beta)
    transformed = (d[:, None] * h) * np.conj(d)[None, :]
    residual = frobenius(transformed - materialize(spec))
    return beta, spec, residual
