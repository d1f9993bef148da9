"""Plain helpers shared by the test modules, imported by name: the
fixtures stay in conftest.py."""

import numpy as np

from circulant_qft.circulant import dft_matrix
from circulant_qft.qpe import prepare_register_state


def complex_form(r):
    """The complex n x n matrices held as real forms [[A, -B], [B, A]] on
    the last two axes of r, after asserting that every one keeps that block
    structure to roundoff."""
    n = r.shape[-1] // 2
    a, b = r[..., :n, :n], r[..., n:, :n]
    assert np.abs(r[..., n:, n:] - a).max(initial=0.0) <= 1e-14
    assert np.abs(r[..., :n, n:] + b).max(initial=0.0) <= 1e-14
    return (a + r[..., n:, n:]) / 2 + 1j * ((b - r[..., :n, n:]) / 2)


def phased_inverse_qft(alpha, sigma, n):
    """The exact inverse transform with per-state phases and renumbering:
    DFT column m goes to exp(-i alpha_m) |sigma(m)>, the form the
    simulated inverse transform takes.  With sigma the identity and alpha
    zero it is the plain inverse DFT matrix."""
    u = np.zeros((n, n), dtype=np.complex128)
    phases = np.exp(-1j * np.asarray(alpha))[:, None]
    u[sigma, :] = phases * dft_matrix(n).conj().T
    return u


def phased_oracle_distribution(phi, n, sigma, alpha):
    """Outcome distribution of phased_inverse_qft on phi's register state,
    with the renumbering undone (index = register value)."""
    u = phased_inverse_qft(alpha, sigma, n)
    p = np.abs(u @ prepare_register_state(phi, n)) ** 2
    # DFT column m is read out at physical index sigma[m]
    return p[np.asarray(sigma)]


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def random_hermitian_circulant_column(rng, n):
    """First column of a random Hermitian circulant (c_k = conj(c_{N-k}))."""
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c[0] = c[0].real
    for k in range(1, n // 2 + 1):
        c[n - k] = np.conj(c[k])
    if n % 2 == 0:
        c[n // 2] = c[n // 2].real
    return c
