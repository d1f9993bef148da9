import numpy as np
import pytest

from circulant_qft import _kernels
from circulant_qft.circulant import dft_matrix
from circulant_qft.models import build_four_level
from circulant_qft.qpe import prepare_register_state
from circulant_qft.schedule import Schedule, SechMaskedPair


@pytest.fixture()
def propagated_steps(monkeypatch):
    """Exponentials applied by _kernels.propagate during the test, as [total]."""
    total = [0]
    original = _kernels.propagate

    def counting(h0, h1, a, b, dts, sample_idx, **kwargs):
        total[0] += len(a)
        return original(h0, h1, a, b, dts, sample_idx, **kwargs)

    monkeypatch.setattr(_kernels, "propagate", counting)
    return total


@pytest.fixture(scope="session")
def paper_model():
    """Four-level system at the operating point of the fidelity figure:
    V = E(1 + i/3), E = 10/T, T = 1."""
    energy = 10.0
    return build_four_level(energy, energy * (1 + 1j / 3))


@pytest.fixture(scope="session")
def paper_pulses():
    return SechMaskedPair(T=1.0, tau=1.0)


@pytest.fixture()
def paper_schedule(paper_model, paper_pulses):
    h0, h1 = paper_model
    return Schedule(pulses=paper_pulses, h0=h0, h1=h1)


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
