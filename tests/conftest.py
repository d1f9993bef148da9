import numpy as np
import pytest

from circulant_qft import _kernels
from circulant_qft.models import build_four_level
from circulant_qft.schedule import Schedule, SechMaskedPair


@pytest.fixture()
def propagated_steps(monkeypatch):
    """Steps integrated by _kernels.propagate during the test, as [total]."""
    total = [0]
    original = _kernels.propagate

    def counting(h0, h1, a_mid, b_mid, dts, sample_idx):
        total[0] += len(a_mid)
        return original(h0, h1, a_mid, b_mid, dts, sample_idx)

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
