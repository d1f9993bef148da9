import numpy as np
import pytest

from circulant_qft import _kernels
from circulant_qft.errors import IntegrationError
from circulant_qft.models import build_four_level
from circulant_qft.propagator import UNITARITY_TOL, evolve
from circulant_qft.schedule import SechMaskedPair

CHUNK = _kernels.CHUNK


def _case(steps):
    h0, h1 = build_four_level(10.0, 10.0 * (1 + 1j / 3))
    dt = 12.0 / steps
    a, b = SechMaskedPair(T=1.0, tau=1.0).values(-6 + dt * (np.arange(steps) + 0.5))
    return h0, h1, a, b, dt


def _sequential(h0, h1, a, b, dt, sample_idx):
    """The plain per-step loop u = step @ u, recording the requested samples."""
    u = np.eye(h0.shape[0], dtype=np.complex128)
    samples = [u] if 0 in sample_idx else []
    for k in range(len(a)):
        w, v = np.linalg.eigh(a[k] * h0 + b[k] * h1)
        u = (v * np.exp(-1j * dt * w)) @ v.conj().T @ u
        if k + 1 in sample_idx:
            samples.append(u)
    return np.array(samples).reshape(-1, *u.shape), u


@pytest.mark.parametrize("steps, sample_idx", [
    (500, [0, 100, 250, 500]),
    # not a multiple of the chunk; samples on both sides of both boundaries
    (2 * CHUNK + 37, [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 3,
                      2 * CHUNK + 2, 2 * CHUNK + 37]),
    (CHUNK + 5, []),
    (300, [0]),
], ids=["irregular", "across_chunks", "no_samples", "identity_only"])
def test_propagate_matches_sequential_product(steps, sample_idx):
    h0, h1, a, b, dt = _case(steps)
    idx = np.array(sample_idx, dtype=np.int64)
    samples, u_final, drift = _kernels.propagate(h0, h1, a, b, dt, idx)
    ref_samples, ref_final = _sequential(h0, h1, a, b, dt, sample_idx)
    assert samples.shape == ref_samples.shape
    assert np.abs(samples - ref_samples).max(initial=0.0) <= 1e-12
    assert np.abs(u_final - ref_final).max() <= 1e-12
    assert 0.0 <= drift <= 1e-10


def test_drift_gate_fires_with_sampled_checks(monkeypatch, paper_schedule):
    # eigenvectors scaled by 1 + 1e-6 make every step slightly non-unitary;
    # checking at the samples and the end must still see it
    eigh = np.linalg.eigh

    def skewed(m):
        w, v = eigh(m)
        return w, v * (1 + 1e-6)

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(IntegrationError, match="unitarity drift"):
        evolve(paper_schedule, convergence_check=False)
    h0, h1, a, b, dt = _case(100)
    _, _, drift = _kernels.propagate(h0, h1, a, b, dt, np.empty(0, dtype=np.int64))
    assert drift > UNITARITY_TOL
