import numpy as np
import pytest
from scipy.linalg import expm

from circulant_qft import _kernels
from circulant_qft.errors import IntegrationError
from circulant_qft.models import build_four_level
from circulant_qft.propagator import (
    UNITARITY_TOL,
    _integrate,
    evolve,
    final_propagators,
)
from circulant_qft.schedule import FORWARD, INVERSE, Schedule, SechMaskedPair

CHUNK = _kernels.CHUNK
NO_SAMPLES = np.empty(0, dtype=np.int64)


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


# three step lengths share a chunk of CHUNK // 3 = 341 steps
BATCH_CHUNK = CHUNK // 3


@pytest.mark.parametrize("steps, sample_idx, scales", [
    (500, [0, 100, 250, 500], [1.0]),
    # not a multiple of the chunk; samples on both sides of both boundaries
    (2 * CHUNK + 37, [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 3,
                      2 * CHUNK + 2, 2 * CHUNK + 37], [1.0]),
    (CHUNK + 5, [], [1.0]),
    (300, [0], [1.0]),
    # samples on both sides of the batch's chunk boundaries and of CHUNK's
    (2 * CHUNK + 37, [BATCH_CHUNK - 1, BATCH_CHUNK, BATCH_CHUNK + 1,
                      2 * BATCH_CHUNK + 1, CHUNK - 1, CHUNK + 1,
                      2 * CHUNK + 2, 2 * CHUNK + 37], [1.0, 0.5, 3.7]),
], ids=["irregular", "across_chunks", "no_samples", "identity_only",
        "batched_across_chunks"])
def test_propagate_matches_sequential_product(steps, sample_idx, scales):
    h0, h1, a, b, dt = _case(steps)
    idx = np.array(sample_idx, dtype=np.int64)
    dts = dt * np.array(scales)
    samples, u_final, drift = _kernels.propagate(h0, h1, a, b, dts, idx)
    assert samples.shape[0] == u_final.shape[0] == len(scales)
    for m, step in enumerate(dts):
        ref_samples, ref_final = _sequential(h0, h1, a, b, step, sample_idx)
        assert samples[m].shape == ref_samples.shape
        assert np.abs(samples[m] - ref_samples).max(initial=0.0) <= 1e-12
        assert np.abs(u_final[m] - ref_final).max() <= 1e-12
    assert 0.0 <= drift <= 1e-10


@pytest.mark.parametrize("points, steps", [(1, CHUNK + 5), (4, CHUNK + 5),
                                           (2 * CHUNK + 1, 3)],
                         ids=["1_point", "4_points", "2_chunks_plus_1_points"])
def test_step_matrices_never_exceed_chunk(monkeypatch, points, steps):
    formed = []
    original = _kernels._step_matrices

    def recording(*args):
        mats = original(*args)
        formed.append(np.prod(mats.shape[:-2]))
        return mats

    monkeypatch.setattr(_kernels, "_step_matrices", recording)
    h0, h1, a, b, dt = _case(steps)
    dts = dt * np.linspace(0.5, 2.0, points)
    _, u_final, _ = _kernels.propagate(h0, h1, a, b, dts, NO_SAMPLES)
    assert max(formed) <= CHUNK
    assert sum(formed) == points * steps
    # each step length comes out as if it were integrated alone
    for m in (0, points - 1):
        _, alone, _ = _kernels.propagate(h0, h1, a, b, dts[m:m + 1], NO_SAMPLES)
        assert np.abs(u_final[m] - alone[0]).max() <= 1e-12


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
    with pytest.raises(IntegrationError, match="unitarity drift"):
        final_propagators(paper_schedule, [0.5, 1.0, 3.7])
    h0, h1, a, b, dt = _case(100)
    for scales in ([1.0], [1.0, 0.5, 3.7]):
        _, _, drift = _kernels.propagate(h0, h1, a, b, dt * np.array(scales),
                                         NO_SAMPLES)
        assert drift > UNITARITY_TOL


def _cf4_loop(s, intervals, scale):
    """U at every interval boundary, from the plain per-interval CF4 loop
    (Blanes & Moan 2006): nodes t + (1/2 -+ sqrt(3)/6) h, the
    beta-weighted exponential first."""
    beta, gamma = (3 + 2 * np.sqrt(3)) / 12, (3 - 2 * np.sqrt(3)) / 12
    t_min, t_max = s.window
    h = (t_max - t_min) / intervals
    u = [np.eye(s.dim, dtype=np.complex128)]
    for k in range(intervals):
        t = t_min + k * h
        a1, b1 = s.coefficients(np.array([t + (0.5 - np.sqrt(3) / 6) * h]))
        a2, b2 = s.coefficients(np.array([t + (0.5 + np.sqrt(3) / 6) * h]))
        h_1 = a1[0] * s.h0 + b1[0] * s.h1
        h_2 = a2[0] * s.h0 + b2[0] * s.h1
        step = u[-1]
        for first, second in ((beta, gamma), (gamma, beta)):
            step = expm(-1j * scale * h * (first * h_1 + second * h_2)) @ step
        u.append(step)
    return np.array(u)


@pytest.mark.parametrize("direction", [FORWARD, INVERSE])
@pytest.mark.parametrize("intervals, sample_idx", [(1, [0, 1]),
                                                   (257, [0, 100, 101, 257])])
def test_integrate_matches_plain_cf4_loop(direction, intervals, sample_idx):
    h0, h1 = build_four_level(10.0, 10.0 * (1 + 1j / 3))
    s = Schedule(pulses=SechMaskedPair(T=1.0, tau=1.0), h0=h0, h1=h1,
                 direction=direction)
    scales = [1.0, 0.5, 3.7]
    samples, u_final, _ = _integrate(s, intervals, sample_idx, scales)
    for m, scale in enumerate(scales):
        ref = _cf4_loop(s, intervals, scale)
        assert np.abs(samples[m] - ref[sample_idx]).max() <= 1e-12
        assert np.abs(u_final[m] - ref[-1]).max() <= 1e-12
