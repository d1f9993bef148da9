import numpy as np
import pytest
from scipy.linalg import expm

from circulant_qft import _kernels
from circulant_qft.errors import IntegrationError
from circulant_qft.linalg import unitarity_defect
from circulant_qft.models import build_four_level
from circulant_qft.propagator import (
    UNITARITY_TOL,
    _integrate,
    evolve,
    final_propagators,
)
from circulant_qft.schedule import FORWARD, INVERSE, Schedule, SechMaskedPair

from conftest import random_hermitian

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
    # step matrices scaled by 1 + 1e-6 make every step slightly non-unitary;
    # checking at the samples and the end must still see it
    step_matrices = _kernels._step_matrices

    def skewed(*args):
        return step_matrices(*args) * (1 + 1e-6)

    monkeypatch.setattr(_kernels, "_step_matrices", skewed)
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


def _theta(h0, h1, a, b, dts):
    """max |dt| * max_k (|a_k| ||H0||_2 + |b_k| ||H1||_2)."""
    rho0, rho1 = (np.abs(np.linalg.eigvalsh(h)).max() for h in (h0, h1))
    return np.abs(dts).max() * (np.abs(a) * rho0 + np.abs(b) * rho1).max()


def _assert_matches_expm(h0, h1, a, b, dts):
    mats = _kernels._step_matrices(*_kernels._taylor(h0, h1, a, b, dts))
    assert mats.shape == (len(dts), len(a)) + h0.shape
    for m, dt in enumerate(dts):
        for k in range(len(a)):
            ref = expm(-1j * dt * (a[k] * h0 + b[k] * h1))
            assert np.abs(mats[m, k] - ref).max() <= 1e-13
            assert unitarity_defect(mats[m, k]) <= 1e-13


# theta from 1e-3 to 50 takes 0 to 6 halvings
@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("theta, halvings", [(1e-3, 0), (0.7, 0), (1.5, 1),
                                             (3.0, 2), (12.0, 4), (50.0, 6)])
@pytest.mark.parametrize("lengths", [1, 3])
def test_step_matrices_match_expm(n, theta, halvings, lengths):
    rng = np.random.default_rng(10 * n + lengths)
    h0, h1 = random_hermitian(rng, n), random_hermitian(rng, n)
    a, b = rng.uniform(-1.0, 1.0, (2, 5))
    dts = rng.uniform(0.2, 1.0, lengths)
    dts *= theta / _theta(h0, h1, a, b, dts)
    assert _kernels._taylor(h0, h1, a, b, dts)[-1] == halvings
    _assert_matches_expm(h0, h1, a, b, dts)


@pytest.mark.parametrize("zero", [[0], [1], [0, 1]],
                         ids=["h0_zero", "h1_zero", "both_zero"])
def test_vanishing_term_gives_exact_exponential(zero):
    # a zero spectral norm must not be divided by
    rng = np.random.default_rng(3)
    hs = [random_hermitian(rng, 4), random_hermitian(rng, 4)]
    for j in zero:
        hs[j] = np.zeros((4, 4), dtype=complex)
    a, b = rng.uniform(-1.0, 1.0, (2, 5))
    _assert_matches_expm(*hs, a, b, np.array([0.3, 2.0, 9.0]))


def test_halving_bound_follows_unitarity_tolerance(monkeypatch):
    # s squarings amplify a step's error of eps/2 up to 2**s-fold
    roundoff = np.finfo(float).eps / 2
    s_max = _kernels.MAX_HALVINGS
    assert 2.0**s_max * roundoff <= UNITARITY_TOL < 2.0**(s_max + 1) * roundoff
    assert s_max == 26

    formed = []
    monkeypatch.setattr(_kernels, "_step_matrices",
                        lambda *args: formed.append(args))
    h0, h1, a, b, dt = _case(20)
    dts = np.array([0.5, 1.0]) * dt / _theta(h0, h1, a, b, [dt])
    assert _kernels._taylor(h0, h1, a, b, 0.75 * 2.0**s_max * dts)[-1] == s_max
    with pytest.raises(IntegrationError,
                       match=r"theta = 1\.007e\+08 needs s = 27 halvings"):
        _kernels.propagate(h0, h1, a, b, 1.5 * 2.0**s_max * dts, NO_SAMPLES)
    assert formed == []


def test_stepping_never_decomposes(monkeypatch, paper_schedule):
    # the step exponentials are Taylor series; an eigh anywhere in
    # evolve (with its convergence rerun) or final_propagators fails here
    def refuse(m):
        raise AssertionError("np.linalg.eigh called while stepping")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    result = evolve(paper_schedule)
    assert np.isfinite(result.convergence_estimate)
    assert result.unitarity_drift <= UNITARITY_TOL
    assert final_propagators(paper_schedule, [0.5, 1.0, 3.7]).shape == (3, 4, 4)


def test_zero_step_length_gives_identity():
    # a window narrower than the float resolution of its intervals
    h0, h1, a, b, _ = _case(10)
    samples, u_final, drift = _kernels.propagate(
        h0, h1, a, b, np.zeros(2), np.array([0, 5, 10]))
    assert np.array_equal(samples, np.broadcast_to(np.eye(4), (2, 3, 4, 4)))
    assert np.array_equal(u_final, np.broadcast_to(np.eye(4), (2, 4, 4)))
    assert drift == 0.0
