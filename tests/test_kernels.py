import math
import threading
from fractions import Fraction

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

from conftest import complex_form, random_hermitian

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


@pytest.mark.parametrize("steps, sample_idx, scales", [
    (1, [1], [1.0]),
    (2 * CHUNK + 37, [CHUNK - 1, 2 * CHUNK + 37], [1.0]),
    (2 * CHUNK + 37, [], [1.0, 0.5, 3.7]),
], ids=["one_step", "across_chunks", "batched_across_chunks"])
def test_reversed_product_matches_sequential_product(steps, sample_idx,
                                                     scales):
    # the same step exponentials applied last to first, e_0 e_1 ... e_K-1;
    # the forward results stay bit for bit what they are without it
    h0, h1, a, b, dt = _case(steps)
    idx = np.array(sample_idx, dtype=np.int64)
    dts = dt * np.array(scales)
    *forward, u_reversed = _kernels.propagate(h0, h1, a, b, dts, idx,
                                              reverse=True)
    for got, want in zip(forward, _kernels.propagate(h0, h1, a, b, dts, idx)):
        assert np.array_equal(got, want)
    for m, step in enumerate(dts):
        _, ref = _sequential(h0, h1, a[::-1], b[::-1], step, [])
        assert np.abs(u_reversed[m] - ref).max() <= 1e-12


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


@pytest.mark.parametrize("scales", [[1.0], [1.0, 0.5, 3.7]])
def test_chunks_reuse_one_set_of_buffers(monkeypatch, scales):
    # every chunk's step matrices (the last, shorter one too) land in the
    # same memory, so the chunk loop hands no large temporaries back to
    # the allocator
    formed = []
    original = _kernels._step_matrices

    def recording(*args):
        mats = original(*args)
        formed.append(mats)
        return mats

    monkeypatch.setattr(_kernels, "_step_matrices", recording)
    h0, h1, a, b, dt = _case(3 * CHUNK + 5)
    _kernels.propagate(h0, h1, a, b, dt * np.array(scales), NO_SAMPLES)
    assert len(formed) > 3
    assert all(np.shares_memory(formed[0], mats) for mats in formed[1:])


def test_calls_keep_their_buffers_below_the_cap(monkeypatch):
    # a warm process forms the next call's step matrices in the same
    # memory; a set of buffers above SCRATCH_KEEP is freed with its call
    formed = []
    original = _kernels._step_matrices

    def recording(*args):
        formed.append(original(*args))
        return formed[-1]

    monkeypatch.setattr(_kernels, "_step_matrices", recording)
    h0, h1, a, b, dt = _case(CHUNK + 5)
    dts = np.array([dt])
    _kernels.propagate(h0, h1, a, b, dts, NO_SAMPLES)
    _kernels.propagate(h0, h1, a, b, dts, NO_SAMPLES)
    assert np.shares_memory(formed[0], formed[-1])
    monkeypatch.setattr(_kernels, "SCRATCH_KEEP", 0)
    _kernels.propagate(h0, h1, a, b, dts, NO_SAMPLES)
    _kernels.propagate(h0, h1, a, b, dts, NO_SAMPLES)
    assert not np.shares_memory(formed[0], formed[-1])


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
    mats = complex_form(_kernels._step_matrices(
        *_kernels._taylor(h0, h1, a, b, dts), _kernels._Scratch()))
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
    _, _, drift, convergence = evolve(paper_schedule)
    assert np.isfinite(convergence)
    assert drift <= UNITARITY_TOL
    for u in final_propagators(paper_schedule, [0.5, 1.0, 3.7]):
        assert u.shape == (3, 4, 4)


def test_zero_step_length_gives_identity():
    # a window narrower than the float resolution of its intervals
    h0, h1, a, b, _ = _case(10)
    samples, u_final, drift = _kernels.propagate(
        h0, h1, a, b, np.zeros(2), np.array([0, 5, 10]))
    assert np.array_equal(samples, np.broadcast_to(np.eye(4), (2, 3, 4, 4)))
    assert np.array_equal(u_final, np.broadcast_to(np.eye(4), (2, 4, 4)))
    assert drift == 0.0


def _exact_steps(h0, h1, a, b, dt):
    """exp(-i dt (a_k H0 + b_k H1)) for every k, by eigendecomposition."""
    w, v = np.linalg.eigh(a[:, None, None] * h0 + b[:, None, None] * h1)
    return (v * np.exp(-1j * dt * w)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))


def _record_terms(monkeypatch):
    """(terms, copy of the step matrices in real form) of every
    _step_matrices call."""
    formed = []
    original = _kernels._step_matrices

    def recording(sums, *args):
        mats = original(sums, *args)
        formed.append((len(sums), mats.copy()))
        return mats

    monkeypatch.setattr(_kernels, "_step_matrices", recording)
    return formed


def test_degree_is_the_smallest_that_meets_the_remainder_rule():
    # theta^(d+1) / (d+1)! <= eps/2, in exact arithmetic, for theta in [0, 1]
    roundoff = Fraction(_kernels.ROUNDOFF)
    thetas = np.concatenate([np.linspace(0.0, 1.0, 201),
                             np.geomspace(1e-20, 1.0, 41)]).tolist()

    def remainder(theta, d):
        return Fraction(theta) ** (d + 1) / math.factorial(d + 1)

    for theta in thetas:
        d = _kernels._degree(theta)
        assert remainder(theta, d) <= roundoff
        assert d == 0 or remainder(theta, d - 1) > roundoff
    assert _kernels._degree(0.0) == 0
    assert _kernels._degree(1.0) == 18


def test_mask_edges_take_fewer_terms_than_its_peak(monkeypatch, paper_schedule):
    # the README schedule: the sech mask switches the coupling on and off,
    # so the window's first and last chunks have the smallest exponents
    formed = _record_terms(monkeypatch)
    evolve(paper_schedule, convergence_check=False)
    terms = [count for count, _ in formed]
    assert len(terms) == 4
    assert max(terms[0], terms[-1]) < min(terms[1:-1])


@pytest.mark.parametrize("scales", [[10.0], [10.0, 20.0, 40.0]])
def test_series_buffers_are_allocated_once_per_call(monkeypatch, scales):
    # the E = 1 schedule scaled to the README's E = 10 and to the README
    # sweep: chunk degrees rise from the mask edges to the pulse peak,
    # yet a call from a fresh thread allocates each series buffer once
    allocated = {}
    reserve = _kernels._Scratch.reserve

    def recording(self, name, size):
        reserve(self, name, size)
        buffer = self._buffers[name]
        allocated.setdefault(name, {})[id(buffer)] = buffer

    monkeypatch.setattr(_kernels._Scratch, "reserve", recording)
    monkeypatch.setattr(_kernels, "_kept", threading.local())
    formed = _record_terms(monkeypatch)
    h0, h1 = build_four_level(1.0, 1 + 1j / 3)
    s = Schedule(pulses=SechMaskedPair(T=1.0, tau=1.0), h0=h0, h1=h1)
    final_propagators(s, scales)
    assert len({terms for terms, _ in formed}) >= 3
    for name in ("bases", "powers", "weights", "weights_q"):
        assert len(allocated[name]) == 1, name


def test_low_degree_chunk_is_exact_to_roundoff(monkeypatch):
    formed = _record_terms(monkeypatch)
    h0, h1, a, b, dt = _case(4 * CHUNK)
    _kernels.propagate(h0, h1, a, b, np.array([dt]), NO_SAMPLES)
    terms, mats = formed[0]
    degree = math.isqrt(2 * terms) - 1
    assert degree < math.isqrt(2 * max(count for count, _ in formed)) - 1
    assert degree <= 7
    steps = complex_form(mats[0])
    ref = _exact_steps(h0, h1, a[:CHUNK], b[:CHUNK], dt)
    assert np.abs(steps - ref).max() <= 1e-14
    assert max(unitarity_defect(u) for u in steps) <= 1e-14


def test_chunk_without_exponents_is_exactly_the_identity(monkeypatch):
    # one term, S[0, 0] = I, however many the other chunks need
    formed = _record_terms(monkeypatch)
    h0, h1, a, b, dt = _case(2 * CHUNK)
    a[:CHUNK] = b[:CHUNK] = 0.0
    samples, _, _ = _kernels.propagate(h0, h1, a, b, np.array([dt, 2 * dt]),
                                       np.array([CHUNK]))
    assert formed[0][0] == 1 < formed[-1][0]
    assert np.array_equal(complex_form(formed[0][1]),
                          np.broadcast_to(np.eye(4), (2, CHUNK // 2, 4, 4)))
    assert np.array_equal(samples[:, 0], np.broadcast_to(np.eye(4), (2, 4, 4)))


@pytest.mark.parametrize("direction", [FORWARD, INVERSE])
def test_sweep_forms_about_half_the_terms_of_one_global_degree(monkeypatch,
                                                               direction):
    # terms x step matrices over the README sweep (et_values 10, 20, 40);
    # one degree for every chunk, the one the pulse peak needs, would form
    # the whole series at every step
    work, series = [], []
    step_matrices, taylor = _kernels._step_matrices, _kernels._taylor

    def counting(sums, exponents, x, y, ratios, *args):
        work.append(len(sums) * len(x) * len(ratios))
        return step_matrices(sums, exponents, x, y, ratios, *args)

    def recording(*args):
        parts = taylor(*args)
        series.append(len(parts[0]))
        return parts

    monkeypatch.setattr(_kernels, "_step_matrices", counting)
    monkeypatch.setattr(_kernels, "_taylor", recording)
    h0, h1 = build_four_level(1.0, 1 + 1j / 3)
    s = Schedule(pulses=SechMaskedPair(T=1.0, tau=1.0), h0=h0, h1=h1,
                 direction=direction)
    final_propagators(s, [10.0, 20.0, 40.0])
    assert series == [105]  # degree 13
    assert sum(work) <= 0.6 * series[0] * 3 * s.steps


def _runs(values):
    """(value, count) for each run of equal consecutive values."""
    starts = np.flatnonzero(np.diff(values, prepend=values[0] - 1))
    counts = np.diff(starts, append=len(values))
    return zip(values[starts].tolist(), counts.tolist())


def _reference_step_matrices(sums, x, y, ratios, halvings, scratch):
    """The step matrices of a chunk with their bookkeeping made per chunk:
    the index table from np.tril_indices, the bases from np.outer and the
    mask after every power, whatever the bases."""
    m, k, w = len(ratios), len(x), sums.shape[1]
    degree, q = (i[::-1] for i in np.tril_indices(math.isqrt(2 * len(sums))))
    base = np.stack([np.outer(ratios, x).ravel(), np.outer(ratios, y).ravel()])
    powers = scratch.view("powers", (degree[0] + 1,) + base.shape)
    powers[0] = 1.0
    for p in range(1, len(powers)):
        np.multiply(powers[p - 1], base, out=powers[p])
        powers[p][np.abs(powers[p]) < _kernels.NEGLIGIBLE] = 0.0
    weights = scratch.view("weights", (len(sums), m * k))
    np.take(powers[:, 0], degree - q, axis=0, out=weights, mode="clip")
    weights *= np.take(powers[:, 1], q, axis=0, mode="clip",
                       out=scratch.view("weights_q", weights.shape))
    mats = scratch.view("mats0", (m, k, w, w))
    np.matmul(weights.T, sums.reshape(len(sums), -1),
              out=mats.reshape(m * k, w * w))
    for i in range(halvings):
        squared = scratch.view(f"mats{(i + 1) % 2}", mats.shape)
        np.matmul(mats, mats, out=squared)
        mats = squared
    return mats


def _reference_accumulate(sums, exponents, x, y, ratios, halvings,
                          sample_idx, scratch, reverse):
    """_accumulate with every chunk planned in numpy (searchsorted, append
    and _runs) and stepped by _reference_step_matrices; exponents is not
    read, as the reference rebuilds the index table per chunk."""
    m, w = len(ratios), sums.shape[1]
    norms, r_max = np.abs(x) + np.abs(y), float(np.abs(ratios).max())
    eye = np.eye(w)
    u = np.repeat(eye[None], m, axis=0)
    vt = u.copy()
    samples = np.empty((m, len(sample_idx), w, w))
    s = int(np.searchsorted(sample_idx, 0, side="right"))
    samples[:, :s] = eye
    chunk = _kernels._chunk_steps(m)
    for start in range(0, len(x), chunk):
        stop = min(start + chunk, len(x))
        d = _kernels._degree(float(norms[start:stop].max()) * r_max)
        mats = _reference_step_matrices(
            sums[-(d + 1) * (d + 2) // 2:], x[start:stop], y[start:stop],
            ratios, halvings, scratch)
        last = int(np.searchsorted(sample_idx, stop, side="right"))
        ends = sample_idx[s:last]
        if not ends.size or ends[-1] != stop:
            ends = np.append(ends, stop)
        pos = 0
        for length, count in _runs(np.diff(ends, prepend=start)):
            block = mats[:, pos:pos + length * count].reshape(
                m, count, length, w, w)
            pos += length * count
            segments = _kernels._tree_product(np.moveaxis(block, 2, 0),
                                              scratch)
            for segment in np.swapaxes(segments, 0, 1):
                u = segment @ u
                if s < last:
                    samples[:, s] = u
                    s += 1
        vt = _kernels._tree_product(np.moveaxis(mats, 1, 0).swapaxes(2, 3),
                                    scratch) @ vt
    return (_kernels._complex_form(samples), _kernels._complex_form(u),
            _kernels._complex_form(vt.swapaxes(1, 2)) if reverse else None)


def _assert_bitwise_reference(monkeypatch, h0, h1, a, b, dts, sample_idx):
    """propagate gives the very bits of the per-chunk reference path, the
    reversed product included."""
    idx = np.array(sample_idx, dtype=np.int64)
    result = _kernels.propagate(h0, h1, a, b, dts, idx, reverse=True)
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_accumulate", _reference_accumulate)
        reference = _kernels.propagate(h0, h1, a, b, dts, idx, reverse=True)
    assert result[0].shape == (len(dts), len(idx)) + h0.shape
    assert len(result) == len(reference) == 4
    for got, want in zip(result, reference):
        assert np.array_equal(got, want)


# a sample at 0, a run of equal segments, the chunk boundaries of three
# step lengths (BATCH_CHUNK) and of one (CHUNK), and the end
REFERENCE_STEPS = CHUNK + 300
REFERENCE_SAMPLES = [0, 5, 10, 15, BATCH_CHUNK, 500, CHUNK, REFERENCE_STEPS]


def _pulse_case(h0, h1, steps, theta):
    """Sech-masked coefficients over steps, and the step length at which
    the largest exponent has norm theta."""
    a, b = SechMaskedPair(T=1.0, tau=1.0).values(np.linspace(-6, 6, steps))
    return a, b, theta / _theta(h0, h1, a, b, [1.0])


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("scales", [[1.0], [1.0, 0.5, 3.7]])
@pytest.mark.parametrize("sample_idx", [[], REFERENCE_SAMPLES],
                         ids=["no_samples", "samples"])
def test_propagate_is_bitwise_the_per_chunk_reference(monkeypatch, n, scales,
                                                      sample_idx):
    # theta 0.4 at scale 1 needs no halving, 1.48 at scale 3.7 one
    rng = np.random.default_rng(n)
    h0, h1 = random_hermitian(rng, n), random_hermitian(rng, n)
    a, b, dt = _pulse_case(h0, h1, REFERENCE_STEPS, 0.4)
    _assert_bitwise_reference(monkeypatch, h0, h1, a, b, dt * np.array(scales),
                              sample_idx)


@pytest.mark.parametrize("scales", [[1.0], [1.0, 0.5, 3.7]])
def test_masked_chunk_is_bitwise_the_per_chunk_reference(monkeypatch, scales):
    # The first ten steps are 1e-30 times their pulse, in a chunk whose
    # peak needs degree 11: their bases are near 1e-32, so every power
    # from the second on falls below NEGLIGIBLE and is dropped.  With
    # real H0 and H1 the off-diagonal real parts of a step begin at the
    # second order, so the sample after the ten steps carries the mask in
    # its bits; a chunk stepped without it differs there.
    rng = np.random.default_rng(5)
    h0, h1 = (random_hermitian(rng, 4).real.astype(complex) for _ in range(2))
    a, b, dt = _pulse_case(h0, h1, REFERENCE_STEPS, 0.4)
    a[:10] *= 1e-30
    b[:10] *= 1e-30
    formed = _record_terms(monkeypatch)
    _kernels.propagate(h0, h1, a, b, dt * np.array(scales), NO_SAMPLES)
    assert math.isqrt(2 * formed[0][0]) - 1 >= 7
    monkeypatch.undo()
    _assert_bitwise_reference(monkeypatch, h0, h1, a, b, dt * np.array(scales),
                              [0, 10] + REFERENCE_SAMPLES[4:])
