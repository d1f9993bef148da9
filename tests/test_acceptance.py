"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines
as they are produced.  Criterion 7 compares the measured per-branch
phases with the adiabatic prediction from the instantaneous eigensystem:
the quasienergy integrals plus the open-path geometric phases.  For
V = E(1+i/3) the geometric part reaches ~2.04 rad and does not depend on
E*T, so the dynamical part alone misses by ~2 rad at every E*T; its
verdict line prints both deviations.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from circulant_qft.circulant import (
    circulant_eigenvalues,
    dft_matrix,
    materialize,
    phase_equivalent_circulant,
)
from circulant_qft.errors import PhysicsError
from circulant_qft.linalg import frobenius
from circulant_qft.models import build_four_level, build_six_level, solve_level_shifts
from circulant_qft.propagator import (
    adiabatic_phase_prediction,
    evolve,
    factor_phased_dft,
)
from circulant_qft.qpe import ideal_distribution, run_qpe
from circulant_qft.schedule import (
    FORWARD,
    INVERSE,
    PulsePair,
    Schedule,
    eigen_trajectories,
)

from helpers import (phased_oracle_distribution,
                     random_hermitian_circulant_column)


def report(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d}: {verdict} - {detail}")
    return passed


@pytest.fixture(scope="module")
def spec_corpus():
    rng = np.random.default_rng(2026)
    corpus = []
    for _ in range(200):
        n = int(rng.integers(2, 65))
        corpus.append(random_hermitian_circulant_column(rng, n))
    return corpus


@pytest.fixture(scope="module")
def pulses():
    return PulsePair(T=1.0, tau=1.0)


def paper_system(et):
    energy = float(et)
    return build_four_level(energy, energy * (1 + 1j / 3))


def test_criterion_1_dft_diagonalizes_circulants(spec_corpus):
    start = time.perf_counter()
    worst_off = 0.0
    worst_diag = 0.0
    for column in spec_corpus:
        f = dft_matrix(len(column))
        d = f.conj().T @ materialize(column) @ f
        diag = np.diag(d)
        worst_off = max(worst_off, frobenius(d - np.diag(diag)))
        mismatch = np.abs(diag - circulant_eigenvalues(column)).max()
        worst_diag = max(worst_diag, float(mismatch))
    elapsed = time.perf_counter() - start
    ok = worst_off <= 1e-10 and worst_diag <= 1e-10 and elapsed < 10.0
    assert report(
        1, ok,
        f"200 specs: off-diag <= {worst_off:.2e}, diag mismatch <= "
        f"{worst_diag:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_analytic_spectrum_vs_dense_oracle(spec_corpus):
    worst = 0.0
    for column in spec_corpus:
        lam = np.sort(circulant_eigenvalues(column).real)
        dense = np.linalg.eigvalsh(materialize(column))
        worst = max(worst, float(np.abs(lam - dense).max()))
    assert report(2, worst <= 1e-10, f"eigenvalue multisets agree <= {worst:.2e}")


def test_criterion_3_eigenvalue_trajectories(pulses):
    start = time.perf_counter()
    h0, h1 = paper_system(10.0)
    sched = Schedule(pulses=pulses, h0=h0, h1=h1, window=(-4.0, 4.0),
                     steps=1600)
    _, energies = eigen_trajectories(sched)
    min_gap = np.diff(energies, axis=1).min()

    f, _ = pulses.values(-4.0)
    low = np.abs(energies[0] / np.sort(f * np.diag(h0).real) - 1).max()
    _, g = pulses.values(4.0)
    lam = np.sort(circulant_eigenvalues(h1[:, 0]).real)
    high = np.abs(energies[-1] / np.sort(g * lam) - 1).max()
    elapsed = time.perf_counter() - start
    ok = low <= 0.01 and high <= 0.01 and min_gap > 0 and elapsed < 5.0
    assert report(
        3, ok,
        f"asymptote errors {low:.2e}/{high:.2e}, min gap {min_gap:.4f}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_4_phase_estimation_figure(pulses):
    start = time.perf_counter()
    h0, h1 = paper_system(10.0)
    _, fidelity, _, relabeled = run_qpe(
        Schedule(pulses=pulses, h0=h0, h1=h1, direction=INVERSE, steps=4000),
        0.75)
    elapsed = time.perf_counter() - start
    top = int(np.argmax(relabeled))
    ok = fidelity[-1] >= 0.99 and top == 3 and elapsed < 30.0
    assert report(
        4, ok,
        f"fidelity {fidelity[-1]:.5f}, bits {top:02b}, {elapsed:.2f} s",
    )


def test_criterion_5_integrator_quality(pulses):
    h0, h1 = paper_system(10.0)
    drifts = []
    estimates = []
    for steps in (1000, 2000):
        _, _, drift, estimate = evolve(Schedule(pulses=pulses, h0=h0, h1=h1,
                                                steps=steps))
        drifts.append(drift)
        estimates.append(estimate)
    ratio = estimates[0] / estimates[1]
    ok = max(drifts) <= 1e-8 and ratio >= 12
    assert report(
        5, ok,
        f"max drift {max(drifts):.2e}, step-halving ratio {ratio:.2f}",
    )


def test_criterion_6_adiabatic_limit(pulses):
    residuals = []
    for et in (5.0, 10.0, 20.0, 40.0):
        h0, h1 = paper_system(et)
        _, samples, _, _ = evolve(Schedule(pulses=pulses, h0=h0, h1=h1),
                                  convergence_check=False)
        _, _, residual = factor_phased_dft(samples[-1], FORWARD)
        residuals.append(residual)
    monotone = all(b <= 1.1 * a for a, b in zip(residuals, residuals[1:]))
    ok = monotone and residuals[1] <= 0.05
    assert report(
        6, ok,
        "residuals " + ", ".join(f"{r:.4f}" for r in residuals)
        + f" (ET=10: {residuals[1]:.4f})",
    )


def test_criterion_7_adiabatic_phases(pulses):
    def deviations(et):
        h0, h1 = paper_system(et)
        sched = Schedule(pulses=pulses, h0=h0, h1=h1)
        _, samples, _, _ = evolve(sched, convergence_check=False)
        _, alpha, _ = factor_phased_dft(samples[-1], FORWARD)
        predicted, dynamical, _ = adiabatic_phase_prediction(sched)
        return tuple(
            float(np.abs(np.angle(np.exp(1j * (alpha - p)))).max())
            for p in (predicted, dynamical)
        )

    deviation, dynamical_only = deviations(20.0)
    deviation_40, _ = deviations(40.0)
    ok = deviation <= 0.05 and deviation_40 < deviation
    report(7, ok,
           f"max |alpha - predicted| = {deviation:.3f} rad at E*T = 20 "
           f"({deviation_40:.3f} at E*T = 40; dynamical part alone "
           f"{dynamical_only:.3f})")
    assert deviation <= 0.05, (
        f"extracted alpha deviates from the adiabatic prediction "
        f"(dynamical + geometric) by {deviation:.3f} rad at E*T = 20"
    )
    assert deviation_40 < deviation, (
        f"deviation does not shrink with E*T: {deviation:.3f} rad at 20, "
        f"{deviation_40:.3f} rad at 40"
    )


def test_criterion_8_level_shift_solver():
    worst = 0.0
    exact = True
    for energy in (3.0, 1.0, 0.7, 12.5):
        shifts = solve_level_shifts(energy)
        # the float nearest each exact value 2E/3, -2E/3, 2E/3, bit for bit
        e = Fraction(energy)
        nearest = [float(Fraction(k, 3) * e) for k in (2, -2, 2)]
        exact &= [x.hex() for x in shifts] == [x.hex() for x in nearest]
        # the four level equations, evaluated exactly on the returned floats
        ez, gs, es = (Fraction(x) for x in shifts)
        half = Fraction(1, 2)
        residuals = (-half * ez + gs + e, half * ez + gs + e / 3,
                     -half * ez + es - e / 3, half * ez + es - e)
        worst = max(worst, float(max(abs(r) for r in residuals) / abs(e)))
    ok = exact and worst <= 1e-15
    assert report(
        8, ok, f"solution exact, equation residuals <= {worst:.1e} * |E|"
    )


def test_criterion_9_six_level_gauge_reduction():
    rng = np.random.default_rng(9)
    worst_residual = 0.0
    worst_spectrum = 0.0
    for _ in range(5):
        o1 = 1.3 * np.exp(1j * rng.uniform(-np.pi, np.pi))
        o2 = 1.3 * np.exp(1j * rng.uniform(-np.pi, np.pi))
        h = build_six_level(o1, o2)
        _, column, residual = phase_equivalent_circulant(h)
        worst_residual = max(worst_residual, residual)
        lam = np.sort(circulant_eigenvalues(column).real)
        dense = np.linalg.eigvalsh(h)
        worst_spectrum = max(worst_spectrum, float(np.abs(lam - dense).max()))
    try:
        phase_equivalent_circulant(build_six_level(1.0, 2.0))
        mismatch_raised = False
    except PhysicsError as exc:
        mismatch_raised = "unequal moduli" in str(exc)
    ok = worst_residual <= 1e-12 and worst_spectrum <= 1e-10 and mismatch_raised
    assert report(
        9, ok,
        f"gauge residual <= {worst_residual:.2e}, spectrum drift <= "
        f"{worst_spectrum:.2e}, mismatch error raised: {mismatch_raised}",
    )


def test_criterion_10_oracle_equivalence(pulses):
    h0, h1 = paper_system(10.0)
    worst = 0.0
    for phi in (0.0, 0.25, 1 / 3, 0.6, 0.75):
        relabeled = run_qpe(Schedule(pulses=pulses, h0=h0, h1=h1,
                                     direction=INVERSE), phi)[3]
        ideal = ideal_distribution(phi, 4)
        tv = 0.5 * float(np.abs(ideal - relabeled).sum())
        worst = max(worst, tv)
    assert report(10, worst <= 1e-2, f"total variation <= {worst:.4f}")


def test_criterion_11_phase_irrelevance():
    # the phased, renumbered inverse transform built here is the
    # independent oracle: its relabeled outcomes must not see the phases
    rng = np.random.default_rng(11)
    sigma = rng.permutation(4)
    identical = True
    for phi in (0.75, 1 / 3):
        base = np.round(ideal_distribution(phi, 4), 12)
        for _ in range(10):
            alpha = rng.uniform(-np.pi, np.pi, 4)
            p = np.round(phased_oracle_distribution(phi, 4, sigma, alpha), 12)
            identical &= bool(np.array_equal(p, base))
    assert report(
        11, identical,
        "outcome distributions bitwise identical over 10 random phase vectors",
    )
