"""Exact transformation laws of the model's symmetries, end to end.

The time unit: (H0, H1, T, tau) -> (c H0, c H1, T/c, tau/c) leaves every
propagator unchanged, and with c a power of two the law is exact in
floating point.  Scaling by a power of two commutes with every rounding
(short of overflow and underflow), and every time the integrators form
is a window bound, a step length or a node scaled by 1/c, every energy
one scaled by c, so each product E*t they take is the same float.  A
kernel change that breaks the law has changed the arithmetic of the
stepping, not just its rounding.

The mask: both pulse kinds are m(t) [1 -+ tanh(t/T)], with m = 1/2 for
tanh pulses and m = sech(t/tau) under the mask, so the masked H(t) is
2 sech(t/tau) times the tanh pair's on the same grid.  Its eigenvectors
are the same, so (i) its eigenvalues are 2 sech(t/tau) times the tanh
pair's, (ii) its nonadiabatic couplings <m|d/dt n> are equal (the mask's
rate multiplies H itself, which has no off-diagonal element in its own
eigenbasis) and (iii) its geometric phases are equal; only the dynamical
phases differ.  This law holds to roundoff, not bit for bit.
"""

import numpy as np
import pytest

from circulant_qft.models import build_four_level
from circulant_qft.propagator import (
    adiabatic_phase_prediction,
    evolve,
    factor_phased_dft,
)
from circulant_qft.schedule import (
    FORWARD,
    INVERSE,
    PulsePair,
    Schedule,
    adiabaticity_report,
    eigen_trajectories,
)

PULSES = {"tanh": lambda c: PulsePair(T=1.0 / c),
          "sech_masked": lambda c: PulsePair(T=1.0 / c, tau=1.5 / c)}


def _outputs(c, kind, direction):
    """What evolve reports for the paper model scaled by c, with its
    pulses' time unit divided by c."""
    h0, h1 = build_four_level(10.0, 10.0 * (1 + 1j / 3))
    s = Schedule(pulses=PULSES[kind](c), h0=c * h0, h1=c * h1,
                 direction=direction, steps=800)
    times, samples, drift, convergence = evolve(s)
    return (times, samples, drift, convergence,
            *factor_phased_dft(samples[-1], direction),
            adiabatic_phase_prediction(s)[0])


@pytest.mark.parametrize("c", [2.0, 0.5])
@pytest.mark.parametrize("kind", sorted(PULSES))
@pytest.mark.parametrize("direction", [FORWARD, INVERSE])
def test_time_unit_law_is_exact(c, kind, direction):
    base_times, *base = _outputs(1.0, kind, direction)
    scaled_times, *scaled = _outputs(c, kind, direction)
    assert np.array_equal(scaled_times, base_times / c)
    # the samples (the last is U(t_max)), drift, convergence estimate,
    # sigma, alpha, residual and predicted alpha, bit for bit
    for got, want in zip(scaled, base, strict=True):
        assert np.array_equal(got, want)


def _paper_schedule(tau, direction):
    """The paper model at E = 10 on the window +-6, 4 000 steps, with T = 1
    pulses, under a sech mask of width tau or (tau None) none."""
    h0, h1 = build_four_level(10.0, 10.0 * (1 + 1j / 3))
    return Schedule(pulses=PulsePair(T=1.0, tau=tau), h0=h0, h1=h1,
                    direction=direction, window=(-6.0, 6.0), steps=4000)


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("direction", [FORWARD, INVERSE])
def test_mask_scales_energies_and_leaves_couplings_and_geometry(tau,
                                                                direction):
    plain, masked = (_paper_schedule(None, direction),
                     _paper_schedule(tau, direction))
    eps = np.finfo(float).eps
    times, energies = eigen_trajectories(plain)
    _, masked_energies = eigen_trajectories(masked)
    _, gaps, couplings, _, _ = adiabaticity_report(plain)
    _, _, masked_couplings, _, _ = adiabaticity_report(masked)
    # The tolerances are roundoff bounds fixed before any run.  eigvalsh
    # and eigh are backward stable: each eigenvalue is off by a few
    # n eps ||H||, and each eigenvector by that over the gap, a relative
    # error of eps times kappa = ||H|| / gap, which the mask leaves
    # unchanged (n = 4; the factor 64 is the margin over "a few").
    scale = np.abs(energies).max(axis=1)
    kappa = scale / gaps
    # (i) H(t) itself differs by one rounding of each coefficient
    mask = 2.0 / np.cosh(times / tau)
    assert np.all(np.abs(masked_energies - mask[:, None] * energies)
                  <= 64 * eps * (mask * scale)[:, None])
    # (ii) the eigenvectors carry kappa eps into each coupling, and the
    # mask's rate |m'/m| <= 1/tau multiplies <m|H|n>, which is zero up to
    # eps ||H||, over the gap: again kappa eps
    assert np.all(np.abs(masked_couplings - couplings)
                  <= 64 * eps * kappa * (couplings + 1.0 / tau))
    # (iii) the transport sums one link angle per point of the phase grid,
    # each off by kappa eps, and its extrapolation weighs them by under 2
    _, _, geometric = adiabatic_phase_prediction(plain)
    _, _, masked_geometric = adiabatic_phase_prediction(masked)
    points = 4 * -(-plain.steps // 32) + 1
    difference = np.angle(np.exp(1j * (masked_geometric - geometric)))
    assert np.all(np.abs(difference) <= 64 * eps * kappa.max() * 2 * points)
