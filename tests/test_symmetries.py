"""Exact transformation laws of the model's symmetries, end to end.

The time unit: (H0, H1, T, tau) -> (c H0, c H1, T/c, tau/c) leaves every
propagator unchanged, and with c a power of two the law is exact in
floating point.  Scaling by a power of two commutes with every rounding
(short of overflow and underflow), and every time the integrators form
is a window bound, a step length or a node scaled by 1/c, every energy
one scaled by c, so each product E*t they take is the same float.  A
kernel change that breaks the law has changed the arithmetic of the
stepping, not just its rounding.
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
    Schedule,
    SechMaskedPair,
    TanhPair,
)

PULSES = {"tanh": lambda c: TanhPair(T=1.0 / c),
          "sech_masked": lambda c: SechMaskedPair(T=1.0 / c, tau=1.5 / c)}


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
