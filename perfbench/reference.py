"""Independent reference propagator for the u_err accuracy metric.

The program under test integrates i dU/dt = H(t) U with exponential
midpoint steps.  This module does the same with its own pulse formulas,
its own time window and its own ordered product, so that a defect in
the program's schedule or kernel cannot cancel out of the comparison.

The exponential midpoint rule is symmetric, so its global error expands
in even powers of the step.  One Richardson step on the results at k and
2k times the config's step count therefore removes the leading h^2 term;
reference_propagator reports that extrapolated result at 16x and, as its
self-check, the distance to the same extrapolation at 8x.
"""

import numpy as np

WINDOW_HALFWIDTH = 6.0  # in crossing times, as documented for the CLI
CHUNK = 4096  # step matrices held at once; bounds memory for long grids


def pulse_pair(pulses):
    """(f, g) as functions of t for a config 'pulses' section."""
    kind = pulses["kind"]
    big_t = float(pulses["T"])
    if kind == "tanh":
        def fg(t):
            th = np.tanh(t / big_t)
            return 0.5 * (1.0 - th), 0.5 * (1.0 + th)
    elif kind == "sech_masked":
        tau = float(pulses["tau"])

        def fg(t):
            mask = 1.0 / np.cosh(t / tau)
            th = np.tanh(t / big_t)
            return mask * (1.0 - th), mask * (1.0 + th)
    else:
        raise ValueError(f"unknown pulse kind {kind!r}")
    return fg


def default_window(pulses):
    half = WINDOW_HALFWIDTH * float(pulses["T"])
    return -half, half


def ordered_product(mats):
    """mats[-1] @ ... @ mats[0], by pairwise products (a balanced tree)."""
    mats = np.asarray(mats)
    while len(mats) > 1:
        paired = mats[1:len(mats) - len(mats) % 2:2] @ mats[0:len(mats) - 1:2]
        if len(mats) % 2:
            paired = np.concatenate([paired, mats[-1:]])
        mats = paired
    return mats[0]


def midpoint_propagator(h0, h1, coefficients, window, steps):
    """Exponential-midpoint propagator of H(t) = a(t) H0 + b(t) H1.

    coefficients(t) returns the arrays (a, b) at the times t.
    """
    t0, t1 = window
    dt = (t1 - t0) / steps
    u = np.eye(h0.shape[0], dtype=np.complex128)
    for start in range(0, steps, CHUNK):
        k = np.arange(start, min(start + CHUNK, steps))
        a, b = coefficients(t0 + (k + 0.5) * dt)
        w, v = np.linalg.eigh(a[:, None, None] * h0 + b[:, None, None] * h1)
        mats = (v * np.exp(-1j * dt * w)[:, None, :]) @ np.conj(
            np.swapaxes(v, 1, 2))
        u = ordered_product(mats) @ u
    return u


def reference_propagator(h0, h1, coefficients, window, steps):
    """(U_ref, self_check) for a config integrated with `steps` steps.

    U_ref extrapolates the midpoint results at 8x and 16x the steps;
    self_check is its Frobenius distance to the same extrapolation from
    4x and 8x.
    """
    u4, u8, u16 = (midpoint_propagator(h0, h1, coefficients, window, k * steps)
                   for k in (4, 8, 16))
    at8 = u8 + (u8 - u4) / 3.0
    at16 = u16 + (u16 - u8) / 3.0
    return at16, float(np.linalg.norm(at16 - at8))
