"""Phase estimation on top of the adiabatically synthesized transform.

The register is the model's own N levels.  The controlled-power stage
of textbook phase estimation only serves to put it into N^{-1/2} sum_k
exp(2 pi i k phi) |k>; that state is synthesized directly here.  The
inverse transform then concentrates the amplitude on the value nearest
phi N, up to a global phase that drops out of measured probabilities.
The simulated inverse transform carries a basis renumbering, which is
undone classically from the predicted permutation.  run_qpe reads the
register once, along the evolution, and returns plain arrays; the target
value, the most likely outcome and any sampled histogram are its caller's.
"""

import numpy as np

from .circulant import dft_matrix
from .linalg import dagger
from .propagator import evolve, predict_permutation


def nearest_value(phi, n):
    """Nearest value of an n-valued register to a phase, cyclically.

    Returns (k, exact): k = phi * n when that is an integer, otherwise
    the nearest value under the cyclic metric (phases identify 1 with 0)
    and exact=False.  The caller passes phi in [0, 1) and n >= 2.
    """
    scaled = phi * n
    return int(round(scaled)) % n, scaled == round(scaled)


def prepare_register_state(phi, n):
    """Register state n^{-1/2} sum_k exp(2 pi i k phi) |k> of n values.

    For phi = m / n this is exactly DFT column m, which the inverse
    transform maps to one basis state.
    """
    k = np.arange(n)
    return np.exp(2j * np.pi * k * phi) / np.sqrt(n)


def register_readout(sigma, phi, u):
    """Register states u @ psi0 and their fidelity with phi's target.

    u holds inverse-transform propagators on its last two axes (leading
    axes are batched), sigma is their predicted renumbering and psi0 is
    the register state for phi over u's n levels.  The target is the
    basis state at which the nearest register value of phi is read out;
    the fidelity is |<target|U psi0>|^2.  Returns (states, fidelity).
    """
    n = u.shape[-1]
    target, _ = nearest_value(phi, n)
    # argsort inverts sigma: the basis state that reads out the target
    target_index = int(np.argsort(sigma)[target])
    states = u @ prepare_register_state(phi, n)
    return states, np.abs(states[..., target_index]) ** 2


def run_qpe(s, phi):
    """Phase estimation of phi on the register of s's levels: its state
    evolved under the schedule s and read out once.

    The caller passes an inverse-direction s and phi in [0, 1).  Returns
    (times, fidelity, raw, relabeled): the sample times of evolve, whose
    last is the window end, the fidelity with phi's target at each
    (register_readout), and the outcome probabilities of the state at
    the last sample, U(t_max), read from amplitudes (no shot noise),
    over the physical basis (raw) and by register value, with the
    renumbering undone (relabeled).  evolve gates the drift itself.
    """
    sigma = predict_permutation(s)
    times, samples, _, _ = evolve(s, convergence_check=False)
    states, fidelity = register_readout(sigma, phi, samples)
    raw = np.abs(states[-1]) ** 2
    # argsort inverts sigma: register value k is read at argsort(sigma)[k]
    return times, fidelity, raw, raw[np.argsort(sigma)]


def ideal_distribution(phi, n):
    """Outcome distribution |F^dagger psi0|^2 of the exact n-point inverse
    transform on the register state for phi, by register value.

    Per-state phases and a renumbering of the inverse transform leave it
    unchanged once the renumbering is undone: phases only multiply
    amplitudes whose moduli are measured.
    """
    return np.abs(dagger(dft_matrix(n)) @ prepare_register_state(phi, n)) ** 2
