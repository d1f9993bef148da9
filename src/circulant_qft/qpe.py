"""Phase estimation on top of the adiabatically synthesized transform.

The controlled-power stage of textbook phase estimation only serves to
put the first register into 2^{-r/2} sum_k exp(2 pi i k phi) |k>; that
state is synthesized directly here.  Applying the inverse transform then
concentrates the amplitude on the binary expansion of phi, up to a
global phase that drops out of measured probabilities.  The simulated
inverse transform carries a basis renumbering, which is undone
classically from the predicted permutation.  run_qpe reads the register
once, along the evolution, and returns plain arrays; the target value,
the most likely outcome and any sampled histogram are its caller's.
"""

import numpy as np

from .circulant import dft_matrix
from .linalg import dagger
from .propagator import evolve, predict_permutation


def nearest_value(phi, r):
    """Nearest r-bit register value of a phase, cyclically.

    Returns (k, exact): k = phi * 2^r when that is an integer, otherwise
    the nearest value under the cyclic metric (phases identify 1 with 0)
    and exact=False.  The caller passes phi in [0, 1) and r >= 1.
    """
    scaled = phi * 2**r
    return int(round(scaled)) % 2**r, scaled == round(scaled)


def prepare_register_state(phi, r):
    """First-register state 2^{-r/2} sum_k exp(2 pi i k phi) |k>.

    For phi with an exact r-bit expansion m / 2^r this is exactly DFT
    column m, which the inverse transform maps to one basis state.
    """
    k = np.arange(2**r)
    return np.exp(2j * np.pi * k * phi) / np.sqrt(2**r)


def register_readout(sigma, phi, r, u):
    """Register states u @ psi0 and their fidelity with phi's target.

    psi0 is the register state for phi and r, u holds inverse-transform
    propagators on its last two axes (leading axes are batched) and sigma
    is their predicted renumbering.  The target is the basis state at
    which the nearest r-bit value of phi is read out; the fidelity is
    |<target|U psi0>|^2.  Returns (states, fidelity).
    """
    target, _ = nearest_value(phi, r)
    # argsort inverts sigma: the basis state that reads out the target
    target_index = int(np.argsort(sigma)[target])
    states = u @ prepare_register_state(phi, r)
    return states, np.abs(states[..., target_index]) ** 2


def run_qpe(s, phi, r):
    """Phase estimation of phi: the register state evolved under the
    schedule s and read out once.

    The caller passes an inverse-direction s on a model of dimension
    2^r, phi in [0, 1) and r >= 1; none of this is checked here.
    Returns (times, fidelity, raw, relabeled): the sample times of the
    evolution, whose last is the window end, the fidelity with phi's
    target at each (register_readout), and the outcome probabilities of
    the final state, read from amplitudes (no shot noise), over the
    physical basis (raw) and by register value, with the renumbering
    undone (relabeled).
    """
    sigma = predict_permutation(s)
    result = evolve(s, convergence_check=False)
    states, fidelity = register_readout(sigma, phi, r, result.u_samples)
    raw = np.abs(states[-1]) ** 2
    # argsort inverts sigma: register value k is read at argsort(sigma)[k]
    return result.times, fidelity, raw, raw[np.argsort(sigma)]


def ideal_distribution(phi, r):
    """Outcome distribution |F^dagger psi0|^2 of the exact inverse
    transform on the register state for phi, by register value.

    Per-state phases and a renumbering of the inverse transform leave it
    unchanged once the renumbering is undone: phases only multiply
    amplitudes whose moduli are measured.
    """
    psi = dagger(dft_matrix(2**r)) @ prepare_register_state(phi, r)
    return np.abs(psi) ** 2
