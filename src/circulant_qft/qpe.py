"""Phase estimation on top of the adiabatically synthesized transform.

The controlled-power stage of textbook phase estimation only serves to
put the first register into 2^{-r/2} sum_k exp(2 pi i k phi) |k>; that
state is synthesized directly here.  Applying the inverse transform then
concentrates the amplitude on the binary expansion of phi, up to a
global phase that drops out of measured probabilities.  The simulated
inverse transform carries a basis renumbering, which is undone
classically from the predicted permutation.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class QpeResult:
    """Outcome of one phase-estimation run.

    distribution holds raw probabilities over the physical basis;
    relabeled_distribution is the same data with the renumbering undone
    (index = register value); top is the register value of its maximum
    and target the nearest r-bit value of phi.
    fidelity_times/fidelity_trace sample |<target|psi(t)>|^2 against the
    renumbered target basis state during the evolution.  counts is None
    unless a sampled measurement was requested.
    """

    distribution: np.ndarray
    relabeled_distribution: np.ndarray
    top: int
    target: int
    exact_expansion: bool
    fidelity_times: np.ndarray
    fidelity_trace: np.ndarray
    final_fidelity: float
    counts: np.ndarray | None = None


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


def run_qpe(s, phi, r, shots=None):
    """Estimate phi by evolving the register state under the schedule s.

    The caller passes an inverse-direction s on a model of dimension
    2^r, phi in [0, 1) and r >= 1; none of this is checked here.  The
    returned distribution is read directly from amplitudes (no shot
    noise); pass shots for an additional sampled histogram, which exists
    for demonstration only and is drawn with the fixed seed 0, so that
    identical inputs give identical counts.
    """
    target, exact = nearest_value(phi, r)
    sigma = predict_permutation(s)
    result = evolve(s, convergence_check=False)
    _, trace = register_readout(sigma, phi, r, result.u_samples)
    psi_final, final_fidelity = register_readout(sigma, phi, r, result.u_final)
    distribution = np.abs(psi_final) ** 2
    relabeled = np.empty_like(distribution)
    relabeled[sigma] = distribution

    counts = None
    if shots:
        rng = np.random.default_rng(0)
        counts = rng.multinomial(int(shots), relabeled / relabeled.sum())

    return QpeResult(
        distribution=distribution,
        relabeled_distribution=relabeled,
        top=int(np.argmax(relabeled)),
        target=target,
        exact_expansion=exact,
        fidelity_times=result.times,
        fidelity_trace=trace,
        final_fidelity=float(final_fidelity),
        counts=counts,
    )


def ideal_distribution(phi, r):
    """Outcome distribution |F^dagger psi0|^2 of the exact inverse
    transform on the register state for phi, by register value.

    Per-state phases and a renumbering of the inverse transform leave it
    unchanged once the renumbering is undone: phases only multiply
    amplitudes whose moduli are measured.
    """
    psi = dagger(dft_matrix(2**r)) @ prepare_register_state(phi, r)
    return np.abs(psi) ** 2
