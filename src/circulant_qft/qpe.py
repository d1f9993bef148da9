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
from .schedule import INVERSE


def to_bits(phi, r):
    """Nearest r-bit expansion of a phase, cyclically.

    Returns (bits, exact): the exact expansion when phi * 2^r is an
    integer, otherwise the nearest r-bit value under the cyclic metric
    (phases identify 1 with 0) and exact=False.
    """
    if not 0 <= phi < 1:
        raise ValueError(f"phi must lie in [0, 1), got {phi}")
    if r < 1:
        raise ValueError(f"register size r must be >= 1, got {r}")
    scaled = phi * 2**r
    k = int(round(scaled)) % 2**r
    exact = scaled == round(scaled)
    bits = tuple((k >> (r - 1 - j)) & 1 for j in range(r))
    return bits, exact


def prepare_register_state(phi, r):
    """First-register state 2^{-r/2} sum_k exp(2 pi i k phi) |k>.

    For phi with an exact r-bit expansion m / 2^r this is exactly DFT
    column m, which the inverse transform maps to one basis state.
    """
    to_bits(phi, r)  # validates phi and r
    k = np.arange(2**r)
    return np.exp(2j * np.pi * k * phi) / np.sqrt(2**r)


def ideal_phased_inverse_qft(alpha, sigma, n):
    """Exact inverse transform with per-state phases and renumbering.

    Maps DFT column m to exp(-i alpha_m) |sigma(m)>; with sigma the
    identity and alpha zero this is the plain inverse DFT matrix.  Serves
    as the brute-force oracle for run_qpe.
    """
    alpha = np.asarray(alpha, dtype=float)
    sigma = np.asarray(sigma, dtype=np.intp)
    if alpha.shape != (n,):
        raise ValueError(f"alpha must have length {n}")
    if sorted(sigma.tolist()) != list(range(n)):
        raise ValueError(f"sigma must be a permutation of 0..{n - 1}")
    f = dft_matrix(n)
    u = np.zeros((n, n), dtype=np.complex128)
    u[sigma, :] = np.exp(-1j * alpha)[:, None] * dagger(f)
    return u


@dataclass(frozen=True)
class QpeResult:
    """Outcome of one phase-estimation run.

    distribution holds raw probabilities over the physical basis;
    relabeled_distribution is the same data with the renumbering undone
    (index = register value); top_bits is the bit string of its maximum.
    fidelity_times/fidelity_trace sample |<target|psi(t)>|^2 against the
    renumbered target basis state during the evolution.  counts is None
    unless a sampled measurement was requested.
    """

    phi: float
    r: int
    distribution: np.ndarray
    relabeled_distribution: np.ndarray
    sigma: np.ndarray
    top_bits: tuple
    target_bits: tuple
    exact_expansion: bool
    fidelity_times: np.ndarray
    fidelity_trace: np.ndarray
    final_fidelity: float
    final_state: np.ndarray
    counts: np.ndarray | None = None


def register_readout(sigma, phi, r, u):
    """Register states u @ psi0 and their fidelity with phi's target.

    psi0 is the register state for phi and r, u holds inverse-transform
    propagators on its last two axes (leading axes are batched) and sigma
    is their predicted renumbering.  The target is the basis state at
    which the nearest r-bit value of phi is read out; the fidelity is
    |<target|U psi0>|^2.  Returns (states, fidelity).
    """
    target_bits, _ = to_bits(phi, r)
    target = int("".join(map(str, target_bits)), 2)
    # argsort inverts sigma: the basis state that reads out the target
    target_index = int(np.argsort(sigma)[target])
    states = u @ prepare_register_state(phi, r)
    return states, np.abs(states[..., target_index]) ** 2


def run_qpe(s, phi, r, shots=None):
    """Estimate phi by evolving the register state under the schedule s.

    s must run in the inverse direction on a model of dimension 2^r.
    The returned distribution is read directly from amplitudes (no shot
    noise); pass shots for an additional sampled histogram, which exists
    for demonstration only and is drawn with the fixed seed 0, so that
    identical inputs give identical counts.
    """
    if s.direction != INVERSE:
        raise ValueError(f"phase estimation needs an inverse schedule, "
                         f"got {s.direction!r}")
    if 2**r != s.dim:
        raise ValueError(f"register of {r} qubits needs a model of "
                         f"dimension 2**{r}, got {s.dim}")
    target_bits, exact = to_bits(phi, r)
    sigma = predict_permutation(s)
    result = evolve(s, convergence_check=False)
    _, trace = register_readout(sigma, phi, r, result.u_samples)
    psi_final, final_fidelity = register_readout(sigma, phi, r, result.u_final)
    distribution = np.abs(psi_final) ** 2
    relabeled = np.empty_like(distribution)
    relabeled[sigma] = distribution
    top = int(np.argmax(relabeled))

    counts = None
    if shots:
        rng = np.random.default_rng(0)
        counts = rng.multinomial(int(shots), relabeled / relabeled.sum())

    return QpeResult(
        phi=float(phi),
        r=int(r),
        distribution=distribution,
        relabeled_distribution=relabeled,
        sigma=sigma,
        top_bits=to_bits(top / s.dim, r)[0],
        target_bits=target_bits,
        exact_expansion=exact,
        fidelity_times=result.times,
        fidelity_trace=trace,
        final_fidelity=float(final_fidelity),
        final_state=psi_final,
        counts=counts,
    )


def ideal_distribution(phi, r, sigma=None, alpha=None):
    """Outcome distribution of the exact phased inverse transform.

    The relabeled distribution is returned (renumbering undone), which
    is independent of alpha: phases only multiply amplitudes whose
    moduli are measured.
    """
    n = 2**r
    if sigma is None:
        sigma = np.arange(n)
    if alpha is None:
        alpha = np.zeros(n)
    u = ideal_phased_inverse_qft(alpha, sigma, n)
    psi = u @ prepare_register_state(phi, r)
    p = np.abs(psi) ** 2
    # oracle sends DFT column m to basis state sigma[m], so the register
    # value m is read out at physical index sigma[m]
    return p[np.asarray(sigma, dtype=np.intp)]
