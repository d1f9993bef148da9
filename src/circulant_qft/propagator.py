"""Time-dependent propagator integration and phased-DFT factorization.

The propagator solves i dU/dt = H(t) U with U(t_min) = I by the
two-exponential fourth-order commutator-free Magnus scheme (CF4; Blanes
& Moan, Appl. Numer. Math. 56, 1519, 2006).  A schedule of `steps` steps
runs ceil(steps / 2) intervals of length h, and each interval applies two
exponentials of weighted sums of H at its two Gauss-Legendre nodes, so
`steps` counts exponentials, and the global error is fourth order in h.
Each exponential is a truncated Taylor series with scaling and squaring
(_kernels), so it loses unitarity per step by a Taylor remainder below
eps/2 plus roundoff.  The stepping kernel (_kernels.propagate) checks
||U'U - I||_F at the recorded samples and at the end; every
integration, evolve's and final_propagators', rejects a drift above
UNITARITY_TOL or a non-finite propagator, and a step too long for
squaring to stay inside UNITARITY_TOL.  evolve returns plain values,
(times, u_samples, drift, convergence), whose last sample is U(t_max).
final_propagators integrates the schedule's Hamiltonian scaled by each
of several energies at once: E*H(t) only rescales each exponent, so one
set of series terms serves every scale.  It returns both directions:
every pulse pair has f(-t) = g(t), so the other direction applies the
same exponentials in reverse order, and on a symmetric window one set
of step matrices serves both.

In the adiabatic regime the final forward propagator is a DFT up to a
basis renumbering sigma and per-column phases alpha; factor_phased_dft
returns (sigma, alpha) and the Frobenius residual of that description,
taking sigma from one exact assignment over the column overlaps
(scipy.sparse.csgraph's LAPJVsp matching, after Jonker & Volgenant,
Computing 38, 325, 1987; its import is over half of a cold start),
predict_permutation derives sigma from eigenvalue rank matching alone,
and adiabatic_phase_prediction returns (alpha, dynamical, geometric),
alpha predicted from the instantaneous eigensystem as the wrapped sum of
the quasienergy integral (dynamical part, also available alone as
dynamical_phase_prediction) and the open-path geometric phase of
parallel transport along each eigenvalue branch.  Both parts are taken
on the phase grid of 4 ceil(steps / 32) + 1 points, an eighth of the
schedule's grid, by two Romberg levels over the spacings h, 2h and 4h:
Boole's rule for the quasienergy integral, and the same two levels with
every difference wrapped for the transport phase, so both are sixth
order in the spacing.
"""

from dataclasses import replace

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from . import _kernels
from .circulant import circulant_eigenvalues, dft_matrix
from .errors import IntegrationError, PhysicsError
from .linalg import (
    CLUSTER_GAP_RTOL,
    UNITARITY_TOL,
    dagger,
    frobenius,
    is_degenerate,
    unitarity_defect,
)
from .schedule import FORWARD, INVERSE

# evolve records about this many intermediate propagators.
SAMPLES = 200
# CF4: the interval [t, t + h] has nodes t_i = t + NODES[i] * h, and its
# exponential j is exp(-i h (WEIGHTS[j, 0] H(t_1) + WEIGHTS[j, 1] H(t_2))),
# applied in the order j = 0, 1 (the reverse order is only second order).
NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
_BETA = (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
_GAMMA = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0
WEIGHTS = np.array([[_BETA, _GAMMA], [_GAMMA, _BETA]])


def _intervals(steps):
    """CF4 intervals for a step count: two exponentials per interval."""
    return -(-steps // 2)


def _integrate(s, intervals, sample_idx, scales=(1.0,), reverse=False):
    """Samples and final propagators of scale * H(t) for every scale,
    with a leading axis over scales, and their worst unitarity drift;
    with reverse set, a fourth entry holds the product of the same
    exponentials in reverse order (_kernels.propagate).

    The window is cut into `intervals` CF4 intervals; sample_idx holds
    interval boundaries (0 is t_min, intervals is t_max).
    """
    t_min, t_max = s.window
    h = (t_max - t_min) / intervals
    a, b = s.coefficients(t_min + h * (np.arange(intervals)[:, None] + NODES))
    # row k holds interval k's two exponents, in their order of application
    a, b = (a @ WEIGHTS.T).ravel(), (b @ WEIGHTS.T).ravel()
    samples, u_final, drift, *u_reversed = _kernels.propagate(
        s.h0, s.h1, a, b, h * np.asarray(scales, dtype=float),
        2 * np.asarray(sample_idx, dtype=np.int64), reverse=reverse
    )
    if not all(np.all(np.isfinite(u)) for u in [u_final, *u_reversed]):
        raise IntegrationError("propagator contains non-finite entries")
    if drift > UNITARITY_TOL:
        raise IntegrationError(
            f"unitarity drift {drift:.3e} exceeds {UNITARITY_TOL:.1e}"
        )
    return samples, u_final, drift, *u_reversed


def evolve(s, convergence_check=True):
    """Integrate the schedule's propagator over its window.

    The window is cut into ceil(s.steps / 2) CF4 intervals of two
    exponentials each.  Returns (times, u_samples, drift, convergence).
    About SAMPLES intermediate propagators are recorded in u_samples at
    interval boundaries, at a fixed stride, and times[k] is the time of
    u_samples[k]; t_min and t_max are always included, so u_samples[-1]
    is U(t_max).  drift is the worst ||U'U - I||_F over the samples and
    the end (a step's defect persists, so no step escapes it).  When
    convergence_check is set, the integration is repeated with twice the
    intervals and convergence is the Frobenius distance between the two
    final propagators (the extra run is discarded); otherwise it is NaN.
    Callers that do not read it turn it off, which saves two thirds of
    the exponentials.
    """
    intervals = _intervals(s.steps)
    sample_idx = np.arange(0, intervals + 1, max(1, intervals // SAMPLES))
    if sample_idx[-1] != intervals:
        sample_idx = np.append(sample_idx, intervals)

    samples, u_final, drift = _integrate(s, intervals, sample_idx)
    convergence = np.nan
    if convergence_check:
        _, u_fine, _ = _integrate(s, 2 * intervals, np.empty(0, dtype=np.int64))
        convergence = frobenius(u_final[0] - u_fine[0])

    t_min, t_max = s.window
    times = t_min + (t_max - t_min) * sample_idx / intervals
    return times, samples[0], float(drift), float(convergence)


def final_propagators(s, scales):
    """U(t_max) of the schedule with its Hamiltonian scaled by each of
    scales, and U(t_max) of the same schedule run in the other direction,
    each stacked along a leading axis over scales.

    One integration at the interval lengths h * scales serves every
    scale, over the same ceil(s.steps / 2) CF4 intervals as evolve, and
    every scale passes the same finite and unitarity checks.  No samples
    are recorded and there is no convergence rerun.  At scale 1 the
    first is evolve's last sample up to roundoff: the products group
    differently.

    The other direction swaps the pulses, and every pulse pair has
    f(-t) = g(t), so its Hamiltonian at t is this one's at -t.  CF4's
    nodes and weights are mirror-symmetric within each interval, so on
    the mirrored window (-t_max, -t_min) the other direction applies
    this direction's exponentials in reverse order: U = e_K-1 ... e_0
    gives e_0 ... e_K-1 from the same step matrices.  A symmetric window
    is its own mirror and needs one integration; any other window takes
    the reversed product of a second one over its mirror.  Both agree
    with a direct integration of the other direction to roundoff (the
    mirrored nodes are rounded separately).
    """
    intervals, no_samples = _intervals(s.steps), np.empty(0, dtype=np.int64)
    t_min, t_max = s.window
    if t_min == -t_max:
        _, u, _, u_other = _integrate(s, intervals, no_samples, scales, True)
    else:
        u = _integrate(s, intervals, no_samples, scales)[1]
        mirrored = replace(s, window=(-t_max, -t_min))
        u_other = _integrate(mirrored, intervals, no_samples, scales, True)[3]
    return u, u_other


def _assign_columns(weights):
    """The bijection of largest total |overlap|."""
    n = weights.shape[0]
    # csr_array drops exact zeros, so the matching sees only the nonzero
    # overlaps.  Inside the unitarity gate |F'U|^2 is doubly stochastic, so
    # that support always holds a perfect matching (Birkhoff-von Neumann),
    # and the best bijection over it is also the best over all bijections.
    rows, cols = min_weight_full_bipartite_matching(csr_array(weights),
                                                    maximize=True)
    sigma = np.empty(n, dtype=np.intp)
    sigma[cols] = rows
    return sigma


def factor_phased_dft(u, direction=FORWARD):
    """Fit U as a phased, renumbered DFT (or inverse DFT).

    Returns (sigma, alpha, residual).  Forward: column n of the fit is
    exp(i alpha_n) times DFT column sigma(n).  Any other direction fits
    the inverse DFT: the fit maps DFT column n to exp(-i alpha_n) times
    basis state sigma(n).  The renumbering is the bijection of largest
    total column overlap, the phase of each matched overlap gives alpha,
    in (-pi, pi], and the residual ||U - fit||_F is never hidden.
    Overlaps that tie or nearly tie still give a fit, whose residual then
    shows how far U is from every phased DFT (U = I has all overlaps 1/2
    and residual 2 at N = 4).
    """
    u = np.asarray(u, dtype=np.complex128)
    defect = unitarity_defect(u)
    if defect > UNITARITY_TOL:
        raise IntegrationError(
            f"matrix to factor is not unitary: defect {defect:.3e}"
        )
    n = u.shape[0]
    f = dft_matrix(n)
    if direction == FORWARD:
        overlaps = dagger(f) @ u  # overlaps[m, n] = <F_m | U e_n>
        sigma = _assign_columns(np.abs(overlaps))
        alpha = np.angle(overlaps[sigma, np.arange(n)])
        fit = np.exp(1j * alpha)[None, :] * f[:, sigma]
    else:
        images = u @ f  # images[:, n] = U applied to DFT column n
        sigma = _assign_columns(np.abs(images))
        alpha = -np.angle(images[sigma, np.arange(n)])
        fit = np.zeros_like(u)
        fit[sigma, :] = np.exp(-1j * alpha)[:, None] * np.conj(f).T
    return sigma, alpha, float(frobenius(u - fit))


def _by_rank(s, spectrum):
    """Eigenstates of "H0" (basis states) or "H1" (DFT columns) by rank.

    Entry k is the state whose eigenvalue has ascending rank k.  This is
    the one rank-matching rule: with no level crossings, adiabatic
    following sends the state of rank k in one spectrum to the state of
    rank k in the other.  A spectrum that linalg.is_degenerate flags (a
    gap at most CLUSTER_GAP_RTOL of its largest magnitude) has no rank
    order and raises PhysicsError.
    """
    if spectrum == "H0":
        values = np.diag(s.h0).real
    else:
        values = circulant_eigenvalues(s.h1[:, 0]).real
    if is_degenerate(values):
        raise PhysicsError(
            f"{spectrum} spectrum is degenerate; rank matching is undefined"
        )
    return np.argsort(values, kind="stable")


def predict_permutation(s):
    """Renumbering sigma from adiabatic rank matching.

    sigma[j] is the DFT column whose circulant eigenvalue has the rank
    of H0's eigenvalue j: with no level crossings a forward sweep
    carries basis state j into that column and an inverse sweep carries
    the column back to j, so sigma does not depend on the direction.
    """
    sigma = np.empty(s.dim, dtype=np.intp)
    sigma[_by_rank(s, "H0")] = _by_rank(s, "H1")
    return sigma


def _wrap(angles):
    return np.angle(np.exp(1j * angles))


# The spectrum each direction starts and ends in, and the sign its
# factorization gives the acquired phase.
_ENDS = {FORWARD: ("H0", "H1", 1.0), INVERSE: ("H1", "H0", -1.0)}


def _phase_grid(s):
    """The grid of the phase prediction: 4m + 1 uniform points over the
    window, m = ceil(steps / 32).  The number of links is a multiple of
    four, so every other and every fourth point make grids of twice and
    four times the spacing for the two Romberg levels."""
    return np.linspace(*s.window, 4 * -(-s.steps // 32) + 1)


def _branches(s):
    """Start states, dynamical phases and eigenvectors of the branches.

    Returns (label, dynamical, v): label[k] is the start state of the
    branch of rank k, dynamical the quasienergy integral of each branch
    by Boole's rule on the phase grid (trapezoid rules T_h, T_2h and T_4h
    on every, every other and every fourth point; R(h) = T_h + (T_h -
    T_2h) / 3 is Simpson's rule, and R(h) + (R(h) - R(2h)) / 15 Boole's),
    indexed by its start state, signed as in the factorization and
    wrapped, and v the eigenvectors of H(t) on the phase grid in
    ascending eigenvalue order.  Tracking by rank is invalid where two
    branches collide: a gap at most CLUSTER_GAP_RTOL times the largest
    |eigenvalue| over the whole phase grid, checked at the grid's points,
    raises PhysicsError.  A vanishing Hamiltonian has nothing to track.
    """
    t = _phase_grid(s)
    a, b = s.coefficients(t)
    w, v = _kernels.eigh_grid(s.h0, s.h1, a, b)

    scale = float(np.abs(w).max())
    gaps = np.diff(w, axis=1).min(axis=1)
    bad = gaps <= CLUSTER_GAP_RTOL * scale
    if scale > 0.0 and bad.any():
        k = int(np.argmax(bad))
        raise PhysicsError(
            f"eigenvalue branches collide at t = {t[k]:.6g} "
            f"(gap {gaps[k]:.3e}); rank tracking is invalid"
        )

    start, _, sign = _ENDS[s.direction]
    label = _by_rank(s, start)
    fine, mid, coarse = (np.trapezoid(w[::k], t[::k], axis=0)
                         for k in (1, 2, 4))
    fine, coarse = fine + (fine - mid) / 3, mid + (mid - coarse) / 3
    dynamical = np.empty(s.dim)
    dynamical[label] = -sign * (fine + (fine - coarse) / 15)
    return label, _wrap(dynamical), v


def _transport(v, enter_states, leave_states):
    """Wrapped open-path phase along each branch of the eigenvectors v:
    the phase of the end state on the last eigenvector, less the summed
    link angles arg<v_k|v_k+1> and the phase of the start state on the
    first.  Each link angle is defined only modulo 2 pi (eigenvector
    phases are arbitrary), so only this wrapped total is meaningful."""
    links = np.angle(np.sum(v[:-1].conj() * v[1:], axis=1)).sum(axis=0)
    enter = np.angle(np.sum(enter_states.conj() * v[0], axis=0))
    leave = np.angle(np.sum(leave_states.conj() * v[-1], axis=0))
    return _wrap(leave - links - enter)


def adiabatic_phase_prediction(s):
    """Predicted factorization phases from the instantaneous eigensystem.

    Returns (alpha, dynamical, geometric): dynamical holds the quasienergy
    integrals, geometric the open-path (Pancharatnam) phases of parallel
    transport, and alpha their wrapped sum, the predicted alpha of the
    factorization.  All three follow the factorization's sign convention
    for the schedule's direction, are indexed like its alpha and are
    wrapped to (-pi, pi].

    Tracks each eigenvalue branch by rank across the phase grid (valid
    while there are no crossings).  The state following the branch of
    rank r picks up the dynamical phase -int eps_r dt (Boole's rule) and
    a geometric phase from discrete parallel transport: the phase of the
    start state on the branch eigenvector, the summed link angles
    arg<v_k|v_k+1> and the phase of the end state on the last
    eigenvector.  That wrapped transport phase G is taken on the phase
    grid (G_h), on every other point (G_2h) and on every fourth (G_4h),
    and extrapolated in two levels, G1(h) = G_h + wrap(G_h - G_2h) / 3
    and then G1(h) + wrap(G1(h) - G1(2h)) / 15, so both parts are sixth
    order in the grid spacing.  Start and end states are matched by the rank rule of
    predict_permutation: a forward branch runs from the basis state of
    rank r in H0 to the DFT column of rank r in the circulant spectrum,
    an inverse branch the other way round, and a degenerate spectrum
    raises PhysicsError.  Nothing is taken from the propagator.  The
    forward factorization reports the acquired phase as alpha, indexed by
    basis state; the inverse one reports its negative (the exp(-i alpha)
    form), indexed by DFT column.
    """
    label, dynamical, v = _branches(s)
    start, end, sign = _ENDS[s.direction]
    states = {"H0": np.eye(s.dim), "H1": dft_matrix(s.dim)}
    ends = (states[start][:, label], states[end][:, _by_rank(s, end)])
    fine, mid, coarse = (_transport(v[::k], *ends) for k in (1, 2, 4))
    fine, coarse = fine + _wrap(fine - mid) / 3, mid + _wrap(mid - coarse) / 3
    geometric = np.empty(s.dim)
    geometric[label] = sign * (fine + _wrap(fine - coarse) / 15)
    geometric = _wrap(geometric)
    return _wrap(dynamical + geometric), dynamical, geometric


def dynamical_phase_prediction(s):
    """Dynamical part of the predicted factorization phases.

    The quasienergy integral of each rank-tracked eigenvalue branch, in
    the factorization's sign convention: -int eps_j dt for the branch
    starting at basis state j of a forward schedule, +int eps_n dt for
    the branch starting at DFT column n of an inverse one.  Values are
    wrapped to (-pi, pi].  Only the start states are ranked, so the end
    spectrum may be degenerate.  This is not the full prediction of
    alpha, which also carries the geometric phase: see
    adiabatic_phase_prediction.  No command calls it; it stays while
    perfbench/spans.py wraps it by name.
    """
    return _branches(s)[1]
