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
squaring to stay inside UNITARITY_TOL.  final_propagators integrates
the schedule's Hamiltonian scaled by each of several energies at once:
E*H(t) only rescales each exponent, so one set of series terms serves
every scale.

In the adiabatic regime the final forward propagator is a DFT up to a
basis renumbering sigma and per-column phases alpha; factor_phased_dft
extracts (sigma, alpha) and the Frobenius residual of that description,
taking sigma from one exact assignment over the column overlaps
(scipy.sparse.csgraph's LAPJVsp matching, after Jonker & Volgenant,
Computing 38, 325, 1987; its import is over half of a cold start),
predict_permutation derives sigma from eigenvalue rank matching alone,
and adiabatic_phase_prediction predicts alpha from the instantaneous
eigensystem: the quasienergy integral (dynamical part, also available
alone as dynamical_phase_prediction) plus the open-path geometric phase
of parallel transport along each eigenvalue branch.  Both parts are taken
on the phase grid of 2 ceil(steps / 8) + 1 points, a quarter of the
schedule's grid, by Simpson's rule and by a Richardson step on the
wrapped transport phase, so both are fourth order in its spacing.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class EvolutionResult:
    """Propagator samples and integration diagnostics.

    times[k] is the time (an interval boundary) of u_samples[k]; u_final
    is the propagator at the window end; unitarity_drift the worst
    ||U'U - I||_F over the recorded samples and the end (a step's defect
    persists, so no step escapes it); convergence_estimate the Frobenius
    distance between the final propagators at the requested and doubled
    interval counts, or NaN when the run was made without
    convergence_check.
    """

    times: np.ndarray
    u_samples: np.ndarray
    u_final: np.ndarray
    unitarity_drift: float
    convergence_estimate: float


def _intervals(steps):
    """CF4 intervals for a step count: two exponentials per interval."""
    return -(-steps // 2)


def _integrate(s, intervals, sample_idx, scales=(1.0,)):
    """Samples and final propagators of scale * H(t) for every scale,
    with a leading axis over scales, and their worst unitarity drift.

    The window is cut into `intervals` CF4 intervals; sample_idx holds
    interval boundaries (0 is t_min, intervals is t_max).
    """
    t_min, t_max = s.window
    h = (t_max - t_min) / intervals
    a, b = s.coefficients(t_min + h * (np.arange(intervals)[:, None] + NODES))
    # row k holds interval k's two exponents, in their order of application
    a, b = (a @ WEIGHTS.T).ravel(), (b @ WEIGHTS.T).ravel()
    samples, u_final, drift = _kernels.propagate(
        s.h0, s.h1, a, b, h * np.asarray(scales, dtype=float),
        2 * np.asarray(sample_idx, dtype=np.int64)
    )
    if not np.all(np.isfinite(u_final)):
        raise IntegrationError("propagator contains non-finite entries")
    if drift > UNITARITY_TOL:
        raise IntegrationError(
            f"unitarity drift {drift:.3e} exceeds {UNITARITY_TOL:.1e}"
        )
    return samples, u_final, drift


def evolve(s, convergence_check=True):
    """Integrate the schedule's propagator over its window.

    The window is cut into ceil(s.steps / 2) CF4 intervals of two
    exponentials each.  About SAMPLES intermediate propagators are
    recorded at interval boundaries, at a fixed stride; t_min and t_max
    are always included.  When convergence_check is set, the integration
    is repeated with twice the intervals and the difference of the final
    propagators is reported (the extra run is discarded); callers that
    do not read convergence_estimate turn it off, which saves two thirds
    of the exponentials.
    """
    intervals = _intervals(s.steps)
    sample_idx = np.arange(0, intervals + 1, max(1, intervals // SAMPLES))
    if sample_idx[-1] != intervals:
        sample_idx = np.append(sample_idx, intervals)

    samples, u_final, drift = _integrate(s, intervals, sample_idx)
    samples, u_final = samples[0], u_final[0]
    convergence = np.nan
    if convergence_check:
        _, u_fine, _ = _integrate(s, 2 * intervals, np.empty(0, dtype=np.int64))
        convergence = frobenius(u_final - u_fine[0])

    t_min, t_max = s.window
    times = t_min + (t_max - t_min) * sample_idx / intervals
    return EvolutionResult(
        times=times,
        u_samples=samples,
        u_final=u_final,
        unitarity_drift=float(drift),
        convergence_estimate=float(convergence),
    )


def final_propagators(s, scales):
    """U(t_max) of the schedule with its Hamiltonian scaled by each of scales.

    One integration at the interval lengths h * scales serves every
    scale, over the same ceil(s.steps / 2) CF4 intervals as evolve, and
    every scale passes the same finite and unitarity checks.  No samples
    are recorded and there is no convergence rerun.
    """
    return _integrate(s, _intervals(s.steps), np.empty(0, dtype=np.int64),
                      scales)[1]


@dataclass(frozen=True)
class PhasedDftFactorization:
    """Renumbering sigma, phases alpha and the residual of the fit.

    Forward: column n of the fitted matrix is exp(i alpha_n) times DFT
    column sigma(n).  Inverse: the fitted matrix maps DFT column n to
    exp(-i alpha_n) times basis state sigma(n).  alpha is reported in
    (-pi, pi]; the residual is ||U - fit||_F and is never hidden.
    """

    sigma: np.ndarray
    alpha: np.ndarray
    residual: float


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

    The renumbering is the bijection of largest total column overlap,
    the phase of each matched overlap gives alpha, and the Frobenius
    distance to the fitted matrix is reported as the residual.  Overlaps
    that tie or nearly tie still give a fit, whose residual then shows
    how far U is from every phased DFT (U = I has all overlaps 1/2 and
    residual 2 at N = 4).  Any direction but FORWARD fits the inverse
    DFT.
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
    residual = frobenius(u - fit)
    return PhasedDftFactorization(sigma=sigma, alpha=alpha, residual=float(residual))


def _by_rank(s, spectrum):
    """Eigenstates of "H0" (basis states) or "H1" (DFT columns) by rank.

    Entry k is the state whose eigenvalue has ascending rank k.  This is
    the one rank-matching rule: with no level crossings, adiabatic
    following sends the state of rank k in one spectrum to the state of
    rank k in the other.  A degenerate spectrum has no rank order.
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


@dataclass(frozen=True)
class AdiabaticPhases:
    """Predicted factorization phases, split into their two parts.

    dynamical holds the quasienergy integrals, geometric the open-path
    (Pancharatnam) phases of parallel transport.  Both follow the sign
    convention of the factorization for the schedule's direction, are
    indexed like its alpha and are wrapped to (-pi, pi]; alpha is their
    wrapped sum, the predicted alpha of the factorization.
    """

    dynamical: np.ndarray
    geometric: np.ndarray

    @property
    def alpha(self):
        return _wrap(self.dynamical + self.geometric)


# The spectrum each direction starts and ends in, and the sign its
# factorization gives the acquired phase.
_ENDS = {FORWARD: ("H0", "H1", 1.0), INVERSE: ("H1", "H0", -1.0)}


def _phase_grid(s):
    """The grid of the phase prediction: 2m + 1 uniform points over the
    window, m = ceil(steps / 8).  The even number of links makes every
    other point a grid of twice the spacing for the Richardson step."""
    return np.linspace(*s.window, 2 * -(-s.steps // 8) + 1)


def _branches(s):
    """Start states, dynamical phases and eigenvectors of the branches.

    Returns (label, dynamical, v): label[k] is the start state of the
    branch of rank k, dynamical the quasienergy integral of each branch
    by Simpson's rule on the phase grid (the trapezoid rule plus a third
    of its difference from the trapezoid rule on every other point),
    indexed by its start state, signed as in the factorization and
    wrapped, and v the eigenvectors of H(t) on the phase grid in
    ascending eigenvalue order.  Tracking by rank is invalid where two
    branches collide, which is checked at the phase grid's points; a
    vanishing Hamiltonian has nothing to track.
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
    fine, coarse = (np.trapezoid(w[::k], t[::k], axis=0) for k in (1, 2))
    dynamical = np.empty(s.dim)
    dynamical[label] = -sign * (fine + (fine - coarse) / 3)
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

    Tracks each eigenvalue branch by rank across the phase grid (valid
    while there are no crossings).  The state following the branch of
    rank r picks up the dynamical phase -int eps_r dt (Simpson's rule)
    and a geometric phase from discrete parallel transport: the phase of
    the start state on the branch eigenvector, the summed link angles
    arg<v_k|v_k+1> and the phase of the end state on the last
    eigenvector.  That wrapped transport phase G is taken on the phase
    grid (G_h) and on every other point (G_2h) and extrapolated to
    G_h + wrap(G_h - G_2h) / 3, so both parts are fourth order in the
    grid spacing.  Start and end states are matched by the rank rule of
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
    fine, coarse = _transport(v, *ends), _transport(v[::2], *ends)
    geometric = np.empty(s.dim)
    geometric[label] = sign * (fine + _wrap(fine - coarse) / 3)
    return AdiabaticPhases(dynamical=dynamical, geometric=_wrap(geometric))


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
