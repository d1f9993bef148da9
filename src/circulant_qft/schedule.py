"""Pulse pairs and the scheduled crossing Hamiltonian.

The protocol interpolates H(t) = f(t) H0 + g(t) H1 (forward direction)
or H(t) = g(t) H0 + f(t) H1 (inverse direction), where the pulse pair
(f, g) satisfies g/f -> 0 as t -> -inf and g/f -> inf as t -> +inf, so
the diagonal part precedes the circulant part in time.  Two pulse
families are provided: the plain tanh crossing pair and the
experimentally friendlier sech-masked variant.  The caller passes their
T and tau positive.  A pulse pair is any object with values(t) -> (f, g),
derivatives(t) -> (f', g') (inf or nan where a rate such as 1/T is
beyond float range), an attribute T, the timescale of the f/g crossing
that sets the 1/T coupling scale, and window_halfwidth(), the
half-width of the default window.  Its pulses mirror into each other,
f(-t) = g(t) bit for bit (tanh is odd and cosh even, in floating point
too), so the inverse direction's H(t) is the forward one's H(-t);
propagator.final_propagators relies on that.

Also here: instantaneous eigenvalue trajectories over the time window
and the adiabaticity diagnostic comparing eigenvalue gaps to the exact
nonadiabatic couplings, which dH/dt = a' H0 + b' H1 gives.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circulant import STRUCTURE_TOL, materialize
from .errors import PhysicsError
from .linalg import CLUSTER_GAP_RTOL, frobenius, require_hermitian

FORWARD = "forward"
INVERSE = "inverse"

# Default window: +-6 T for tanh pulses, where tanh(6) misses 1 by ~1e-5,
# below figure-level tolerances; +-6 max(T, tau) for sech-masked ones, so
# the mask has fallen to sech(6) ~ 5e-3 at the edge whatever tau is (on
# +-6 T it is still 0.10 at tau = 2 T, which caps the residual).
DEFAULT_WINDOW_HALFWIDTH = 6.0
DEFAULT_STEPS = 4000


@dataclass(frozen=True)
class TanhPair:
    """f = [1 - tanh(t/T)]/2, g = [1 + tanh(t/T)]/2; f + g = 1 exactly."""

    T: float

    def values(self, t):
        # t/T overflowing to +-inf gives tanh = +-1, its limit
        with np.errstate(over="ignore"):
            th = np.tanh(np.asarray(t, dtype=float) / self.T)
        return 0.5 * (1.0 - th), 0.5 * (1.0 + th)

    def derivatives(self, t):
        # cosh overflow gives the limit 0, 1/T beyond float range inf
        with np.errstate(over="ignore"):
            rate = 0.5 / np.cosh(np.asarray(t, dtype=float) / self.T)**2 / self.T
        return -rate, rate

    def window_halfwidth(self):
        return DEFAULT_WINDOW_HALFWIDTH * self.T


@dataclass(frozen=True)
class SechMaskedPair:
    """Tanh crossing under a sech envelope of width tau.

    f = sech(t/tau) [1 - tanh(t/T)], g = sech(t/tau) [1 + tanh(t/T)].
    The mask switches the fields off at large |t| without touching the
    g/f ratio, so the asymptotic eigenstates are unchanged.
    """

    T: float
    tau: float

    def values(self, t):
        t = np.asarray(t, dtype=float)
        # t/tau or cosh overflowing to inf gives sech = 0, its limit
        with np.errstate(over="ignore"):
            mask = 1.0 / np.cosh(t / self.tau)
            th = np.tanh(t / self.T)
        return mask * (1.0 - th), mask * (1.0 + th)

    def derivatives(self, t):
        t = np.asarray(t, dtype=float)
        # as in values; rates beyond float range may give inf - inf, inf * 0
        with np.errstate(over="ignore", invalid="ignore"):
            mask = 1.0 / np.cosh(t / self.tau)
            th = np.tanh(t / self.T)
            dmask = -mask * np.tanh(t / self.tau) / self.tau
            dth = mask / np.cosh(t / self.T)**2 / self.T  # mask * dtanh/dt
            return dmask * (1.0 - th) - dth, dmask * (1.0 + th) + dth

    def window_halfwidth(self):
        return DEFAULT_WINDOW_HALFWIDTH * max(self.T, self.tau)


def _check_h0(h0):
    scale = max(float(np.abs(h0).max()), np.finfo(float).tiny)
    diag = np.diag(h0)
    if np.abs(h0 - np.diag(diag)).max() > 1e-14 * scale:
        raise ValueError("H0 must be strictly diagonal")
    if np.abs(diag.imag).max() > 1e-14 * scale:
        raise ValueError("H0 diagonal must be real")
    if np.diff(np.sort(diag.real)).min() <= 0:
        raise PhysicsError(
            "H0 diagonal entries must be pairwise distinct (non-degenerate)"
        )


def _check_h1(h1):
    require_hermitian(h1, what="H1")
    defect = frobenius(h1 - materialize(h1[:, 0]))
    if defect > STRUCTURE_TOL * max(frobenius(h1), np.finfo(float).tiny):
        raise ValueError(
            f"H1 is not circulant: structure defect {defect:.3e}"
        )


@dataclass(frozen=True)
class Schedule:
    """Pulse pair, matrix pair, sweep direction and time discretization.

    direction "forward" assembles f*H0 + g*H1 (diagonal first), "inverse"
    assembles g*H0 + f*H1 (circulant first).  window defaults to
    +-pulses.window_halfwidth().  steps counts the integrators'
    exponentials, applied over ceil(steps / 2) uniform CF4 intervals;
    eigen_trajectories and adiabaticity_report scan the steps + 1 points
    of grid().  The caller passes a finite window and an int steps >= 1;
    the matrices, the direction and t_min < t_max are checked here.
    """

    pulses: object
    h0: np.ndarray
    h1: np.ndarray
    direction: str = FORWARD
    window: tuple = None
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=np.complex128)
        h1 = np.asarray(self.h1, dtype=np.complex128)
        if h0.shape != h1.shape:
            raise ValueError("H0 and H1 dimensions differ")
        if len(h0) < 2:
            raise ValueError(f"a model needs at least 2 levels, got {len(h0)}")
        _check_h0(h0)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)
        _check_h1(h1)
        if self.direction not in (FORWARD, INVERSE):
            raise ValueError(f"direction must be 'forward' or 'inverse', got {self.direction!r}")
        if self.window is None:
            half = self.pulses.window_halfwidth()
            object.__setattr__(self, "window", (-half, half))
        t_min, t_max = self.window
        if not t_min < t_max:
            raise ValueError(f"invalid time window {self.window}")

    @property
    def dim(self):
        return self.h0.shape[0]

    def _by_direction(self, pair):
        f, g = pair
        return (f, g) if self.direction == FORWARD else (g, f)

    def coefficients(self, t):
        """(a, b) with H(t) = a*H0 + b*H1 for this direction."""
        return self._by_direction(self.pulses.values(t))

    def rates(self, t):
        """(a', b'), the time derivatives of coefficients(t)."""
        return self._by_direction(self.pulses.derivatives(t))

    def grid(self):
        return np.linspace(self.window[0], self.window[1], self.steps + 1)


@dataclass(frozen=True)
class TrajectoryResult:
    """Instantaneous eigenvalues over the grid, ascending per time."""

    times: np.ndarray
    energies: np.ndarray  # shape (len(times), N), ascending along axis 1
    min_gap: float
    min_gap_time: float


def eigen_trajectories(s):
    """Ascending eigenvalues of H(t) on the schedule's grid, with the worst gap.

    The minimal pairwise gap over the scan is the quantity the adiabatic
    protocol cares about; it is reported together with the time at which
    it occurs.  Only eigenvalues are computed: one batched eigvalsh over
    the stacked a_k H0 + b_k H1, with no eigenvectors.
    """
    t = s.grid()
    a, b = s.coefficients(t)
    energies = np.linalg.eigvalsh(a[:, None, None] * s.h0
                                  + b[:, None, None] * s.h1)
    gaps = np.diff(energies, axis=1)
    per_time = gaps.min(axis=1)
    k = int(np.argmin(per_time))
    return TrajectoryResult(
        times=t,
        energies=energies,
        min_gap=float(per_time[k]),
        min_gap_time=float(t[k]),
    )


@dataclass(frozen=True)
class AdiabaticityReport:
    """Gap vs nonadiabatic-coupling diagnostic over the window.

    margin = min over all grid times and state pairs of
    |eps_m - eps_n| / |<chi_m | dchi_n/dt>|; values well above 1 signal
    the adiabatic regime.  rate_scale = 1/T is the heuristic magnitude
    of the couplings for pulse-shaped schedules.  degeneracy_warnings
    lists (time, message) where eigenvalues clustered and couplings
    within the cluster are undefined.
    """

    min_gap: float
    max_coupling: float
    margin: float
    rate_scale: float
    times: np.ndarray
    gap_trace: np.ndarray
    coupling_trace: np.ndarray
    degeneracy_warnings: list


def adiabaticity_report(s):
    """Exact nonadiabatic couplings at every grid point.

    <chi_m | dchi_n/dt> = <chi_m | dH/dt | chi_n> / (eps_n - eps_m) with
    dH/dt = a' H0 + b' H1 needs no eigenvector gauge.  It is unchanged by
    H -> cH, so H0, H1 and the gaps are divided by c = max |entry|, which
    keeps large energies and fast pulses from overflowing the projection;
    a rate beyond float range still leaves max_coupling inf or nan.  Pairs
    inside a degenerate cluster (gap below the cluster threshold relative
    to ||H||) are skipped and reported as warnings, ordered by time and
    then by state pair.  The scan runs in batches of _kernels.CHUNK grid
    points, which bounds the memory it holds on long grids.
    """
    t = s.grid()
    a, b = s.coefficients(t)
    da, db = s.rates(t)
    w, v = _kernels.eigh_grid(s.h0, s.h1, a, b)
    m_pts, n = w.shape
    c = max(float(np.abs(s.h0).max()), float(np.abs(s.h1).max()))
    h0, h1 = s.h0 / c, s.h1 / c

    gap_trace = np.diff(w, axis=1).min(axis=1)
    off_diagonal = ~np.eye(n, dtype=bool)
    upper = np.triu(off_diagonal)
    margin = np.inf
    coupling_trace = np.zeros(m_pts)
    warnings_list = []
    for start in range(0, m_pts, _kernels.CHUNK):
        stop = min(start + _kernels.CHUNK, m_pts)
        hs = a[start:stop, None, None] * s.h0 + b[start:stop, None, None] * s.h1
        # ||H||_F by the dot products frobenius() takes, so bit for bit
        flat = hs.reshape(stop - start, n * n)
        scales = np.sqrt(np.vecdot(flat.real, flat.real)
                         + np.vecdot(flat.imag, flat.imag))
        threshold = CLUSTER_GAP_RTOL * np.maximum(scales, np.finfo(float).tiny)
        w_k = w[start:stop]
        gap = np.abs(w_k[:, :, None] - w_k[:, None, :])
        degenerate = gap <= threshold[:, None, None]
        for i, mm, nn in zip(*np.nonzero(degenerate & upper)):
            warnings_list.append(
                (float(t[start + i]), f"eigenvalues {mm} and {nn} degenerate "
                                      f"(gap {gap[i, mm, nn]:.3e})")
            )
        coupled = off_diagonal & ~degenerate
        v_k = v[start:stop]
        # a rate beyond float range makes a coupling inf or nan; a subnormal
        # one overflows its gap ratio to inf, never below margin's start
        with np.errstate(over="ignore", invalid="ignore"):
            dh = da[start:stop, None, None] * h0 + db[start:stop, None, None] * h1
            # coupling[i, m, n] = |<chi_m | dchi_n/dt>| at time t[start + i];
            # hypot is the scalar complex abs, which np.abs can miss by an ulp
            coupling = np.conj(np.swapaxes(v_k, 1, 2)) @ dh @ v_k
            coupling = np.divide(np.hypot(coupling.real, coupling.imag), gap / c,
                                 out=np.zeros(gap.shape), where=coupled)
            coupled &= coupling > 0
            ratios = gap[coupled] / coupling[coupled]
        coupling_trace[start:stop] = coupling.max(axis=(1, 2))
        margin = min(margin, float(ratios.min(initial=np.inf)))

    return AdiabaticityReport(
        min_gap=float(gap_trace.min()),
        max_coupling=float(coupling_trace.max()),
        margin=float(margin),
        rate_scale=1.0 / s.pulses.T,
        times=t,
        gap_trace=gap_trace,
        coupling_trace=coupling_trace,
        degeneracy_warnings=warnings_list,
    )
