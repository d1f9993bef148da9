"""Pulse pairs and the scheduled crossing Hamiltonian.

The protocol interpolates H(t) = f(t) H0 + g(t) H1 (forward direction)
or H(t) = g(t) H0 + f(t) H1 (inverse direction), where the pulse pair
(f, g) satisfies g/f -> 0 as t -> -inf and g/f -> inf as t -> +inf, so
the diagonal part precedes the circulant part in time.  Two pulse
families are provided: the plain tanh crossing pair and the
experimentally friendlier sech-masked variant.  A pulse pair is any
object with values(t) -> (f, g) and crossing_time() -> T, the timescale
of the f/g crossing that sets the 1/T coupling scale.

Also here: instantaneous eigenvalue trajectories over the time window
and the adiabaticity diagnostic comparing eigenvalue gaps to
finite-difference nonadiabatic couplings.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .circulant import STRUCTURE_TOL, CirculantSpec, materialize
from .errors import DegenerateSpectrumError
from .linalg import CLUSTER_GAP_RTOL, frobenius, require_hermitian

FORWARD = "forward"
INVERSE = "inverse"

# Window truncation: tanh(6) misses 1 by ~1e-5 and sech(6) ~ 5e-3, both
# below figure-level tolerances.
DEFAULT_WINDOW_HALFWIDTH = 6.0
DEFAULT_STEPS = 4000


@dataclass(frozen=True)
class TanhPair:
    """f = [1 - tanh(t/T)]/2, g = [1 + tanh(t/T)]/2; f + g = 1 exactly."""

    T: float

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"crossing timescale T must be positive, got {self.T}")

    def values(self, t):
        # t/T overflowing to +-inf gives tanh = +-1, its limit
        with np.errstate(over="ignore"):
            th = np.tanh(np.asarray(t, dtype=float) / self.T)
        return 0.5 * (1.0 - th), 0.5 * (1.0 + th)

    def crossing_time(self):
        return self.T


@dataclass(frozen=True)
class SechMaskedPair:
    """Tanh crossing under a sech envelope of width tau.

    f = sech(t/tau) [1 - tanh(t/T)], g = sech(t/tau) [1 + tanh(t/T)].
    The mask switches the fields off at large |t| without touching the
    g/f ratio, so the asymptotic eigenstates are unchanged.
    """

    T: float
    tau: float

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"crossing timescale T must be positive, got {self.T}")
        if not self.tau > 0:
            raise ValueError(f"mask width tau must be positive, got {self.tau}")

    def values(self, t):
        t = np.asarray(t, dtype=float)
        # t/tau or cosh overflowing to inf gives sech = 0, its limit
        with np.errstate(over="ignore"):
            mask = 1.0 / np.cosh(t / self.tau)
            th = np.tanh(t / self.T)
        return mask * (1.0 - th), mask * (1.0 + th)

    def crossing_time(self):
        return self.T


def _check_h0(h0):
    h0 = np.asarray(h0, dtype=np.complex128)
    scale = max(float(np.abs(h0).max()), np.finfo(float).tiny)
    off = h0 - np.diag(np.diag(h0))
    if np.abs(off).max() > 1e-14 * scale:
        raise ValueError("H0 must be strictly diagonal")
    diag = np.diag(h0)
    if np.abs(diag.imag).max() > 1e-14 * scale:
        raise ValueError("H0 diagonal must be real")
    energies = np.sort(diag.real)
    if np.diff(energies).min() <= 0:
        raise DegenerateSpectrumError(
            "H0 diagonal entries must be pairwise distinct (non-degenerate)"
        )
    return h0


def _check_h1(h1):
    h1 = np.asarray(h1, dtype=np.complex128)
    require_hermitian(h1, what="H1")
    spec = CirculantSpec(h1[:, 0].copy())
    defect = frobenius(h1 - materialize(spec))
    if defect > STRUCTURE_TOL * max(frobenius(h1), 1.0):
        raise ValueError(
            f"H1 is not circulant: structure defect {defect:.3e}"
        )
    if not spec.is_hermitian():
        raise ValueError("H1 first column violates the Hermitian-circulant symmetry")
    return h1, spec


@dataclass(frozen=True)
class Schedule:
    """Pulse pair, matrix pair, sweep direction and time discretization.

    direction "forward" assembles f*H0 + g*H1 (diagonal first), "inverse"
    assembles g*H0 + f*H1 (circulant first).  window defaults to
    +-6 crossing times; steps is the number of uniform integrator
    intervals.
    """

    pulses: object
    h0: np.ndarray
    h1: np.ndarray
    direction: str = FORWARD
    window: tuple = None
    steps: int = DEFAULT_STEPS
    h1_spec: CirculantSpec = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "h0", _check_h0(self.h0))
        h1, spec = _check_h1(self.h1)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h1_spec", spec)
        if self.h0.shape != self.h1.shape:
            raise ValueError("H0 and H1 dimensions differ")
        if self.direction not in (FORWARD, INVERSE):
            raise ValueError(f"direction must be 'forward' or 'inverse', got {self.direction!r}")
        if self.window is None:
            half = DEFAULT_WINDOW_HALFWIDTH * self.pulses.crossing_time()
            object.__setattr__(self, "window", (-half, half))
        t_min, t_max = self.window
        if not (np.isfinite(t_min) and np.isfinite(t_max) and t_min < t_max):
            raise ValueError(f"invalid time window {self.window}")
        if int(self.steps) < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def dim(self):
        return self.h0.shape[0]

    def coefficients(self, t):
        """(a, b) with H(t) = a*H0 + b*H1 for this direction."""
        f, g = self.pulses.values(t)
        if self.direction == FORWARD:
            return f, g
        return g, f

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

    margin = min over interior times and state pairs of
    |eps_m - eps_n| / |<dchi_m/dt | chi_n>|; values well above 1 signal
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


def _fix_gauge(vectors):
    """Phase-fix eigenvector columns in place: largest-modulus component
    real positive, ties broken by lowest index (needed for smooth finite
    differences).  Leading axes are batched."""
    # argmax returns the first (lowest-index) maximum, which is the tie rule
    anchor = np.abs(vectors).argmax(axis=-2)
    phases = np.take_along_axis(vectors, anchor[..., None, :], axis=-2)
    phases /= np.abs(phases)
    vectors /= phases


def adiabaticity_report(s):
    """Estimate nonadiabatic couplings by central differences.

    Eigenvectors are gauge-fixed at every grid point, then
    <dchi_m/dt | chi_n> is approximated by
    <chi_m(t+d) - chi_m(t-d) | chi_n(t)> / (2d) at interior points.
    Pairs inside a degenerate cluster (gap below the cluster threshold
    relative to ||H||) are skipped and reported as warnings, ordered by
    time and then by state pair.  The gauge fix and the interior scan run
    in batches of _kernels.CHUNK grid points, which bounds the memory
    they hold on long grids.
    """
    t = s.grid()
    if len(t) < 3:
        raise ValueError("adiabaticity scan needs at least 3 grid points")
    a, b = s.coefficients(t)
    w, v = _kernels.eigh_grid(s.h0, s.h1, a, b)
    m_pts, n = w.shape
    for start in range(0, m_pts, _kernels.CHUNK):
        _fix_gauge(v[start:start + _kernels.CHUNK])

    gap_trace = np.diff(w, axis=1).min(axis=1)
    min_gap = float(gap_trace.min())

    off_diagonal = ~np.eye(n, dtype=bool)
    upper = np.triu(off_diagonal)
    margin = np.inf
    coupling_trace = np.zeros(m_pts)
    warnings_list = []
    for start in range(1, m_pts - 1, _kernels.CHUNK):
        stop = min(start + _kernels.CHUNK, m_pts - 1)
        hs = a[start:stop, None, None] * s.h0 + b[start:stop, None, None] * s.h1
        # ||H||_F by the dot products frobenius() takes, so bit for bit
        flat = hs.reshape(stop - start, n * n)
        scales = np.sqrt(np.vecdot(flat.real, flat.real)
                         + np.vecdot(flat.imag, flat.imag))
        threshold = CLUSTER_GAP_RTOL * np.maximum(scales, np.finfo(float).tiny)
        delta = 0.5 * (t[start + 1:stop + 1] - t[start - 1:stop - 1])
        dv = (v[start + 1:stop + 1] - v[start - 1:stop - 1]) \
            / (2.0 * delta)[:, None, None]
        # coupling[i, m, n] = |<dchi_m/dt | chi_n>| at time t[start + i];
        # hypot is the scalar complex abs, which np.abs can miss by an ulp
        coupling = np.conj(np.swapaxes(dv, 1, 2)) @ v[start:stop]
        coupling = np.hypot(coupling.real, coupling.imag)
        w_k = w[start:stop]
        gap = np.abs(w_k[:, :, None] - w_k[:, None, :])
        degenerate = gap <= threshold[:, None, None]
        for i, mm, nn in zip(*np.nonzero(degenerate & upper)):
            warnings_list.append(
                (float(t[start + i]), f"eigenvalues {mm} and {nn} degenerate "
                                      f"(gap {gap[i, mm, nn]:.3e})")
            )
        coupled = off_diagonal & ~degenerate
        coupling_trace[start:stop] = np.where(coupled, coupling, 0.0).max(axis=(1, 2))
        coupled &= coupling > 0
        if coupled.any():
            # a subnormal coupling can overflow its ratio to inf, which is
            # never below margin's start value, so the overflow is harmless
            with np.errstate(over="ignore"):
                ratios = gap[coupled] / coupling[coupled]
            margin = min(margin, float(ratios.min()))

    return AdiabaticityReport(
        min_gap=min_gap,
        max_coupling=float(coupling_trace.max()),
        margin=float(margin),
        rate_scale=1.0 / s.pulses.crossing_time(),
        times=t,
        gap_trace=gap_trace,
        coupling_trace=coupling_trace,
        degeneracy_warnings=warnings_list,
    )
