"""Hot numeric kernels: propagator stepping and eigensystem grid scans.

eigh_grid makes one batched LAPACK eigh over its whole grid.  The
propagator needs no eigendecomposition: every exponent it steps is
-i dt_m (a_k H0 + b_k H1), a two-term sum, so each step matrix is a
truncated Taylor series (Moler & Van Loan, SIAM Rev. 45, 3, 2003) over
power sums of the two terms formed once per call.  With
H0^ = H0 / ||H0||_2 and H1^ = H1 / ||H1||_2,

    (x H0^ + y H1^)^j = sum_q x^(j-q) y^q S[j-q, q],
    S[p, q] = H0^ S[p-1, q] + H1^ S[p, q-1],  S[0, 0] = I,

so a step matrix is one weighted sum of the S[p, q], and a chunk of step
matrices is one real matrix product of their weights with the sums.  The
degree is the smallest d with theta^(d+1)/(d+1)! <= eps/2, where theta
bounds ||dt_m (a_k H0 + b_k H1)||_2 over every step; above theta = 1 the
exponent is halved s times and the matrix squared s times.  The
remainder is a loss of unitarity below eps/2 per step, which the
caller's drift gate checks like any other.  Scaling a Hamiltonian by E
only scales the weights, so one set of sums serves every step length
dt_m of a batch.  A chunk holds CHUNK // m steps of m step lengths (one
step of up to CHUNK step lengths, for large batches), so at most CHUNK
step matrices are held at once however many there are.  Within a chunk
it multiplies the step matrices between consecutive samples (and the
chunk end) by balanced pairwise (tree) products, the segment products
of a parallel-prefix scan (Blelloch, "Prefix Sums and Their
Applications", CMU-CS-90-190, 1990).  Segments of equal length are
reduced together, so no Python loop runs per step; only the short chain
of segment products is sequential.  schedule.adiabaticity_report scans
its grid in chunks of the same size.
"""

import math

import numpy as np

from .errors import IntegrationError
from .linalg import UNITARITY_TOL

CHUNK = 1024  # step matrices (or adiabaticity scan points) held at once
# Each step's Taylor remainder stays below half the float epsilon, and s
# squarings amplify a step's error up to 2**s-fold: past this many
# halvings the amplified remainder could exceed UNITARITY_TOL (26).
ROUNDOFF = np.finfo(float).eps / 2
MAX_HALVINGS = int(math.log2(UNITARITY_TOL / ROUNDOFF))
# Series weights below this are dropped: far below the roundoff, they
# would only carry products into the slow subnormal range.
NEGLIGIBLE = 2.0**-200


def _tree_product(mats):
    """mats[-1] @ ... @ mats[0] over the leading axis, by pairwise products
    (a balanced tree); further leading axes are batched."""
    while len(mats) > 1:
        odd = len(mats) % 2
        paired = mats[1::2] @ mats[0:len(mats) - odd:2]
        if odd:
            paired = np.concatenate([paired, mats[-1:]])
        mats = paired
    return mats[0]


def _runs(values):
    """(value, count) for each run of equal consecutive values."""
    starts = np.flatnonzero(np.diff(values, prepend=values[0] - 1))
    counts = np.diff(starts, append=len(values))
    return zip(values[starts].tolist(), counts.tolist())


def _taylor(h0, h1, a, b, dts):
    """What every step matrix exp(-i dt_m (a_k H0 + b_k H1)) shares.

    Returns (sums, x, y, ratios, halvings).  sums[l] is the power sum
    S[j - q, q] * (-i)^j / j! as a real (n, 2n) view, for the degree j
    and H1 count q of the l-th entry of np.tril_indices(d + 1) counted
    from the end: the highest degree comes first, so every entry of a
    step matrix adds its smallest terms first, which keeps its roundoff,
    and so its loss of unitarity, near that of a Horner evaluation.  Step
    (m, k) is the series in ratios[m] * (x[k] H0^ + y[k] H1^), whose
    norm is at most 1, squared `halvings` times.
    """
    rho0, rho1 = (float(np.abs(np.linalg.eigvalsh(h)).max()) for h in (h0, h1))
    dt_max = float(np.abs(dts).max())
    theta = float((np.abs(a) * rho0 + np.abs(b) * rho1).max()) * dt_max
    if not theta <= 2.0**MAX_HALVINGS:
        raise IntegrationError(
            f"step exponent norm theta = {theta:.3e} needs "
            f"s = {np.ceil(np.log2(theta)):.0f} halvings; squaring more than "
            f"{MAX_HALVINGS} times would carry roundoff past the unitarity "
            f"tolerance {UNITARITY_TOL:.1e}")
    halvings = math.ceil(math.log2(theta)) if theta > 1 else 0
    theta /= 2**halvings
    degree, remainder = 0, theta  # remainder = theta^(d+1) / (d+1)!
    while remainder > ROUNDOFF:
        degree += 1
        remainder *= theta / (degree + 1)

    units = [h / rho if rho > 0 else np.zeros_like(h)
             for h, rho in ((h0, rho0), (h1, rho1))]
    level = np.eye(h0.shape[0], dtype=np.complex128)[None]
    levels = [level]
    for j in range(1, degree + 1):
        # level[q] holds S[j - q, q] (-i)^j / j!
        nxt = np.zeros((j + 1,) + level.shape[1:], dtype=np.complex128)
        nxt[:j] = units[0] @ level
        nxt[1:] += units[1] @ level
        level = nxt * (-1j / j)
        levels.append(level)
    sums = np.concatenate(levels)[::-1].copy().view(np.float64)
    step = dt_max / 2**halvings
    ratios = dts / dt_max if dt_max else dts  # dts all 0: every step is I
    return sums, a * (step * rho0), b * (step * rho1), ratios, halvings


def _step_matrices(sums, x, y, ratios, halvings):
    """exp(-i dt_m (a_k H0 + b_k H1)) at [m, k] for every step length
    dt_m and every k, from the Taylor parts of _taylor (x and y cut to
    the steps wanted)."""
    m, k, n = len(ratios), len(x), sums.shape[1]
    degree, q = (i[::-1] for i in np.tril_indices(math.isqrt(2 * len(sums))))
    # powers[p] holds (r_m x_k)^p and (r_m y_k)^p, flattened over (m, k)
    base = np.stack([np.outer(ratios, x).ravel(), np.outer(ratios, y).ravel()])
    powers = np.empty((degree[0] + 1,) + base.shape)
    powers[0] = 1.0
    for p in range(1, len(powers)):
        powers[p] = powers[p - 1] * base
        powers[p][np.abs(powers[p]) < NEGLIGIBLE] = 0.0
    weights = powers[degree - q, 0] * powers[q, 1]
    mats = (weights.T @ sums.reshape(len(sums), -1)).view(np.complex128)
    mats = mats.reshape(m, k, n, n)
    for _ in range(halvings):
        mats = mats @ mats
    return mats


def _accumulate(sums, x, y, ratios, halvings, sample_idx):
    """(u_samples, u_final) of propagate for at most CHUNK step lengths."""
    m, n = len(ratios), sums.shape[1]
    eye = np.eye(n, dtype=np.complex128)
    u = np.repeat(eye[None], m, axis=0)
    samples = np.empty((m, len(sample_idx), n, n), dtype=np.complex128)
    s = int(np.searchsorted(sample_idx, 0, side="right"))
    samples[:, :s] = eye
    chunk = max(1, CHUNK // m)
    for start in range(0, len(x), chunk):
        stop = min(start + chunk, len(x))
        mats = _step_matrices(sums, x[start:stop], y[start:stop], ratios,
                              halvings)
        last = int(np.searchsorted(sample_idx, stop, side="right"))
        ends = np.union1d(sample_idx[s:last], stop)
        pos = 0
        for length, count in _runs(np.diff(ends, prepend=start)):
            block = mats[:, pos:pos + length * count].reshape(m, count, length, n, n)
            pos += length * count
            segments = _tree_product(np.moveaxis(block, 2, 0))
            for segment in np.swapaxes(segments, 0, 1):
                u = segment @ u
                if s < last:
                    samples[:, s] = u
                    s += 1
    return samples, u


def propagate(h0, h1, a, b, dts, sample_idx):
    """Ordered product of step exponentials: U <- exp(-i dt H_k) U for
    k = 0, 1, ..., with H_k = a_k H0 + b_k H1, for every step length dt in
    the 1-D array dts.  The caller picks the exponents; the propagator
    module passes the two weighted exponents of each CF4 interval.

    Returns (u_samples, u_final, max_unitarity_drift); u_samples and
    u_final carry a leading axis over dts.  ``sample_idx`` holds strictly
    ascending step counts in [0, len(a)] at which U is recorded (0
    records the identity).  The drift is the largest ||U'U - I||_F over
    the samples and the end of every step length.  Checking there loses
    nothing: unitary steps leave U'U unchanged, so a defect made by any
    step is still present at the next sample.  Raises IntegrationError,
    before any step matrix is formed, when the largest exponent needs
    more than MAX_HALVINGS halvings.
    """
    sums, x, y, ratios, halvings = _taylor(h0, h1, a, b, dts)
    groups = [_accumulate(sums, x, y, ratios[g:g + CHUNK], halvings,
                          sample_idx)
              for g in range(0, len(dts), CHUNK)]
    samples = np.concatenate([group[0] for group in groups])
    u = np.concatenate([group[1] for group in groups])
    checked = np.concatenate([samples, u[:, None]], axis=1)
    eye = np.eye(h0.shape[0], dtype=np.complex128)
    defects = np.linalg.norm(
        np.conj(np.swapaxes(checked, 2, 3)) @ checked - eye, axis=(2, 3))
    return samples, u, float(defects.max())


def eigh_grid(h0, h1, a, b):
    """Eigenvalues and eigenvectors of a_k*H0 + b_k*H1 for every k (batched)."""
    hs = a[:, None, None] * h0 + b[:, None, None] * h1
    return np.linalg.eigh(hs)
