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
matrices is one real matrix product of their weights with the sums.
Where theta bounds ||dt_m (a_k H0 + b_k H1)||_2 over every step, and
theta > 1, every exponent is halved s times and its matrix squared s
times.  The sums are formed up to the degree that the largest halved
exponent needs, but each chunk takes only the terms its own exponents
need: the smallest d with theta_c^(d+1)/(d+1)! <= eps/2, for theta_c the
chunk's largest halved exponent norm (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488, 2011, choose the degree from the norm in the same way).
A pulse envelope that switches the coupling on and off leaves most
chunks far below the peak, and their degree with it.  Either way the
remainder is a loss of unitarity below eps/2 per step, which the
caller's drift gate checks like any other.  Scaling a Hamiltonian by E
only scales the weights, so one set of sums serves every step length
dt_m of a batch.  A chunk holds CHUNK // m steps of m step lengths (one
step of up to CHUNK step lengths, for large batches), so at most CHUNK
step matrices are held at once however many there are; every chunk
forms them in the same buffers (_Scratch), sized once per call for the
global degree, which a thread keeps between calls.  What does not depend
on the chunk is set once per call: the sums, the table of the powers of
x and y that weight each of them (a chunk of degree c takes the last
(c + 1)(c + 2)/2 entries of both) and the buffers.  A chunk of degree d
then costs d products of its bases (the x and y of each of its
exponents) into their powers, two gathers of the powers into the weights
of its terms, one matrix product of the weights with the sums, the s
squarings and the tree products below.  Powers below NEGLIGIBLE are
dropped, but the mask runs only in a chunk where one can fall below it,
where the highest power of its smallest base is below 2 NEGLIGIBLE: in
none of the 48 chunks of a paper_qpe benchmark pass and in 2 of the 16
of a ring8_qpe pass.  Within a chunk it multiplies the step matrices
between consecutive samples (and the chunk end) by balanced pairwise
(tree) products, the segment products of a parallel-prefix scan
(Blelloch, "Prefix Sums and Their Applications", CMU-CS-90-190, 1990).
The segments are planned in plain Python ints, and segments of equal
length are reduced together, so no Python loop runs per step; only the
short chain of segment products is sequential.
schedule.adiabaticity_report scans its grid in chunks of the same size.

Stepping runs in real arithmetic.  Every power sum, step matrix,
squaring, tree product and accumulated propagator is held as the real
form [[A, -B], [B, A]] of its complex n x n matrix A + iB, a real
(2n, 2n) array; the real form of a product is the product of the real
forms.  Most stepping time goes into numpy's batched matmul, whose
per-product cost is far higher for complex operands than for real ones:
with numpy 2.4.6 and OpenBLAS 0.3.31 on one CPU, in batches of 128-512,
a 4 x 4 complex product costs about five times the real product of its
8 x 8 real form, and an 8 x 8 one two to two and a half times that of
its 16 x 16 form.  The one product of weights with sums writes the step
matrices of a chunk in real form straight into its buffer, and U is read
back as complex only at the samples and the end.
"""

import math
import threading

import numpy as np

from .errors import IntegrationError
from .linalg import UNITARITY_TOL

CHUNK = 1024  # step matrices (or adiabaticity scan points) held at once
# Each step's Taylor remainder stays below half the float epsilon, and s
# squarings amplify a step's error up to 2**s-fold: past this many
# halvings the amplified remainder could exceed UNITARITY_TOL (26).
ROUNDOFF = np.finfo(float).eps / 2
MAX_HALVINGS = int(math.log2(UNITARITY_TOL / ROUNDOFF))
# Powers of the series bases below this are dropped: far below the
# roundoff, they would only carry products into the slow subnormal range.
NEGLIGIBLE = 2.0**-200
# Bytes of chunk buffers a thread keeps between propagate calls (a few MiB
# at n = 8); larger sets are freed when their call ends.
SCRATCH_KEEP = 32 * 2**20

_kept = threading.local()  # .scratch: this thread's _Scratch, if kept


class _Scratch:
    """Flat buffers for a chunk's temporaries, reused by every chunk and
    kept per thread between propagate calls.

    A chunk's temporaries are hundreds of KiB each.  Allocated and freed
    chunk after chunk, they leave it to the C allocator whether the memory
    stays in the process or goes back to the system and is faulted in
    again, and that choice differs from one process to the next: the same
    sweep took from about 500 to about 8000 page faults, and up to 40 %
    longer, in fresh processes.  Reused buffers take the same steps in
    every process, and kept ones fault in no fresh pages after the first
    call.
    """

    def __init__(self):
        self._buffers = {}

    @property
    def nbytes(self):
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def view(self, name, shape):
        """A C-contiguous float array of shape at the start of buffer
        `name`, which grows when it is too small; its contents are
        undefined."""
        size = math.prod(shape)
        self.reserve(name, size)
        return self._buffers[name][:size].reshape(shape)

    def reserve(self, name, size):
        """Grow buffer `name` to at least size elements."""
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            self._buffers[name] = np.empty(size)


def _tree_product(mats, scratch):
    """mats[-1] @ ... @ mats[0] over the leading axis, by pairwise products
    (a balanced tree); further leading axes are batched.  The levels
    alternate between two of scratch's buffers, so the result is a view
    that the next call may overwrite."""
    level = 0
    while len(mats) > 1:
        half, odd = divmod(len(mats), 2)
        paired = scratch.view(f"tree{level % 2}",
                              (half + odd,) + mats.shape[1:])
        np.matmul(mats[1::2], mats[0:2 * half:2], out=paired[:half])
        if odd:
            paired[half] = mats[-1]
        mats = paired
        level += 1
    return mats[0]


def _segments(start, ends):
    """(length, count) for each run of equally long segments among those
    from start to each of the ascending ends, in plain ints."""
    runs = []
    for end in ends:
        if runs and runs[-1][0] == end - start:
            runs[-1][1] += 1
        else:
            runs.append([end - start, 1])
        start = end
    return runs


def _degree(theta):
    """The smallest d with theta^(d+1) / (d+1)! <= ROUNDOFF: the Taylor
    degree that an exponent of norm at most theta <= 1 needs."""
    degree, remainder = 0, theta  # remainder = theta^(d+1) / (d+1)!
    while remainder > ROUNDOFF:
        degree += 1
        remainder *= theta / (degree + 1)
    return degree


def _real_form(c):
    """[[A, -B], [B, A]] for C = A + iB over the last two axes: the real
    form, whose products are the real forms of the complex products."""
    return np.block([[c.real, -c.imag], [c.imag, c.real]])


def _complex_form(r):
    """The complex matrix of a real form, each part the mean of the two
    blocks that hold it: (R11 + R22)/2 + i(R21 - R12)/2."""
    n = r.shape[-1] // 2
    c = np.empty(r.shape[:-2] + (n, n), dtype=np.complex128)
    c.real = (r[..., :n, :n] + r[..., n:, n:]) / 2
    c.imag = (r[..., n:, :n] - r[..., :n, n:]) / 2
    return c


def _taylor(h0, h1, a, b, dts):
    """What every step matrix exp(-i dt_m (a_k H0 + b_k H1)) shares.

    Returns (sums, exponents, x, y, ratios, halvings).  sums[l] is the
    real form, a (2n, 2n) array, of the power sum S[j - q, q] * (-i)^j / j!
    for the degree j and H1 count q of the l-th entry of
    np.tril_indices(d + 1) counted from the end: the highest degree comes
    first, so every entry of a step matrix adds its smallest terms first,
    which keeps its roundoff, and so its loss of unitarity, near that of a
    Horner evaluation.  exponents[:, l] is (j - q, q), the powers of x and
    y that weight sums[l].  The degree d is the one the largest step
    needs; the last (c + 1)(c + 2)/2 entries of both are the series of a
    lower degree c, so a chunk of smaller steps takes that tail
    (_accumulate).  Step (m, k) is
    the series in ratios[m] * (x[k] H0^ + y[k] H1^), whose norm is at
    most |ratios[m]| (|x[k]| + |y[k]|) <= 1, squared `halvings` times.
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
    degree = _degree(theta / 2**halvings)

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
    sums = _real_form(np.concatenate(levels)[::-1])
    j, q = np.tril_indices(degree + 1)
    exponents = np.stack([j - q, q])[:, ::-1]
    step = dt_max / 2**halvings
    ratios = dts / dt_max if dt_max else dts  # dts all 0: every step is I
    return (sums, exponents, a * (step * rho0), b * (step * rho1), ratios,
            halvings)


def _step_matrices(sums, exponents, x, y, ratios, halvings, scratch):
    """exp(-i dt_m (a_k H0 + b_k H1)) at [m, k] for every step length
    dt_m and every k, from the Taylor parts of _taylor (x and y cut to
    the steps wanted, sums and exponents to the tail of the degree they
    need; the degree is read from len(sums)).  The result is a view into
    scratch's buffers, in real form."""
    m, k, w = len(ratios), len(x), sums.shape[1]
    degree = math.isqrt(2 * len(sums)) - 1
    # bases holds r_m x_k and r_m y_k, powers[p] their p-th powers,
    # flattened over (m, k)
    bases = scratch.view("bases", (2, m, k))
    np.multiply.outer(ratios, x, out=bases[0])
    np.multiply.outer(ratios, y, out=bases[1])
    bases = bases.reshape(2, m * k)
    powers = scratch.view("powers", (degree + 1, 2, m * k))
    powers[0] = 1.0
    # no |base| exceeds 1, so the smallest power is the highest one of the
    # smallest base; twice NEGLIGIBLE covers the roundoff of the products
    masked = float(np.abs(bases).min()) ** degree < 2 * NEGLIGIBLE
    for p in range(1, degree + 1):
        np.multiply(powers[p - 1], bases, out=powers[p])
        if masked:
            powers[p][np.abs(powers[p]) < NEGLIGIBLE] = 0.0
    # take in a mode other than "raise" writes straight into out; the
    # indices are in range, so the mode changes nothing else
    weights = scratch.view("weights", (len(sums), m * k))
    np.take(powers[:, 0], exponents[0], axis=0, out=weights, mode="clip")
    weights *= np.take(powers[:, 1], exponents[1], axis=0, mode="clip",
                       out=scratch.view("weights_q", weights.shape))
    mats = scratch.view("mats0", (m, k, w, w))
    np.matmul(weights.T, sums.reshape(len(sums), -1),
              out=mats.reshape(m * k, w * w))
    for i in range(halvings):
        squared = scratch.view(f"mats{(i + 1) % 2}", mats.shape)
        np.matmul(mats, mats, out=squared)
        mats = squared
    return mats


def _chunk_steps(m):
    """Steps per chunk for a group of m step lengths."""
    return max(1, CHUNK // m)


def _reserve_series(scratch, terms, width):
    """Size the series buffers of _step_matrices once for a whole call:
    for `terms` power sums (the global degree) and `width` step matrices
    (the widest chunk).  Chunk degrees rise and fall along a pulse, so
    buffers grown on demand would be allocated again at each higher degree
    met, every growth freeing the smaller buffer."""
    scratch.reserve("bases", 2 * width)
    scratch.reserve("powers", math.isqrt(2 * terms) * 2 * width)
    scratch.reserve("weights", terms * width)
    scratch.reserve("weights_q", terms * width)


def _accumulate(sums, exponents, x, y, ratios, halvings, sample_idx,
                scratch):
    """(u_samples, u_final) of propagate for at most CHUNK step lengths.

    Each chunk's series stops at the degree its largest exponent needs.
    U is held in real form and read back as complex at the end."""
    m, w = len(ratios), sums.shape[1]
    r_max = float(np.abs(ratios).max())
    eye = np.eye(w)
    u = np.repeat(eye[None], m, axis=0)
    at = sample_idx.tolist()
    samples = np.empty((m, len(at), w, w))
    s = 1 if at[:1] == [0] else 0  # a sample at step 0 is the identity
    samples[:, :s] = eye
    starts = range(0, len(x), _chunk_steps(m))
    peaks = np.maximum.reduceat(np.abs(x) + np.abs(y), starts).tolist()
    for start, stop, peak in zip(starts, [*starts[1:], len(x)], peaks):
        # sums ends with the terms of degree <= d, smallest first; a d
        # above the degree of sums (by roundoff) takes all of it
        d = _degree(peak * r_max)
        terms = (d + 1) * (d + 2) // 2
        mats = _step_matrices(sums[-terms:], exponents[:, -terms:],
                              x[start:stop], y[start:stop], ratios, halvings,
                              scratch)
        last = s
        while last < len(at) and at[last] <= stop:
            last += 1
        # the samples in this chunk, ascending, and the chunk end
        ends = at[s:last]
        if not ends or ends[-1] != stop:
            ends.append(stop)
        pos = 0
        for length, count in _segments(start, ends):
            block = mats[:, pos:pos + length * count].reshape(m, count, length, w, w)
            pos += length * count
            segments = _tree_product(np.moveaxis(block, 2, 0), scratch)
            for segment in np.swapaxes(segments, 0, 1):
                u = segment @ u
                if s < last:
                    samples[:, s] = u
                    s += 1
    return _complex_form(samples), _complex_form(u)


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
    sums, exponents, x, y, ratios, halvings = _taylor(h0, h1, a, b, dts)
    scratch = getattr(_kept, "scratch", None) or _Scratch()
    batches = [ratios[g:g + CHUNK] for g in range(0, len(dts), CHUNK)]
    _reserve_series(scratch, len(sums), max(
        len(r) * min(len(a), _chunk_steps(len(r))) for r in batches))
    groups = [_accumulate(sums, exponents, x, y, r, halvings, sample_idx,
                          scratch) for r in batches]
    _kept.scratch = scratch if scratch.nbytes <= SCRATCH_KEEP else None
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
