"""Hot numeric kernels: propagator stepping and eigensystem grid scans.

Both batch their Hermitian eigendecompositions: eigh_grid makes one
LAPACK call over its whole grid, the propagator one per chunk of steps.
The propagator integrates a batch of step lengths dt_m at once: scaling
a Hamiltonian by E scales every step's exponent by E and leaves its
eigenvectors alone, so one eigh per step serves the step matrices
V exp(-i dt_m W) V' of every m.  A chunk holds CHUNK // m steps of m
step lengths (one step of up to CHUNK step lengths, for large batches),
so at most CHUNK step matrices are held at once however many there are.
Within a chunk it multiplies the step matrices between consecutive
samples (and the chunk end) by balanced pairwise (tree) products, the
segment products of a parallel-prefix scan (Blelloch, "Prefix Sums and
Their Applications", CMU-CS-90-190, 1990).  Segments of equal length
are reduced together, so no Python loop runs per step; only the short
chain of segment products is sequential.  schedule.adiabaticity_report
scans its grid in chunks of the same size.
"""

import numpy as np

CHUNK = 1024  # step matrices (or adiabaticity scan points) held at once


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


def _step_matrices(h0, h1, a, b, dts):
    """exp(-i dt_m (a_k H0 + b_k H1)) at [m, k] for every step length dt_m
    and every k, from one batched eigh over k."""
    w, v = np.linalg.eigh(a[:, None, None] * h0 + b[:, None, None] * h1)
    phases = np.exp((-1j * dts)[:, None, None] * w)
    return (v * phases[..., None, :]) @ np.conj(np.swapaxes(v, 1, 2))


def _accumulate(h0, h1, a, b, dts, sample_idx):
    """(u_samples, u_final) of propagate for at most CHUNK step lengths."""
    m, n = len(dts), h0.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    u = np.repeat(eye[None], m, axis=0)
    samples = np.empty((m, len(sample_idx), n, n), dtype=np.complex128)
    s = int(np.searchsorted(sample_idx, 0, side="right"))
    samples[:, :s] = eye
    chunk = max(1, CHUNK // m)
    for start in range(0, len(a), chunk):
        stop = min(start + chunk, len(a))
        mats = _step_matrices(h0, h1, a[start:stop], b[start:stop], dts)
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
    step is still present at the next sample.
    """
    groups = [_accumulate(h0, h1, a, b, dts[g:g + CHUNK], sample_idx)
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
