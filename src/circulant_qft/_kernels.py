"""Hot numeric kernels: propagator stepping and eigensystem grid scans.

Both batch their Hermitian eigendecompositions: eigh_grid makes one
LAPACK call over its whole grid, the propagator one per chunk of CHUNK
steps, which bounds the memory held for long grids.  Within a chunk it
multiplies the step matrices between consecutive samples (and the chunk
end) by balanced pairwise (tree) products, the segment products of a
parallel-prefix scan (Blelloch, "Prefix Sums and Their Applications",
CMU-CS-90-190, 1990).  Segments of equal length are reduced together,
so no Python loop runs per step; only the short chain of segment
products is sequential.  schedule.adiabaticity_report scans its grid in
chunks of the same size.
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


def _step_matrices(h0, h1, a, b, dt):
    """exp(-i dt (a_k H0 + b_k H1)) for every k, from one batched eigh."""
    w, v = np.linalg.eigh(a[:, None, None] * h0 + b[:, None, None] * h1)
    return (v * np.exp(-1j * dt * w)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))


def propagate(h0, h1, a_mid, b_mid, dt, sample_idx):
    """Exponential-midpoint stepping: U <- exp(-i H_k dt) U, H_k = a_k H0 + b_k H1.

    Returns (u_samples, u_final, max_unitarity_drift).  ``sample_idx``
    holds strictly ascending step counts in [0, len(a_mid)] at which U is
    recorded (0 records the identity).  The drift is the largest
    ||U'U - I||_F over the samples and the end.  Checking there loses
    nothing: unitary steps leave U'U unchanged, so a defect made by any
    step is still present at the next sample.
    """
    n = h0.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    u = eye
    samples = np.empty((len(sample_idx), n, n), dtype=np.complex128)
    s = int(np.searchsorted(sample_idx, 0, side="right"))
    samples[:s] = eye
    for start in range(0, len(a_mid), CHUNK):
        stop = min(start + CHUNK, len(a_mid))
        mats = _step_matrices(h0, h1, a_mid[start:stop], b_mid[start:stop], dt)
        last = int(np.searchsorted(sample_idx, stop, side="right"))
        ends = np.union1d(sample_idx[s:last], stop)
        pos = 0
        for length, count in _runs(np.diff(ends, prepend=start)):
            block = mats[pos:pos + length * count].reshape(count, length, n, n)
            pos += length * count
            for segment in _tree_product(np.swapaxes(block, 0, 1)):
                u = segment @ u
                if s < last:
                    samples[s] = u
                    s += 1
    checked = np.concatenate([samples, u[None]])
    defects = np.linalg.norm(
        np.conj(np.swapaxes(checked, 1, 2)) @ checked - eye, axis=(1, 2))
    return samples, u, float(defects.max())


def eigh_grid(h0, h1, a, b):
    """Eigenvalues and eigenvectors of a_k*H0 + b_k*H1 for every k (batched)."""
    hs = a[:, None, None] * h0 + b[:, None, None] * h1
    return np.linalg.eigh(hs)
