"""Seeded workloads: the JSON configs the program sees and the commands run.

The seed is an argument of the benchmark only; the program receives the
generated config files.  A workload pass runs `commands` in order, each
writing into the pass's output directory.

Why these three (see also BENCHMARK.json):

* paper_qpe - the README paper point: evolve, qpe --svg and a four-point
  sweep.  At N = 4 the per-step Python cost of the propagator dominates.
* ring8_qpe - the same propagator path at N = 8 on a `custom` model, so
  batched eigh and matrix products weigh more; it also parses 128 complex
  config entries.
* diag_dense - eigentraj --svg and adiabaticity on a 20 000-step grid: it
  never runs the propagator, so every propagator change predicts no change
  here.

Accuracy metrics must stay comparable across seeds, so the seed varies the
inputs without varying the physics that sets them: paper_qpe's sweep always
contains its hardest point E*T = 8, and every ring8_qpe seed is the same
8-level model in other units, basis labels and circulant gauge.
"""

from dataclasses import dataclass

import numpy as np

PAPER_CONFIG = {
    "model": {"kind": "four_level", "E": 10.0, "V": [10.0, 3.3333333333]},
    "pulses": {"kind": "sech_masked", "T": 1.0, "tau": 1.0},
    "steps": 4000,
}
SWEEP_ET_RANGE = (8.0, 40.0)
DIAG_ET_RANGE = (8.0, 20.0)
DIAG_STEPS = 20000

# ring8_qpe base model: one random draw, kept because every one of its eight
# QPE targets reads out with infidelity below 1e-4 at E*T = 40 (random
# 8-level models mostly do not: their avoided crossings are too narrow).
# Spectra in units of E; every gap is at least 5 % of the span.
RING8_H0 = (-0.153, -0.345, -0.593, -1.0, 0.763, 1.0, 0.153, 0.548)
RING8_H1 = tuple(2.0 * x for x in
                 (-0.675, -0.47, -0.096, 0.687, 0.807, -1.0, 0.361, 1.0))
RING8_ET = 40.0
RING8_BASE_TARGET = 3  # its hardest target; every seed reads out this one
MIN_GAP_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    """Configs by file name, and the (command, config file, extra args)
    of one pass, in order."""

    name: str
    configs: dict
    commands: list


def _pair(z):
    return [float(z.real), float(z.imag)]


def hermitian_circulant_column(spectrum, gauge=0):
    """First column c of the Hermitian circulant whose eigenvalue for DFT
    column n is spectrum[(n - gauge) % N] (numpy's FFT sign convention).

    The gauge rotation multiplies c_l by exp(2 pi i gauge l / N), which is
    the diagonal unitary diag(exp(2 pi i gauge j / N)) acting on H1.
    """
    lam = np.asarray(spectrum, dtype=float)
    n = len(lam)
    c = np.fft.ifft(lam) * np.exp(2j * np.pi * gauge * np.arange(n) / n)
    # exact Hermitian symmetry c[N - l] = conj(c[l]), so the program's
    # Hermiticity and circulant checks see no rounding defect
    c[0] = c[0].real
    for ell in range(1, (n + 1) // 2):
        c[n - ell] = np.conj(c[ell])
    if n % 2 == 0:
        c[n // 2] = c[n // 2].real
    return c


def circulant_matrix(column):
    n = len(column)
    return [[column[(i - j) % n] for j in range(n)] for i in range(n)]


def paper_qpe(seed):
    rng = np.random.default_rng([seed, 1])
    phi = int(rng.integers(4)) / 4
    lo, hi = SWEEP_ET_RANGE
    ets = [lo] + sorted(float(x) for x in rng.uniform(lo, hi, 3))
    sweep = {"pulses": PAPER_CONFIG["pulses"], "et_values": ets,
             "steps": PAPER_CONFIG["steps"]}
    return Workload("paper_qpe", {
        "evolve.json": dict(PAPER_CONFIG),
        "qpe.json": dict(PAPER_CONFIG, phi=phi, r=2),
        "sweep.json": sweep,
    }, [("evolve", "evolve.json", []), ("qpe", "qpe.json", ["--svg"]),
        ("sweep", "sweep.json", [])])


def ring8_model(seed):
    """(h0, h1, pulses, phi) of one seed's view of the ring8 base model.

    The seed picks the time unit T (E = RING8_ET / T), a cyclic relabeling
    of the basis (which leaves every circulant unchanged) and the register
    value m of phi = m / 8.  The circulant gauge is then chosen so that
    register value m plays the part of the base model's RING8_BASE_TARGET;
    every seed therefore has the same gaps and the same QPE fidelity.
    """
    rng = np.random.default_rng([seed, 2])
    n = len(RING8_H0)
    big_t = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    energy = RING8_ET / big_t
    shift = int(rng.integers(n))
    m = int(rng.integers(n))
    h0 = energy * np.roll(np.asarray(RING8_H0), shift)
    column = energy * hermitian_circulant_column(
        RING8_H1, gauge=(m - RING8_BASE_TARGET) % n)
    pulses = {"kind": "sech_masked", "T": big_t, "tau": big_t}
    return np.diag(h0).astype(complex), np.array(circulant_matrix(column)), \
        pulses, m / n


def ring8_qpe(seed):
    h0, h1, pulses, phi = ring8_model(seed)
    model = {"kind": "custom",
             "h0": [[_pair(z) for z in row] for row in h0],
             "h1": [[_pair(z) for z in row] for row in h1]}
    base = {"model": model, "pulses": pulses, "steps": PAPER_CONFIG["steps"]}
    return Workload("ring8_qpe", {
        "evolve.json": base,
        "qpe.json": dict(base, phi=phi, r=3),
    }, [("evolve", "evolve.json", []), ("qpe", "qpe.json", [])])


def diag_dense(seed):
    rng = np.random.default_rng([seed, 3])
    energy = float(rng.uniform(*DIAG_ET_RANGE))  # T = 1, so E = E*T
    cfg = {"model": {"kind": "four_level", "E": energy,
                     "V": [energy, energy / 3.0]},
           "pulses": {"kind": "sech_masked", "T": 1.0, "tau": 1.0},
           "steps": DIAG_STEPS}
    return Workload("diag_dense", {"dense.json": cfg},
                    [("eigentraj", "dense.json", ["--svg"]),
                     ("adiabaticity", "dense.json", [])])


# diag_dense has no propagator output of its own, yet every workload must
# report every end-to-end metric; it takes u_err and qpe_infidelity from
# this README paper point, run once per run outside the timed passes.
ACCURACY_PROBE = Workload("accuracy_probe", {
    "evolve.json": dict(PAPER_CONFIG),
    "qpe.json": dict(PAPER_CONFIG, phi=0.75, r=2),
}, [("evolve", "evolve.json", []), ("qpe", "qpe.json", [])])

WORKLOADS = {"paper_qpe": paper_qpe, "ring8_qpe": ring8_qpe,
             "diag_dense": diag_dense}
