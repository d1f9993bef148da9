"""Output checks: a command's files are complete, consistent and correct.

Each check reads only what the command wrote and the config it was given,
and recomputes what it can with the benchmark's own formulas.  A failed
check makes the invocation count as failed, never as a fast run.
"""

import csv
import json
from pathlib import Path

import numpy as np

from reference import default_window, pulse_pair

UNITARITY_TOL = 1e-8
EIGEN_TOL = 1e-9
EIGEN_SAMPLES = 64  # rows of a dense grid compared against eigvalsh

# files whose bytes must repeat across runs of one command (the README's
# determinism contract); SVGs are checked for presence only
DETERMINISTIC_SUFFIXES = (".csv", ".meta.json")

OUTPUTS = {
    "evolve": ["propagator.csv", "factorization.csv", "propagator.meta.json"],
    "qpe": ["qpe_trace.csv", "qpe_distribution.csv", "qpe_trace.meta.json"],
    "sweep": ["sweep.csv", "sweep.meta.json"],
    "eigentraj": ["eigentraj.csv", "eigentraj.meta.json"],
    "adiabaticity": ["adiabaticity.csv", "adiabaticity.meta.json"],
}
SVG_OUTPUTS = {"qpe": ["qpe_pulses.svg", "qpe_fidelity.svg"],
               "eigentraj": ["eigentraj.svg"]}


class CheckFailed(Exception):
    pass


def expected_files(command, extra_args):
    return OUTPUTS[command] + (SVG_OUTPUTS.get(command, [])
                               if "--svg" in extra_args else [])


def read_table(path, header, rows=None):
    """Rows of a CSV with the given header (and row count, when given)."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header {lines[:1]} != {header}")
    body = lines[1:]
    if rows is not None and len(body) != rows:
        raise CheckFailed(f"{path.name}: {len(body)} rows, expected {rows}")
    return body


def floats(body, columns):
    return np.array([[float(row[c]) for c in columns] for row in body])


def model_matrices(cfg):
    """(H0, H1) from a config's model section, by the README's formulas."""
    model = cfg["model"]
    if model["kind"] == "four_level":
        e = float(model["E"])
        v = complex(*model["V"])
        h0 = np.diag([-e, -e / 3, e / 3, e]).astype(complex)
        column = [0, np.conj(v), 0, v]
        h1 = np.array([[column[(i - j) % 4] for j in range(4)]
                       for i in range(4)])
        return h0, h1
    if model["kind"] == "custom":
        def mat(rows):
            return np.array([[complex(*z) for z in row] for row in rows])
        return mat(model["h0"]), mat(model["h1"])
    raise ValueError(f"no reference for model kind {model['kind']!r}")


def window(cfg):
    return tuple(cfg["window"]) if "window" in cfg else \
        default_window(cfg["pulses"])


def read_propagator(out, n):
    body = read_table(out / "propagator.csv",
                      ["row", "col", "modulus", "phase"], n * n)
    u = np.zeros((n, n), dtype=complex)
    for row in body:
        u[int(row[0]), int(row[1])] = float(row[2]) * np.exp(1j * float(row[3]))
    return u


def check_evolve(out, cfg, values):
    n = model_matrices(cfg)[0].shape[0]
    u = read_propagator(out, n)
    defect = np.linalg.norm(u.conj().T @ u - np.eye(n))
    if not defect <= UNITARITY_TOL:
        raise CheckFailed(f"propagator.csv not unitary: defect {defect:.3e}")
    body = read_table(out / "factorization.csv",
                      ["n", "sigma", "alpha", "alpha_predicted"], n)
    if sorted(int(row[1]) for row in body) != list(range(n)):
        raise CheckFailed("factorization.csv: sigma is not a permutation")
    values["u"] = u


def check_qpe(out, cfg, values):
    r = cfg["r"]
    target = round(cfg["phi"] * 2**r)
    body = read_table(out / "qpe_distribution.csv",
                      ["value", "bits", "raw_probability",
                       "relabeled_probability"], 2**r)
    probs = floats(body, [3])[:, 0]
    top = int(np.argmax(probs))
    if body[top][1] != format(target, f"0{r}b"):
        raise CheckFailed(f"qpe read out bits {body[top][1]}, target "
                          f"{format(target, f'0{r}b')}")
    times = floats(read_table(out / "qpe_trace.csv",
                              ["t", "f", "g", "fidelity"]), [0])[:, 0]
    if len(times) < 2 or not np.allclose(times[[0, -1]], window(cfg),
                                         rtol=1e-9, atol=0):
        raise CheckFailed("qpe_trace.csv does not span the window")
    values["infidelity"] = [1.0 - probs[target]]


def check_sweep(out, cfg, values):
    ets = cfg["et_values"]
    body = read_table(out / "sweep.csv", ["et", "residual", "final_fidelity"],
                      len(ets))
    table = floats(body, [0, 2])
    if not np.allclose(table[:, 0], ets, rtol=1e-11, atol=0):
        raise CheckFailed("sweep.csv: E*T column differs from the config")
    values["infidelity"] = list(1.0 - table[:, 1])


def _sample_rows(count):
    return np.unique(np.linspace(0, count - 1, EIGEN_SAMPLES).round().astype(int))


def _reference_eigenvalues(cfg, t):
    h0, h1 = model_matrices(cfg)
    a, b = pulse_pair(cfg["pulses"])(t)
    return np.linalg.eigvalsh(a[:, None, None] * h0 + b[:, None, None] * h1)


def check_eigentraj(out, cfg, values):
    h0 = model_matrices(cfg)[0]
    n = h0.shape[0]
    body = read_table(out / "eigentraj.csv",
                      ["t"] + [f"eps_{k}" for k in range(n)], cfg["steps"] + 1)
    table = floats([body[i] for i in _sample_rows(len(body))], range(n + 1))
    err = np.abs(_reference_eigenvalues(cfg, table[:, 0]) - table[:, 1:]).max()
    if not err <= EIGEN_TOL:
        raise CheckFailed(f"eigentraj.csv off eigvalsh by {err:.3e}")


def check_adiabaticity(out, cfg, values):
    body = read_table(out / "adiabaticity.csv",
                      ["t", "min_gap", "max_coupling"], cfg["steps"] + 1)
    table = floats([body[i] for i in _sample_rows(len(body))], [0, 1])
    gaps = np.diff(_reference_eigenvalues(cfg, table[:, 0]), axis=1).min(axis=1)
    err = np.abs(gaps - table[:, 1]).max()
    if not err <= EIGEN_TOL:
        raise CheckFailed(f"adiabaticity.csv min_gap off eigvalsh by {err:.3e}")


CHECKS = {"evolve": check_evolve, "qpe": check_qpe, "sweep": check_sweep,
          "eigentraj": check_eigentraj, "adiabaticity": check_adiabaticity}


def check_command(command, out, cfg, extra_args):
    """(errors, values) for one command's outputs in directory `out`.

    values may hold "u" (the propagator) and "infidelity" (a list).
    """
    out = Path(out)
    values = {}
    try:
        for name in expected_files(command, extra_args):
            path = out / name
            if not path.is_file():
                raise CheckFailed(f"missing {name}")
            if name.endswith(".svg") and b"</svg>" not in path.read_bytes():
                raise CheckFailed(f"{name} is not a complete SVG")
            if name.endswith(".meta.json"):
                meta = json.loads(path.read_text(encoding="utf-8"))
                if meta.get("command") != command or meta.get("config") != cfg:
                    raise CheckFailed(f"{name} does not echo the command "
                                      "and its config")
        CHECKS[command](out, cfg, values)
    except (CheckFailed, OSError, ValueError, TypeError, KeyError,
            IndexError) as exc:
        return [f"{command}: {exc}"], values
    return [], values
