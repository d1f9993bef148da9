"""Experiment runner: JSON config in, CSV (and optional SVG) out.

Subcommands: eigentraj, evolve, adiabaticity, qpe, models, sweep, each
declared once in _COMMANDS with its config keys.  The config is a run's
only input besides --out and --svg.  Each run writes CSV files with a
fixed 12-significant-digit float format plus a .meta.json sidecar
echoing the config, so identical configs produce byte-identical outputs.
Exit codes: 0 success, 1 an output that cannot be written, 2 config
error, 3 numerical failure, 4 violated physics precondition.  Only
evolve, qpe and sweep import the propagator, and through it
scipy.sparse.csgraph (over half of a cold start); the other commands
import numpy but no scipy.
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, svg
from ._kernels import CHUNK
from .circulant import (RING_RTOL, circulant_eigenvalues, materialize,
                        phase_equivalent_circulant)
from .errors import ConfigError, IntegrationError, PhysicsError
from .linalg import is_degenerate
from .models import build_four_level, build_six_level, solve_level_shifts
from .schedule import (
    DEFAULT_STEPS,
    FORWARD,
    INVERSE,
    Schedule,
    SechMaskedPair,
    TanhPair,
    adiabaticity_report,
    eigen_trajectories,
)

EXIT_OK = 0
EXIT_OUTPUT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PHYSICS = 4

# Values in the largest array a command holds; each command bounds its
# step count by the array of its own that grows fastest with steps.
MAX_GRID_VALUES = 2**24
# Bound on every config number and on a schedule's phase scale
# E (max|H0| + max|H1|) (t_max - t_min): the squares of the 2**23 entries
# of the largest model that MAX_GRID_VALUES admits still sum to a finite
# float.
MAX_SCALE = 2.0**500


def _scan_steps(n):
    """Most steps for eigentraj and adiabaticity on an n-level model: the
    stacked Hamiltonians of eigentraj's grid and the eigenvectors of
    adiabaticity's hold n x n values at each of steps + 1 points."""
    return MAX_GRID_VALUES // n**2 - 1


def _stepping_steps(n):
    """Most steps for qpe and sweep: they hold the coefficients of their
    exponentials, one per step, and up to CHUNK step matrices in real
    form, (2n)^2 values each, which no step count can shrink: a model of
    more than 64 levels gets 0."""
    return MAX_GRID_VALUES if CHUNK * (2 * n)**2 <= MAX_GRID_VALUES else 0


def _evolve_steps(n):
    """Most steps for evolve: it steps as qpe does, but its doubled-step
    rerun holds 2 steps coefficients, and its phase prediction n x n
    eigenvectors at each of 4 ceil(steps / 32) + 1 points."""
    return min(_stepping_steps(n) // 2, 32 * (_scan_steps(n) // 4))


def __getattr__(name):
    """Serve cli.evolve for perfbench's tracer test, its one reader."""
    if name != "evolve":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .propagator import evolve
    return evolve


def _fmt(x):
    return f"{float(x):.12g}"


def write_csv(path, header, rows):
    """Write header and rows as CSV: str cells as they are, numbers as _fmt
    writes them.

    Every row has the length and cell types of the first, so one %-format
    built from it serves each block of CHUNK rows in one operation.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if not rows:
            return
        row_fmt = ",".join("%s" if isinstance(c, str) else "%.12g"
                           for c in rows[0]) + "\n"
        for start in range(0, len(rows), CHUNK):
            block = rows[start:start + CHUNK]
            fh.write(row_fmt * len(block) % tuple(chain.from_iterable(block)))


def write_meta(path, command, config):
    meta = {"artifact_version": __version__, "command": command,
            "config": config}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond int's digit limit
        raise ConfigError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _check_keys(section, mapping, allowed, required):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {', '.join(unknown)}")
    missing = sorted(set(required) - set(mapping))
    if missing:
        raise ConfigError(f"{section}: missing required key(s) {', '.join(missing)}")


def _is_number(value):
    """A JSON number of magnitude below MAX_SCALE.

    Booleans are ints to Python but not numbers here, and JSON's NaN and
    Infinity are rejected too.
    """
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) < MAX_SCALE)


def _is_int(value):
    """A JSON integer, booleans excluded."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive(section, value):
    if not _is_number(value) or value <= 0:
        raise ConfigError(f"{section}: expected a positive number below 2**500, "
                          f"got {value!r}")
    return float(value)


def _as_complex(section, value):
    if _is_number(value):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(_is_number(v) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{section}: expected a number or [re, im] pair of "
                      f"magnitude below 2**500, got {value!r}")


def _as_matrix(section, rows):
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) for row in rows)):
        raise ConfigError(f"{section}: expected a list of rows")
    mat = [[_as_complex(f"{section}[{i}][{j}]", v) for j, v in enumerate(row)]
           for i, row in enumerate(rows)]
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ConfigError(f"{section}: matrix must be square")
    return np.array(mat, dtype=np.complex128)


def build_model(cfg):
    """(H0, H1) from the config's model section."""
    model = cfg.get("model")
    if not isinstance(model, dict):
        raise ConfigError("model: expected an object with a 'kind' key")
    kind = model.get("kind")
    if kind == "four_level":
        _check_keys("model", model, ["kind", "E", "V"], ["kind", "E", "V"])
        return build_four_level(_positive("model.E", model["E"]),
                                _as_complex("model.V", model["V"]))
    if kind == "six_level":
        _check_keys("model", model,
                    ["kind", "omega1", "omega2", "h0_diag"],
                    ["kind", "omega1", "omega2", "h0_diag"])
        h1 = build_six_level(_as_complex("model.omega1", model["omega1"]),
                             _as_complex("model.omega2", model["omega2"]))
        diag = model["h0_diag"]
        if not (isinstance(diag, list) and len(diag) == 6
                and all(_is_number(v) for v in diag)):
            raise ConfigError("model.h0_diag: expected 6 real numbers of "
                              "magnitude below 2**500")
        return np.diag(np.array(diag, dtype=np.complex128)), h1
    if kind == "custom":
        _check_keys("model", model, ["kind", "h0", "h1"], ["kind", "h0", "h1"])
        return _as_matrix("model.h0", model["h0"]), _as_matrix("model.h1", model["h1"])
    raise ConfigError(
        f"model.kind: expected four_level, six_level or custom, got {kind!r}"
    )


def _schedule_model(cfg):
    """build_model's (H0, H1), with a six-level ring's H1 in its circulant
    gauge D H1 D†.

    D is diagonal, so it commutes with H0, and D H(t) D† = f H0 + g D H1 D†
    at every t: eigenvalues, gaps and |<m|dH/dt|n>| are unchanged, and a
    propagator changes only by D on each side.  A ring without couplings
    is already circulant.
    """
    h0, h1 = build_model(cfg)
    if cfg["model"]["kind"] == "six_level" and h1.any():
        h1 = materialize(phase_equivalent_circulant(h1)[1])
    return h0, h1


def build_pulses(cfg):
    pulses = cfg.get("pulses")
    if not isinstance(pulses, dict):
        raise ConfigError("pulses: expected an object with a 'kind' key")
    kind = pulses.get("kind")
    if kind == "tanh":
        _check_keys("pulses", pulses, ["kind", "T"], ["kind", "T"])
        return TanhPair(T=_positive("pulses.T", pulses["T"]))
    if kind == "sech_masked":
        _check_keys("pulses", pulses, ["kind", "T", "tau"], ["kind", "T", "tau"])
        return SechMaskedPair(T=_positive("pulses.T", pulses["T"]),
                              tau=_positive("pulses.tau", pulses["tau"]))
    raise ConfigError(f"pulses.kind: expected tanh or sech_masked, got {kind!r}")


def build_schedule(cfg, model, pulses, direction, max_steps, energy=1.0):
    """Schedule of model = (H0, H1) over the config's window and steps; a
    "direction" key overrides `direction`.

    Rejects, before anything is allocated, more steps than max_steps(n)
    for an n-level model (the command's bound from MAX_GRID_VALUES), and
    a phase scale of `energy` times H(t) beyond MAX_SCALE.
    """
    h0, h1 = model
    window = cfg.get("window")
    if window is not None:
        if not (isinstance(window, list) and len(window) == 2
                and all(_is_number(v) for v in window)):
            raise ConfigError("window: expected [t_min, t_max] of magnitude "
                              "below 2**500")
        window = (float(window[0]), float(window[1]))
    steps = cfg.get("steps", DEFAULT_STEPS)
    if not _is_int(steps) or steps < 1:
        raise ConfigError(f"steps: expected a positive integer, got {steps!r}")
    dim = len(h0)
    limit = max_steps(dim)
    if steps > limit:
        what = (f"steps: at most {limit} for a {dim}-level model, got {steps}"
                if limit > 0 else
                f"model: {dim} levels are too many at any step count")
        raise ConfigError(f"{what}: the run's largest array would hold more "
                          f"than 2**24 values")
    try:
        sched = Schedule(pulses=pulses, h0=h0, h1=h1,
                         direction=cfg.get("direction", direction),
                         window=window, steps=steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    t_min, t_max = sched.window
    scale = energy * (t_max - t_min) * (float(np.abs(sched.h0).max())
                                        + float(np.abs(sched.h1).max()))
    if not scale < MAX_SCALE:
        raise ConfigError(f"phase scale (max|H0| + max|H1|) (t_max - t_min) = "
                          f"{scale:.3g} must be below 2**500")
    return sched


def _phase(phi):
    """Validated phase phi in [0, 1)."""
    if not _is_number(phi) or not 0 <= phi < 1:
        raise ConfigError(f"phi: expected a number in [0, 1), got {phi!r}")
    return phi


def cmd_eigentraj(cfg, args):
    sched = build_schedule(cfg, _schedule_model(cfg), build_pulses(cfg),
                           FORWARD, _scan_steps)
    times, energies = eigen_trajectories(sched)
    gaps = np.diff(energies, axis=1).min(axis=1)
    worst = int(np.argmin(gaps))
    n = energies.shape[1]
    out = Path(args.out)
    header = ["t"] + [f"eps_{k}" for k in range(n)]
    rows = np.column_stack([times, energies]).tolist()
    write_csv(out / "eigentraj.csv", header, rows)
    write_meta(out / "eigentraj.meta.json", "eigentraj", cfg)
    if args.svg:
        svg.write_line_plot(
            out / "eigentraj.svg", times,
            {f"eps_{k}": energies[:, k] for k in range(n)},
            title="Instantaneous eigenvalues", xlabel="t", ylabel="energy",
        )
    print(f"eigentraj: {len(times)} points, "
          f"min gap {_fmt(gaps[worst])} at t = {_fmt(times[worst])}")
    return EXIT_OK


def cmd_evolve(cfg, args):
    # imported here, not at the top: the propagator pulls in
    # scipy.sparse.csgraph (over half of a cold start), and only evolve,
    # qpe and sweep integrate
    from .propagator import (adiabatic_phase_prediction, evolve,
                             factor_phased_dft)

    sched = build_schedule(cfg, _schedule_model(cfg), build_pulses(cfg),
                           FORWARD, _evolve_steps)
    predicted, _, _ = adiabatic_phase_prediction(sched)
    _, samples, drift, convergence = evolve(sched)
    u = samples[-1]
    sigma, alpha, residual = factor_phased_dft(u, sched.direction)

    out = Path(args.out)
    n = sched.dim
    rows = [[str(i), str(j), np.abs(u[i, j]), np.angle(u[i, j])]
            for i in range(n) for j in range(n)]
    write_csv(out / "propagator.csv", ["row", "col", "modulus", "phase"], rows)
    write_csv(
        out / "factorization.csv",
        ["n", "sigma", "alpha", "alpha_predicted"],
        [[str(k), str(int(sigma[k])), alpha[k], predicted[k]]
         for k in range(n)],
    )
    write_meta(out / "propagator.meta.json", "evolve", cfg)
    print(f"evolve: unitarity drift {drift:.3e}, "
          f"convergence estimate {convergence:.3e}")
    print(f"factorization residual {residual:.6f}, sigma {sigma.tolist()}")
    return EXIT_OK


def cmd_adiabaticity(cfg, args):
    sched = build_schedule(cfg, _schedule_model(cfg), build_pulses(cfg),
                           FORWARD, _scan_steps)
    times, gap_trace, coupling_trace, margin, degenerate = (
        adiabaticity_report(sched))
    max_coupling, rate_scale = coupling_trace.max(), 1.0 / sched.pulses.T
    if not np.isfinite(max_coupling):  # a pulse rate beyond float range
        raise ConfigError(f"pulses: a nonadiabatic coupling at 1/T = "
                          f"{rate_scale:.3g} is beyond float range")
    out = Path(args.out)
    rows = np.column_stack([times, gap_trace, coupling_trace]).tolist()
    write_csv(out / "adiabaticity.csv", ["t", "min_gap", "max_coupling"], rows)
    write_meta(out / "adiabaticity.meta.json", "adiabaticity", cfg)
    print(f"adiabaticity: min gap {_fmt(gap_trace.min())}, "
          f"max coupling {_fmt(max_coupling)}, "
          f"margin {_fmt(margin)} (1/T = {_fmt(rate_scale)})")
    # the first five pairs, sliced before zip so no tuple is built per pair
    for t, m, n, gap in zip(*(column[:5] for column in degenerate)):
        print(f"  degeneracy at t = {_fmt(t)}: eigenvalues {m} and {n} "
              f"degenerate (gap {gap:.3e})")
    return EXIT_OK


def cmd_qpe(cfg, args):
    from .qpe import ideal_distribution, nearest_value, run_qpe

    sched = build_schedule(cfg, _schedule_model(cfg), build_pulses(cfg),
                           INVERSE, _stepping_steps)
    phi, n = _phase(cfg["phi"]), sched.dim
    bits = (n - 1).bit_length()  # the register's qubits when n = 2**bits
    r = cfg.get("r", bits)
    if not _is_int(r) or r < 1:
        raise ConfigError(f"r: expected a positive integer, got {r!r}")
    if r != bits or 2**bits != n:  # never forms 2**r: r may be huge
        raise ConfigError(f"register of {r} qubits needs a model of "
                          f"dimension 2**{r}, got {n}")
    shots = cfg.get("shots", 0)
    # the sampler draws its counts as 64-bit integers
    if not _is_int(shots) or not 0 <= shots <= np.iinfo(np.int64).max:
        raise ConfigError(f"shots: expected an integer in [0, 2**63 - 1], "
                          f"got {shots!r}")

    target, exact = nearest_value(phi, n)
    times, fidelity, raw, relabeled = run_qpe(sched, phi)
    top = int(np.argmax(relabeled))
    counts = None
    if shots:
        # a fixed seed, so that identical configs give identical counts
        counts = np.random.default_rng(0).multinomial(
            shots, relabeled / relabeled.sum())

    out = Path(args.out)
    f_vals, g_vals = sched.pulses.values(times)
    write_csv(
        out / "qpe_trace.csv", ["t", "f", "g", "fidelity"],
        [[t, fv, gv, p] for t, fv, gv, p in zip(times, f_vals, g_vals, fidelity)],
    )
    dist_header = ["value", "bits", "raw_probability", "relabeled_probability"]
    dist_rows = [[str(k), f"{k:0{bits}b}", raw[k], relabeled[k]]
                 for k in range(n)]
    if counts is not None:
        dist_header.append("counts")
        for row, count in zip(dist_rows, counts):
            row.append(str(int(count)))
    write_csv(out / "qpe_distribution.csv", dist_header, dist_rows)
    write_meta(out / "qpe_trace.meta.json", "qpe", cfg)
    if args.svg:
        svg.write_line_plot(out / "qpe_pulses.svg", times,
                            {"f": f_vals, "g": g_vals},
                            title="Field functions", xlabel="t", ylabel="amplitude")
        svg.write_line_plot(out / "qpe_fidelity.svg", times,
                            {"fidelity": fidelity},
                            title="Phase estimation fidelity", xlabel="t",
                            ylabel="probability")

    ideal = ideal_distribution(phi, n)
    tv = 0.5 * float(np.abs(ideal - relabeled).sum())

    print(f"qpe: phi = {_fmt(phi)}, recovered bits {top:0{bits}b} "
          f"(target {target:0{bits}b}, "
          f"{'exact' if exact else 'nearest'} expansion)")
    if not exact:
        print(f"  phi has no exact {bits}-bit expansion; nearest bits carry "
              f"probability {_fmt(relabeled[target])}")
    print(f"  final fidelity {_fmt(fidelity[-1])}, "
          f"total variation vs ideal oracle {_fmt(tv)}")
    if counts is not None:
        print(f"  sampled counts ({shots} shots): {counts.tolist()}")
    return EXIT_OK


def cmd_models(cfg, args):
    h0, h1 = build_model(cfg)
    out = Path(args.out)
    write_meta(out / "models.meta.json", "models", cfg)
    print("H0 diagonal:", np.diag(h0).real.tolist())
    print("H1:")
    with np.printoptions(precision=6, suppress=True, linewidth=120):
        print(h1)

    # the spectra and the first column scale with the coupling, so they are
    # rounded relative to it; the gauge phases are angles
    coupling = float(np.abs(h1).max())
    kind = cfg["model"].get("kind")
    if kind == "four_level":
        energy = float(cfg["model"]["E"])
        lam = circulant_eigenvalues(h1[:, 0]).real
        print("circulant eigenvalues (index order):",
              _round_list(lam, coupling))
        ez, gs, es = solve_level_shifts(energy)
        print(f"level shifts realizing H0: E_Z = {_fmt(ez)}, "
              f"E_gS = {_fmt(gs)}, E_eS = {_fmt(es)}")
        if is_degenerate(lam):
            print("  note: spectrum is degenerate (V real, imaginary or with "
                  "|Re V| = |Im V|); evolve and qpe exit 4 on it")
    elif kind == "six_level":
        beta, column, residual = phase_equivalent_circulant(h1)
        print(f"gauge phases beta: {_round_list(beta)}")
        print("circulant first column:",
              _round_list(column, coupling))
        # the residual is roundoff of the coupling's size; its digits move
        # with any equivalent arithmetic, so only a larger one is printed
        bound = RING_RTOL * coupling
        print(f"gauge residual: below {RING_RTOL:.0e} of the coupling"
              if residual <= bound else
              f"gauge residual: {residual:.3e}, above {RING_RTOL:.0e} of "
              f"the coupling")
        lam = np.sort(circulant_eigenvalues(column).real)
        print(f"circulant spectrum (sorted): {_round_list(lam, coupling)}")
        if is_degenerate(lam):
            print("  note: spectrum is degenerate for every choice of the "
                  "Rabi phases (the ring's loop product has a fixed argument)")
    return EXIT_OK


def _round_list(values, scale=0.0):
    """values rounded to 9 decimals, or to the decimal digit of RING_RTOL
    times scale where that is coarser: roundoff in a value computed from
    couplings of size scale stays far below that digit.  Adding 0 makes a
    zero of either sign +0.0, which roundoff would otherwise print as 0.0
    or -0.0."""
    digits = 9
    if scale > 0:  # two logs: RING_RTOL * scale may underflow
        digits = min(9, -math.floor(math.log10(RING_RTOL) + math.log10(scale)))
    values = np.asarray(values)
    if np.iscomplexobj(values):
        return [complex(r, i) for r, i in zip(
            _round_list(values.real, scale), _round_list(values.imag, scale))]
    return [round(float(v), digits) + 0.0 for v in values]


def cmd_sweep(cfg, args):
    from .propagator import (factor_phased_dft, final_propagators,
                             predict_permutation)
    from .qpe import register_readout

    pulses = build_pulses(cfg)
    ets = cfg["et_values"]
    if not isinstance(ets, list) or not ets:
        raise ConfigError("et_values: expected a list of positive numbers")
    # energy scale E = E*T / T of each point; build_schedule bounds the largest
    energies = [_positive(f"et_values[{i}]", et) / pulses.T
                for i, et in enumerate(ets)]
    if min(energies) == 0:
        raise ConfigError(f"et_values: E*T / T underflows to 0 at T = "
                          f"{pulses.T!r}")
    v_over_e = _as_complex("v_over_e", cfg.get("v_over_e", [1.0, 1.0 / 3.0]))
    phi = _phase(cfg.get("phi", 0.75))
    # the model at energy E is E times the E = 1 model, so one schedule
    # integrated at every scale serves all points, in both directions
    sched = build_schedule(cfg, build_four_level(1.0, v_over_e), pulses,
                           FORWARD, _stepping_steps, max(energies))
    sigma = predict_permutation(sched)  # a degenerate spectrum stops here
    forward, inverse = final_propagators(sched, energies)
    _, fidelities = register_readout(sigma, phi, inverse)
    rows = []
    for et, u, fidelity in zip(ets, forward, fidelities):
        _, _, residual = factor_phased_dft(u, FORWARD)
        rows.append([float(et), residual, fidelity])
        print(f"sweep: E*T = {_fmt(et)} -> residual {_fmt(residual)}, "
              f"fidelity {_fmt(fidelity)}")

    out = Path(args.out)
    write_csv(out / "sweep.csv", ["et", "residual", "final_fidelity"], rows)
    write_meta(out / "sweep.meta.json", "sweep", cfg)
    return EXIT_OK


_SCHEDULE_KEYS = ("model", "pulses", "window", "steps")

# name: (runner, help, takes --svg, allowed config keys, required config keys)
_COMMANDS = {
    "eigentraj": (cmd_eigentraj,
                  "instantaneous eigenvalue trajectories over the window", True,
                  _SCHEDULE_KEYS + ("direction",), ("model", "pulses")),
    "evolve": (cmd_evolve,
               "integrate the propagator and factor it as a phased DFT", False,
               _SCHEDULE_KEYS + ("direction",), ("model", "pulses")),
    "adiabaticity": (cmd_adiabaticity,
                     "gap vs nonadiabatic-coupling diagnostics", False,
                     _SCHEDULE_KEYS + ("direction",), ("model", "pulses")),
    "qpe": (cmd_qpe, "phase estimation via the simulated inverse transform", True,
            _SCHEDULE_KEYS + ("phi", "r", "shots"), ("model", "pulses", "phi")),
    "models": (cmd_models, "build and inspect the model Hamiltonians", False,
               ("model",), ("model",)),
    "sweep": (cmd_sweep, "factorization residual and fidelity across E*T values",
              False, ("pulses", "et_values", "v_over_e", "phi", "window", "steps"),
              ("pulses", "et_values")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="circulant-qft",
        description="Adiabatic synthesis of phased Fourier transforms from "
                    "circulant Hamiltonians: trajectories, propagators, "
                    "phase estimation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, takes_svg, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        if takes_svg:
            p.add_argument("--svg", action="store_true", help="also write SVG plots")
    return parser


def _report(message=None):
    """Print message on stderr, if given, and flush stderr.  A stderr that
    cannot take it loses the message, never the exit code it reports:
    stderr then goes to the null device, where the interpreter's shutdown
    flush of the bytes still buffered succeeds (a failed one exits 120)."""
    try:
        if message is not None:
            print(message, file=sys.stderr)
        sys.stderr.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def main(argv=None):
    help_text = io.StringIO()
    try:
        with contextlib.redirect_stdout(help_text):
            args = build_parser().parse_args(argv)
    except SystemExit:
        # argparse ignores a failed write of its usage error, but the bytes
        # it left buffered would fail the shutdown flush
        _report()
        # it ignores a failed write of its help and version text too, so
        # that text is passed on here, where a failure raises.  A usage
        # error leaves none, and writing none could still fail unbuffered
        text = help_text.getvalue()
        if text:
            sys.stdout.write(text)
        raise
    runner, _, _, allowed, required = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # --out names a file, or a path under one
            raise ConfigError(f"cannot create output directory "
                              f"{args.out}: {exc}") from exc
        _check_keys("config", cfg, allowed, required)
        return runner(cfg, args)
    except ConfigError as exc:
        _report(f"config error: {exc}")
        return EXIT_CONFIG
    except (IntegrationError, np.linalg.LinAlgError) as exc:
        _report(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except PhysicsError as exc:
        _report(f"physics precondition violated: {exc}")
        return EXIT_PHYSICS
    except BrokenPipeError:
        raise  # stdout is closed: __main__.run() ends the process quietly
    except OSError as exc:
        # load_config and the --out mkdir raise theirs as ConfigError, so
        # this one came from writing a CSV, SVG or .meta.json, or stdout
        _report(f"output error: {exc}")
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
