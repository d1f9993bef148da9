import contextlib
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from circulant_qft import _kernels
from circulant_qft._kernels import CHUNK
from circulant_qft.cli import main, write_csv
from circulant_qft.models import build_four_level, build_six_level
from circulant_qft.propagator import evolve, factor_phased_dft
from circulant_qft.qpe import run_qpe
from circulant_qft.schedule import PulsePair, Schedule

FOUR_LEVEL = {
    "model": {"kind": "four_level", "E": 10.0, "V": [10.0, 10.0 / 3.0]},
    "pulses": {"kind": "sech_masked", "T": 1.0, "tau": 1.0},
    "steps": 400,
}

SIX_LEVEL_MODEL = {"kind": "six_level", "omega1": 1.0, "omega2": 1.0,
                   "h0_diag": [-3, -2, -1, 1, 2, 3]}

QPE_CONFIG = {
    "model": {"kind": "four_level", "E": 10.0, "V": [10.0, 10.0 / 3.0]},
    "pulses": {"kind": "sech_masked", "T": 1.0, "tau": 1.0},
    "steps": 4000,
    "phi": 0.75,
    "r": 2,
}


def ring_model(n, z):
    """custom model: H0 = diag(0, ..., n - 1) and the circulant H1 with hop
    z from each level to the next and conj(z) back."""
    h1 = [[0] * n for _ in range(n)]
    for j in range(n):
        h1[(j + 1) % n][j] = [z.real, z.imag]
        h1[j][(j + 1) % n] = [z.real, -z.imag]
    return {"kind": "custom", "h1": h1,
            "h0": [[float(i) if i == j else 0 for j in range(n)]
                   for i in range(n)]}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def reference_csv(header, rows):
    """write_csv's bytes, formatted one cell at a time."""
    lines = [",".join(header)] + [
        ",".join(c if isinstance(c, str) else f"{float(c):.12g}" for c in row)
        for row in rows]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [0.0, -0.0, 1e-308, 5e-324, 1e300, -1e300, float("nan"),
               float("inf"), -float("inf"), 1 / 3, 2.5, 123456789012345.0]


def _wide_range_table(rows):
    rng = np.random.default_rng(5)
    return (rng.standard_normal((rows, 3))
            * 10.0 ** rng.integers(-300, 300, (rows, 3))).tolist()


class TestWriteCsv:
    @pytest.mark.parametrize("header, rows", [
        (["n", "bits", "int", "float", "float64"],
         [[str(k), format(k, "04b"), k - 5, x, np.float64(-x)]
          for k, x in enumerate(EDGE_FLOATS)]),
        (["t", "a", "b"], _wide_range_table(2 * CHUNK + 3)),
        (["t", "a", "b"], _wide_range_table(CHUNK)),
        (["int", "float64"], [[2**70, np.float64(1e-308)], [-3, np.float64(np.nan)]]),
        (["t", "eps"], []),
    ], ids=["mixed_cells", "longer_than_chunk", "one_chunk", "big_int",
            "empty"])
    def test_matches_cell_by_cell_formatter(self, tmp_path, header, rows):
        write_csv(tmp_path / "table.csv", header, rows)
        assert (tmp_path / "table.csv").read_bytes() \
            == reference_csv(header, rows).encode()


def eigentraj_line(out):
    """The point count, min gap and its time from eigentraj's one stdout
    line."""
    points, gap, time = re.fullmatch(
        r"eigentraj: (\d+) points, min gap (\S+) at t = (\S+)\n", out).groups()
    return int(points), float(gap), float(time)


class TestEigentraj:
    def test_writes_csv_and_meta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        assert main(["eigentraj", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "eigentraj.csv")
        assert header == ["t", "eps_0", "eps_1", "eps_2", "eps_3"]
        assert len(rows) == 401
        meta = json.loads((tmp_path / "eigentraj.meta.json").read_text())
        assert meta["config"]["model"]["kind"] == "four_level"
        # the smallest gap lies at the grid's first point
        table = np.array(rows, dtype=float)
        gaps = np.diff(table[:, 1:], axis=1).min(axis=1)
        points, gap, time = eigentraj_line(capsys.readouterr().out)
        assert (points, time) == (401, table[np.argmin(gaps), 0]) == (401, -6)
        assert gap == pytest.approx(gaps.min(), rel=1e-9)

    def test_no_crossings_in_paper_window(self, tmp_path):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        main(["eigentraj", "--config", cfg, "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "eigentraj.csv")
        data = np.array([[float(c) for c in row] for row in rows])
        energies = data[:, 1:]
        mask = np.abs(data[:, 0]) <= 4.0
        assert np.diff(energies[mask], axis=1).min() > 0

    # t/tau overflows beyond |t| ~ 1e-308 * 1.8e308 and cosh(t/tau)
    # beyond |t/tau| = 710; both limits give the mask sech = 0
    @pytest.mark.parametrize("tau", [1e-3, 1e-308])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_narrow_mask_warns_nothing(self, tmp_path, tau):
        payload = {**FOUR_LEVEL,
                   "pulses": {"kind": "sech_masked", "T": 1.0, "tau": tau}}
        cfg = write_config(tmp_path, payload)
        assert main(["eigentraj", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_svg_written(self, tmp_path):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        main(["eigentraj", "--config", cfg, "--out", str(tmp_path), "--svg"])
        svg = (tmp_path / "eigentraj.svg").read_text()
        assert svg.startswith("<?xml") and "polyline" in svg

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["eigentraj", "--config", cfg, "--out", str(out1)])
        main(["eigentraj", "--config", cfg, "--out", str(out2)])
        assert (out1 / "eigentraj.csv").read_bytes() == \
               (out2 / "eigentraj.csv").read_bytes()

    def test_degenerate_h0_exits_physics_code(self, tmp_path, capsys):
        payload = {
            "model": {"kind": "custom",
                      "h0": [[1, 0, 0, 0], [0, 1, 0, 0],
                             [0, 0, 2, 0], [0, 0, 0, 3]],
                      "h1": FOUR_LEVEL_H1()},
            "pulses": {"kind": "tanh", "T": 1.0},
            "steps": 50,
        }
        cfg = write_config(tmp_path, payload)
        assert main(["eigentraj", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "non-degenerate" in capsys.readouterr().err


def FOUR_LEVEL_H1():
    v = 10.0 + 10.0j / 3
    vc = v.conjugate()
    as_pair = lambda z: [z.real, z.imag]
    return [[0, as_pair(v), 0, as_pair(vc)],
            [as_pair(vc), 0, as_pair(v), 0],
            [0, as_pair(vc), 0, as_pair(v)],
            [as_pair(v), 0, as_pair(vc), 0]]


class TestEvolve:
    def test_propagator_and_factorization_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FOUR_LEVEL, "steps": 2000})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "propagator.csv")
        assert header == ["row", "col", "modulus", "phase"]
        moduli = np.array([float(r[2]) for r in rows])
        assert np.abs(moduli - 0.5).max() <= 1e-2
        header, rows = read_csv(tmp_path / "factorization.csv")
        assert header == ["n", "sigma", "alpha", "alpha_predicted"]
        assert [int(r[1]) for r in rows] == [2, 1, 3, 0]
        out = capsys.readouterr().out
        assert "unitarity drift" in out and "residual" in out

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_alpha_predicted_matches_alpha(self, tmp_path, direction):
        # the predicted column carries the geometric phase (~2 rad for
        # this model) as well as the quasienergy integral
        payload = {**FOUR_LEVEL, "model": {"kind": "four_level", "E": 20.0,
                                           "V": [20.0, 20.0 / 3.0]},
                   "steps": 4000, "direction": direction}
        cfg = write_config(tmp_path, payload)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "factorization.csv")
        assert header == ["n", "sigma", "alpha", "alpha_predicted"]
        alpha, predicted = np.array([[float(r[2]), float(r[3])]
                                     for r in rows]).T
        assert np.abs(predicted).max() <= np.pi
        assert np.abs(np.angle(np.exp(1j * (alpha - predicted)))).max() <= 0.05

    def test_real_coupling_exits_physics_code(self, tmp_path, capsys,
                                              propagated_steps):
        # a real V makes the circulant spectrum degenerate: rank matching
        # has no end state to predict, as in qpe
        payload = {**FOUR_LEVEL, "model": {"kind": "four_level", "E": 10.0,
                                           "V": 10.0}}
        cfg = write_config(tmp_path, payload)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == (
            "physics precondition violated: H1 spectrum is degenerate; "
            "rank matching is undefined\n")
        assert not (tmp_path / "factorization.csv").exists()
        assert propagated_steps[0] == 0

    def test_steps_flag_overrides(self, tmp_path, propagated_steps):
        # steps is a config key, not a flag: the config's value overrides
        # the default step count and is echoed in .meta.json; evolve
        # integrates it once and again at double resolution for its
        # convergence estimate
        cfg = write_config(tmp_path, {**FOUR_LEVEL, "steps": 100})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert propagated_steps[0] == 100 + 200
        meta = json.loads((tmp_path / "propagator.meta.json").read_text())
        assert meta["config"]["steps"] == 100


class TestAdiabaticity:
    def test_csv_schema_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        assert main(["adiabaticity", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "adiabaticity.csv")
        assert header == ["t", "min_gap", "max_coupling"]
        assert len(rows) == 401
        out = capsys.readouterr().out
        assert "margin" in out and "1/T" in out

    # the rate 1/T = 1e308 leaves the largest coupling within a factor 2
    # of the float maximum
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_narrowest_window_warns_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **FOUR_LEVEL, "pulses": {"kind": "tanh", "T": 1e-308},
            "window": [-1e-308, 1e-308], "steps": 3})
        assert main(["adiabaticity", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "max coupling 9.19" in capsys.readouterr().out

    # the coupling is defined at every grid point, so one step is a scan;
    # 2 and 20 steps on the default +-6 window once overflowed a guard
    # that multiplied 2*dt by the float maximum
    @pytest.mark.parametrize("steps", [1, 2, 20])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_coarse_default_window_warns_nothing(self, tmp_path, steps):
        cfg = write_config(tmp_path, {**FOUR_LEVEL, "steps": steps})
        assert main(["adiabaticity", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "adiabaticity.csv")
        assert len(rows) == steps + 1
        assert all(float(row[2]) > 0 for row in rows)

    # tanh T = 1e-308 on its default window: 2*dt = 4.8e-309 once had
    # no finite reciprocal and exited 2
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_step_warns_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **FOUR_LEVEL, "pulses": {"kind": "tanh", "T": 1e-308}, "steps": 50})
        assert main(["adiabaticity", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "max coupling 8.99" in capsys.readouterr().out

    # t / tau overflows, so H(t) = 0 at every grid point but t = 0: the
    # scan finds 24 degenerate pairs, and only the first five are printed
    def test_vanishing_hamiltonian_prints_five_pairs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **FOUR_LEVEL, "pulses": {"kind": "sech_masked", "T": 1.0,
                                     "tau": 5e-324}, "steps": 4})
        assert main(["adiabaticity", "--config", cfg, "--out", str(tmp_path)]) == 0
        pairs = ["0 and 1", "0 and 2", "0 and 3", "1 and 2", "1 and 3"]
        assert capsys.readouterr().out == (
            "adiabaticity: min gap 0, max coupling 0.587503807427, margin "
            "23.2979093889 (1/T = 1)\n" + "".join(
                f"  degeneracy at t = -6: eigenvalues {pair} degenerate "
                f"(gap 0.000e+00)\n" for pair in pairs))
        assert (tmp_path / "adiabaticity.csv").read_text() == (
            "t,min_gap,max_coupling\n-6,0,0\n-3,0,0\n"
            "0,13.6876104711,0.587503807427\n3,0,0\n6,0,0\n")

    # the margin's gap/coupling ratios overflow to inf at a subnormal
    # coupling; inf is never the minimum, so the margin is unchanged.  The
    # model is uncoupled to roundoff, so the margin is roundoff's.
    def test_subnormal_coupling_warns_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"kind": "four_level", "E": 10.0, "V": [1e-308, 1e-308]},
            "pulses": {"kind": "tanh", "T": 1.0}, "steps": 400})
        assert main(["adiabaticity", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        assert "margin 86568017134.1 " in capsys.readouterr().out

    # the paper circulant plus a Hermitian perturbation off column 0, whose
    # structure defect is 0.21 of ||H1||, scaled to a norm of 3e-13: the
    # circulant rule is relative, so it rejects this H1 as it would at
    # norm 1, before anything is scanned or integrated
    @pytest.mark.parametrize("command", ["adiabaticity", "evolve"])
    def test_tiny_non_circulant_h1_exits_config_code(self, tmp_path, capsys,
                                                     command):
        _, h1 = build_four_level(1.0, 1 + 1j / 3)
        h1[1, 2] += 0.5
        h1[2, 1] += 0.5
        h1 *= 1e-13
        cfg = write_config(tmp_path, {
            "model": {"kind": "custom",
                      "h0": np.diag([-1.0, -1 / 3, 1 / 3, 1.0]).tolist(),
                      "h1": [[[z.real, z.imag] for z in row] for row in h1]},
            "pulses": {"kind": "sech_masked", "T": 1.0, "tau": 1.0},
            "steps": 400})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "H1 is not circulant" in capsys.readouterr().err


class TestQpe:
    def test_paper_figure_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QPE_CONFIG)
        assert main(["qpe", "--config", cfg, "--out", str(tmp_path), "--svg"]) == 0
        out = capsys.readouterr().out
        assert "recovered bits 11" in out
        fidelity = float(out.split("final fidelity ")[1].split(",")[0])
        assert fidelity >= 0.99
        header, rows = read_csv(tmp_path / "qpe_trace.csv")
        assert header == ["t", "f", "g", "fidelity"]
        assert float(rows[-1][3]) >= 0.99
        header, rows = read_csv(tmp_path / "qpe_distribution.csv")
        assert header == ["value", "bits", "raw_probability",
                          "relabeled_probability"]
        probs = np.array([float(r[3]) for r in rows])
        assert abs(probs.sum() - 1) <= 1e-9
        assert (tmp_path / "qpe_pulses.svg").exists()
        assert (tmp_path / "qpe_fidelity.svg").exists()

    def test_zero_phase_trivial_outcome(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**QPE_CONFIG, "phi": 0.0, "steps": 2000})
        assert main(["qpe", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "recovered bits 00" in out
        fidelity = float(out.split("final fidelity ")[1].split(",")[0])
        assert fidelity >= 0.99

    def test_inexact_phase_flagged(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**QPE_CONFIG, "phi": 1 / 3, "steps": 2000})
        assert main(["qpe", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "nearest" in out
        assert "no exact" in out

    def test_degenerate_coupling_exits_physics_code(self, tmp_path, capsys,
                                                    propagated_steps):
        # |Re V| = |Im V| pairs up the circulant spectrum, as models notes
        model = {"kind": "four_level", "E": 10.0, "V": [10.0, 10.0]}
        cfg = write_config(tmp_path, {**QPE_CONFIG, "model": model})
        assert main(["qpe", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == (
            "physics precondition violated: H1 spectrum is degenerate; "
            "rank matching is undefined\n")
        assert not list(tmp_path.glob("*.csv"))
        assert propagated_steps[0] == 0

    # r only restates log2 N: without it every output but the config
    # echo is the same
    @pytest.mark.parametrize("payload", [
        QPE_CONFIG,
        {**QPE_CONFIG, "model": ring_model(8, 4 + 1.2j), "steps": 800,
         "phi": 0.625, "r": 3},
    ], ids=["readme", "custom_n8"])
    def test_register_defaults_to_the_model_levels(self, tmp_path, capsys,
                                                   payload):
        outputs = []
        for run, cfg in [("with_r", payload),
                         ("without_r", {k: v for k, v in payload.items()
                                        if k != "r"})]:
            path = write_config(tmp_path, cfg, f"{run}.json")
            assert main(["qpe", "--config", path,
                         "--out", str(tmp_path / run), "--svg"]) == 0
            outputs.append((capsys.readouterr(), {
                p.name: p.read_bytes() for p in (tmp_path / run).iterdir()
                if p.suffix != ".json"}))
        assert outputs[0] == outputs[1]
        assert sorted(outputs[0][1]) == [
            "qpe_distribution.csv", "qpe_fidelity.svg", "qpe_pulses.svg",
            "qpe_trace.csv"]

    def test_register_without_r_needs_a_power_of_two_levels(
            self, tmp_path, capsys, propagated_steps):
        cfg = write_config(tmp_path, {
            **{k: v for k, v in QPE_CONFIG.items() if k != "r"},
            "model": ring_model(3, 1 + 0.3j)})
        assert main(["qpe", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: register of 2 qubits needs a model of dimension "
            "2**2, got 3\n")
        assert propagated_steps[0] == 0

    def test_sampled_mode_adds_counts(self, tmp_path):
        cfg = write_config(tmp_path, {**QPE_CONFIG, "steps": 400, "shots": 200})
        assert main(["qpe", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "qpe_distribution.csv")
        assert header[-1] == "counts"
        assert sum(int(r[4]) for r in rows) == 200

    def test_sampled_reruns_byte_identical(self, tmp_path):
        # the config is the whole input, so its .meta.json echo pins the
        # sampled counts too
        cfg = write_config(tmp_path, {**QPE_CONFIG, "phi": 1 / 3, "steps": 400,
                                      "shots": 100})
        for run in ("a", "b"):
            assert main(["qpe", "--config", cfg,
                         "--out", str(tmp_path / run)]) == 0
        for name in ("qpe_trace.csv", "qpe_distribution.csv",
                     "qpe_trace.meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()


class TestModels:
    def test_four_level_prints_shifts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": FOUR_LEVEL["model"]})
        assert main(["models", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "E_Z" in out and "level shifts" in out
        assert "note:" not in out

    # the spectrum 2 Re(V i^n) pairs up for V real, imaginary or with
    # |Re V| = |Im V|, and is all zeros for V = 0
    @pytest.mark.parametrize("v", [10.0, [0.0, 10.0], [10.0, -10.0], 0.0],
                             ids=["real", "imaginary", "re_is_minus_im", "zero"])
    def test_four_level_degenerate_spectrum_noted(self, tmp_path, capsys, v):
        cfg = write_config(tmp_path, {"model": {"kind": "four_level",
                                                "E": 10.0, "V": v}})
        assert main(["models", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "  note: spectrum is degenerate (V real, imaginary or with "
            "|Re V| = |Im V|); evolve and qpe exit 4 on it")

    def test_leaves_print_options_alone(self, tmp_path):
        cfg = write_config(tmp_path, {"model": FOUR_LEVEL["model"]})
        # numpy's defaults, whatever an earlier test in this process set
        with np.printoptions(precision=8, suppress=False, linewidth=75):
            before = np.get_printoptions()
            assert main(["models", "--config", cfg, "--out", str(tmp_path)]) == 0
            assert np.get_printoptions() == before

    def test_six_level_equal_moduli_reports_gauge(self, tmp_path, capsys):
        payload = {"model": {"kind": "six_level", "omega1": [2.0, 0.0],
                             "omega2": [0.0, 2.0],
                             "h0_diag": [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]}}
        cfg = write_config(tmp_path, payload)
        assert main(["models", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "gauge phases" in out
        assert "degenerate for every choice" in out

    def test_six_level_uncoupled_ring_notes_degenerate_spectrum(
            self, tmp_path, capsys):
        payload = {"model": {**SIX_LEVEL_MODEL, "omega1": 0.0, "omega2": 0.0}}
        cfg = write_config(tmp_path, payload)
        assert main(["models", "--config", cfg, "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "gauge phases beta: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]" in out
        assert out.splitlines()[-1] == (
            "  note: spectrum is degenerate for every choice of the Rabi "
            "phases (the ring's loop product has a fixed argument)")

    def test_six_level_modulus_mismatch_diagnosed(self, tmp_path, capsys):
        payload = {"model": {"kind": "six_level", "omega1": [1.0, 0.0],
                             "omega2": [2.0, 0.0],
                             "h0_diag": [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]}}
        cfg = write_config(tmp_path, payload)
        assert main(["models", "--config", cfg, "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "unequal moduli" in err

    def test_six_level_huge_rabi_frequencies_stay_finite(self, tmp_path,
                                                         capsys):
        # six ring entries of modulus 5e149 multiply to ~1.6e897
        payload = {"model": {"kind": "six_level", "omega1": [1e150, 0.0],
                             "omega2": [1e150, 0.0],
                             "h0_diag": [-3, -2, -1, 1, 2, 3]}}
        cfg = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["models", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out and "inf" not in out
        # c_1 = 5e149 exp(i pi / 6), and the pairs of the spectrum found
        assert "(4.3301270189e+149+2.5e+149j)" in out
        assert "degenerate for every choice" in out

    def test_six_level_huge_rabi_frequencies_print_no_roundoff(self, tmp_path,
                                                              capsys):
        # rounded to 9 decimals, the spectrum's two zeros came out as
        # -1.8e+134 and 9.1e+133 and each degenerate pair as two numbers
        payload = {"model": {"kind": "six_level", "omega1": [1e150, 0.0],
                             "omega2": [1e150, 0.0],
                             "h0_diag": [-3, -2, -1, 1, 2, 3]}}
        cfg = write_config(tmp_path, payload)
        assert main(["models", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ("circulant spectrum (sorted): [-8.6602540378e+149, "
                "-8.6602540378e+149, 0.0, 0.0, 8.6602540378e+149, "
                "8.6602540378e+149]") in lines
        assert ("gauge phases beta: [0.0, -2.617993878, -2.094395102, "
                "-1.570796327, -4.188790205, -3.665191429]") in lines

    def test_six_level_prints_no_roundoff_digits(self, tmp_path, capsys):
        # the residual is ~5e-16 and two spectrum zeros come out as -0.0
        # and 0.0; neither is a fact about the model
        cfg = write_config(tmp_path, {"model": SIX_LEVEL_MODEL})
        assert main(["models", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "gauge residual: below 1e-10 of the coupling" in lines
        assert ("circulant spectrum (sorted): [-0.866025404, -0.866025404, "
                "0.0, 0.0, 0.866025404, 0.866025404]") in lines

    def test_rejects_flags_it_does_not_read(self, tmp_path, capsys):
        # steps and the sampling seed are config-only, for every command
        cfg = write_config(tmp_path, {"model": FOUR_LEVEL["model"]})
        for command in ["eigentraj", "evolve", "adiabaticity", "qpe",
                        "models", "sweep"]:
            flags = [["--steps", "100"], ["--seed", "3"]]
            if command not in ("eigentraj", "qpe"):
                flags.append(["--svg"])
            for flag in flags:
                with pytest.raises(SystemExit) as exit_:
                    main([command, "--config", cfg, "--out", str(tmp_path),
                          *flag])
                assert exit_.value.code == 2
                err = capsys.readouterr().err
                assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


class TestSixLevelSchedules:
    """The ring enters every schedule command in its circulant gauge."""

    CONFIG = {"model": SIX_LEVEL_MODEL, "pulses": {"kind": "tanh", "T": 1.0},
              "steps": 400}

    # a ring without couplings is circulant already, in every gauge
    @pytest.mark.parametrize("omega, gap", [(1.0, "8.192"), (0.0, "6.144")])
    def test_eigentraj_matches_the_raw_ring(self, tmp_path, capsys, omega, gap):
        # the gauge commutes with H0, so the spectrum is the raw ring's
        model = {**SIX_LEVEL_MODEL, "omega1": omega, "omega2": omega}
        cfg = write_config(tmp_path, {**self.CONFIG, "model": model})
        assert main(["eigentraj", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"min gap {gap}" in out
        table = np.loadtxt(tmp_path / "eigentraj.csv", delimiter=",", skiprows=1)
        f, g = PulsePair(T=1.0).values(table[:, 0])
        h0 = np.diag(SIX_LEVEL_MODEL["h0_diag"]).astype(complex)
        h1 = build_six_level(omega, omega)
        raw = np.linalg.eigvalsh(f[:, None, None] * h0 + g[:, None, None] * h1)
        assert np.abs(table[:, 1:] - raw).max() <= 1e-10
        # the smallest gap lies at the grid's last point
        gaps = np.diff(raw, axis=1).min(axis=1)
        points, min_gap, time = eigentraj_line(out)
        assert (points, time) == (401, table[np.argmin(gaps), 0]) == (401, 6)
        assert min_gap == pytest.approx(gaps.min(), rel=1e-8)

    def test_adiabaticity_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        assert main(["adiabaticity", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        assert "margin 0.1053" in capsys.readouterr().out

    def test_evolve_names_the_degenerate_spectrum(self, tmp_path, capsys):
        # every Rabi phase gives a doubly degenerate circulant spectrum
        cfg = write_config(tmp_path, self.CONFIG)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "H1 spectrum is degenerate" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_unequal_moduli_have_no_circulant_gauge(self, tmp_path, capsys):
        model = {**SIX_LEVEL_MODEL, "omega2": 2.0}
        cfg = write_config(tmp_path, {**self.CONFIG, "model": model})
        assert main(["eigentraj", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "unequal moduli" in capsys.readouterr().err


class TestSweep:
    def test_residual_monotone(self, tmp_path):
        payload = {"pulses": {"kind": "sech_masked", "T": 1.0, "tau": 1.0},
                   "et_values": [5, 10, 20, 40], "steps": 1500}
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["et", "residual", "final_fidelity"]
        residuals = [float(r[1]) for r in rows]
        for worse, better in zip(residuals, residuals[1:]):
            assert better <= 1.1 * worse
        assert float(rows[1][2]) >= 0.99

    def test_sudden_limit_reports_its_residual(self, tmp_path):
        # as E*T -> 0 the propagator tends to I, whose best phased-DFT fit
        # has residual exactly 2 (every overlap has modulus 1/2); its
        # overlaps nearly tie, and the fit still reports that residual
        payload = {"pulses": {"kind": "sech_masked", "T": 1.0, "tau": 1.0},
                   "et_values": [0.01, 20], "steps": 400}
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 2
        assert abs(float(rows[0][1]) - 2.0) <= 1e-3


def per_point_sweep(payload):
    """(et, residual, final_fidelity) of every sweep point, each from its
    own four-level model, forward evolution and phase estimation."""
    pulses = payload["pulses"]
    pair = PulsePair(T=pulses["T"], tau=pulses.get("tau"))
    v_over_e = complex(*payload["v_over_e"])
    window = tuple(payload["window"])
    rows = []
    for et in payload["et_values"]:
        energy = et / pair.T
        h0, h1 = build_four_level(energy, energy * v_over_e)
        sched = Schedule(pulses=pair, h0=h0, h1=h1, window=window,
                         steps=payload["steps"])
        _, samples, _, _ = evolve(sched, convergence_check=False)
        _, _, residual = factor_phased_dft(samples[-1], "forward")
        _, fidelity, _, _ = run_qpe(
            dataclasses.replace(sched, direction="inverse"), payload["phi"])
        rows.append((et, residual, fidelity[-1]))
    return np.array(rows)


class TestSweepReference:
    @pytest.mark.parametrize("payload", [
        {"pulses": {"kind": "sech_masked", "T": 0.75, "tau": 0.9},
         "et_values": [3, 6.1, 8, 10.5, 19.7, 33], "v_over_e": [0.8, -0.45],
         "window": [-4.0, 6.5], "steps": 600, "phi": 0.25},
        {"pulses": {"kind": "tanh", "T": 1.3},
         "et_values": [2.5, 7, 12.2, 16, 27.3, 40], "v_over_e": [1.0, 0.33],
         "window": [-7.8, 7.8], "steps": 500, "phi": 0.5},
    ], ids=["sech_asymmetric_window", "tanh"])
    def test_matches_per_point_runs(self, tmp_path, payload):
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        got = np.array(rows, dtype=float)
        want = per_point_sweep(payload)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1, np.abs(want)))


SWEEP_CONFIG = {"pulses": {"kind": "sech_masked", "T": 1.0, "tau": 1.0},
                "et_values": [10, 20], "steps": 300}


class TestStepCounts:
    # only evolve prints the convergence estimate, so only evolve pays
    # for the doubled-step rerun
    def test_evolve_keeps_its_convergence_rerun(self, tmp_path, capsys,
                                                propagated_steps):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert propagated_steps[0] == 3 * FOUR_LEVEL["steps"]
        out = capsys.readouterr().out
        estimate = float(out.split("convergence estimate ")[1].split()[0])
        assert np.isfinite(estimate)

    # an odd step count rounds up to whole CF4 intervals of two
    # exponentials; the samples still span the window
    @pytest.mark.parametrize("steps", [1, 3, 401])
    def test_odd_and_tiny_step_counts(self, tmp_path, steps):
        for command, config, meta in (
                ("evolve", FOUR_LEVEL, "propagator.meta.json"),
                ("qpe", QPE_CONFIG, "qpe_trace.meta.json")):
            cfg = write_config(tmp_path, {**config, "steps": steps})
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
            echoed = json.loads((tmp_path / meta).read_text())
            assert echoed["config"]["steps"] == steps
        _, rows = read_csv(tmp_path / "qpe_trace.csv")
        assert [float(rows[0][0]), float(rows[-1][0])] == [-6.0, 6.0]
        h0, h1 = build_four_level(10.0, 10.0 * (1 + 1j / 3))
        times, _, _, _ = evolve(Schedule(
            pulses=PulsePair(T=1.0, tau=1.0), h0=h0, h1=h1, steps=steps))
        assert [times[0], times[-1]] == [-6.0, 6.0]

    # every point is the E = 1 model scaled by E, and on the default,
    # symmetric window the inverse direction applies the forward
    # exponentials in reverse order, so one integration serves all points
    # in both directions
    @pytest.mark.parametrize("et_values", [[10, 20], [5, 8, 10.5, 20, 40]],
                             ids=["2_points", "5_points"])
    def test_sweep_integrates_each_direction_once(self, tmp_path,
                                                  propagated_steps, et_values):
        cfg = write_config(tmp_path, {**SWEEP_CONFIG, "et_values": et_values})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert propagated_steps[0] == SWEEP_CONFIG["steps"]

    # an asymmetric window is not its own mirror: the inverse direction
    # takes a second integration, over the mirrored window
    def test_sweep_on_asymmetric_window_integrates_twice(self, tmp_path,
                                                         propagated_steps):
        cfg = write_config(tmp_path, {**SWEEP_CONFIG, "window": [-5.0, 7.0]})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert propagated_steps[0] == 2 * SWEEP_CONFIG["steps"]

    def test_sweep_rank_check_before_integrating(self, tmp_path, capsys,
                                                 propagated_steps):
        # a real v_over_e makes the circulant spectrum degenerate
        cfg = write_config(tmp_path, {**SWEEP_CONFIG, "v_over_e": 1.0})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == (
            "physics precondition violated: H1 spectrum is degenerate; "
            "rank matching is undefined\n")
        assert propagated_steps[0] == 0

    def test_sweep_rejects_register_before_integrating(self, tmp_path, capsys,
                                                      propagated_steps):
        # every sweep point is read by a two-qubit register; r is no key
        for r in (2, 3):
            cfg = write_config(tmp_path, {**SWEEP_CONFIG, "r": r})
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
            assert "unknown key(s) r" in capsys.readouterr().err
        assert propagated_steps[0] == 0

    @pytest.mark.parametrize("r", [3, 100000])
    def test_qpe_rejects_register_before_integrating(self, tmp_path, capsys,
                                                    propagated_steps, r):
        # 2**100000 overflows a float, so the check must not form phi * 2**r
        cfg = write_config(tmp_path, {**QPE_CONFIG, "r": r})
        assert main(["qpe", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert propagated_steps[0] == 0
        err = capsys.readouterr().err
        assert f"register of {r} qubits" in err
        assert "Traceback" not in err

    # each command's largest array at n = 4: eigentraj's (steps + 1) * 16
    # stacked Hamiltonian values, evolve's phase grid of
    # (4 ceil(steps / 32) + 1) * 16 eigenvector values, sweep's coefficients
    # of its exponentials, one per step
    @pytest.mark.parametrize("command, payload, limit", [
        ("eigentraj", {**FOUR_LEVEL, "steps": 10**12}, 1048575),
        ("evolve", {**FOUR_LEVEL, "steps": 10**12}, 8388576),
        ("evolve", {**FOUR_LEVEL, "steps": 10**400}, 8388576),
        ("sweep", {**SWEEP_CONFIG, "steps": 10**12}, 2**24),
    ], ids=["eigentraj", "evolve", "evolve_beyond_float", "sweep"])
    def test_rejects_oversized_grid_before_allocating(
            self, tmp_path, capsys, propagated_steps, command, payload, limit):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: steps: at most {limit} ")
        assert "more than 2**24 values" in err
        assert propagated_steps[0] == 0

    @pytest.mark.parametrize("command, payload", [
        ("adiabaticity", {**FOUR_LEVEL, "steps": 1048576}),
        ("evolve", {**FOUR_LEVEL, "steps": 8388577}),
        ("qpe", {**QPE_CONFIG, "steps": 2**24 + 1}),
    ], ids=["adiabaticity", "evolve", "qpe"])
    def test_rejects_one_step_past_the_bound(self, tmp_path, capsys,
                                             propagated_steps, command,
                                             payload):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "more than 2**24 values" in capsys.readouterr().err
        assert propagated_steps[0] == 0

    def test_rejects_a_model_too_large_to_step(self, tmp_path, capsys,
                                               propagated_steps):
        # 1024 real-form step matrices of a 65-level model pass 2**24 values
        # at any step count
        h = np.eye(65).tolist()
        cfg = write_config(tmp_path, {**FOUR_LEVEL, "steps": 1, "model": {
            "kind": "custom", "h0": h, "h1": h}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model: 65 levels are too many")
        assert propagated_steps[0] == 0

    def test_qpe_runs_past_the_scan_grid_bound(self, tmp_path, capsys,
                                               propagated_steps):
        # eigentraj stops at 1048575 steps on this model, but qpe holds no
        # grid of steps + 1 Hamiltonians
        cfg = write_config(tmp_path, {**QPE_CONFIG, "steps": 1048576})
        assert main(["qpe", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert propagated_steps[0] == 1048576
        assert "recovered bits 11 (target 11" in capsys.readouterr().out

    # a config number, or the phase scale (max|H0| + max|H1|) (t_max - t_min)
    # at the largest energy, at or beyond 2**500 ~ 3.3e150
    @pytest.mark.parametrize("command, payload", [
        ("qpe", {**QPE_CONFIG, "model": {**QPE_CONFIG["model"], "E": 1e308}}),
        ("qpe", {**QPE_CONFIG, "model": {**QPE_CONFIG["model"], "E": 1e150}}),
        ("sweep", {**SWEEP_CONFIG, "et_values": [1e308, 1e200, 20]}),
        ("sweep", {**SWEEP_CONFIG, "et_values": [20, 1e150]}),
        ("sweep", {"pulses": {"kind": "tanh", "T": 1e-300},
                   "et_values": [1e150], "steps": 20}),
        ("evolve", {**FOUR_LEVEL,
                    "model": {**FOUR_LEVEL["model"], "V": [1e154, 3.33]}}),
        ("adiabaticity", {**FOUR_LEVEL,
                          "model": {**FOUR_LEVEL["model"], "V": [1e154, 3.33]}}),
        ("evolve", {**FOUR_LEVEL, "window": [-1e150, 1e150]}),
    ], ids=["qpe_E", "qpe_E_scale", "sweep_et", "sweep_et_scale",
            "sweep_energy_inf", "evolve_V", "adiabaticity_V",
            "evolve_window_scale"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_scale_before_integrating(
            self, tmp_path, capsys, propagated_steps, command, payload):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "below 2**500" in err
        assert propagated_steps[0] == 0

    # below the scale bound, but one step spans ~1e100 radians: no number
    # of squarings keeps a step matrix unitary to 1e-8, so the run stops
    # before forming one
    @pytest.mark.parametrize("command, payload", [
        ("sweep", {"pulses": {"kind": "sech_masked", "T": 1.0, "tau": 1.0},
                   "et_values": [1e100, 20], "steps": 20}),
        ("qpe", {**QPE_CONFIG, "model": {"kind": "four_level", "E": 1e100,
                                         "V": [1e100, 3.3e99]},
                 "steps": 20}),
    ], ids=["sweep_et", "qpe_E"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unresolved_steps_exit_numerical_code(self, tmp_path, capsys,
                                                  monkeypatch, command,
                                                  payload):
        formed = []
        monkeypatch.setattr(_kernels, "_step_matrices",
                            lambda *args: formed.append(args))
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: step exponent norm theta = ")
        assert "needs s = 334 halvings" in err
        assert "Traceback" not in err
        assert formed == []


class TestConfigErrors:
    # message: the start of what follows "config error: ", which names the
    # rule the row breaks
    @pytest.mark.parametrize("command, payload, message", [
        ("qpe", {**QPE_CONFIG, "steps": "x"}, "steps:"),
        ("qpe", {**QPE_CONFIG, "window": "ab"}, "window:"),
        ("sweep", {**SWEEP_CONFIG, "phi": 2.0}, "phi:"),
        ("sweep", {**SWEEP_CONFIG, "steps": 0}, "steps:"),
        ("qpe", {**QPE_CONFIG, "steps": True}, "steps:"),
        ("sweep", {**SWEEP_CONFIG, "phi": False}, "phi:"),
        ("evolve", {**FOUR_LEVEL, "model": {**FOUR_LEVEL["model"], "E": True}},
         "model.E:"),
        ("evolve", {**FOUR_LEVEL,
                    "model": {**FOUR_LEVEL["model"], "V": [True, 3.0]}},
         "model.V:"),
        ("sweep", {**SWEEP_CONFIG, "et_values": [True, 20.0]}, "et_values[0]:"),
        ("eigentraj", {**FOUR_LEVEL, "window": [False, 4.0]}, "window:"),
        ("models", {"model": {"kind": "six_level", "omega1": [2.0, 0.0],
                              "omega2": [0.0, 2.0],
                              "h0_diag": [-2.5, -1.5, -0.5, 0.5, 1.5, True]}},
         "model.h0_diag:"),
        ("evolve", {**FOUR_LEVEL,
                    "model": {**FOUR_LEVEL["model"], "E": float("nan")}},
         "model.E:"),
        ("evolve", {**FOUR_LEVEL,
                    "model": {**FOUR_LEVEL["model"], "E": float("inf")}},
         "model.E:"),
        ("evolve", {**FOUR_LEVEL, "pulses": {"kind": "sech_masked",
                                             "T": True, "tau": "1"}},
         "pulses.T:"),
        ("qpe", {**QPE_CONFIG, "shots": True}, "shots:"),
        # the rate 1/T has no finite value, so neither has the coupling
        ("adiabaticity", {**FOUR_LEVEL, "pulses": {"kind": "tanh", "T": 5e-324},
                          "steps": 20}, "pulses: a nonadiabatic coupling"),
        # E = E*T / T underflows to 0 and overflows to inf
        ("sweep", {"pulses": {"kind": "tanh", "T": 2.0},
                   "et_values": [5e-324], "steps": 20}, "et_values:"),
        ("sweep", {"pulses": {"kind": "tanh", "T": 1e-300},
                   "et_values": [1e300], "steps": 20}, "et_values[0]:"),
        # the sampler draws 64-bit counts
        ("qpe", {**QPE_CONFIG, "shots": 2**63}, "shots:"),
        ("qpe", {**QPE_CONFIG, "shots": 10**400}, "shots:"),
        # custom model rows that are not lists
        ("evolve", {**FOUR_LEVEL, "model": {"kind": "custom", "h0": [1, 2],
                                            "h1": [[0, 1], [1, 0]]}},
         "model.h0:"),
        ("evolve", {**FOUR_LEVEL, "model": {"kind": "custom",
                                            "h0": [[1, 2], None],
                                            "h1": [[0, 1], [1, 0]]}},
         "model.h0:"),
        # rules the config layer alone checks
        ("evolve", {**FOUR_LEVEL, "model": {**FOUR_LEVEL["model"], "E": 0}},
         "model.E:"),
        ("evolve", {**FOUR_LEVEL, "model": {**FOUR_LEVEL["model"], "E": -1}},
         "model.E:"),
        ("evolve", {**FOUR_LEVEL, "pulses": {"kind": "tanh", "T": 0}},
         "pulses.T:"),
        ("evolve", {**FOUR_LEVEL, "pulses": {"kind": "sech_masked",
                                             "T": 1.0, "tau": -1}},
         "pulses.tau:"),
        ("qpe", {**QPE_CONFIG, "r": 0}, "r:"),
        ("evolve", {**FOUR_LEVEL, "steps": 0}, "steps:"),
        # one pulse class takes an optional tau, but each kind keeps its keys
        ("evolve", {**FOUR_LEVEL, "pulses": {"kind": "tanh", "T": 1, "tau": 1}},
         "pulses: unknown key(s) tau"),
        ("evolve", {**FOUR_LEVEL, "pulses": {"kind": "sech_masked", "T": 1}},
         "pulses: missing required key(s) tau"),
    ], ids=["qpe_steps", "qpe_window", "sweep_phi", "sweep_steps",
            "qpe_steps_bool", "sweep_phi_bool", "model_E_bool",
            "model_V_bool", "sweep_et_bool", "window_bool", "h0_diag_bool",
            "model_E_nan", "model_E_inf", "pulses_bool_and_string",
            "qpe_shots_bool", "adiabaticity_rate_overflow",
            "sweep_energy_underflow",
            "sweep_energy_overflow", "qpe_shots_2_63", "qpe_shots_10_400",
            "custom_scalar_rows", "custom_null_row", "model_E_zero",
            "model_E_negative", "tanh_T_zero", "sech_tau_negative",
            "qpe_r_zero", "evolve_steps_zero", "tanh_with_tau",
            "sech_without_tau"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exits_config_code_without_traceback(self, tmp_path, capsys,
                                                 command, payload, message):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert "Traceback" not in err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FOUR_LEVEL, "banana": 1})
        assert main(["eigentraj", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "banana" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["eigentraj", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_json_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"model": \n!}')
        assert main(["eigentraj", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_integer_literal_beyond_digit_limit(self, tmp_path, capsys):
        # a 5001-digit integer is past Python's limit on int/str
        # conversion, so json.dumps cannot write it and json.loads
        # cannot read it
        path = tmp_path / "big.json"
        path.write_text('{"steps": 1' + "0" * 5000 + "}")
        assert main(["evolve", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "Traceback" not in err

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"model": "\u00c4"}'.encode("latin-1"))
        assert main(["models", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: "
                              f"'utf-8' codec can't decode byte 0xc4")
        assert err.count("\n") == 1

    def test_config_nested_too_deeply(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["models", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: JSON nested too deeply\n")

    @pytest.mark.parametrize("out", ["file", "file/sub"],
                             ids=["existing_file", "under_a_file"])
    def test_out_is_not_a_directory(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        cfg = write_config(tmp_path, {"model": FOUR_LEVEL["model"]})
        assert main(["models", "--config", cfg,
                     "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory "
                              f"{tmp_path / out}: ")
        assert err.count("\n") == 1
        assert (tmp_path / "file").read_text() == ""

    def test_bad_phi_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**QPE_CONFIG, "phi": 1.5})
        assert main(["qpe", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "phi" in capsys.readouterr().err

    def test_one_level_model_names_the_rule(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FOUR_LEVEL, "model": {
            "kind": "custom", "h0": [[1]], "h1": [[1]]}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: a model needs at least 2 levels" in err
        assert "Traceback" not in err

    def test_wrong_model_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FOUR_LEVEL,
                                      "model": {"kind": "five_level"}})
        assert main(["eigentraj", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "five_level" in capsys.readouterr().err


# A fresh interpreter per case: this test process has scipy loaded already.
SRC = Path(__file__).resolve().parents[1] / "src"
README_TRAJ = {k: v for k, v in QPE_CONFIG.items() if k not in ("phi", "r")}


def fresh_env(**changes):
    """os.environ with src/ first on PYTHONPATH and the changes made: a
    string sets its variable, None unsets it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    for var, value in changes.items():
        env.pop(var, None)
        if value is not None:
            env[var] = value
    return env


def run_fresh(script, tmp_path, payload=None, **env):
    """Run script in a new interpreter that imports the package from src/,
    with the environment changes env; return its stdout.  CONFIG and OUT
    name a config written from payload and an output directory."""
    cfg = write_config(tmp_path, payload or {})
    prelude = f"CONFIG, OUT = {cfg!r}, {str(tmp_path / 'out')!r}\n"
    proc = subprocess.run([sys.executable, "-c", prelude + script],
                          env=fresh_env(**env), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportSplit:
    """Only the commands that integrate import the propagator, and with it
    scipy.sparse.csgraph, which finds the renumbering; no command imports
    scipy.optimize, and each loads only the modules on its allowlist."""

    def test_import_loads_neither_scipy_nor_propagator(self, tmp_path):
        out = run_fresh(
            "import sys\n"
            "import circulant_qft.cli\n"
            "print('scipy' in sys.modules,\n"
            "      'circulant_qft.propagator' in sys.modules)\n", tmp_path)
        assert out.strip() == "False False"

    # The stdlib modules that src/ imports by name, and locale, which
    # argparse loads as it parses.  They are loaded before main(), and so
    # are numpy and, for the commands that integrate, scipy.sparse.csgraph
    # with all it imports; what main() loads beyond them must be the
    # package, numpy.linalg or numpy.fft.
    PRELOAD = ("sys, numpy, argparse, dataclasses, itertools, json, locale, "
               "math, pathlib, threading")
    ALLOWED = ("circulant_qft", "numpy.linalg", "numpy.fft")

    def loads(self, tmp_path, command, payload, preload=""):
        """(exit code, whether scipy.optimize is loaded, the modules main()
        loads beyond PRELOAD and preload) of one fresh run."""
        out = run_fresh(
            f"import {self.PRELOAD}{preload}\n"
            "before = set(sys.modules)\n"
            "from circulant_qft.cli import main\n"
            f"code = main([{command!r}, '--config', CONFIG, '--out', OUT])\n"
            "print(code, 'scipy.optimize' in sys.modules,\n"
            "      *sorted(set(sys.modules) - before))\n", tmp_path, payload)
        code, optimize, *loaded = out.splitlines()[-1].split()
        return int(code), optimize == "True", [
            m for m in loaded if m.split(".")[0] != self.ALLOWED[0]
            and not m.startswith(self.ALLOWED[1:])]

    @pytest.mark.parametrize("command, payload", [
        ("eigentraj", README_TRAJ),
        ("adiabaticity", README_TRAJ),
        ("models", {"model": QPE_CONFIG["model"]}),
    ])
    def test_command_runs_without_scipy(self, tmp_path, command, payload):
        assert self.loads(tmp_path, command, payload) == (0, False, [])

    @pytest.mark.parametrize("command, payload", [
        ("evolve", {**README_TRAJ, "steps": 400}),
        ("qpe", {**QPE_CONFIG, "steps": 400}),
        ("sweep", {"pulses": QPE_CONFIG["pulses"], "et_values": [10, 20],
                   "steps": 400}),
    ])
    def test_integrating_command_runs_without_scipy_optimize(
            self, tmp_path, command, payload):
        assert self.loads(tmp_path, command, payload,
                          ", scipy.sparse.csgraph") == (0, False, [])

    def test_evolve_still_integrates(self, tmp_path):
        out = run_fresh(
            "import sys\n"
            "from circulant_qft.cli import main\n"
            "code = main(['evolve', '--config', CONFIG, '--out', OUT])\n"
            "print('exit', code, 'scipy' in sys.modules)\n", tmp_path,
            {**README_TRAJ, "steps": 400})
        assert out.splitlines()[-1] == "exit 0 True"

    def test_stepping_leaves_numpy_ma_unimported(self, tmp_path):
        # np.union1d and np.unique load numpy.ma (~15 ms of a cold start)
        out = run_fresh(
            "import sys\n"
            "import numpy as np\n"
            "from circulant_qft import _kernels\n"
            "h0 = np.diag([-1.0, 0.0, 1.0]).astype(complex)\n"
            "h1 = np.roll(np.eye(3), 1, axis=0) + np.roll(np.eye(3), -1, axis=0)\n"
            "a, b = np.linspace(1, 0, 40), np.linspace(0, 1, 40)\n"
            "samples, _, _ = _kernels.propagate(h0, h1, a, b, np.array([0.1]),\n"
            "                                   np.array([0, 7, 20, 40]))\n"
            "print(samples.shape, 'numpy.ma' in sys.modules)\n", tmp_path)
        assert out.strip() == "(1, 4, 3, 3) False"


class TestEntryPoint:
    """`python -m circulant_qft`, which the `circulant-qft` script shares:
    run() ends the process with main()'s outputs and exit code, exits 1
    when stdout is closed or an output cannot be written, defaults BLAS to
    one thread and runs without the cyclic garbage collector."""

    @pytest.mark.parametrize("command, payload, code", [
        ("models", {"model": SIX_LEVEL_MODEL}, 0),
        ("evolve", {"pulses": FOUR_LEVEL["pulses"]}, 2),
        ("qpe", {**QPE_CONFIG, "model": {"kind": "four_level", "E": 1e100,
                                         "V": [1e100, 3.3e99]},
                 "steps": 20}, 3),
        ("eigentraj", {"model": {"kind": "custom",
                                 "h0": [[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 2, 0], [0, 0, 0, 3]],
                                 "h1": FOUR_LEVEL_H1()},
                       "pulses": {"kind": "tanh", "T": 1.0}, "steps": 50}, 4),
    ], ids=["ok", "missing_key", "unresolved_steps", "degenerate_h0"])
    def test_matches_main_in_process(self, tmp_path, monkeypatch, capsys,
                                     command, payload, code):
        argv = [command, "--config", write_config(tmp_path, payload),
                "--out", "out"]
        child, local = tmp_path / "child", tmp_path / "local"
        child.mkdir()
        local.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "circulant_qft", *argv], cwd=child,
            env=fresh_env(), capture_output=True, text=True, timeout=120)
        monkeypatch.chdir(local)
        assert main(argv) == code
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, *capsys.readouterr())
        written = lambda d: {p.name: p.read_bytes()
                             for p in sorted((d / "out").iterdir())}
        assert written(child) == written(local)

    # buffered or not, the write fails where run() writes main()'s stdout
    @pytest.mark.parametrize("unbuffered", [None, "1"],
                             ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_1_without_traceback(self, tmp_path,
                                                     unbuffered):
        cfg = write_config(tmp_path, {"model": SIX_LEVEL_MODEL})
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "circulant_qft", "models",
                 "--config", cfg, "--out", str(tmp_path)],
                stdout=write, stderr=subprocess.PIPE, text=True,
                env=fresh_env(PYTHONUNBUFFERED=unbuffered), timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")

    # as above: where run() writes main()'s stdout, buffered or not
    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"],
                             ids=["buffered", "unbuffered"])
    def test_full_stdout_exits_1_with_one_line(self, tmp_path, unbuffered):
        cfg = write_config(tmp_path, {"model": SIX_LEVEL_MODEL})
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "circulant_qft", "models",
                 "--config", cfg, "--out", str(tmp_path)],
                stdout=full, stderr=subprocess.PIPE, text=True,
                env=fresh_env(PYTHONUNBUFFERED=unbuffered), timeout=120)
        assert (proc.returncode, proc.stderr) == (
            1, "output error: [Errno 28] No space left on device\n")
        assert (tmp_path / "models.meta.json").is_file()

    # the message cannot be written where run() writes main()'s stderr,
    # buffered or not, nor at the shutdown flush.  The exit code stays.
    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command, payload, code", [
        ("models", None, 2),
        ("evolve", {**FOUR_LEVEL, "model": {"kind": "four_level", "E": 10.0,
                                            "V": 10.0}}, 4),
    ], ids=["config", "physics"])
    def test_full_stderr_keeps_the_exit_code(self, tmp_path, command, payload,
                                             code, unbuffered):
        cfg = (write_config(tmp_path, payload) if payload
               else str(tmp_path / "missing.json"))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "circulant_qft", command,
                 "--config", cfg, "--out", str(tmp_path / "out")],
                stdout=subprocess.PIPE, stderr=full, text=True,
                env=fresh_env(PYTHONUNBUFFERED=unbuffered), timeout=120)
        assert (proc.returncode, proc.stdout) == (code, "")

    # argparse's usage error goes to main()'s stderr; bytes of it left
    # behind by a failed write would fail the shutdown flush and exit 120.
    # The error writes nothing to stdout, so a full stdout must not change
    # the exit code either: even an empty write fails there.
    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"],
                             ids=["buffered", "unbuffered"])
    def test_full_stderr_keeps_the_usage_exit_code(self, unbuffered):
        argv = [sys.executable, "-m", "circulant_qft", "bogus"]
        env = fresh_env(PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=full,
                                  text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        piped = subprocess.run(argv, capture_output=True, text=True, env=env,
                               timeout=120)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (2, piped.stderr)
        assert proc.stderr.splitlines()[-1].startswith("circulant-qft: error: ")

    # argparse would drop a failed write of these, so run() writes them
    # itself: buffered or not, the write fails there, not silently and not
    # at the shutdown flush's exit 120
    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["models", "--help"]],
                             ids=["help", "version", "command_help"])
    def test_help_to_full_stdout_exits_1_with_one_line(self, argv):
        for unbuffered in (None, "1"):
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "circulant_qft", *argv],
                    stdout=full, stderr=subprocess.PIPE, text=True,
                    env=fresh_env(PYTHONUNBUFFERED=unbuffered), timeout=120)
            assert (unbuffered, proc.returncode, proc.stderr) == (
                unbuffered, 1,
                "output error: [Errno 28] No space left on device\n")

    # The stream table.  Each cell runs `models` (it imports no scipy) with
    # stdout and stderr each a file, a closed pipe, a descriptor closed at
    # start or /dev/full, for one outcome: success, a config error, --help
    # or a usage error.  The codes follow one rule: a config or usage error
    # exits 2 whatever the streams, and a command that writes to a stdout
    # that fails exits 1, quietly unless stdout is /dev/full.  No cell
    # prints a traceback, and nothing meant for stderr reaches stdout.
    # Cells left out as redundant:
    # - a pipe or file on both streams: test_matches_main_in_process;
    # - a closed pipe or /dev/full on stdout with stderr piped:
    #   test_closed_stdout_exits_1_without_traceback,
    #   test_full_stdout_exits_1_with_one_line and
    #   test_help_to_full_stdout_exits_1_with_one_line;
    # - /dev/full on stderr with stdout piped: the two
    #   test_full_stderr_keeps_* tests, for a config, physics and usage
    #   error, buffered and unbuffered;
    # - buffered and unbuffered runs of a closed descriptor: run() builds
    #   its stream itself, the same in both modes, so only the mode of a
    #   /dev/full stdout beside it can matter.
    STREAM_CELLS = [
        ("closed_fd", "file", "success", None),
        ("closed_fd", "file", "config", None),
        ("closed_fd", "file", "help", None),
        ("closed_fd", "file", "usage", None),
        ("file", "closed_fd", "success", None),
        ("file", "closed_fd", "config", None),
        ("file", "closed_fd", "help", None),
        ("file", "closed_fd", "usage", None),
        ("closed_fd", "closed_fd", "success", None),
        ("closed_fd", "closed_fd", "config", None),
        ("closed_pipe", "closed_fd", "help", None),
        ("full", "closed_fd", "success", None),
        ("full", "closed_fd", "success", "1"),
        ("closed_fd", "full", "config", None),
    ]

    # closes the descriptors listed in argv[1] ("1,2"), then runs the CLI
    # on the rest: the descriptors are closed when it starts
    CLOSE_THEN_RUN = (
        "import os, sys\n"
        "for fd in filter(None, sys.argv[1].split(',')):\n"
        "    os.close(int(fd))\n"
        "os.execv(sys.executable,\n"
        "         [sys.executable, '-m', 'circulant_qft', *sys.argv[2:]])\n")

    @pytest.mark.parametrize(
        "stdout, stderr, outcome, unbuffered", STREAM_CELLS,
        ids=["-".join(filter(None, (o, e, c, u and "unbuffered")))
             for o, e, c, u in STREAM_CELLS])
    def test_stream_table(self, tmp_path, stdout, stderr, outcome,
                          unbuffered):
        if "full" in (stdout, stderr) and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        cfg = write_config(tmp_path, {"model": SIX_LEVEL_MODEL})
        argv = {"success": ["models", "--config", cfg, "--out", str(tmp_path)],
                "config": ["models", "--config", str(tmp_path / "missing.json")],
                "help": ["--help"], "usage": ["bogus"]}[outcome]
        with contextlib.ExitStack() as stack:
            streams, closed = {}, []
            for fd, kind in ((1, stdout), (2, stderr)):
                if kind == "file":
                    streams[fd] = stack.enter_context(
                        open(tmp_path / f"fd{fd}", "w+"))
                elif kind == "full":
                    streams[fd] = stack.enter_context(open("/dev/full", "w"))
                elif kind == "closed_pipe":
                    read, streams[fd] = os.pipe()
                    os.close(read)
                    stack.callback(os.close, streams[fd])
                else:
                    streams[fd] = subprocess.DEVNULL
                    closed.append(fd)
            proc = subprocess.run(
                [sys.executable, "-c", self.CLOSE_THEN_RUN,
                 ",".join(map(str, closed)), *argv],
                stdout=streams[1], stderr=streams[2],
                env=fresh_env(PYTHONUNBUFFERED=unbuffered), timeout=120)
        out, err = ((tmp_path / f"fd{fd}").read_text()
                    if kind == "file" else None
                    for fd, kind in ((1, stdout), (2, stderr)))
        writes = outcome in ("success", "help")
        assert proc.returncode == (2 if not writes else
                                   0 if stdout == "file" else 1)
        if out is not None:
            first = {"success": "H0 diagonal:",
                     "help": "usage: circulant-qft"}.get(outcome, "")
            assert out.startswith(first) and (writes or out == "")
            assert "Traceback" not in out
        if err is not None:
            assert "Traceback" not in err
            if outcome == "config":
                assert err.startswith("config error: cannot read config")
                assert err.count("\n") == 1
            elif outcome == "usage":
                assert err.splitlines()[-1].startswith("circulant-qft: error: ")
            else:
                assert err == ("output error: [Errno 28] No space left on "
                               "device\n" if stdout == "full" else "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_main_leaves_the_callers_descriptors_alone(self, tmp_path):
        # the message stays in the caller's buffer; closing it then fails
        out = run_fresh(
            "import os, sys\n"
            "from circulant_qft.cli import main\n"
            "sys.stderr = full = open('/dev/full', 'w')\n"
            "code = main(['models', '--config', CONFIG + '.missing',\n"
            "             '--out', OUT])\n"
            "sys.stderr = sys.__stderr__\n"
            "rdev = os.fstat(full.fileno()).st_rdev\n"
            "print(code, rdev == os.stat('/dev/full').st_rdev)\n"
            "try:\n"
            "    full.close()\n"
            "except OSError:\n"
            "    pass\n", tmp_path)
        assert out.split() == ["2", "True"]

    def test_unmapped_exception_keeps_the_printed_output(self, tmp_path):
        script = (
            "import sys\n"
            "from circulant_qft import cli\n"
            "from circulant_qft.__main__ import run\n"
            "def failing(cfg, args):\n"
            "    print('partial')\n"
            "    raise RuntimeError('not mapped to an exit code')\n"
            "cli._COMMANDS['models'] = (failing, *cli._COMMANDS['models'][1:])\n"
            "sys.argv = ['circulant-qft', 'models', '--config',\n"
            f"            {write_config(tmp_path, {'model': SIX_LEVEL_MODEL})!r},\n"
            f"            '--out', {str(tmp_path / 'out')!r}]\n"
            "run()\n")
        proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "partial\n")
        assert proc.stderr.startswith("Traceback")
        assert proc.stderr.splitlines()[-1].startswith("RuntimeError")

    def test_unwritable_output_file_exits_1_with_one_line(self, tmp_path):
        # a directory squats on the sidecar, the first file models writes
        cfg = write_config(tmp_path, {"model": SIX_LEVEL_MODEL})
        (tmp_path / "out" / "models.meta.json").mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "circulant_qft", "models",
             "--config", cfg, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=fresh_env(), timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("output error: [Errno 21] ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command, payload, squatted", [
        ("eigentraj", FOUR_LEVEL, "eigentraj.csv"),
        ("eigentraj", FOUR_LEVEL, "eigentraj.svg"),
        ("qpe", QPE_CONFIG, "qpe_trace.meta.json"),
    ], ids=["csv", "svg", "meta"])
    def test_unwritable_output_returns_1_in_process(
            self, tmp_path, capsys, command, payload, squatted):
        cfg = write_config(tmp_path, payload)
        (tmp_path / "out" / squatted).mkdir(parents=True)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     *(["--svg"] if squatted.endswith(".svg") else [])]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("output error: ") and squatted in err
        assert err.count("\n") == 1

    BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    SHOW_BLAS = ("import os, circulant_qft.__main__\n"
                 f"print(*(os.environ.get(v) for v in {BLAS!r}))\n")

    def test_blas_threads_default_to_one(self, tmp_path):
        unset = dict.fromkeys(self.BLAS)
        assert run_fresh(self.SHOW_BLAS, tmp_path, **unset).split() == [
            "1", "1", "1"]

    def test_blas_threads_left_to_the_user(self, tmp_path):
        only_omp = {**dict.fromkeys(self.BLAS), "OMP_NUM_THREADS": "3"}
        assert run_fresh(self.SHOW_BLAS, tmp_path, **only_omp).split() == [
            "None", "3", "None"]

    def test_collector_is_off_before_numpy_loads(self, tmp_path):
        out = run_fresh("import gc, sys, circulant_qft.__main__\n"
                        "print(gc.isenabled(), 'numpy' in sys.modules)\n",
                        tmp_path)
        assert out.split() == ["False", "True"]

    def test_collector_stays_on_for_in_process_callers(self, tmp_path):
        out = run_fresh("import gc, circulant_qft.cli\n"
                        "print(gc.isenabled())\n", tmp_path)
        assert out.split() == ["True"]

    def test_exit_runs_atexit_handlers_after_freezing(self, tmp_path, capsys):
        # run() ends the child through sys.exit, and run_fresh checks that
        # the child's exit code is 0
        out = run_fresh(
            "import atexit, gc, sys\n"
            "from circulant_qft.__main__ import run\n"
            "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['circulant-qft', 'models', '--config', CONFIG,\n"
            "            '--out', OUT]\n"
            "run()\n", tmp_path, {"model": SIX_LEVEL_MODEL})
        assert main(["models", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "out")]) == 0
        assert out == capsys.readouterr().out + "atexit True\n"

    def test_commands_leave_no_garbage_that_grows_with_their_size(
            self, tmp_path):
        """The CLI runs with the collector off, which is safe only while a
        command's cyclic garbage does not scale with its work.  What it
        leaves is the argparse parser that each main() call builds and the
        closures of json's encoder, one set per .meta.json; neither
        depends on the step count or the number of sweep points, so a
        larger run of the same command must leave exactly as many objects.
        Each config runs once before the counts, as importing the
        propagator leaves garbage of its own once."""
        sweep = lambda ets: {"pulses": FOUR_LEVEL["pulses"], "et_values": ets,
                             "steps": 300}
        sizes = {  # command: (small config, large config)
            "evolve": (dict(FOUR_LEVEL, steps=400), dict(FOUR_LEVEL, steps=4000)),
            "sweep": (sweep([10, 20]), sweep([8, 10, 12, 14, 16, 20, 30, 40])),
            "eigentraj": (FOUR_LEVEL, dict(FOUR_LEVEL, steps=4000)),
            "adiabaticity": (FOUR_LEVEL, dict(FOUR_LEVEL, steps=4000)),
        }
        runs = [[command, write_config(tmp_path, payload, f"{command}_{i}.json")]
                for command, pair in sizes.items()
                for i, payload in enumerate(pair)]
        out = run_fresh(
            "import contextlib, gc, io\n"
            "gc.disable()\n"
            "from circulant_qft.cli import main\n"
            "def left(command, config):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main([command, '--config', config, '--out', OUT]) == 0\n"
            "    return gc.collect()\n"
            f"runs = {runs!r}\n"
            "[left(*run) for run in runs]\n"
            "print(*(left(*run) for run in runs))\n", tmp_path)
        counts = [int(n) for n in out.split()]  # small, large, small, ...
        assert counts[1::2] == counts[::2]
        assert min(counts) > 0
