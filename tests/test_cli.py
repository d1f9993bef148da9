import json

import numpy as np
import pytest

from circulant_qft.cli import main
from circulant_qft.models import DegenerateSpectrumWarning

FOUR_LEVEL = {
    "model": {"kind": "four_level", "E": 10.0, "V": [10.0, 10.0 / 3.0]},
    "pulses": {"kind": "sech_masked", "T": 1.0, "tau": 1.0},
    "steps": 400,
}

QPE_CONFIG = {
    "model": {"kind": "four_level", "E": 10.0, "V": [10.0, 10.0 / 3.0]},
    "pulses": {"kind": "sech_masked", "T": 1.0, "tau": 1.0},
    "steps": 4000,
    "phi": 0.75,
    "r": 2,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestEigentraj:
    def test_writes_csv_and_meta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        assert main(["eigentraj", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "eigentraj.csv")
        assert header == ["t", "eps_0", "eps_1", "eps_2", "eps_3"]
        assert len(rows) == 401
        meta = json.loads((tmp_path / "eigentraj.meta.json").read_text())
        assert meta["config"]["model"]["kind"] == "four_level"
        assert "min gap" in capsys.readouterr().out

    def test_no_crossings_in_paper_window(self, tmp_path):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        main(["eigentraj", "--config", cfg, "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "eigentraj.csv")
        data = np.array([[float(c) for c in row] for row in rows])
        energies = data[:, 1:]
        mask = np.abs(data[:, 0]) <= 4.0
        assert np.diff(energies[mask], axis=1).min() > 0

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
        # a real V makes the circulant spectrum degenerate: the model warns,
        # and rank matching has no end state to predict, as in qpe
        payload = {**FOUR_LEVEL, "model": {"kind": "four_level", "E": 10.0,
                                           "V": 10.0}}
        cfg = write_config(tmp_path, payload)
        with pytest.warns(DegenerateSpectrumWarning):
            assert main(["evolve", "--config", cfg,
                         "--out", str(tmp_path)]) == 4
        assert "physics precondition violated" in capsys.readouterr().err
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

    def test_six_level_equal_moduli_reports_gauge(self, tmp_path, capsys):
        payload = {"model": {"kind": "six_level", "omega1": [2.0, 0.0],
                             "omega2": [0.0, 2.0],
                             "h0_diag": [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]}}
        cfg = write_config(tmp_path, payload)
        assert main(["models", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "gauge phases" in out
        assert "degenerate for every choice" in out

    def test_six_level_modulus_mismatch_diagnosed(self, tmp_path, capsys):
        payload = {"model": {"kind": "six_level", "omega1": [1.0, 0.0],
                             "omega2": [2.0, 0.0],
                             "h0_diag": [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]}}
        cfg = write_config(tmp_path, payload)
        assert main(["models", "--config", cfg, "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "unequal moduli" in err

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

    def test_sweep_point_integrates_twice(self, tmp_path, propagated_steps):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert propagated_steps[0] == 4 * SWEEP_CONFIG["steps"]

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

    # eigentraj would hold (steps + 1) * 16 complex values for these
    @pytest.mark.parametrize("command, payload", [
        ("eigentraj", {**FOUR_LEVEL, "steps": 10**12}),
        ("evolve", {**FOUR_LEVEL, "steps": 10**12}),
        ("evolve", {**FOUR_LEVEL, "steps": 10**400}),
        ("sweep", {**SWEEP_CONFIG, "steps": 10**12}),
    ], ids=["eigentraj", "evolve", "evolve_beyond_float", "sweep"])
    def test_rejects_oversized_grid_before_allocating(
            self, tmp_path, capsys, propagated_steps, command, payload):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error: steps: at most 1048575" in capsys.readouterr().err
        assert propagated_steps[0] == 0


class TestConfigErrors:
    @pytest.mark.parametrize("command, payload", [
        ("qpe", {**QPE_CONFIG, "steps": "x"}),
        ("qpe", {**QPE_CONFIG, "window": "ab"}),
        ("sweep", {**SWEEP_CONFIG, "phi": 2.0}),
        ("sweep", {**SWEEP_CONFIG, "steps": 0}),
        ("qpe", {**QPE_CONFIG, "steps": True}),
        ("sweep", {**SWEEP_CONFIG, "phi": False}),
        ("evolve", {**FOUR_LEVEL, "model": {**FOUR_LEVEL["model"], "E": True}}),
        ("evolve", {**FOUR_LEVEL,
                    "model": {**FOUR_LEVEL["model"], "V": [True, 3.0]}}),
        ("sweep", {**SWEEP_CONFIG, "et_values": [True, 20.0]}),
        ("eigentraj", {**FOUR_LEVEL, "window": [False, 4.0]}),
        ("models", {"model": {"kind": "six_level", "omega1": [2.0, 0.0],
                              "omega2": [0.0, 2.0],
                              "h0_diag": [-2.5, -1.5, -0.5, 0.5, 1.5, True]}}),
        ("evolve", {**FOUR_LEVEL,
                    "model": {**FOUR_LEVEL["model"], "E": float("nan")}}),
        ("evolve", {**FOUR_LEVEL,
                    "model": {**FOUR_LEVEL["model"], "E": float("inf")}}),
        ("evolve", {**FOUR_LEVEL, "pulses": {"kind": "sech_masked",
                                             "T": True, "tau": "1"}}),
        ("qpe", {**QPE_CONFIG, "shots": True}),
        ("adiabaticity", {**FOUR_LEVEL, "steps": 1}),
    ], ids=["qpe_steps", "qpe_window", "sweep_phi", "sweep_steps",
            "qpe_steps_bool", "sweep_phi_bool", "model_E_bool",
            "model_V_bool", "sweep_et_bool", "window_bool", "h0_diag_bool",
            "model_E_nan", "model_E_inf", "pulses_bool_and_string",
            "qpe_shots_bool", "adiabaticity_one_step"])
    def test_exits_config_code_without_traceback(self, tmp_path, capsys,
                                                 command, payload):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
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

    def test_bad_phi_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**QPE_CONFIG, "phi": 1.5})
        assert main(["qpe", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "phi" in capsys.readouterr().err

    def test_wrong_model_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FOUR_LEVEL,
                                      "model": {"kind": "five_level"}})
        assert main(["eigentraj", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "five_level" in capsys.readouterr().err
