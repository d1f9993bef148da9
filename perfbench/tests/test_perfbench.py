"""Tests of the benchmark itself: run with `python -m pytest perfbench/tests`."""

import json
import shutil

import numpy as np
import pytest

import checks
import hostspeed
import reference
import run
import spans
import workloads
from reference import midpoint_propagator, pulse_pair, reference_propagator

SEEDS = range(6)


def small(cfg, steps=400):
    return dict(cfg, steps=steps)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    dumps = [json.dumps(make(seed).configs, sort_keys=True) for seed in SEEDS]
    assert dumps == [json.dumps(make(seed).configs, sort_keys=True)
                     for seed in SEEDS]
    assert len(set(dumps)) > 1


@pytest.mark.parametrize("seed", SEEDS)
def test_ring8_configs_meet_the_gap_precondition(seed):
    cfg = workloads.ring8_qpe(seed).configs["qpe.json"]
    h0, h1 = checks.model_matrices(cfg)
    assert h0.shape == (8, 8)
    assert np.count_nonzero(h0 - np.diag(np.diag(h0))) == 0
    assert np.array_equal(h1, h1.conj().T)
    assert all(np.array_equal(np.roll(h1[:, 0], k), h1[:, k]) for k in range(8))
    for spectrum in (np.diag(h0).real, np.linalg.eigvalsh(h1)):
        ordered = np.sort(spectrum)
        span = ordered[-1] - ordered[0]
        assert np.diff(ordered).min() >= workloads.MIN_GAP_SHARE * span - 1e-9
    assert cfg["phi"] * 8 == int(cfg["phi"] * 8)


def test_paper_sweep_keeps_its_hardest_point():
    for seed in SEEDS:
        ets = workloads.paper_qpe(seed).configs["sweep.json"]["et_values"]
        assert ets[0] == 8.0 and len(ets) == 4
        assert all(8.0 <= et <= 40.0 for et in ets)


def test_reference_matches_exact_exponential_of_constant_hamiltonian():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h0 = np.diag(rng.standard_normal(5)).astype(complex)
    h1 = 0.5 * (a + a.conj().T)
    coeff_a, coeff_b, total = 0.7, 1.3, 2.5
    w, v = np.linalg.eigh(coeff_a * h0 + coeff_b * h1)
    exact = (v * np.exp(-1j * w * total)) @ v.conj().T

    def constant(t):
        return np.full(len(t), coeff_a), np.full(len(t), coeff_b)

    # a constant H makes every step exact, so only roundoff remains
    u_ref, self_check = reference_propagator(h0, h1, constant, (0.0, total), 20)
    assert np.linalg.norm(u_ref - exact) <= 1e-12
    assert self_check <= 1e-12


def test_chunked_pairwise_product_keeps_time_order(monkeypatch):
    cfg = workloads.PAPER_CONFIG
    h0, h1 = checks.model_matrices(cfg)
    fg = pulse_pair(cfg["pulses"])
    steps, (t0, t1) = 45, checks.window(cfg)
    dt = (t1 - t0) / steps
    a, b = fg(t0 + (np.arange(steps) + 0.5) * dt)
    u = np.eye(4, dtype=complex)
    for ak, bk in zip(a, b):  # one step at a time, in time order
        w, v = np.linalg.eigh(ak * h0 + bk * h1)
        u = (v * np.exp(-1j * dt * w)) @ v.conj().T @ u
    monkeypatch.setattr(reference, "CHUNK", 7)  # odd chunks, odd pair counts
    assert np.linalg.norm(midpoint_propagator(h0, h1, fg, (t0, t1), steps)
                          - u) <= 1e-12


def test_reference_extrapolation_beats_plain_midpoint():
    cfg = workloads.PAPER_CONFIG
    h0, h1 = checks.model_matrices(cfg)
    fg = pulse_pair(cfg["pulses"])
    window = checks.window(cfg)
    u_ref, self_check = reference_propagator(h0, h1, fg, window, 250)
    coarse = midpoint_propagator(h0, h1, fg, window, 1000)
    assert self_check < 1e-3 * np.linalg.norm(coarse - u_ref)


@pytest.fixture()
def cli():
    import circulant_qft.cli as cli
    return cli


def run_command(cli, tmp_path, command, cfg, extra=()):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out),
                     *extra]) == 0
    return out


def ledger_failures(out, command, cfg, extra=()):
    """Failed invocations when one run with these outputs is recorded."""
    ledger = run.Ledger(checks)
    key = (command, f"{command}.json", tuple(extra))
    ledger.record(key, out, 0, "")
    ledger.check_contents({f"{command}.json": cfg})
    return ledger.failed


def test_tampered_propagator_counts_as_failure(cli, tmp_path):
    cfg = small(workloads.PAPER_CONFIG)
    out = run_command(cli, tmp_path, "evolve", cfg)
    assert ledger_failures(out, "evolve", cfg) == 0
    path = out / "propagator.csv"
    lines = path.read_text().splitlines()
    row, col, modulus, phase = lines[1].split(",")
    lines[1] = ",".join([row, col, repr(float(modulus) * 1.001), phase])
    path.write_text("\n".join(lines) + "\n")
    errors, _ = checks.check_command("evolve", out, cfg, [])
    assert errors and "unitary" in errors[0]
    assert ledger_failures(out, "evolve", cfg) == 1


def test_wrong_qpe_bits_count_as_failure(cli, tmp_path):
    cfg = dict(small(workloads.PAPER_CONFIG), phi=0.75, r=2)
    out = run_command(cli, tmp_path, "qpe", cfg, ["--svg"])
    assert ledger_failures(out, "qpe", cfg, ["--svg"]) == 0
    errors, values = checks.check_command("qpe", out, cfg, ["--svg"])
    assert not errors and values["infidelity"][0] < 0.05
    # the same outputs claimed for another phase read out the wrong bits
    wrong = dict(cfg, phi=0.25)
    errors, _ = checks.check_command("qpe", out, wrong, ["--svg"])
    assert any("bits" in e or "echo" in e for e in errors)
    (out / "qpe_trace.meta.json").write_text(json.dumps(
        {"artifact_version": "0.1.0", "command": "qpe", "config": wrong}))
    errors, _ = checks.check_command("qpe", out, wrong, ["--svg"])
    assert errors and "bits" in errors[0]
    assert ledger_failures(out, "qpe", wrong, ["--svg"]) == 1


def test_outputs_that_change_between_runs_count_as_failures(cli, tmp_path):
    cfg = small(workloads.PAPER_CONFIG)
    out = run_command(cli, tmp_path, "evolve", cfg)
    again = tmp_path / "again"
    shutil.copytree(out, again)
    (again / "propagator.meta.json").write_text("{}\n")
    ledger = run.Ledger(checks)
    key = ("evolve", "evolve.json", ())
    assert ledger.record(key, out, 0, "")
    assert ledger.record(key, again, 0, "")
    assert not ledger.record(key, out, 0, "")
    ledger.record(key, out, 1, "Traceback (most recent call last):\n")
    ledger.check_contents({"evolve.json": cfg})
    assert ledger.failed == 2
    assert any("differ" in f for f in ledger.failures())


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 4] and [5, 6]; [1, 4] has child [2, 3];
    # a child reaching past its parent is clipped, overlapping ones are
    # covered once
    tree = [[0, -1, 0.0, 10.0], [1, 0, 1.0, 4.0], [2, 1, 2.0, 3.0],
            [3, 0, 5.0, 6.0], [4, 3, 5.5, 7.0], [4, 3, 5.2, 5.8]]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 0.2, 1.5, 0.6])
    totals, root_total = spans.summarize(tree)
    assert root_total == 10.0
    assert totals[spans.SPANS[1]] == [1, pytest.approx(2.0)]
    assert totals[spans.SPANS[4]] == [2, pytest.approx(2.1)]


def test_nested_spans_sum_to_the_root_duration():
    tree = [[0, -1, 0.0, 3.0], [1, 0, 0.5, 2.0], [2, 1, 0.75, 1.25],
            [2, 1, 1.5, 1.75], [3, 0, 2.25, 2.5]]
    assert sum(spans.self_times(tree)) == pytest.approx(spans.summarize(tree)[1])


def test_import_breakdown_attributes_nested_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   site",
        "import time:      1000 |       5000 |     numpy",
        "import time:       200 |        200 |         numpy.testing",
        "import time:       300 |        500 |       scipy._lib",
        "import time:       400 |       3000 |     scipy",
        "import time:        50 |       3050 |     circulant_qft.propagator",
        "import time:        70 |       8120 |   circulant_qft",
        "import time:        30 |       8150 | circulant_qft.cli",
    ])
    assert spans.import_breakdown(text) == pytest.approx(
        {"numpy": 0.005, "scipy": 0.003, "circulant_qft": 150e-6,
         "total": 0.00815})


def test_tracer_wraps_every_binding_and_restores_them(cli, monkeypatch):
    import circulant_qft.propagator as propagator
    import circulant_qft.qpe as qpe

    original = propagator.evolve
    table = spans.WRAP_TABLE + [("circulant_qft.gone", "f", "gone.f", None),
                                ("circulant_qft.cli", "gone", "cli.gone", None)]
    monkeypatch.setattr(spans, "WRAP_TABLE", table)
    monkeypatch.setattr(spans, "SPANS", [entry[2] for entry in table])
    tracer = spans.Tracer()
    with tracer:
        assert qpe.evolve is not original and cli.evolve is not original
        assert qpe.evolve is propagator.evolve
    assert qpe.evolve is original and cli.evolve is original
    assert tracer.absent == ["gone.f", "cli.gone"]


def test_clock_scales_by_the_readings_around_each_interval():
    readings = iter([9.0, 0.2, 0.1, 0.3])  # the first one only warms up
    clock = hostspeed.Clock(lambda: next(readings))
    with clock.interval() as first:
        first.seconds = 2.0  # a time the caller measured inside it
    with clock.interval() as second:  # back to back: shares the 0.1 reading
        pass
    assert [s for _, s in clock.readings] == [0.2, 0.1, 0.3]
    ref = hostspeed.REFERENCE_S
    assert first.factor == pytest.approx(ref / 0.15)
    assert second.factor == pytest.approx(ref / 0.2)
    assert clock.scaled([first, second]) == pytest.approx(
        2.0 * ref / 0.15 + second.seconds * ref / 0.2)


def test_clock_without_kernel_leaves_timings_as_measured():
    clock = hostspeed.Clock(kernel=None)
    with clock.interval() as interval:
        interval.seconds = 1.5
    assert clock.scaled([interval]) == 1.5 and clock.readings == []


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((checks.Path(__file__).resolve().parents[2]
                        / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.layer_metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
