"""main() on mutated README configs: an exit code, never an exception.

Each example takes one subcommand's README config, shortened to 20 steps
on every command but models, which takes none, with every optional key
the command accepts set explicitly (window, direction, shots, v_over_e,
phi), replaces one to three of its values (at any depth, steps included)
with a hostile JSON value and runs the command.  evolve also runs on a
custom model and models on a six-level one, so every model kind is
fuzzed, and every top-level key of every config is replaced in some
example of every run, as are model.E, pulses.T and pulses.tau, which
only the config layer checks.  One more test writes raw bytes as the
config file, so that text which is not UTF-8 or not JSON, and JSON
nested past the recursion limit, reach the config reader.  Whatever the
input, main() must return one of the documented exit codes, no exception
may escape and no RuntimeWarning may be raised.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circulant_qft.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PAPER_MODEL = {"kind": "four_level", "E": 10.0, "V": [10.0, 3.3333333333]}
PAPER_PULSES = {"kind": "sech_masked", "T": 1.0, "tau": 1.0}
FIGURE = {"model": PAPER_MODEL, "pulses": PAPER_PULSES, "steps": 20,
          "window": [-6.0, 6.0]}
DIRECTED = {**FIGURE, "direction": "forward"}
# a two-level ring, entries both as numbers and as [re, im] pairs:
# H1 = [[0, 1], [1, 0]] is circulant with spectrum +-1
CUSTOM_MODEL = {"kind": "custom", "h0": [[-1.0, 0], [0, [1.0, 0.0]]],
                "h1": [[0, 1.0], [[1.0, 0.0], 0]]}
SIX_LEVEL_MODEL = {"kind": "six_level", "omega1": [0.5, 0.2],
                   "omega2": [0.5, 0.2], "h0_diag": [-3, -2, -1, 1, 2, 3]}
# name: (command, config)
CONFIGS = {
    "eigentraj": ("eigentraj", DIRECTED),
    "evolve": ("evolve", DIRECTED),
    "evolve_custom": ("evolve", {**DIRECTED, "model": CUSTOM_MODEL}),
    "adiabaticity": ("adiabaticity", DIRECTED),
    "qpe": ("qpe", {**FIGURE, "phi": 0.75, "r": 2, "shots": 10}),
    "models": ("models", {"model": PAPER_MODEL}),
    "models_six_level": ("models", {"model": SIX_LEVEL_MODEL}),
    "sweep": ("sweep", {"pulses": PAPER_PULSES, "et_values": [5, 10, 20, 40],
                        "steps": 20, "window": [-6.0, 6.0],
                        "v_over_e": [1.0, 0.3333333333], "phi": 0.75}),
}
TOP_LEVEL_KEYS = [(name, key) for name, (_, cfg) in CONFIGS.items()
                  for key in cfg]
# nested values that only the config layer checks, on every config with them
NESTED_PATHS = [(name, (section, key)) for name, (_, cfg) in CONFIGS.items()
                for section, key in [("model", "E"), ("pulses", "T"),
                                     ("pulses", "tau")]
                if key in cfg.get(section, {})]
EXIT_CODES = {0, 2, 3, 4}


def leaf_paths(node, prefix=()):
    """Key/index paths of every value in a config, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths.extend(leaf_paths(child, prefix + (key,)))
    return paths


def replaced(node, path, value):
    """Copy of node with the value at path replaced."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: replaced(node[head], rest, value)}
    return [replaced(child, rest, value) if i == head else child
            for i, child in enumerate(node)]


HOSTILE_SCALARS = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e-308,
    1e154, -1e154, 0, -1, 10**12, 10**400, True, False, None, "", "1", "x",
])
HOSTILE = st.recursive(HOSTILE_SCALARS,
                       lambda inner: st.lists(inner, max_size=4),
                       max_leaves=8)


def mutate(draw, cfg, times):
    """cfg with `times` values at drawn paths replaced by hostile ones."""
    paths = leaf_paths(cfg)
    for _ in range(times):
        path = draw(st.sampled_from(paths))
        try:
            cfg = replaced(cfg, path, draw(HOSTILE))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed the path
    return cfg


@st.composite
def mutated_configs(draw):
    command, cfg = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
    return command, mutate(draw, cfg, draw(st.integers(1, 3)))


def raw_exit_code(command, data):
    """main()'s exit code on a config file holding the bytes data."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(data)
        return main([command, "--config", str(path), "--out", tmp])


def exit_code(command, cfg):
    return raw_exit_code(command, json.dumps(cfg).encode())


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(mutated_configs())
@example(("evolve", replaced(FIGURE, ("model", "E"), float("nan"))))
@example(("evolve", replaced(FIGURE, ("model", "E"), 1e150)))
@example(("evolve", replaced(CONFIGS["evolve_custom"][1], ("model", "h0"), [1, 2])))
@example(("evolve", replaced(FIGURE, ("model", "E"), float("inf"))))
@example(("qpe", replaced(CONFIGS["qpe"][1], ("r",), 100000)))
@example(("adiabaticity",
          replaced(replaced(FIGURE, ("model", "V"), [10.0, 1e308]),
                   ("pulses", "tau"), 1e308)))
@example(("adiabaticity", replaced(FIGURE, ("steps",), 1)))
@example(("adiabaticity", replaced(FIGURE, ("pulses",),
                                   {"kind": "tanh", "T": 5e-324})))
@example(("adiabaticity", replaced(FIGURE, ("pulses", "tau"), 5e-324)))
@example(("sweep", {**CONFIGS["sweep"][1], "r": 2}))
@example(("qpe", replaced(CONFIGS["qpe"][1], ("shots",), 2**63)))
@example(("evolve", replaced(DIRECTED, ("direction",), None)))
@example(("sweep", replaced(CONFIGS["sweep"][1], ("v_over_e", 1), 1e308)))
@example(("sweep", replaced(CONFIGS["sweep"][1], ("phi",), float("nan"))))
@example(("sweep", replaced(CONFIGS["sweep"][1], ("et_values", 0), 1e-308)))
@example(("sweep", replaced(CONFIGS["sweep"][1], ("window",), [-1e308, 1e308])))
def test_main_returns_an_exit_code(case):
    assert exit_code(*case) in EXIT_CODES


# every mutation starts from these, so each must run clean by itself
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_base_config_runs(name):
    assert exit_code(*CONFIGS[name]) == 0


# the fewest steps give the phase prediction its smallest grid, 3 points
@pytest.mark.parametrize("steps", [1, 2, 3])
def test_coarsest_phase_grid_predicts_finite_alpha(steps, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**FIGURE, "steps": steps}))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "factorization.csv").read_text().splitlines()
    assert rows[0].split(",")[-1] == "alpha_predicted"
    predicted = [float(row.split(",")[-1]) for row in rows[1:]]
    assert len(predicted) == 4 and all(map(math.isfinite, predicted))


# a drawn path rarely lands on a given key, so each key gets its own run
@pytest.mark.parametrize("name, key", TOP_LEVEL_KEYS,
                         ids=[f"{name}-{key}" for name, key in TOP_LEVEL_KEYS])
@settings(max_examples=5, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_top_level_key_replaced(name, key, data):
    command, cfg = CONFIGS[name]
    cfg = replaced(cfg, (key,), data.draw(HOSTILE))
    cfg = mutate(data.draw, cfg, data.draw(st.integers(0, 2)))
    assert exit_code(command, cfg) in EXIT_CODES


@pytest.mark.parametrize("name, path", NESTED_PATHS,
                         ids=[f"{name}-{'.'.join(path)}"
                              for name, path in NESTED_PATHS])
@settings(max_examples=5, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_config_checked_nested_key_replaced(name, path, data):
    command, cfg = CONFIGS[name]
    cfg = replaced(cfg, path, data.draw(HOSTILE))
    cfg = mutate(data.draw, cfg, data.draw(st.integers(0, 2)))
    assert exit_code(command, cfg) in EXIT_CODES


COMMANDS = sorted({command for command, _ in CONFIGS.values()})


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(COMMANDS), st.binary())
@example("models", b"\xff")
@example("models", b"[" * 100_000 + b"]" * 100_000)
@example("models", json.dumps({"model": PAPER_MODEL}).encode())
def test_raw_config_bytes(command, data):
    assert raw_exit_code(command, data) in EXIT_CODES
