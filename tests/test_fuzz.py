"""main() on mutated README configs: an exit code, never an exception.

Each example takes one subcommand's README config, shortened to 20 steps
on every command but models, which takes none, replaces one to three of
its values (at any depth, steps included) with a hostile JSON value and
runs the command.  Whatever the input, main() must return one of the
documented exit codes and no exception may escape.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from circulant_qft.cli import main

PAPER_MODEL = {"kind": "four_level", "E": 10.0, "V": [10.0, 3.3333333333]}
PAPER_PULSES = {"kind": "sech_masked", "T": 1.0, "tau": 1.0}
FIGURE = {"model": PAPER_MODEL, "pulses": PAPER_PULSES, "steps": 20}
CONFIGS = {
    "eigentraj": FIGURE,
    "evolve": FIGURE,
    "adiabaticity": FIGURE,
    "qpe": {**FIGURE, "phi": 0.75, "r": 2},
    "models": {"model": PAPER_MODEL},
    "sweep": {"pulses": PAPER_PULSES, "et_values": [5, 10, 20, 40], "steps": 20},
}
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
    0, -1, 10**400, True, False, None, "", "1", "x",
])
HOSTILE = st.recursive(HOSTILE_SCALARS,
                       lambda inner: st.lists(inner, max_size=4),
                       max_leaves=8)


@st.composite
def mutated_configs(draw):
    command = draw(st.sampled_from(sorted(CONFIGS)))
    cfg = CONFIGS[command]
    paths = leaf_paths(cfg)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(paths))
        try:
            cfg = replaced(cfg, path, draw(HOSTILE))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed the path
    return command, cfg


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(mutated_configs())
@example(("evolve", replaced(FIGURE, ("model", "E"), float("nan"))))
@example(("evolve", replaced(FIGURE, ("model", "E"), float("inf"))))
@example(("qpe", replaced(CONFIGS["qpe"], ("r",), 100000)))
@example(("adiabaticity",
          replaced(replaced(FIGURE, ("model", "V"), [10.0, 1e308]),
                   ("pulses", "tau"), 1e308)))
@example(("adiabaticity", replaced(FIGURE, ("steps",), 1)))
@example(("sweep", {**CONFIGS["sweep"], "r": 2}))
def test_main_returns_an_exit_code(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path), "--out", tmp])
    assert code in EXIT_CODES
