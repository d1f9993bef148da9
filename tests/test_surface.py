"""Every definition and constant in the package has a reader in the
package, and every package binding the benchmark's span table wraps
still exists.

A top-level function or class, or a non-dunder method, counts as called
when some Name, Attribute or import alias in src/circulant_qft refers to
its name outside its own definition.  A module-level UPPER_CASE constant
counts as read when some such reference names it; assigning it is not a
reference.  Names are matched by spelling only, and docstrings are not
references.
"""

import ast
import importlib.util
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circulant_qft"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, DEFS)
                        and not item.name.startswith("__"))


def references(node, enclosing=()):
    """(name, ids of the definitions around it) for every reference."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    elif isinstance(node, ast.alias):
        yield node.name.split(".")[-1], enclosing
    if isinstance(node, DEFS):
        enclosing = enclosing + (id(node),)
    for child in ast.iter_child_nodes(node):
        yield from references(child, enclosing)


def constants(tree):
    """Names bound by module-level assignments, UPPER_CASE ones only."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                yield target.id


def parse(package):
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def uncalled(package):
    trees = parse(package)
    refs = [ref for tree in trees.values() for ref in references(tree)]
    return sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items() for node in definitions(tree)
        if not any(name == node.name and id(node) not in enclosing
                   for name, enclosing in refs)
    )


def test_every_definition_has_a_caller():
    # perfbench's tracer test reads cli.evolve through cli's __getattr__;
    # perfbench/spans.py wraps dynamical_phase_prediction by name.  Delete
    # each together with its reader.
    assert uncalled(PACKAGE) == ["cli.py:__getattr__",
                                 "propagator.py:dynamical_phase_prediction"]


def test_every_constant_has_a_reader():
    trees = parse(PACKAGE)
    read = {name for tree in trees.values() for name, _ in references(tree)}
    defined = [f"{module}:{name}" for module, tree in trees.items()
               for name in constants(tree)]
    assert len(defined) >= 30  # the walk finds the constants at all
    assert [c for c in defined if c.split(":")[1] not in read] == []


def test_span_table_names_live_bindings():
    # the benchmark wraps these by name and reports a missing one as
    # absent, so a deletion here would silently empty its span
    path = PACKAGE.parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attribute}"
               for module, attribute, _, _ in spans.WRAP_TABLE
               if module.startswith("circulant_qft")
               and not hasattr(importlib.import_module(module), attribute)]
    assert missing == []
