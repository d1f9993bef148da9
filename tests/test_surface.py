"""Every definition in the package has a caller in the package.

A top-level function or class, or a non-dunder method, counts as called
when some Name, Attribute or import alias in src/circulant_qft refers to
its name outside its own definition.  Names are matched by spelling
only, and docstrings are not references.
"""

import ast
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
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    elif isinstance(node, ast.alias):
        yield node.name.split(".")[-1], enclosing
    if isinstance(node, DEFS):
        enclosing = enclosing + (id(node),)
    for child in ast.iter_child_nodes(node):
        yield from references(child, enclosing)


def uncalled(package):
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    refs = [ref for tree in trees.values() for ref in references(tree)]
    return sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items() for node in definitions(tree)
        if not any(name == node.name and id(node) not in enclosing
                   for name, enclosing in refs)
    )


def test_every_definition_has_a_caller():
    # perfbench/spans.py wraps it by name; delete both together
    assert uncalled(PACKAGE) == ["propagator.py:dynamical_phase_prediction"]
