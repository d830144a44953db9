"""Guard against code that nothing calls.

Every module-level function and class in `src/qsim`, and every method and
property of its classes, must be referenced by name somewhere in `src/`, or
be wrapped by the benchmark tracer.  Properties registered through
`@_register` are reached through `properties.REGISTRY`, dunder methods and
`HOOKS` are called by Python or a base class, and `KEEP` holds the
paper-concept API that only tests and users call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = {path.name: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "qsim").glob("*.py"))}
KEEP = (
    "evolve_descriptor",
    "conjugate_dyadic",
    "free_energy",
    "XiRotation",
    "matrix_from_json",
    "results_payload",
    "by_name",
    "nu_projectors",
)
HOOKS = ("error",)  # cli._Parser overrides argparse.ArgumentParser.error
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced() -> set[str]:
    """Every name that a `Name` or `Attribute` node in src/ mentions."""
    names = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _traced() -> set[str]:
    tree = ast.parse((ROOT / "benchmarks" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTIONS"]:
            return {attr for _, attr in ast.literal_eval(node.value)}
    raise AssertionError("benchmarks/tracer.py defines no FUNCTIONS")


def _is_registered(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_register"
        for d in node.decorator_list
    )


def _definitions():
    """(qualified name, node) of every module-level definition and every non-dunder method."""
    for module, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            yield f"{module}:{node.name}", node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, DEFINITIONS) and not item.name.startswith("__"):
                    yield f"{module}:{node.name}.{item.name}", item


def test_every_definition_is_referenced():
    allowed = _referenced() | _traced() | set(KEEP) | set(HOOKS)
    unreferenced = [
        name for name, node in _definitions() if not _is_registered(node) and node.name not in allowed
    ]
    assert unreferenced == []


def test_keep_names_are_defined_and_unreferenced():
    # a KEEP or HOOKS name that is deleted, or that src/ starts to call, leaves the list
    defined = {node.name for _, node in _definitions()}
    assert set(KEEP) | set(HOOKS) <= defined - _referenced() - _traced()
