"""Every top-level function and class of the package is reached from code.

A name counts as reached when some module other than `__init__` uses it, as
a name or as an attribute.  Re-exporting a name from `__init__` does not
reach it: the package keeps no function that only its tests call.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "singlepixel"

def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(trees: dict) -> set:
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _used_names(trees: dict) -> set:
    used = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_top_level_definition_is_reached():
    trees = _trees()
    definitions, used = _definitions(trees), _used_names(trees)
    unreached = sorted(f"{module}.{name}" for module, name in definitions if name not in used)
    assert unreached == []


def test_only_scenes_builds_a_propagation_spec():
    """`SceneSpec.propagation` is the one place a run's geometry is made, so a
    new field of it (a medium index, say) reaches every command at once."""
    callers = sorted(
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "PropagationSpec"
             or getattr(node.func, "attr", None) == "PropagationSpec")
    )
    assert callers == ["scenes"]


def test_only_scenes_and_metrics_read_the_slit_features():
    """`metrics.gap_dips` is the one three-slit score: no other module reads
    the slit columns or rows to score a reconstruction its own way."""
    readers = sorted(
        {module
         for module, tree in _trees().items()
         for node in ast.walk(tree)
         if isinstance(node, ast.Call)
         and {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
         & {"slit_feature_columns", "slit_row_bounds"}}
    )
    assert readers == ["metrics", "scenes"]
