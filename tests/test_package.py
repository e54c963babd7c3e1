"""Every top-level function and class of the package is reached from code.

A name counts as reached when some module other than `__init__` uses it, as
a name or as an attribute.  Re-exporting a name from `__init__` does not
reach it: the package keeps no function that only its tests call.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "singlepixel"

# The slit-resolution analysis (ROADMAP open item 1): an `analyze` subcommand
# is to read a reconstruction's dip at the gap columns of a three-slit scene.
# Until it lands, only the paper's analysis and the tests call these.
ANALYSIS = {"line_profile", "dip_contrast", "slit_feature_columns"}


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
    unreached = sorted(f"{module}.{name}" for module, name in definitions
                       if name not in used and name not in ANALYSIS)
    assert unreached == []
    # an analysis name that code reaches, or that is gone, leaves the allowance
    assert ANALYSIS <= {name for _, name in definitions} - used
