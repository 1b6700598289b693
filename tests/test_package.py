"""The package's module layering, read from the source."""

import ast
from pathlib import Path

import qmdp

EVERYTHING = {"classical", "layout", "mdp", "prepare", "search", "sim"}

# The modules each module imports from inside the package. `layout` is
# register bookkeeping and `sim` the gate kernel: neither reads the other.
LAYERS = {
    "mdp": set(),
    "layout": {"mdp"},
    "sim": {"mdp"},
    "classical": {"layout", "mdp"},
    "prepare": {"layout", "mdp", "sim"},
    "search": {"layout", "mdp", "prepare", "sim"},
    "cli": EVERYTHING,
    "__init__": EVERYTHING,
}


def relative_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}


def test_modules_import_only_the_layers_below():
    package = Path(qmdp.__file__).parent
    found = {path.stem: relative_imports(path) for path in sorted(package.glob("*.py"))}
    assert found == LAYERS
