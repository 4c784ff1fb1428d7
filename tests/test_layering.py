"""Module layering: each bernint module imports only from modules to its
left in exact -> corpus -> operators -> analysis -> cli, function bodies
included.  The package itself re-exports everything up to analysis, so only
cli may import it.  Every name a module exports in __all__ exists."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bernint"
LAYERS = ["exact", "corpus", "operators", "analysis", "cli"]
RANK = {f"bernint.{name}": i for i, name in enumerate(LAYERS)}
RANK["bernint"] = RANK["bernint.analysis"] + 0.5


def imported_modules(tree):
    """(line, module) for every bernint module an import statement loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "bernint":
            for alias in node.names:
                yield node.lineno, (
                    f"bernint.{alias.name}" if alias.name in LAYERS else "bernint"
                )
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            yield node.lineno, node.module


def test_every_module_is_ranked():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_point_left(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    own = RANK[f"bernint.{module}"]
    upward = [
        (line, name)
        for line, name in imported_modules(tree)
        if name.split(".")[0] == "bernint" and RANK[name] > own
    ]
    assert upward == [], f"bernint.{module} imports upward: {upward}"


@pytest.mark.parametrize("module", ["bernint"] + [f"bernint.{m}" for m in LAYERS])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    assert len(exported) == len(set(exported)), f"{module}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == [], f"{module}.__all__ names missing attributes: {missing}"
