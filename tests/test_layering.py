"""Module layering: each bernint module imports only from modules to its
left in exact -> corpus -> operators -> analysis -> cli, function bodies
included.  The package itself re-exports everything up to analysis, so only
cli may import it.  Every name a module exports in __all__ exists.  The
certified enclosures are a reference oracle: only exact and corpus name them.
No module brings back the removed test-only rounding helpers and model
aliases, the kink exclusion window, the old trivial-class check or the
one-bit block cutoff, and analysis reads no row of node brackets and no row
of the gap: operators.gap_sum is its one reader of the gap rows."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bernint"
LAYERS = ["exact", "corpus", "operators", "analysis", "cli"]
RANK = {f"bernint.{name}": i for i, name in enumerate(LAYERS)}
RANK["bernint"] = RANK["bernint.analysis"] + 0.5
# Tests check the integer node brackets against these enclosures, so the
# models and node checks above corpus must not read them.  The package
# __init__ only re-exports exact's API, rational_pow_bounds included.
REFERENCE_ORACLE = {"eval_bounds", "value_bounds", "rational_pow_bounds"}
# Rounding goes through round_ratio and round_bracket, and a model is read
# through its scaled and denominator fields; tests build models from
# coefficients with conftest.model_from_coeffs.  Sup norms run over all of
# [0, 1]: no window around a kink is skipped.  The trivial class is read off
# f's coefficients, and homogeneous_sum has one size rule for every point.
REMOVED = {"guarded_round", "PrecisionInsufficient", "floor_int", "nearest_int",
           "from_coeffs", "integer_form", "KINK_WINDOW", "_masked_difference",
           "_reproduces", "_UNIT_BLOCK_CUTOFF"}
# Voronovskaya rows come only from the power form (classic_power_form), so
# analysis takes no row of node brackets and no bracket precision of its own.
NODE_ROWS = {"scaled_bracket_row", "APPROX_BITS"}
# proximity_gap and error_curve read the gap through operators.gap_sum only.
GAP_ROWS = {"gap_interval", "_derivative_row", "_endpoint_sum"}


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


def named(module, wanted):
    """(line, name) for every name in ``wanted`` that the module defines, imports,
    reads or lists as a string (an __all__ entry)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in wanted]
    return found


@pytest.mark.parametrize("module", [m for m in LAYERS if m not in ("exact", "corpus")])
def test_only_exact_and_corpus_name_the_reference_enclosures(module):
    found = named(module, REFERENCE_ORACLE)
    assert found == [], f"bernint.{module} names a reference enclosure: {found}"


@pytest.mark.parametrize("module", ["__init__"] + LAYERS)
def test_no_module_names_the_removed_helpers(module):
    found = named(module, REMOVED)
    assert found == [], f"bernint {module} names a removed helper: {found}"


def test_analysis_reads_no_row_of_node_brackets():
    found = named("analysis", NODE_ROWS)
    assert found == [], f"bernint.analysis names a node-row reader: {found}"


def test_analysis_reads_the_gap_only_through_gap_sum():
    found = named("analysis", GAP_ROWS)
    assert found == [], f"bernint.analysis names a gap-row reader: {found}"
