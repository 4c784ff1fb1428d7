"""The README's library example runs and its comments state true values."""

import ast
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

# each expression statement of the example, with the value its comment states
STATED = {
    "m.coeffs": (0, F(1, 2), 1),
    "b.evaluate_exact(m, F(1, 2))": F(1, 2),
    "b.evaluate(m, 0.5)": pytest.approx(0.5, abs=1e-9),
    "b.proximity_gap(f, 2, b.OperatorKind.FLOOR_INT).value": pytest.approx(0.125, abs=1e-9),
    "dm.coeffs": (F(1, 2), F(3, 2)),
    "b.omega_phi2(f.eval_float, 0.2).value": pytest.approx(0.02, abs=1e-9),
    "fit.alpha, fit.C": pytest.approx((1.0, 0.25), abs=1e-9),
}


def test_readme_python_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    source = blocks[0]
    namespace = {}
    values = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(source, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert set(values) == set(STATED)
    for expr, want in STATED.items():
        assert values[expr] == want, expr
    assert values["b.proximity_gap(f, 2, b.OperatorKind.FLOOR_INT).value"] <= 1 / 2
