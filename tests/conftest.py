"""Shared pytest plumbing.

The acceptance tests in test_acceptance.py register one line per criterion
through record_criterion(); the terminal-summary hook prints the collected
lines after the normal pytest output so the scoreboard survives output
capture.

The CLI tests also start ``python -m bernint.cli`` in child interpreters; the
source directory goes on their PYTHONPATH so that a plain checkout (found
in-process through pyproject's ``pythonpath``) works there too.

model_from_coeffs builds a model from rational Bernstein coefficients, the
form the kernel and evaluator tests write their inputs in.
"""

import os
from fractions import Fraction
from pathlib import Path

from bernint.exact import binomial_row, common_denominator
from bernint.operators import BernsteinModel

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

_ACCEPTANCE_LINES: list[str] = []


def model_from_coeffs(n: int, coeffs) -> BernsteinModel:
    """The degree-n model with Bernstein coefficients c_0, ..., c_n."""
    row = binomial_row(max(len(coeffs) - 1, 0))  # a wrong length fails in the model
    scaled, d = common_denominator([Fraction(c) * b for c, b in zip(coeffs, row)])
    return BernsteinModel(n=n, scaled=tuple(scaled), denominator=d)


def record_criterion(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    _ACCEPTANCE_LINES.append(f"[criterion {num:2d}] {status} - {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
