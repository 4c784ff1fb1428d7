"""Built-in test functions: exact evaluation, derivative oracles, endpoint
data, capability limits, and the structural hypotheses each entry promises."""

import math
import random
from fractions import Fraction as F

import pytest

from bernint import CapabilityError, builtin, entries, hypothesis_check
import bernint.corpus as corpus


def test_integer_linear_frozen():
    f = builtin("integer_linear(3,2)")
    assert f.eval_exact(F(1, 4)) == F(11, 4)
    assert f.integer_linear and f.integer_endpoints
    assert f.eval_exact(F(0)) == 2 and f.eval_exact(F(1)) == 5


def test_monomial_endpoint_data():
    f = builtin("monomial(2)")
    assert f.endpoint_deriv(0) == (F(0), F(1))
    assert f.endpoint_deriv(1) == (F(0), F(2))
    assert f.endpoint_deriv(2) == (F(2), F(2))
    assert not f.integer_linear


def test_poly_boundary_flat_endpoints_vanish():
    f = builtin("poly_boundary_flat(2)")
    assert f.endpoint_deriv(0) == (F(0), F(1))
    assert f.endpoint_deriv(1) == (F(1), F(1))
    assert f.endpoint_deriv(2) == (F(0), F(0))  # the property the name promises


def test_abs_shift():
    f = builtin("abs_shift")
    assert f.eval_exact(F(1, 2)) == 0
    assert f.eval_exact(F(1, 4)) == F(1, 2)
    assert f.eval_exact(F(0)) == 1 and f.eval_exact(F(1)) == 1
    assert f.kink == 0.5
    assert f.supports(0) and not f.supports(1)


def test_holder_interior_exact_and_bounds():
    f = builtin("holder_interior(1/2)")
    assert f.eval_exact(F(1, 2)) == 0
    assert f.eval_exact(F(0)) == 1 and f.eval_exact(F(1)) == 1
    assert f.eval_exact(F(1, 8)) is None  # (3/4)^(1/2) is irrational
    lo, hi = f.eval_bounds(F(1, 8), 80)
    true = math.sqrt(0.75)
    assert float(lo) <= true <= float(hi)
    assert hi - lo <= F(1, 2**70)


def test_holder_three_halves_supports_one_derivative():
    f = builtin("holder_interior(3/2)")
    assert f.supports(1) and not f.supports(2)
    # f'(0) = -3, f'(1) = 3: integers, which is what lets s=1 run
    assert f.endpoint_deriv(1) == (F(-3), F(3))


def test_eval_exact_matches_independent_horner():
    rng = random.Random(99)
    for name in ("integer_linear(-2,3)", "monomial(3)", "monomial(5)", "poly_boundary_flat(2)"):
        f = builtin(name)
        coeffs = f.poly_coeffs
        assert coeffs is not None
        for s in range(4):
            # s-th derivative: coefficient i of x^(i-s) is c_i i!/(i-s)!
            deriv = [c * math.perm(i, s) for i, c in enumerate(coeffs)][s:] or [F(0)]
            for _ in range(100):
                d = rng.choice((512, 3, 7, 1000))
                x = F(rng.randrange(0, d + 1), d)
                acc = F(0)
                for c in reversed(deriv):
                    acc = acc * x + c
                assert f.deriv_exact(s, x) == acc
                if s == 0:
                    assert f.eval_exact(x) == acc


def test_deriv_float_matches_central_difference():
    h = 1e-6
    for name in ("monomial(3)", "poly_boundary_flat(2)", "holder_interior(3/2)"):
        f = builtin(name)
        for x in (0.2, 0.55, 0.8):
            want = (f.eval_float(x + h) - f.eval_float(x - h)) / (2 * h)
            assert abs(f.deriv_float(1, x) - want) <= 1e-6 * max(1.0, abs(want))


def test_higher_deriv_oracles_are_consistent():
    # deriv(i) against central differences of deriv(i-1), away from kinks
    h = 1e-6
    for name in ("monomial(5)", "poly_boundary_flat(2)"):
        f = builtin(name)
        for i in (1, 2):
            for x in (0.25, 0.6):
                want = (f.deriv_float(i - 1, x + h) - f.deriv_float(i - 1, x - h)) / (2 * h)
                assert abs(f.deriv_float(i, x) - want) <= 1e-5 * max(1.0, abs(want))


def test_builtin_unknown_or_malformed():
    for bad in ("nope", "monomial(1)", "monomial(x)", "holder_interior(2)", "holder_interior(1/2", "integer_linear(3)"):
        with pytest.raises(LookupError):
            builtin(bad)


def test_builtin_rejects_integer_holder_exponent():
    with pytest.raises(LookupError):
        builtin("holder_interior(1)")  # gamma must be non-integer in (0, 2)


def test_validate_refuses_unsupported_order():
    f = builtin("abs_shift")
    with pytest.raises(CapabilityError, match="no derivative oracle of order 1"):
        hypothesis_check(f, 1, range(1, 5))


def test_roster_is_stable():
    names = [e.spec.name for e in entries()]
    assert names == [
        "integer_linear(3,2)",
        "monomial(2)",
        "monomial(3)",
        "monomial(5)",
        "poly_boundary_flat(2)",
        "abs_shift",
        "holder_interior(1/2)",
        "holder_interior(3/2)",
    ]


def test_every_entry_passes_its_own_hypotheses():
    """Each roster entry declares a verify_s; the checker must accept it."""
    for entry in entries():
        report = hypothesis_check(entry.spec, entry.verify_s, range(1, 17))
        assert report.passed, f"{entry.spec.name}: {report}"


def test_polynomial_spec_detects_integer_linear():
    ps = corpus._polynomial_spec("lin", [F(2), F(-1)])
    assert ps.integer_linear
    ps2 = corpus._polynomial_spec("notlin", [F(1, 2), F(1)])
    assert not ps2.integer_linear
