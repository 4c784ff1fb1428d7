"""Built-in test functions: exact evaluation, derivative oracles, endpoint
data, capability limits, and the structural hypotheses each entry promises."""

import math
import random
from fractions import Fraction as F

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from bernint import (DEFAULT_GRID, CapabilityError, OperatorKind, TiePolicy, build_model,
                     builtin, entries, grid_points, hypothesis_check)
from bernint.exact import round_bracket, round_ratio
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


@pytest.mark.parametrize("name", [e.spec.name for e in entries()
                                  if e.spec.poly_coeffs is not None])
def test_polynomial_deriv_float_is_polyval(name):
    """The in-place Horner is numpy's polyval bit for bit, for every order."""
    f = builtin(name)
    xs = np.concatenate((grid_points(DEFAULT_GRID), [0.0, 0.5, 1.0, 5e-324]))
    before = xs.copy()
    coeffs = list(f.poly_coeffs)
    for s in range(len(coeffs) + 1):
        floats = [float(c) for c in coeffs] or [0.0]  # coefficients of f^(s)
        got = f.deriv_float(s, xs)
        assert got.tobytes() == npoly.polyval(xs, floats).tobytes(), s
        assert xs.tobytes() == before.tobytes()
        one = f.deriv_float(s, np.float64(0.3))
        assert np.ndim(one) == 0 and one == npoly.polyval(0.3, floats)
        coeffs = [k * c for k, c in enumerate(coeffs)][1:]


def test_scaled_round_matches_exact_node_values():
    # every rational node value v rounds as round_ratio of v * C(n,k)
    specs = [e.spec for e in entries()] + [builtin("holder_interior(3/2,2,-1)"),
                                           builtin("poly_boundary_flat(2,-3,1)")]
    for f in specs:
        for n in (1, 2, 7, 16, 33):
            for k in range(n + 1):
                v = f.eval_exact(F(k, n))
                if v is None:
                    continue
                num, den = v.numerator * math.comb(n, k), v.denominator
                coarse = f.scaled_bracket(k, n, 1, math.comb(n, k))
                assert round_bracket(*coarse, "floor") == round_ratio(num, den, "floor")
                for tie in TiePolicy:
                    assert round_bracket(*coarse, "nearest", tie) == round_ratio(
                        num, den, "nearest", tie)


def test_scaled_round_rejects_nodes_off_the_grid():
    for f in (builtin("monomial(2)"), builtin("abs_shift"), builtin("holder_interior(1/2)")):
        for k, n in ((-1, 4), (5, 4), (0, 0)):
            with pytest.raises(ValueError, match="0 <= k <= n and n >= 1"):
                f.scaled_bracket(k, n, 1, 1)
            with pytest.raises(ValueError, match="0 <= k <= n and n >= 1"):
                f.scaled_bracket(k, n, 64, 1)
        with pytest.raises(ValueError, match="0 <= k <= n and n >= 1"):
            f.scaled_bracket_row(0, 64, (1,))
        for bits in (0, -3):
            with pytest.raises(ValueError, match="bits >= 1"):
                f.scaled_bracket(1, 4, bits, math.comb(4, 1))
            with pytest.raises(ValueError, match="bits >= 1"):
                f.scaled_bracket_row(4, bits, (1,) * 5)
        for c in (0, -1):
            with pytest.raises(ValueError, match="c >= 1"):
                f.scaled_bracket(1, 4, 1, c)
            with pytest.raises(ValueError, match="c >= 1"):
                f.scaled_bracket_row(4, 1, (1, 1, c, 1, 1))
        for cs in ((1,) * 4, (1,) * 6, ()):
            with pytest.raises(ValueError, match="n \\+ 1 = 5 multipliers"):
                f.scaled_bracket_row(4, 1, cs)


def test_function_spec_requires_a_node_bracket():
    with pytest.raises(TypeError, match="scaled_bracket"):
        corpus.FunctionSpec("bare", s_max=0,
                            deriv_float=lambda s, xs: xs, deriv_exact=lambda s, x: x)


BRACKET_SPECS = [e.spec.name for e in entries()] + [
    "holder_interior(3/2,2,-1)", "holder_interior(1/3,-1,2)", "poly_boundary_flat(2,-3,1)",
    "integer_linear(-2,3)"]


@pytest.mark.parametrize("name", BRACKET_SPECS)
def test_scaled_bracket_holds_the_scaled_node_value(name):
    # num/den <= C(n,k) f(k/n) < (num + 1)/den against an independent 4096-bit
    # enclosure; exact exactly at the rational nodes; one den per (n, bits)
    f = builtin(name)
    for n in (1, 2, 3, 7, 16, 33, 64, 128):
        enclosures = [f.eval_bounds(F(k, n), 4096) for k in range(n + 1)]
        for bits in (1, 64, 192):
            row = f.scaled_bracket_row(n, bits, [math.comb(n, k) for k in range(n + 1)])
            assert len({den for _, den, _ in row}) == 1
            for k, ((num, den, exact), (lo, hi)) in enumerate(zip(row, enclosures)):
                c = math.comb(n, k)
                assert f.scaled_bracket(k, n, bits, c) == (num, den, exact)
                assert F(num, den) <= c * lo and c * hi < F(num + 1, den)
                assert exact == (f.eval_exact(F(k, n)) is not None)
                if exact:
                    assert F(num, den) == c * lo == c * hi
                else:
                    assert den % 2 == 0 and 2 ** bits * n <= den


def test_scaled_round_rounds_the_bracket():
    # nearest and floor of C(n,k) f(k/n) from the bracket at bits = 1, which
    # agree with the bracket at every other precision
    for name in ("holder_interior(1/2)", "holder_interior(3/2,2,-1)", "abs_shift"):
        f = builtin(name)
        for n in (5, 32, 99):
            for k in range(n + 1):
                c = math.comb(n, k)
                fine = f.scaled_bracket(k, n, 192, c)
                for mode in ("floor", "nearest"):
                    for tie in TiePolicy:
                        assert round_bracket(*f.scaled_bracket(k, n, 1, c), mode, tie) == (
                            round_bracket(*fine, mode, tie))


def test_holder_exact_ties_round_by_policy():
    # C(32,k) |2k/32 - 1|^(3/2) is an exact half-integer at k = 7, 15, 17, 25
    f = builtin("holder_interior(3/2)")

    def nearest(k, tie):
        return round_bracket(*f.scaled_bracket(k, 32, 1, math.comb(32, k)), "nearest", tie)

    assert f.eval_exact(F(7, 32)) * math.comb(32, 7) == F(2839941, 2)
    assert f.eval_exact(F(15, 32)) * math.comb(32, 15) == F(17678835, 2)
    want = {
        TiePolicy.HALF_UP: [1419971, 8839418],
        TiePolicy.HALF_DOWN: [1419970, 8839417],
        TiePolicy.HALF_AWAY_FROM_ZERO: [1419971, 8839418],
        TiePolicy.HALF_TO_EVEN: [1419970, 8839418],
    }
    for tie, rounded in want.items():
        assert [nearest(k, tie) for k in (7, 15)] == rounded
        assert [nearest(k, tie) for k in (25, 17)] == rounded
        model = build_model(f, 32, OperatorKind.NEAREST_INT, tie)
        assert [model.scaled[k] for k in (7, 15)] == rounded
        assert [round_bracket(*f.scaled_bracket(k, 32, 1, math.comb(32, k)), "floor", tie)
                for k in (7, 15)] == [1419970, 8839417]


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


# frozen (integer_endpoints, integer_linear) of every entry and three variants
DECLARED_FLAGS = {
    "integer_linear(3,2)": (True, True),
    "monomial(2)": (True, False),
    "monomial(3)": (True, False),
    "monomial(5)": (True, False),
    "poly_boundary_flat(2)": (True, False),
    "abs_shift": (True, False),
    "holder_interior(1/2)": (True, False),
    "holder_interior(3/2)": (True, False),
    "holder_interior(3/2,2,-1)": (True, False),
    "poly_boundary_flat(2,-3,1)": (True, False),
    "integer_linear(-2,3)": (True, True),
}


def test_flags_are_derived_from_the_oracles():
    # every entry is in the table; the flags come from the n = 1 brackets and
    # poly_coeffs, including a trailing zero and non-integer ends or slopes
    assert {e.spec.name for e in entries()} <= DECLARED_FLAGS.keys()
    for name, flags in DECLARED_FLAGS.items():
        f = builtin(name)
        assert (f.integer_endpoints, f.integer_linear) == flags, name
    for coeffs, flags in (([F(1, 2), F(1)], (False, False)),
                          ([F(1, 2), F(1, 2)], (False, False)),
                          ([0, 1, 0, 0], (True, True)),
                          ([3, F(1, 3), F(-1, 3)], (True, False)),
                          ([2, -1, 0, 1], (True, False))):
        f = corpus._polynomial_spec("p", coeffs)
        assert (f.integer_endpoints, f.integer_linear) == flags, coeffs
