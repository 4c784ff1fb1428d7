"""Operator construction and evaluation: the classic operator, the two
integer-coefficient variants, derivative models, and proximity gaps."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bernint.corpus as corpus
import bernint.operators as operators
from bernint import (
    DEFAULT_GRID,
    BernsteinModel,
    HypothesisViolation,
    OperatorKind,
    TiePolicy,
    binomial_row,
    build_model,
    builtin,
    classic_power_form,
    derivative_model,
    evaluate,
    evaluate_exact,
    grid_points,
    proximity_gap,
    proximity_gap_exact,
    saturation_probe,
    sup_norm,
)
from bernint.exact import homogeneous_sum, round_ratio
from bernint.operators import APPROX_BITS, gap_interval

from conftest import model_from_coeffs

CLASSIC = OperatorKind.CLASSIC
FLOOR = OperatorKind.FLOOR_INT
NEAREST = OperatorKind.NEAREST_INT

X2 = builtin("monomial(2)")
X3 = builtin("monomial(3)")


def bernstein_sum(coeffs, x: F) -> F:
    """Reference value sum_k c_k C(n,k) x^k (1-x)^(n-k), term by term."""
    n = len(coeffs) - 1
    return sum((c * math.comb(n, k) * x**k * (1 - x) ** (n - k)
                for k, c in enumerate(coeffs)), F(0))


def test_classic_coeffs_x2_n2():
    m = build_model(X2, 2, CLASSIC)
    assert m.coeffs == (F(0), F(1, 4), F(1))
    assert m.coeffs_exact


def test_floor_coeffs_x2_n2():
    # f(1/2)*C(2,1) = 1/2, floor -> 0
    m = build_model(X2, 2, FLOOR)
    assert m.coeffs == (F(0), F(0), F(1))


def test_nearest_coeffs_x2_n2_tie_policies():
    up = build_model(X2, 2, NEAREST, tie=TiePolicy.HALF_UP)
    assert up.coeffs == (F(0), F(1, 2), F(1))
    down = build_model(X2, 2, NEAREST, tie=TiePolicy.HALF_DOWN)
    assert down.coeffs == (F(0), F(0), F(1))
    away = build_model(X2, 2, NEAREST)  # default tie
    assert away.coeffs == (F(0), F(1, 2), F(1))


def test_integer_variant_weighted_coeffs_are_integers():
    for kind in (FLOOR, NEAREST):
        for n in (3, 7, 20):
            m = build_model(X3, n, kind)
            for k, c in enumerate(m.coeffs):
                assert (c * binomial_row(n)[k]).denominator == 1


def test_evaluate_exact_frozen():
    m = build_model(X2, 2, CLASSIC)
    assert evaluate_exact(m, F(1, 2)) == F(3, 8)
    mf = build_model(X2, 2, FLOOR)
    assert evaluate_exact(mf, F(1, 2)) == F(1, 4)


coefficients = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
unit_points = st.one_of(st.sampled_from([F(0), F(1)]),
                        st.fractions(min_value=0, max_value=1, max_denominator=10**6))


@settings(max_examples=300, deadline=None)
@given(st.lists(coefficients, min_size=1, max_size=41), unit_points)
@example([F(0)], F(1, 3))
@example([F(-3, 7), F(0), F(5, 6)], F(0))
@example([F(1, 2), F(-1, 3), F(0), F(7, 5)], F(1))
def test_evaluate_exact_matches_term_by_term_sum(coeffs, x):
    # mixed denominators, signs and zeros, n = 0..40, both ends included
    model = model_from_coeffs(len(coeffs) - 1, coeffs)
    assert evaluate_exact(model, x) == bernstein_sum(coeffs, x)


class _Q(F):
    """A Fraction subclass, as a caller's own rational type might be."""


def test_exact_paths_reject_points_outside_the_unit_interval():
    m = build_model(X2, 4, NEAREST)
    for bad in (F(-1, 3), F(4, 3), -1, 2, "7/6", F(-1, 10**30), _Q(-1, 3), _Q(4, 3)):
        with pytest.raises(ValueError, match=r"evaluate_exact: point must lie in \[0, 1\]"):
            evaluate_exact(m, bad)
        for f in (X2, builtin("integer_linear(3,2)"), builtin("abs_shift")):
            with pytest.raises(ValueError,
                               match=r"proximity_gap_exact: points must lie in \[0, 1\]"):
                proximity_gap_exact(f, 4, NEAREST, [F(1, 2), bad])
    for good in (0, 1, "1/3", F(10**30 - 1, 10**30)):
        assert evaluate_exact(m, good) == bernstein_sum(m.coeffs, F(good))


def test_exact_paths_read_every_point_type():
    # int and Fraction points are read as they are, other types through
    # Fraction(x); every type gives the values of the Fraction form
    points = [(0, F(0)), (1, F(1)), (F(2, 7), F(2, 7)), (_Q(3, 8), F(3, 8)),
              (0.25, F(1, 4)), ("1/3", F(1, 3))]
    m = build_model(X3, 9, NEAREST)
    for x, q in points:
        v = evaluate_exact(m, x)
        assert type(v) is F and v == evaluate_exact(m, q) == bernstein_sum(m.coeffs, q)
    # rational rows, Hölder rows with a 0/1 width row, and all-zero rows
    for f in (X3, builtin("holder_interior(1/2)"), builtin("abs_shift")):
        for kind in (FLOOR, NEAREST):
            want = proximity_gap_exact(f, 9, kind, [q for _, q in points])
            got = proximity_gap_exact(f, 9, kind, [x for x, _ in points])
            assert got == want
            assert all(type(v) is F for pair in got for v in pair)
    # test_exact_paths_reject_points_outside_the_unit_interval has the
    # rationals outside [0, 1]; NaN fails in Fraction(x)
    with pytest.raises(ValueError):
        evaluate_exact(m, math.nan)
    with pytest.raises(ValueError):
        proximity_gap_exact(X3, 9, FLOOR, [F(1, 2), math.nan])


def test_evaluate_scalar_and_array():
    m = build_model(X2, 4, CLASSIC)
    v = evaluate(m, 0.5)
    assert isinstance(v, float)
    arr = evaluate(m, np.array([0.0, 0.5, 1.0]))
    assert arr.shape == (3,)
    assert arr[0] == 0.0 and arr[2] == 1.0
    with pytest.raises(ValueError):
        evaluate(m, 1.5)


def test_evaluate_rejects_non_finite_points():
    m = build_model(X2, 4, CLASSIC)
    for bad in (np.nan, np.inf, -np.inf, np.array([0.25, np.nan, 0.75])):
        with pytest.raises(ValueError, match="finite"):
            evaluate(m, bad)


def test_endpoint_interpolation_all_kinds():
    """Integer endpoint values survive rounding, so every model interpolates."""
    for entry in corpus.entries():
        f = entry.spec
        for kind in (CLASSIC, FLOOR, NEAREST):
            m = build_model(f, 7, kind)
            assert evaluate_exact(m, F(0)) == f.eval_exact(F(0))
            assert evaluate_exact(m, F(1)) == f.eval_exact(F(1))


def test_integer_linear_is_fixed_point_of_all_kinds():
    f = builtin("integer_linear(3,2)")
    for n in range(1, 17):
        samples = tuple(f.eval_exact(F(k, n)) for k in range(n + 1))
        for kind in (CLASSIC, FLOOR, NEAREST):
            m = build_model(f, n, kind)
            assert m.coeffs == samples
            assert evaluate_exact(m, F(1, 3)) == F(3)


def test_float_exact_agreement():
    # float path within 2^-40 of the exact rational value: 1000 points total
    rng = random.Random(20260814)
    cases = [
        ("monomial(3)", 25, 400),
        ("poly_boundary_flat(2)", 60, 300),
        ("monomial(2)", 200, 300),
    ]
    for name, n, npts in cases:
        m = build_model(builtin(name), n, NEAREST)
        for _ in range(npts):
            x = F(rng.randrange(0, 1025), 1024)
            got = evaluate(m, float(x))
            want = float(evaluate_exact(m, x))
            assert abs(got - want) <= 2.0**-40


def test_kantorovich_gap_bounds_subsample():
    for name in ("monomial(3)", "abs_shift"):
        f = builtin(name)
        for n in (3, 17, 64):
            assert proximity_gap(f, n, FLOOR).value <= (1.0 / n) * (1 + 1e-12)
            assert proximity_gap(f, n, NEAREST).value <= (0.5 / n) * (1 + 1e-12)


def test_kantorovich_gap_bounds_every_n_up_to_200():
    # dense-n version on one representative entry (the power-of-two sweep over
    # the whole corpus lives in the acceptance suite)
    from bernint import GridConfig

    f = builtin("monomial(3)")
    grid = GridConfig(points=513, refine=20)
    for n in range(1, 201):
        assert proximity_gap(f, n, FLOOR, grid=grid).value <= (1.0 / n) * (1 + 1e-12)
        assert proximity_gap(f, n, NEAREST, grid=grid).value <= (0.5 / n) * (1 + 1e-12)


def test_proximity_gap_frozen_x2_n2():
    # floor drops the middle weighted coefficient 1/2 -> 0: gap = x(1-x)/2
    est = proximity_gap(X2, 2, FLOOR)
    assert abs(est.value - 0.125) <= 1e-12
    # nearest under HALF_UP rounds 1/2 -> 1: gap = x(1-x)/2 again, sup 1/8
    est2 = proximity_gap(X2, 2, NEAREST, tie=TiePolicy.HALF_UP)
    assert abs(est2.value - 0.125) <= 1e-12


def test_proximity_gap_exact_frozen():
    pairs = proximity_gap_exact(X2, 2, FLOOR, [F(0), F(1, 2), F(1)])
    assert pairs[0] == (F(0), F(0))
    assert pairs[1] == (F(-1, 8), F(-1, 8))  # floor model sits below the classic
    assert pairs[2] == (F(0), F(0))


def test_proximity_gap_exact_brackets_irrational_nodes():
    f = builtin("holder_interior(1/2)")
    for n in (4, 9):
        for lo, hi in proximity_gap_exact(f, n, NEAREST, [F(1, 3), F(2, 5)]):
            assert lo <= hi
            assert max(abs(lo), abs(hi)) <= F(1, 2 * n) + (hi - lo)


def bracket_ends(f, n, k, c=None):
    """The ends of the APPROX_BITS integer bracket of c f(k/n), c = C(n,k)
    unless given, from a 4096-bit enclosure: (floor(den c lo), that + 1
    unless exact) / den."""
    den, c = n << APPROX_BITS, math.comb(n, k) if c is None else c
    lo, hi = f.eval_bounds(F(k, n), 4096)
    num = math.floor(den * c * lo)
    assert num == math.floor(den * c * hi)  # the enclosure decides the bracket
    exact = lo == hi and den * c * lo == num
    return F(num, den), F(num + (0 if exact else 1), den)


def test_proximity_gap_exact_matches_sum_of_node_enclosures():
    # the gap enclosure is the reference sum against the ends of the
    # APPROX_BITS node brackets, derived here from 4096-bit enclosures
    # (n = 256 sums both rows, the 0/1 width row too, in blocks)
    xs = [F(0), F(1, 3), F(2, 5), F(1, 2), F(37, 64), F(1)]
    for name, ns in (("holder_interior(1/2)", (5, 16, 256)),
                     ("holder_interior(3/2,2,-1)", (5, 16))):
        f = builtin(name)
        for n in ns:
            ends = [bracket_ends(f, n, k) for k in range(n + 1)]
            for kind in (FLOOR, NEAREST):
                d_lo, d_hi = [], []
                for k, (c, (vlo, vhi)) in enumerate(zip(build_model(f, n, kind).coeffs, ends)):
                    d_lo.append(c - vhi / math.comb(n, k))
                    d_hi.append(c - vlo / math.comb(n, k))
                want = [(bernstein_sum(d_lo, x), bernstein_sum(d_hi, x)) for x in xs]
                assert proximity_gap_exact(f, n, kind, xs) == want


@pytest.mark.parametrize("name", ["holder_interior(1/2)", "holder_interior(3/2)",
                                  "holder_interior(1/3,-1,2)"])
def test_gap_enclosure_width_is_below_the_bracket_width(name):
    # hi - lo = sum_k delta_k x^k (1-x)^(n-k) / den with delta_k in {0, 1}, and
    # each end is the exact value of the model built from its row
    f = builtin(name)
    rng = random.Random(909)
    for kind in (FLOOR, NEAREST):
        for n in (1, 6, 33, 128):
            xs = [F(0), F(1, 2), F(1), F(1, 3)] + [F(rng.randrange(q + 1), q)
                                                  for q in rng.sample(range(2, 1024), 8)]
            row_lo, row_hi, den = gap_interval(f, n, kind)
            gap_lo, gap_hi = (BernsteinModel(n=n, scaled=row, denominator=den)
                              for row in (row_lo, row_hi))
            pairs = proximity_gap_exact(f, n, kind, xs)
            for x, (lo, hi) in zip(xs, pairs):
                assert lo == evaluate_exact(gap_lo, x)
                assert hi == evaluate_exact(gap_hi, x)
                assert 0 <= hi - lo <= F(1, n << APPROX_BITS)


def test_gap_models_share_one_model_when_node_values_are_rational():
    # the two rows of gap_interval are one row
    row = binomial_row(9)
    for kind in (FLOOR, NEAREST):
        lo, hi, den = gap_interval(X3, 9, kind)
        assert lo == hi
        model = build_model(X3, 9, kind)
        assert tuple(F(e, den * b) for e, b in zip(lo, row)) == tuple(
            c - X3.eval_exact(F(k, 9)) for k, c in enumerate(model.coeffs)
        )


def test_gap_models_enclose_irrational_node_values():
    # the rows of gap_interval: one unreduced denominator, and a 0/1
    # difference on it; at n = 1 both nodes are the integer endpoint values,
    # so the rows agree
    for name in ("holder_interior(1/2)", "holder_interior(3/2)",
                 "holder_interior(3/2,2,-1)", "holder_interior(1/3,-1,2)"):
        f = builtin(name)
        for n in (1, 9, 64):
            for kind in (FLOOR, NEAREST):
                lo, hi, den = gap_interval(f, n, kind)
                assert den == n << APPROX_BITS
                assert {b - a for a, b in zip(lo, hi)} == ({0} if n == 1 else {0, 1})
        with pytest.raises(ValueError, match="FloorInt or NearestInt"):
            gap_interval(f, 9, CLASSIC)


@pytest.mark.parametrize("name", [e.spec.name for e in corpus.entries()])
def test_gap_interval_takes_one_bracket_per_node(name, monkeypatch):
    # no build_model, no enclosure: one APPROX_BITS bracket per node, from
    # one call per node or, for a spec with a row oracle, one row call
    f = builtin(name)
    oracle, row_oracle = f._scaled_bracket, f._scaled_bracket_row
    calls = []

    def counting(k, n, bits, c):
        calls.append((k, n, bits))
        return oracle(k, n, bits, c)

    def counting_row(n, bits, cs):
        calls.extend((k, n, bits) for k in range(len(cs)))
        return row_oracle(n, bits, cs)

    def refuse(*args, **kwargs):
        raise AssertionError("gap_interval must not call this")

    monkeypatch.setattr(f, "_scaled_bracket", counting)
    if row_oracle is not None:
        monkeypatch.setattr(f, "_scaled_bracket_row", counting_row)
    monkeypatch.setattr(f, "eval_bounds", refuse)
    monkeypatch.setattr(operators, "build_model", refuse)
    for kind in (FLOOR, NEAREST):
        for n in (1, 16, 64):
            calls.clear()
            gap_interval(f, n, kind)
            assert calls == [(k, n, APPROX_BITS) for k in range(n + 1)]


def test_proximity_gap_exact_evaluates_one_model_when_rational(monkeypatch):
    # equal rows: one homogeneous_sum per point, no width sum; equal all-zero
    # rows, where the kind reproduces f: no sum at all, and exactly (0, 0)
    calls = []
    homogeneous_sum = operators.homogeneous_sum

    def counting(e, p, q):
        calls.append((p, q))
        return homogeneous_sum(e, p, q)

    monkeypatch.setattr(operators, "homogeneous_sum", counting)
    xs = [F(k, 7) for k in range(8)]
    pairs = proximity_gap_exact(builtin("monomial(5)"), 32, NEAREST, xs)
    assert len(calls) == len(xs)
    assert all(lo == hi for lo, hi in pairs)
    for name in ("integer_linear(3,2)", "abs_shift"):
        for kind in (FLOOR, NEAREST):
            for n in (8, 256):
                calls.clear()
                pairs = proximity_gap_exact(builtin(name), n, kind, xs)
                assert calls == []
                assert pairs == [(0, 0)] * len(xs)
                assert {type(v) for pair in pairs for v in pair} == {F}


@pytest.mark.parametrize("name", ["holder_interior(1/2)", "holder_interior(3/2)"])
def test_proximity_gap_measures_integer_minus_classic(name):
    # the grid gap is the integer model minus the classic one: both the gap
    # models and the classic model are centred on the APPROX_BITS bracket
    # midpoints
    f = builtin(name)
    for kind in (FLOOR, NEAREST):
        for n in (3, 17, 64):
            other = build_model(f, n, kind)
            classic = build_model(f, n, CLASSIC)
            diff = model_from_coeffs(n, [a - b for a, b in zip(other.coeffs, classic.coeffs)])
            want = sup_norm(lambda xs: evaluate(diff, xs))
            got = proximity_gap(f, n, kind)
            assert (got.value, got.argmax) == (want.value, want.argmax)


# ---------------------------------------------------------------------------
# endpoint gap sums: sum_k e_k x^k (1-x)^(m-k) / den from the terms near x's end

EPS = F(2) ** -52
TRUNCATION = F(1, 2 ** 64)
# exact dyadic floats: powers of two towards both ends and a spread between
ENDPOINT_POINTS = sorted({F(0), F(1)} | {F(1, 2 ** e) for e in range(1, 17)}
                         | {1 - F(1, 2 ** e) for e in range(1, 17)}
                         | {F(k, 2 ** 12) for k in range(1, 2 ** 12, 97)})


def _fits(m, j):
    """(m + 1 - j) B(j) <= 2^-64, B(j) = j^j (m-j)^(m-j) / m^m."""
    return (m + 1 - j) * F(j ** j * (m - j) ** (m - j), m ** m) <= TRUNCATION


def _row_sum(e, den, x):
    """The exact sum_k e_k x^k (1-x)^(m-k) / den at a rational x."""
    a, b = x.numerator, x.denominator
    return F(homogeneous_sum(e, a, b - a), den * b ** (len(e) - 1))


def endpoint_sum_of_row(e, den, xs):
    """operators._endpoint_sum of the whole row e, given the two ends it keeps."""
    m = len(e) - 1
    j = operators._endpoint_terms(m)
    return operators._endpoint_sum(e[:j], e[m + 1 - j:], m, den, xs)


def test_endpoint_terms_is_the_least_count_within_the_truncation_bound():
    for m in [*range(0, 300), 512, 1024, 2048]:
        j = operators._endpoint_terms(m)
        if j == m + 1:
            assert not any(_fits(m, i) for i in range(1, m // 2 + 1))
        else:
            assert 1 <= j <= m // 2 and _fits(m, j) and not _fits(m, j - 1)
    assert [operators._endpoint_terms(m) for m in (69, 70, 512, 2048)] == [70, 31, 11, 8]


@pytest.mark.parametrize("m", [70, 128, 512])
def test_endpoint_terms_drop_at_most_the_stated_bound(m):
    # the all-ones row is the worst case of the bound: every dropped term
    # counts with |e_k| / den = 1
    j = operators._endpoint_terms(m)
    dropped = [0] * j + [1] * (m + 1 - j)  # the terms k >= j of the left side
    for x in ENDPOINT_POINTS:
        if x <= F(1, 2):
            assert _row_sum(dropped, 1, x) <= TRUNCATION


def test_endpoint_sum_is_the_kernel_call_up_to_degree_69():
    # nothing is dropped below the first truncating degree, so the value is
    # the one evaluate gives for the model of the same row, bit for bit
    rng = random.Random(23)
    xs = np.concatenate((np.linspace(0.0, 1.0, 257), [2.0 ** -40, 0.5, 1.0 - 2.0 ** -40]))
    for m in (1, 16, 63, 64, 69):
        for den in (1, 3 * 2 ** 70):
            e = [rng.randrange(-2 ** 80, 2 ** 80) for _ in range(m + 1)]
            want = evaluate(BernsteinModel(n=m, scaled=tuple(e), denominator=den), xs)
            assert np.array_equal(endpoint_sum_of_row(e, den, xs), want)


@pytest.mark.parametrize("kind", [FLOOR, NEAREST])
@pytest.mark.parametrize("m", [63, 64, 65, 70, 128, 512, 2048])
def test_endpoint_sum_of_gap_rows_is_exact_within_its_bounds(m, kind):
    # the s-th derivative rows of a gap, against exact Fractions: within the
    # kernel's rounding bound 4 (m + 1) eps sum_k |e_k| x^k (1-x)^(m-k) / den
    # plus the stated truncation bound 2^-64 max |e_k| / den
    xs = np.array([float(x) for x in ENDPOINT_POINTS])
    for s in range(3):
        _, hi, den = gap_interval(X3, m + s, kind)
        e, deg = operators._derivative_row(hi, m + s, s)
        assert deg == m
        got = endpoint_sum_of_row(e, den, xs)
        cut = TRUNCATION * F(max(map(abs, e)), den)
        size = [abs(v) for v in e]
        for x, v in zip(ENDPOINT_POINTS, got):
            bound = 4 * (m + 1) * EPS * _row_sum(size, den, x) + cut
            assert abs(F(v) - _row_sum(e, den, x)) <= bound


@pytest.mark.parametrize("m", [70, 128, 512, 2048])
def test_endpoint_sum_keeps_each_kept_term_to_rounding(m):
    # a row with one nonzero entry next to the cut, on either side: its
    # value is only rounded, never dropped, on the side that keeps it
    j = operators._endpoint_terms(m)
    for k in (0, j - 1, m - j + 1, m):
        e = [0] * (m + 1)
        e[k] = 7
        pts = [x for x in ENDPOINT_POINTS if (x <= F(1, 2)) == (k < j)]
        got = endpoint_sum_of_row(e, 3, np.array([float(x) for x in pts]))
        for x, v in zip(pts, got):
            want = _row_sum(e, 3, x)
            assert abs(F(v) - want) <= 4 * (m + 1) * EPS * want + F(2) ** -1000


NONLINEAR_POLYNOMIALS = [e.spec.name for e in corpus.entries()
                         if e.spec.poly_coeffs is not None and not e.spec.integer_linear]
# both ends of the first truncating degrees, and far past them
GAP_SUM_DEGREES = (1, 2, 16, 69, 70, 71, 72, 73, 512, 2048)


def _assert_gap_sum_is_the_full_row_sum(f, kind, row_of):
    """gap_sum(f, n, kind, s), s <= 2, bit for bit on the default grid and
    around 1/2, against the whole row (row, scale) = row_of(lo, hi) of the
    gap_interval rows over scale den, differentiated on ints, of which
    _endpoint_sum is given the two ends."""
    xs = np.concatenate((grid_points(DEFAULT_GRID),
                         [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]))
    for n in GAP_SUM_DEGREES:
        lo, hi, den = gap_interval(f, n, kind)
        row, scale = row_of(lo, hi)
        for s in range(3):
            want = endpoint_sum_of_row(operators._derivative_row(row, n, s)[0], scale * den, xs)
            assert np.array_equal(operators.gap_sum(f, n, kind, s)(xs), want), (n, s)


@pytest.mark.parametrize("kind", [FLOOR, NEAREST])
@pytest.mark.parametrize("name", NONLINEAR_POLYNOMIALS)
def test_gap_sum_of_a_polynomial_is_the_sum_of_its_differentiated_hi_row(name, kind):
    # the rows of a polynomial are equal, so the midpoint row is 2 hi over
    # 2 den: differentiated on ints and divided once per coefficient, it
    # gives the floats of the hi row over den at every order
    def hi_row(lo, hi):
        assert lo == hi
        return hi, 1

    _assert_gap_sum_is_the_full_row_sum(builtin(name), kind, hi_row)


@pytest.mark.parametrize("name", ["abs_shift", "holder_interior(1/2)", "holder_interior(3/2)",
                                  "holder_interior(3/2,2,-1)"])
def test_gap_sum_of_a_non_polynomial_is_the_midpoint_row_sum(name):
    for kind in (FLOOR, NEAREST):
        _assert_gap_sum_is_the_full_row_sum(
            builtin(name), kind, lambda lo, hi: ([a + b for a, b in zip(lo, hi)], 2))


@pytest.mark.parametrize("name", [e.spec.name for e in corpus.entries()])
def test_gap_sum_takes_one_bracket_per_end_node(name, monkeypatch):
    # no gap row, no bracket row and no binomial row: one APPROX_BITS
    # bracket at c = C(n,k) for each node an end needs, k < J + s and
    # k > n - J - s, J = _endpoint_terms(n - s)
    f = builtin(name)
    oracle = f._scaled_bracket
    calls = []

    def counting(k, n, bits, c):
        calls.append((k, n, bits, c))
        return oracle(k, n, bits, c)

    def refuse(*args, **kwargs):
        raise AssertionError("gap_sum must not call this")

    monkeypatch.setattr(f, "_scaled_bracket", counting)
    for reader in ("_scaled_bracket_row", "scaled_bracket_row", "eval_bounds"):
        monkeypatch.setattr(f, reader, refuse)
    for reader in ("gap_interval", "build_model", "binomial_row"):
        monkeypatch.setattr(operators, reader, refuse)
    for kind in (FLOOR, NEAREST):
        for n in (16, 70, 512, 2048, 16384):
            for s in range(3):
                calls.clear()
                operators.gap_sum(f, n, kind, s)
                size = operators._endpoint_terms(n - s) + s
                nodes = [k for k in range(n + 1) if k < size or k > n - size]
                assert len(nodes) == min(2 * size, n + 1)
                assert calls == [(k, n, APPROX_BITS, math.comb(n, k)) for k in nodes]


def test_gap_sum_refusals():
    assert np.array_equal(operators.gap_sum(X2, 2, FLOOR, 3)(np.array([0.0, 0.3, 1.0])),
                          np.zeros(3))
    with pytest.raises(ValueError, match="kind must be FloorInt or NearestInt"):
        operators.gap_sum(X2, 8, CLASSIC)
    with pytest.raises(ValueError, match="gap_sum: order must be >= 0, got -1"):
        operators.gap_sum(X2, 8, FLOOR, -1)
    with pytest.raises(ValueError, match="gap_sum: n must be an integer, got 8.5"):
        operators.gap_sum(X2, 8.5, FLOOR)


@pytest.mark.parametrize("name", ["holder_interior(1/2)", "holder_interior(3/2)"])
def test_integer_kinds_round_each_irrational_node_in_one_attempt(name, monkeypatch):
    # the node bracket rounds every node on integers, so build_model asks for
    # no enclosure at all; the rounded integers are still certified below
    f = builtin(name)
    oracle = f.eval_bounds
    calls = []

    def counting(x, bits):
        calls.append(F(x))
        return oracle(x, bits)

    monkeypatch.setattr(f, "eval_bounds", counting)
    for n in (64, 512):
        nodes = [F(k, n) for k in range(n + 1)]
        irrational = [x for x in nodes if f.eval_exact(x) is None]
        assert irrational  # the test needs irrational nodes to mean anything
        enclosures = {x: oracle(x, 4096) for x in irrational}
        for kind in (FLOOR, NEAREST):
            calls.clear()
            model = build_model(f, n, kind)
            assert calls == []
            for k, (x, c) in enumerate(zip(nodes, model.coeffs)):
                scale = math.comb(n, k)
                m = c * scale
                assert m.denominator == 1
                if x in enclosures:
                    lo, hi = (v * scale for v in enclosures[x])
                else:
                    lo = hi = f.eval_exact(x) * scale
                if kind is FLOOR:
                    assert m <= lo and hi < m + 1
                else:
                    assert m - F(1, 2) <= lo and hi <= m + F(1, 2)


HOLDER_SPECS = ["holder_interior(1/2)", "holder_interior(3/2)",
                "holder_interior(3/2,2,-1)", "holder_interior(1/3,-1,2)"]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(HOLDER_SPECS), st.integers(1, 128), st.sampled_from(list(TiePolicy)))
@example("holder_interior(3/2)", 32, TiePolicy.HALF_TO_EVEN)  # exact ties at k = 7, 15, 17, 25
@example("holder_interior(3/2,2,-1)", 128, TiePolicy.HALF_DOWN)
def test_integer_models_match_escalated_rounding_of_fine_enclosures(name, n, tie):
    f = builtin(name)
    scaled = []  # the 4096-bit enclosure of C(n,k) f(k/n) at every node
    for k in range(n + 1):
        lo, hi = f.eval_bounds(F(k, n), 4096)
        scaled.append((lo * math.comb(n, k), hi * math.comb(n, k)))
    for kind, mode in ((FLOOR, "floor"), (NEAREST, "nearest")):
        # both ends of every enclosure round alike, so they fix the true value
        want = []
        for k, (lo, hi) in enumerate(scaled):
            ends = {round_ratio(v.numerator, v.denominator, mode, tie) for v in (lo, hi)}
            assert len(ends) == 1, (k, mode)
            want += ends
        model = build_model(f, n, kind, tie)
        assert (list(model.scaled), model.denominator) == (want, 1)


@pytest.mark.parametrize("name", HOLDER_SPECS)
def test_classic_models_store_bracket_midpoints(name, monkeypatch):
    # coefficient k is the midpoint of the APPROX_BITS bracket of f(k/n) itself
    # (c = 1), the exact value at the exact nodes, read with no enclosure, and
    # within 2^-(APPROX_BITS + 1) / n of the 4096-bit enclosure of f(k/n)
    f = builtin(name)
    ends = {n: [bracket_ends(f, n, k, 1) for k in range(n + 1)] for n in (1, 2, 7, 64)}
    enclosures = {n: [f.eval_bounds(F(k, n), 4096) for k in range(n + 1)] for n in ends}

    def refuse(*args, **kwargs):
        raise AssertionError("build_model must not call eval_bounds")

    monkeypatch.setattr(f, "eval_bounds", refuse)
    for n, row in ends.items():
        model = build_model(f, n, CLASSIC)
        assert model.coeffs_exact == all(lo == hi for lo, hi in row) == (n <= 2)
        half = F(1, n << (APPROX_BITS + 1))
        for k, (c, (lo, hi)) in enumerate(zip(model.coeffs, row)):
            assert c == (lo + hi) / 2
            assert lo == c == hi or lo < c < hi
            if lo == hi:
                assert c == f.eval_exact(F(k, n))
            f_lo, f_hi = enclosures[n][k]
            assert f_lo - half <= c <= f_hi + half


def test_model_rejects_malformed_integer_form():
    for bad in (
        dict(n=2, scaled=(0, 1)),  # n + 1 coefficients needed
        dict(n=1, scaled=(0, 1, 2)),
        dict(n=1, scaled=(0, 1), denominator=0),
        dict(n=1, scaled=(0, 1), denominator=-3),
        dict(n=1, scaled=(0, 1), denominator=2.0),
        dict(n=1, scaled=(0, 1), denominator=F(2)),
        dict(n=1, scaled=(0, F(1, 2))),
        dict(n=1, scaled=(0, 1.0)),
    ):
        with pytest.raises(ValueError):
            BernsteinModel(**bad)
    with pytest.raises(ValueError, match="coefficient count"):
        model_from_coeffs(3, [F(1), F(2)])


def test_model_data_is_kept_in_lowest_terms():
    # x^2 at n = 4 is built over D_f n^deg = 16 and stored over 4
    m = build_model(X2, 4, CLASSIC)
    assert (m.scaled, m.denominator) == ((0, 1, 6, 9, 4), 4)
    assert m == model_from_coeffs(4, m.coeffs)
    zero = BernsteinModel(n=1, scaled=(0, 0), denominator=6)
    assert (zero.scaled, zero.denominator) == ((0, 0), 1)


def test_models_of_one_polynomial_compare_equal_across_kinds():
    # 3x + 2 is reproduced by every kind, and a model does not record its kind
    f = builtin("integer_linear(3,2)")
    assert build_model(f, 4, CLASSIC) == build_model(f, 4, FLOOR)


def test_build_model_takes_integral_degrees_only():
    want = build_model(X3, 8, NEAREST)
    for n in (8.0, np.int64(8), F(8)):
        got = build_model(X3, n, NEAREST)
        assert got == want and type(got.n) is int
    for n in (8.5, F(17, 2), float("nan")):
        with pytest.raises(ValueError, match="build_model: n must be an integer"):
            build_model(X3, n, CLASSIC)


@pytest.mark.parametrize("name", [e.spec.name for e in corpus.entries()
                                  if e.spec.poly_coeffs is not None])
def test_classic_power_form_is_the_classic_model(name):
    # B_n f = sum_j e_j x^j / den, of degree min(deg, n), at n < deg too
    f = builtin(name)
    deg = len(f.poly_coeffs) - 1
    for n in (*range(1, deg + 2), 8, 255, 4096):
        e, den = classic_power_form(f, n)
        assert len(e) == min(deg, n) + 1
        assert all(type(v) is int for v in (*e, den))
        model = build_model(f, n, CLASSIC)
        for x in (F(1, 2), F(1, 3), F(601, 999)):
            a, b = x.numerator, x.denominator
            assert F(homogeneous_sum(e, a, b), den * b ** (len(e) - 1)) == evaluate_exact(model, x)


def test_classic_power_form_refuses_what_it_cannot_read():
    for n in (8.5, 0):
        with pytest.raises(ValueError, match="classic_power_form: n must be"):
            classic_power_form(X3, n)
    assert classic_power_form(X3, np.int64(8)) == classic_power_form(X3, 8)
    with pytest.raises(ValueError, match="abs_shift is not a polynomial spec"):
        classic_power_form(builtin("abs_shift"), 8)
    with pytest.raises(ValueError, match="x_over_3: bracket den must depend only on"):
        classic_power_form(_x_over_3(lambda n, k: 3 * n * (k + 1), poly=True), 4)
    # inexact node values are not a polynomial's, so their first deg + 1 do
    # not fix B_n f: x^2 with its bracket at k = 1 flagged inexact
    f = corpus.FunctionSpec("x2_inexact", s_max=None, poly_coeffs=X2.poly_coeffs,
                            deriv_float=X2.deriv_float, deriv_exact=X2.deriv_exact,
                            scaled_bracket=lambda k, n, bits, c: (2 * k * k * c, 2 * n * n, k != 1))
    with pytest.raises(corpus.CapabilityError, match="x2_inexact: the power form of B_n f needs"):
        classic_power_form(f, 4)


def _x_over_3(den_of, row_oracle=False, poly=False):
    """f = x/3 with the node bracket over den_of(n, k), exact at every node;
    with ``row_oracle`` the spec also serves whole rows of those brackets,
    and with ``poly`` it declares its coefficients (0, 1/3)."""
    def bracket(k, n, bits, c):
        den = den_of(n, k)
        return k * den * c // (3 * n), den, True

    def row(n, bits, cs):
        return [bracket(k, n, bits, c) for k, c in enumerate(cs)]

    return corpus.FunctionSpec("x_over_3", s_max=0, scaled_bracket=bracket,
                               scaled_bracket_row=row if row_oracle else None,
                               poly_coeffs=(F(0), F(1, 3)) if poly else None,
                               deriv_float=lambda s, xs: xs / 3,
                               deriv_exact=lambda s, x: x / 3)


def test_a_bracket_row_with_two_dens_is_refused():
    # den = 3n stays put over a row; den = 3n(k+1) moves with k, which would
    # read every bracket over den_0 = 3n: coefficients (0, 1/6, 1/2, 1, 5/3)
    steady = _x_over_3(lambda n, k: 3 * n)
    assert build_model(steady, 4, CLASSIC).coeffs == (0, F(1, 12), F(1, 6), F(1, 4), F(1, 3))
    f = _x_over_3(lambda n, k: 3 * n * (k + 1))
    for call in (lambda: f.scaled_bracket_row(4, 1, (1,) * 5),
                 lambda: build_model(f, 4, CLASSIC),
                 lambda: gap_interval(f, 4, FLOOR),
                 lambda: proximity_gap_exact(f, 4, FLOOR, [F(1, 2)])):
        with pytest.raises(ValueError, match="x_over_3: bracket den must depend only on"):
            call()


def test_a_row_oracle_with_two_dens_is_refused():
    # the spec's own row oracle is checked as single bracket calls are
    steady = _x_over_3(lambda n, k: 3 * n, row_oracle=True)
    assert build_model(steady, 4, CLASSIC).coeffs == (0, F(1, 12), F(1, 6), F(1, 4), F(1, 3))
    f = _x_over_3(lambda n, k: 3 * n * (k + 1), row_oracle=True)
    for call in (lambda: f.scaled_bracket_row(4, 1, (1,) * 5),
                 lambda: build_model(f, 4, CLASSIC),
                 lambda: gap_interval(f, 4, FLOOR),
                 lambda: proximity_gap_exact(f, 4, FLOOR, [F(1, 2)])):
        with pytest.raises(ValueError, match="x_over_3: bracket den must depend only on"):
            call()


def test_integer_kinds_carry_denominator_one():
    for entry in corpus.entries():
        f = entry.spec
        for kind in (FLOOR, NEAREST):
            for n in (1, 9, 64):
                m = build_model(f, n, kind)
                assert m.denominator == 1
                assert m.coeffs == tuple(F(e, math.comb(n, k)) for k, e in enumerate(m.scaled))
                assert derivative_model(m, 1).denominator == 1


def test_non_integer_endpoint_rejected():
    bad = corpus._polynomial_spec("half_shift", [F(1, 2), F(1)])
    with pytest.raises(HypothesisViolation, match="is not an integer"):
        proximity_gap(bad, 4, FLOOR)
    with pytest.raises(HypothesisViolation, match="is not an integer"):
        saturation_probe(bad, FLOOR, 0, [4, 8])


def test_irrational_endpoint_rejected_from_its_inexact_bracket():
    # f = sqrt(2) + x: no exact value anywhere, so only the n = 1 brackets
    # can decide the endpoints; an inexact one proves a non-integer value
    def bracket(k, n, bits, c):
        den = n << bits
        return math.isqrt(2 * (den * c) ** 2) + (c << bits) * k, den, False

    root2 = corpus.FunctionSpec(
        "root2_shift", s_max=0, deriv_float=lambda s, xs: np.sqrt(2.0) + xs,
        deriv_exact=lambda s, x: None, scaled_bracket=bracket)
    assert not root2.integer_endpoints
    with pytest.raises(HypothesisViolation, match="is not an integer"):
        operators.require_integer_endpoints(root2)
    with pytest.raises(HypothesisViolation, match="is not an integer"):
        proximity_gap(root2, 4, FLOOR)


# ---------------------------------------------------------------------------
# derivative models


def test_derivative_model_frozen_x2():
    m = build_model(X2, 2, CLASSIC)
    dm = derivative_model(m, 1)
    assert dm.coeffs == (F(1, 2), F(3, 2))
    assert dm.n == 1


def test_derivative_model_s_equals_n():
    # third derivative of the degree-3 model is the constant 3! * Delta^3
    m = build_model(X3, 3, CLASSIC)
    dm = derivative_model(m, 3)
    assert dm.coeffs == (F(4, 3),)
    assert dm.n == 0


def test_derivative_model_degenerate():
    # s > n gives the zero model, the true derivative; s = 0 the model itself
    m = build_model(X2, 2, CLASSIC)
    for s in (3, 4, 50):
        dm = derivative_model(m, s)
        assert (dm.n, dm.scaled, dm.denominator) == (0, (0,), 1)
        assert evaluate_exact(dm, F(1, 3)) == 0
    assert derivative_model(m, 0) is m
    with pytest.raises(ValueError, match="order must be >= 0"):
        derivative_model(m, -1)


def test_derivative_model_matches_scaled_samples():
    """Coefficient k of the s-th derivative model equals
    n!/(n-s)! * Delta^s f(k/n) for the classic operator."""
    f = builtin("monomial(5)")
    for n, s in [(8, 1), (8, 2), (12, 3)]:
        m = build_model(f, n, CLASSIC)
        dm = derivative_model(m, s)
        scale = 1
        for i in range(s):
            scale *= n - i
        samples = [f.eval_exact(F(k, n)) for k in range(n + 1)]
        for _ in range(s):
            samples = [b - a for a, b in zip(samples, samples[1:])]
        assert dm.coeffs == tuple(scale * v for v in samples)


def test_integer_derivative_matches_differences_on_inexact_classic_model():
    # a Classic Hoelder model stores bracket midpoints: coeffs_exact is False
    m = build_model(builtin("holder_interior(1/2)"), 12, CLASSIC)
    assert not m.coeffs_exact
    diffs = list(m.coeffs)
    for s in (1, 2, 3):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        dm = derivative_model(m, s)
        assert dm.coeffs == tuple(math.perm(12, s) * d for d in diffs)
        assert not dm.coeffs_exact and m.denominator % dm.denominator == 0


def test_derivative_model_endpoint_values_are_coeffs():
    m = build_model(X2, 16, NEAREST)
    dm = derivative_model(m, 1)
    assert evaluate_exact(dm, F(0)) == dm.coeffs[0]
    assert evaluate_exact(dm, F(1)) == dm.coeffs[-1]
