"""The float kernel behind ``evaluate``, checked against ``evaluate_exact``.

Every float result must lie within the a-priori bound

    |evaluate(m, x) - m(x)| <= 4 (n+1) eps sum_k |c_k| C(n,k) x^k (1-x)^(n-k)
                               + 4 (n+1) eta (1 + max_k |c_k|)

of the exact value at the float point x itself (Fraction(x) is exact), which
also covers rounding the rational coefficients to floats.  The first term is
the usual relative bound; it is computed exactly, as evaluate_exact of the
model with |c_k|.  The second is the gradual-underflow term: a product or
quotient that lands below the normal range is off by up to eta/2 = 2^-1075
absolutely, whatever its size, so a value near the subnormal range (e.g.
coefficients (0, 1.5) at x = 5e-324) cannot meet a purely relative bound.
Next to the first term it is negligible except for such values.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bernint import (
    DEFAULT_GRID,
    BernsteinModel,
    OperatorKind,
    build_model,
    builtin,
    derivative_model,
    evaluate,
    evaluate_exact,
    grid_points,
)
from bernint.operators import _TABLE_POINTS, _finished

from conftest import model_from_coeffs

CLASSIC = OperatorKind.CLASSIC
EPS = F(2) ** -52
ETA = F(2) ** -1074  # smallest subnormal
# points where the kernel is at its edges: both ends, the side switch at
# 1/2, the smallest subnormal and the float just below 1 (1-x = 2^-53)
EDGE_POINTS = [0.0, 0.5, 1.0, 5e-324, 1.0 - 2.0**-53]


def model_of(coeffs) -> BernsteinModel:
    return model_from_coeffs(CLASSIC, len(coeffs) - 1, [F(c) for c in coeffs])


def assert_within_bound(model: BernsteinModel, xs) -> None:
    got = evaluate(model, np.array(xs, dtype=np.float64))
    assert got.shape == (len(xs),)
    absolute = model_from_coeffs(model.kind, model.n, [abs(c) for c in model.coeffs])
    largest = max(absolute.coeffs)
    for x, value in zip(xs, got.tolist()):
        err = abs(F(value) - evaluate_exact(model, F(x)))
        bound = 4 * (model.n + 1) * (EPS * evaluate_exact(absolute, F(x)) + ETA * (1 + largest))
        assert err <= bound, f"n={model.n} x={x!r}: error {float(err):.3g} > {float(bound):.3g}"


coefficients = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                         allow_infinity=False)
# tiny points put h and the value itself near the subnormal range
points = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                   st.floats(min_value=0.0, max_value=1e-150),
                   st.sampled_from(EDGE_POINTS))


@settings(max_examples=150, deadline=None)
@example(coeffs=[0.0, 1.5], xs=[5e-324])  # exact value 1.5 * 2^-1074 is not a float
@given(st.lists(coefficients, min_size=1, max_size=65), st.lists(points, min_size=1, max_size=8))
def test_evaluate_within_error_bound_of_exact(coeffs, xs):
    assert_within_bound(model_of(coeffs), xs)


# from n = 1030 on, C(n, n/2) and the weight sums pass the float range
@pytest.mark.parametrize("n, scale", [
    pytest.param(n, 1.0, id=str(n)) for n in (128, 256, 512, 1024, 2048)
] + [pytest.param(2048, 1e300, id="2048-huge")])
def test_evaluate_within_error_bound_at_high_degree(n, scale):
    rng = np.random.default_rng(n)
    model = model_of((scale * rng.standard_normal(n + 1)).tolist())
    # an exact value at a random float costs about 0.2 s at n = 2048
    samples = 12 if n <= 512 else 3
    xs = [0.0, 0.5, 1.0, 1.0 - 2.0**-53] + rng.uniform(0.0, 1.0, size=samples).tolist()
    assert np.all(np.isfinite(evaluate(model, np.array(xs))))
    assert_within_bound(model, xs)


# widths on both sides of the kernel's table/loop threshold
WIDTHS = [1, 2, 31, _TABLE_POINTS, _TABLE_POINTS + 1, 2 * _TABLE_POINTS + 7]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@example(coeffs=np.random.default_rng(512).standard_normal(513).tolist(),
         width=WIDTHS[-1], seed=0, cuts=[1, _TABLE_POINTS])
@given(st.lists(coefficients, min_size=1, max_size=65), st.sampled_from(WIDTHS),
       st.integers(0, 2**32 - 1), st.lists(st.integers(0, 2 * _TABLE_POINTS + 7), max_size=3))
def test_evaluate_does_not_depend_on_the_batch(coeffs, width, seed, cuts):
    # one fixed float sequence per point, whichever loop order its batch takes
    model = model_of(coeffs)
    rng = np.random.default_rng(seed)
    near_half = 0.5 + rng.uniform(-1e-3, 1e-3, width)  # both sides of x = 1/2
    xs = np.where(rng.random(width) < 0.5, near_half, rng.uniform(0.0, 1.0, width))
    xs[: len(EDGE_POINTS)] = EDGE_POINTS[:width]
    got = evaluate(model, xs)
    assert _bits(got) == _bits([evaluate(model, float(x)) for x in xs])
    bounds = [0, *sorted(min(c, width) for c in cuts), width]
    pieces = [evaluate(model, xs[i:j]) for i, j in zip(bounds, bounds[1:])]
    assert _bits(got) == _bits(np.concatenate(pieces))


def test_evaluate_edge_points_on_corpus_and_derivative_models():
    x2 = builtin("monomial(2)")
    models = [
        build_model(x2, 1, CLASSIC),
        build_model(builtin("holder_interior(1/2)"), 33, OperatorKind.FLOOR_INT),
        derivative_model(build_model(x2, 2, CLASSIC), 3),
    ]
    slopes = derivative_model(build_model(builtin("abs_shift"), 40, OperatorKind.NEAREST_INT), 1)
    assert min(slopes.coeffs) < 0 < max(slopes.coeffs)
    models.append(slopes)
    assert [m.n for m in models[:3]] == [1, 33, 0]
    for m in models:
        assert_within_bound(m, EDGE_POINTS + [0.25, 0.75, 1.0 / 3.0])
        ends = evaluate(m, np.array([0.0, 1.0])).tolist()
        assert ends == [float(m.coeffs[0]), float(m.coeffs[-1])]


def test_single_coefficient_and_empty_inputs():
    one = model_of([4.25])
    assert evaluate(one, np.array([0.0, 0.3, 1.0])).tolist() == [4.25, 4.25, 4.25]
    assert evaluate(one, np.array([])).size == 0
    assert evaluate(model_of([1.0, -2.0, 0.5]), np.array([])).size == 0


def _tail_rows(n):
    rng = np.random.default_rng(n)
    normal = rng.standard_normal(n + 1)
    k = np.arange(n + 1, dtype=np.float64)
    return {
        "c0-zero": np.concatenate(([0.0], normal[1:])),
        "growing": k**3,
        "alternating": (-1.0) ** k * (1.0 + k),
        "mostly-zero": np.where(rng.random(n + 1) < 0.9, 0.0, normal),
        "1e300": 1e300 * normal,
        "1e-300": 1e-300 * normal,
    }


@pytest.mark.parametrize("n", [128, 256, 512, 1024, 2048])
def test_wide_grid_matches_table_slices(n):
    # the wide loop stops each point once its remaining steps are no-ops
    # (the tail cut); the tables run every step, so they are the reference.
    # The sorted grid keeps the finished points at the ends of the window.
    xs = np.sort(np.concatenate((grid_points(DEFAULT_GRID), EDGE_POINTS)))
    assert xs.size > _TABLE_POINTS
    for name, coeffs in _tail_rows(n).items():
        model = model_from_coeffs(CLASSIC, n, [F(c) for c in coeffs.tolist()])
        got = evaluate(model, xs)
        slices = [evaluate(model, xs[i:i + _TABLE_POINTS])
                  for i in range(0, xs.size, _TABLE_POINTS)]
        assert _bits(got) == _bits(np.concatenate(slices)), name


def test_finished_predicate_edges():
    def done(r=0.5, w=0.0, den=1.0, num=1.0, p=0.0):
        return bool(_finished(*(np.array([v]) for v in (r, w, den, num, p)))[0])

    # a zero weight leaves every later term a signed zero: -0.0 + 0.0 is
    # +0.0, so num = -0.0 never finishes, and num = +0.0 does
    assert np.copysign(1.0, -0.0 + 0.0) == 1.0
    assert not done(num=-0.0)
    assert not done(num=-0.0, w=2.0**-80, p=2.0**-80)
    assert done(num=0.0)
    assert done(num=5e-324) and not done(num=5e-324, w=2.0**-80, p=2.0**-1074)
    # num a power of two and a term of the other sign: the gap below is
    # half the gap above, so only a term under a quarter of spacing(num)
    # is sure to round away
    for num in (1.0, -1.0):
        small, large = 2.0**-55, 1.5 * 2.0**-54
        assert num - np.copysign(small, num) == num
        assert num - np.copysign(large, num) != num
        assert done(num=num, w=2.0**-60, p=small)
        assert not done(num=num, w=2.0**-60, p=large)
    # the weights must not grow again, and den must not move: w at half
    # the spacing of an odd den rounds den up
    assert done(r=1.0) and not done(r=np.nextafter(1.0, 2.0))
    den = 1.0 + 2.0**-52
    assert den + 2.0**-53 != den
    assert not done(den=den, w=2.0**-53) and done(den=den, w=2.0**-54)
