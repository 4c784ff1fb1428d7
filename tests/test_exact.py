"""Exact integer/rational arithmetic: binomials, directed rounding of ratios
and brackets, and rational powers."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bernint import (
    TiePolicy,
    binomial_row,
    iroot,
    rational_pow_bounds,
    rational_pow_exact,
)
from bernint.exact import (_iroot_newton, common_denominator, homogeneous_sum,
                           round_bracket, round_ratio)


# ---------------------------------------------------------------------------
# the exact evaluator


def test_homogeneous_sum_edge_cases():
    e = [3, -1, 0, 7]
    assert homogeneous_sum(e, 0, 5) == 3 * 5**3  # p = 0 keeps only e_0 q^m
    assert homogeneous_sum(e, 2, 0) == 7 * 2**3  # q = 0 keeps only e_m p^m
    assert homogeneous_sum(e, 0, 0) == 0
    assert homogeneous_sum([-9], 4, 6) == -9  # one coefficient: degree 0
    assert homogeneous_sum([], 4, 6) == 0
    assert homogeneous_sum(e, 2, 3) == 3 * 27 - 1 * 2 * 9 + 0 + 7 * 8
    # rows either side of the block cutoff (100, and 1024 when p and q have
    # at most one bit), every low-order remainder 0..15, and rows either
    # side of multiples of the block length 16; past 16 * 101 coefficients
    # the block values themselves are summed in blocks
    rng = random.Random(29)
    lengths = set(range(96, 120)) | {1024, 1025, 1041, 1616, 1617, 1700}
    lengths |= {16 * j + d for j in range(8, 20) for d in (-1, 0, 1)}
    for length in sorted(lengths):
        e = [rng.randrange(-10**40, 10**40) for _ in range(length)]
        for p, q in ((0, 1), (1, 0), (0, 0), (1, 1), (-1, 1), (1, -1), (-1, -1),
                     (-3, 5), (7, -2), (-6, -11), (0, -4), (-9, 0)):
            assert homogeneous_sum(e, p, q) == _term_by_term(e, p, q), (length, p, q)
            assert homogeneous_sum(tuple(e), p, q) == _term_by_term(e, p, q)


def _term_by_term(e, p, q):
    m = len(e) - 1
    return sum(ek * p**k * q ** (m - k) for k, ek in enumerate(e))


# the length is drawn first: st.lists alone rarely passes 20 elements, and
# the block path starts above 100
@given(st.integers(1, 300).flatmap(
           lambda m: st.lists(st.integers(-10**30, 10**30), min_size=m, max_size=m)),
       st.integers(-50, 50), st.integers(-50, 50))
def test_homogeneous_sum_property(e, p, q):
    assert homogeneous_sum(e, p, q) == _term_by_term(e, p, q)


def test_common_denominator():
    assert common_denominator([F(1, 2), F(-1, 3), 2, 0]) == ([3, -2, 12, 0], 6)
    assert common_denominator([F(5)]) == ([5], 1)


# ---------------------------------------------------------------------------
# binomial coefficients


def test_binomial_frozen_values():
    assert binomial_row(4)[2] == 6
    assert binomial_row(30)[15] == 155117520
    assert binomial_row(0) == (1,)
    assert binomial_row(5) == (1, 5, 10, 10, 5, 1)
    assert binomial_row.cache_info().maxsize is not None  # rows are not kept forever


def test_binomial_row_against_pascal_triangle():
    # independent oracle: additive Pascal recurrence, no multiplication
    row = [1]
    for n in range(1, 201):
        row = [1] + [row[k - 1] + row[k] for k in range(1, n)] + [1]
        assert binomial_row(n) == tuple(row), f"row {n} mismatch"


def test_binomial_out_of_range():
    with pytest.raises(ValueError):
        binomial_row(-1)
    assert len(binomial_row(5)) == 6  # no C(5, 6) entry to index


# ---------------------------------------------------------------------------
# directed rounding

# references for round_ratio that do not call it, on Fraction's own floor,
# ceil and round (which takes exact halves to the even neighbour)
NEAREST = {
    TiePolicy.HALF_UP: lambda q: math.floor(q + F(1, 2)),
    TiePolicy.HALF_DOWN: lambda q: math.ceil(q - F(1, 2)),
    TiePolicy.HALF_AWAY_FROM_ZERO: lambda q: (1 if q >= 0 else -1) * math.floor(abs(q) + F(1, 2)),
    TiePolicy.HALF_TO_EVEN: round,
}


def test_floor_frozen():
    assert round_ratio(7, 2, "floor") == 3
    assert round_ratio(-7, 2, "floor") == -4
    assert round_ratio(6, 1, "floor") == 6


@pytest.mark.parametrize(
    "q,policy,expected",
    [
        (F(5, 2), TiePolicy.HALF_UP, 3),
        (F(-5, 2), TiePolicy.HALF_UP, -2),
        (F(5, 2), TiePolicy.HALF_DOWN, 2),
        (F(-5, 2), TiePolicy.HALF_DOWN, -3),
        (F(5, 2), TiePolicy.HALF_AWAY_FROM_ZERO, 3),
        (F(-5, 2), TiePolicy.HALF_AWAY_FROM_ZERO, -3),
        (F(5, 2), TiePolicy.HALF_TO_EVEN, 2),
        (F(-5, 2), TiePolicy.HALF_TO_EVEN, -2),
        (F(3, 10), TiePolicy.HALF_UP, 0),
        (F(7, 10), TiePolicy.HALF_DOWN, 1),
    ],
)
def test_nearest_ties(q, policy, expected):
    assert round_ratio(q.numerator, q.denominator, "nearest", policy) == expected
    assert NEAREST[policy](q) == expected


def test_nearest_default_policy_is_half_away():
    assert round_ratio(5, 2, "nearest") == 3
    assert round_ratio(-5, 2, "nearest") == -3


@pytest.mark.parametrize("policy", list(TiePolicy))
def test_round_ratio_edge_cases(policy):
    for num in (-3, 0, 5):  # den = 1: every integer rounds to itself
        assert round_ratio(num, 1, "floor") == num
        assert round_ratio(num, 1, "nearest", policy) == num
    # negative numerators: floor goes toward -inf, nearest to the nearer integer
    assert round_ratio(-7, 2, "floor") == -4
    assert round_ratio(-1, 3, "floor") == -1
    assert round_ratio(-7, 3, "nearest", policy) == -2
    assert round_ratio(-8, 3, "nearest", policy) == -3
    # exact ties, reduced or not, and their neighbours settle as the references do
    for num, den in ((5, 2), (-5, 2), (1, 2), (-1, 2), (15, 6), (-21, 14),
                     (35 * 10**39, 10**40), (35 * 10**39 + 1, 10**40),
                     (-35 * 10**39 - 1, 10**40)):
        assert round_ratio(num, den, "floor") == math.floor(F(num, den))
        assert round_ratio(num, den, "nearest", policy) == NEAREST[policy](F(num, den))
    with pytest.raises(ValueError, match="unknown mode"):
        round_ratio(1, 2, "ceil", policy)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**6), st.integers(1, 50),
       st.sampled_from(list(TiePolicy)))
def test_round_ratio_ignores_common_factors(num, den, t, policy):
    # an unreduced ratio rounds as the reduced fraction does under the references
    q = F(num, den)
    assert round_ratio(num * t, den * t, "floor") == math.floor(q)
    assert round_ratio(num * t, den * t, "nearest", policy) == NEAREST[policy](q)
    # and so does the exact tie (2 num + 1)/2, which random ratios seldom hit
    tie = F(2 * num + 1, 2)
    assert round_ratio((2 * num + 1) * t, 2 * t, "nearest", policy) == NEAREST[policy](tie)


rationals = st.fractions(
    min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6
)


@given(rationals)
def test_floor_bound_property(q):
    r = round_ratio(q.numerator, q.denominator, "floor")
    assert r <= q < r + 1


@given(rationals, st.sampled_from(list(TiePolicy)))
def test_nearest_bound_property(q, policy):
    r = round_ratio(q.numerator, q.denominator, "nearest", policy)
    assert abs(F(r) - q) <= F(1, 2)


@given(st.integers(min_value=0, max_value=10**18), st.integers(min_value=1, max_value=7))
def test_iroot_bound_property(a, q):
    r, exact = iroot(a, q)
    assert r**q <= a < (r + 1) ** q
    assert exact == (r**q == a)


def test_iroot_square_root_matches_newton():
    # q = 2 takes math.isqrt; it must agree with the Newton path bit for bit,
    # perfect squares and their neighbours included, up to 10^4 bits
    rng = random.Random(2)
    cases = [0, 1, 2, 3, 4, 8, 9, 15, 16, 17]
    for _ in range(300):
        bits = rng.randrange(1, 10_001)
        r = rng.getrandbits(bits // 2 + 1)
        cases += [rng.getrandbits(bits), r * r - 1, r * r, r * r + 1, (r + 1) ** 2 - 1]
    for a in cases:
        if a >= 0:
            assert iroot(a, 2) == _iroot_newton(a, 2)


@given(st.integers(-10**40, 10**40), st.integers(1, 10**6).map(lambda d: 2 * d),
       st.fractions(0, 1).filter(lambda t: 0 < t < 1), st.sampled_from(list(TiePolicy)))
def test_round_bracket_rounds_every_value_inside_the_bracket(num, den, t, policy):
    # an inexact bracket over an even den holds values strictly inside
    # (num, num + 1)/den, and every one of them rounds to the same integer
    v = (num + t) / den
    assert round_bracket(num, den, False, "floor") == math.floor(v)
    assert round_bracket(num, den, False, "nearest", policy) == NEAREST[policy](v)
    assert round_bracket(num, den, True, "nearest", policy) == NEAREST[policy](F(num, den))


def test_round_bracket_needs_an_even_denominator_when_inexact():
    assert round_bracket(7, 3, True, "floor") == 2
    with pytest.raises(ValueError, match="even denominator"):
        round_bracket(7, 3, False, "floor")


@given(rationals, rationals, rationals)
def test_rational_field_laws(a, b, c):
    # the exact type must behave like a field on random triples
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).denominator == 1 and a - a == 0


# ---------------------------------------------------------------------------
# rational powers


def test_iroot_frozen():
    assert iroot(27, 3) == (3, True)
    assert iroot(26, 3) == (2, False)
    assert iroot(10**60, 2) == (10**30, True)
    assert iroot(0, 4) == (0, True)


def test_rational_pow_exact():
    assert rational_pow_exact(F(1, 4), 1, 2) == F(1, 2)
    assert rational_pow_exact(F(8, 27), 2, 3) == F(4, 9)
    assert rational_pow_exact(F(9, 4), 3, 2) == F(27, 8)
    assert rational_pow_exact(F(1, 2), 1, 2) is None
    assert rational_pow_exact(F(3, 4), 1, 2) is None


def test_rational_pow_bounds_bracket_and_width():
    u = F(3, 4)
    lo, hi = rational_pow_bounds(u, 1, 2, 64)
    assert lo < hi
    assert lo**2 <= u <= hi**2
    assert hi - lo <= F(1, 2**64)


def test_rational_pow_bounds_collapse_when_exact():
    lo, hi = rational_pow_bounds(F(1, 4), 1, 2, 64)
    assert lo == hi == F(1, 2)


@settings(max_examples=50)
@given(
    st.fractions(min_value=F(0), max_value=F(100), max_denominator=1000),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.sampled_from([32, 64, 128]),
)
def test_rational_pow_bounds_property(u, p, q, bits):
    lo, hi = rational_pow_bounds(u, p, q, bits)
    assert 0 <= lo <= hi
    assert lo**q <= u**p <= hi**q
