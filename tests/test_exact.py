"""Exact integer/rational arithmetic: binomials, directed rounding, certified
rounding under uncertainty, and rational powers."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bernint import (
    PrecisionExhausted,
    PrecisionInsufficient,
    TiePolicy,
    binomial_row,
    floor_int,
    guarded_round,
    iroot,
    nearest_int,
    rational_pow_bounds,
    rational_pow_exact,
    round_with_escalation,
)
from bernint.exact import common_denominator, homogeneous_sum, round_ratio


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


@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=30),
       st.integers(-50, 50), st.integers(-50, 50))
def test_homogeneous_sum_property(e, p, q):
    m = len(e) - 1
    assert homogeneous_sum(e, p, q) == sum(ek * p**k * q ** (m - k) for k, ek in enumerate(e))


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


def test_floor_frozen():
    assert floor_int(F(7, 2)) == 3
    assert floor_int(F(-7, 2)) == -4
    assert floor_int(F(6)) == 6


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
    assert nearest_int(q, policy) == expected


def test_nearest_default_policy_is_half_away():
    assert nearest_int(F(5, 2)) == 3
    assert nearest_int(F(-5, 2)) == -3


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
    # exact ties, reduced or not, settle as nearest_int settles them
    for num, den in ((5, 2), (-5, 2), (1, 2), (-1, 2), (15, 6), (-21, 14),
                     (35 * 10**39, 10**40)):
        assert round_ratio(num, den, "nearest", policy) == nearest_int(F(num, den), policy)
    with pytest.raises(ValueError, match="unknown mode"):
        round_ratio(1, 2, "ceil", policy)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**6), st.integers(1, 50),
       st.sampled_from(list(TiePolicy)))
def test_round_ratio_ignores_common_factors(num, den, t, policy):
    # floor_int and nearest_int round the reduced fraction
    assert round_ratio(num * t, den * t, "floor") == floor_int(F(num, den))
    assert round_ratio(num * t, den * t, "nearest", policy) == nearest_int(F(num, den), policy)


rationals = st.fractions(
    min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6
)


@given(rationals)
def test_floor_bound_property(q):
    r = floor_int(q)
    assert r <= q < r + 1


@given(rationals, st.sampled_from(list(TiePolicy)))
def test_nearest_bound_property(q, policy):
    r = nearest_int(q, policy)
    assert abs(F(r) - q) <= F(1, 2)


@given(st.integers(min_value=0, max_value=10**18), st.integers(min_value=1, max_value=7))
def test_iroot_bound_property(a, q):
    r, exact = iroot(a, q)
    assert r**q <= a < (r + 1) ** q
    assert exact == (r**q == a)


@given(rationals, rationals, rationals)
def test_rational_field_laws(a, b, c):
    # the exact type must behave like a field on random triples
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).denominator == 1 and a - a == 0


# ---------------------------------------------------------------------------
# guarded rounding


def test_guarded_round_frozen():
    assert guarded_round(2.49989999, 2.49990001, "nearest") == 2
    assert guarded_round(0.9999998999, 0.9999999001, "floor") == 0
    assert guarded_round(F(249, 100), F(251, 100), "floor") == 2
    assert guarded_round(F(5, 2), F(5, 2), "nearest") == 3  # a point: the tie policy
    assert guarded_round(-2, -2, "floor") == -2


def test_guarded_round_straddle_raises():
    with pytest.raises(PrecisionInsufficient):
        guarded_round(2.5 - 1e-9, 2.5 + 1e-9, "nearest")
    with pytest.raises(PrecisionInsufficient):
        guarded_round(3 - F(1, 10**9), 3 + F(1, 10**9), "floor")  # straddles a floor step


def test_guarded_round_rejects_reversed_enclosure():
    with pytest.raises(ValueError, match="lo > hi"):
        guarded_round(F(1, 3), F(1, 4), "floor")
    with pytest.raises(ValueError, match="lo > hi"):
        round_with_escalation(lambda bits: (F(1), F(0)), "nearest")


@given(rationals)
def test_guarded_round_agrees_with_exact_when_certified(q):
    # a radius smaller than the distance to the nearest tie certifies the result
    dist = abs(q - F(nearest_int(q)))
    gap = F(1, 2) - dist
    if gap <= 0:
        return  # exact tie: no radius can certify
    r = guarded_round(q - gap / 2, q + gap / 2, "nearest")
    assert r == nearest_int(q)


def test_guarded_round_matches_exact_rounding_on_corpus_weights():
    # weighted coefficients f(k/n)*C(n,k) of polynomial corpus entries are
    # exact rationals; guarding with a tiny radius must reproduce the exact
    # floor/nearest results whenever the window is decidable
    from bernint import builtin

    rad = F(1, 10**9)
    for name in ("monomial(3)", "poly_boundary_flat(2)"):
        f = builtin(name)
        for n in (5, 12, 31):
            for k in range(n + 1):
                w = f.eval_exact(F(k, n)) * binomial_row(n)[k]
                fl = floor_int(w)
                if w - fl > rad and (fl + 1) - w > rad:
                    assert guarded_round(w - rad, w + rad, "floor") == fl
                tie_dist = abs(abs(w - nearest_int(w)) - F(1, 2))
                if tie_dist > rad:
                    assert guarded_round(w - rad, w + rad, "nearest") == nearest_int(w)


def test_round_with_escalation_decides_after_refinement():
    u = F(5, 2) + F(1, 2**200)

    def enclose(bits):
        return u - F(1, 2**bits), u + F(1, 2**bits)

    # 128 bits straddles the tie at 5/2, 256 bits decides
    assert round_with_escalation(enclose, "nearest") == 3


def test_round_with_escalation_exhausts_on_exact_tie():
    def enclose(bits):
        return F(5, 2) - F(1, 2**bits), F(5, 2) + F(1, 2**bits)

    with pytest.raises(PrecisionExhausted, match="rounding still ambiguous at 4096 bits"):
        round_with_escalation(enclose, "nearest")


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
