"""Exact integer and rational arithmetic for integer-coefficient Bernstein forms.

Python's int is already an arbitrary-precision integer and fractions.Fraction
already keeps rationals reduced with positive denominators, so those two types
are used directly throughout the package.  This module adds the pieces they
lack:

* cached binomial rows (multiplicative recurrence, exact),
* homogeneous_sum, the one exact evaluator of Bernstein and power sums:
  Horner on short rows, block dot products on long ones,
* round_ratio, floor and nearest-integer rounding of an integer ratio with
  an explicit tie policy, and round_bracket, the same rounding of a value
  known through an integer bracket num/den <= v < (num + 1)/den,
* integer q-th roots and exact/certified rational powers u**(p/q).

Floor and nearest-integer are monotone step functions whose steps sit at
multiples of 1/2; an integer bracket num/den <= v < (num + 1)/den with an
even den never straddles such a step, which is what lets round_bracket
round irrational node values correctly, not merely plausibly.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Sequence


class TiePolicy(enum.Enum):
    """How nearest-integer rounding resolves exact half-integers."""

    HALF_UP = "half_up"
    HALF_DOWN = "half_down"
    HALF_AWAY_FROM_ZERO = "half_away"
    HALF_TO_EVEN = "half_even"


DEFAULT_TIE = TiePolicy.HALF_AWAY_FROM_ZERO


# A degree sweep touches a few dozen distinct rows; an unbounded cache would
# keep every row ever built (row 20000 alone holds tens of MB).
@lru_cache(maxsize=128)
def binomial_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle, (C(n,0), ..., C(n,n)), computed exactly.

    Uses the multiplicative recurrence C(n,k) = C(n,k-1)*(n-k+1)/k, in which
    every division is exact.  The most recently used rows are cached.
    """
    if n < 0:
        raise ValueError("binomial_row: n must be >= 0")
    row = [1]
    for k in range(1, n + 1):
        row.append(row[-1] * (n - k + 1) // k)
    return tuple(row)


def common_denominator(values) -> tuple[list[int], int]:
    """Integers e and the least D > 0 with e[k] / D == values[k] for every k."""
    values = [Fraction(v) for v in values]
    d = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


# homogeneous_sum takes a row longer than _BLOCK_CUTOFF coefficients in
# blocks of _BLOCK: one C-level dot product per block against the weights
# p^i q^(_BLOCK-1-i), then a homogeneous sum of the block values in
# (p^_BLOCK, q^_BLOCK).  Measured on the gap rows at the 81 points of the
# exact_enclosure workload (2-CPU x86 host, CPython 3.11), blocks of 16 run
# at 0.8x the speed of the plain Horner loop at n = 64, break even near
# n = 100 (0.97x at 96, 1.03x at 112), and are 1.15x faster at n = 128,
# 1.6x at 256 and 2.2x at 512.  The cutoff must be at least _BLOCK, so that
# the low part of fewer than _BLOCK coefficients takes the Horner loop.
# When neither p nor q has more than one bit (x = 1/2 and the end points)
# Horner's accumulator never grows, and blocks pay only on longer rows: on
# the same host they take 1.05-2.1x Horner's time on the Classic and floor
# monomial(3), Hoelder and gap rows at n = 101..640, are within 20% of it
# at 768-2048, and run 1.3-1.4x faster at 4096.
_BLOCK = 16
_BLOCK_CUTOFF = 100
_UNIT_BLOCK_CUTOFF = 1024


def homogeneous_sum(e: Sequence[int], p: int, q: int) -> int:
    """sum_k e[k] p^k q^(m-k), m = len(e) - 1, exactly on integers.

    A degree-n Bernstein form at x = a/b is homogeneous_sum(e, a, b-a) / b^n
    with e[k] = c_k C(n,k); a power-basis polynomial is (e, a, b) / b^m.

    A short row is summed by Horner, and so is a row of up to 1024
    coefficients when p and q have at most one bit.  A longer row is split
    into its r = len(e) % 16 low-order coefficients and blocks of 16 above them:
    each block is one dot product with the weights w_i = p^i q^(15-i), the
    block values are summed as a homogeneous sum s in (p^16, q^16), and the
    result is s p^r + homogeneous_sum(e[:r], p, q) q^(len(e)-r).  Both
    paths give the same integer.
    """
    m = len(e)
    if m > _BLOCK_CUTOFF and (m > _UNIT_BLOCK_CUTOFF or p.bit_length() > 1 or q.bit_length() > 1):
        r = m % _BLOCK
        ps = list(accumulate(repeat(p, _BLOCK), mul, initial=1))  # p^0 .. p^16
        qs = list(accumulate(repeat(q, _BLOCK), mul, initial=1))
        w = list(map(mul, ps[:_BLOCK], reversed(qs[:_BLOCK])))
        blocks = [sum(map(mul, e[j:j + _BLOCK], w)) for j in range(r, m, _BLOCK)]
        s = homogeneous_sum(blocks, ps[_BLOCK], qs[_BLOCK]) * ps[r]
        if r:
            s += homogeneous_sum(e[:r], p, q) * qs[_BLOCK] ** len(blocks)
        return s
    acc, qj = 0, 1
    for ek in reversed(e):
        acc = acc * p + ek * qj
        qj *= q
    return acc


def round_ratio(num: int, den: int, mode: str, policy: TiePolicy = DEFAULT_TIE) -> int:
    """floor(num/den) (mode "floor") or the integer nearest to it ("nearest").

    Integers only, den > 0: one divmod, and num/den is an exact half-integer
    tie exactly when twice the remainder equals den; only then does
    ``policy`` decide.
    """
    q, r = divmod(num, den)
    if mode == "floor":
        return q
    if mode != "nearest":
        raise ValueError(f"round_ratio: unknown mode {mode!r}")
    if 2 * r != den:
        return q if 2 * r < den else q + 1
    # exact tie: num/den == q + 1/2
    if policy is TiePolicy.HALF_UP:
        return q + 1
    if policy is TiePolicy.HALF_DOWN:
        return q
    if policy is TiePolicy.HALF_AWAY_FROM_ZERO:
        return q + 1 if q >= 0 else q
    # HALF_TO_EVEN
    return q if q % 2 == 0 else q + 1


def round_bracket(
    num: int, den: int, exact: bool, mode: str, policy: TiePolicy = DEFAULT_TIE
) -> int:
    """Round a value v known through the bracket num/den <= v < (num + 1)/den.

    ``exact`` says v == num/den, which round_ratio then rounds.  Otherwise v
    lies strictly inside (num, num + 1)/den.  For an even den no floor or
    nearest boundary (a multiple of 1/2) falls inside that open interval, so
    v rounds as its midpoint (2 num + 1)/(2 den) does, which is never a tie.
    """
    if exact:
        return round_ratio(num, den, mode, policy)
    if den % 2:
        raise ValueError("round_bracket: an inexact bracket needs an even denominator")
    return round_ratio(2 * num + 1, 2 * den, mode, policy)


def iroot(a: int, q: int) -> tuple[int, bool]:
    """Integer q-th root: largest r with r**q <= a, plus exactness flag.

    math.isqrt for q = 2, Newton iteration on integers otherwise; exact for
    any size of a.
    """
    if a < 0:
        raise ValueError("iroot: a must be >= 0")
    if q < 1:
        raise ValueError("iroot: q must be >= 1")
    if q == 2:
        r = math.isqrt(a)
        return r, r * r == a
    return _iroot_newton(a, q)


def _iroot_newton(a: int, q: int) -> tuple[int, bool]:
    """iroot(a, q) by integer Newton iteration, for any a >= 0 and q >= 1."""
    if a in (0, 1) or q == 1:
        return a, True
    # initial guess from bit length, then integer Newton steps
    r = 1 << -(-a.bit_length() // q)
    while True:
        nr = ((q - 1) * r + a // r ** (q - 1)) // q
        if nr >= r:
            break
        r = nr
    while r ** q > a:
        r -= 1
    while (r + 1) ** q <= a:
        r += 1
    return r, r ** q == a


def rational_pow_exact(u, p: int, q: int) -> Fraction | None:
    """u**(p/q) as an exact Fraction, or None when the value is irrational.

    Requires u >= 0 and q >= 1 in lowest terms p/q.  Rational iff both the
    numerator and denominator of u**p are perfect q-th powers.
    """
    u = Fraction(u)
    if u < 0:
        raise ValueError("rational_pow_exact: base must be >= 0")
    if q < 1:
        raise ValueError("rational_pow_exact: q must be >= 1")
    if u == 0:
        if p <= 0:
            raise ZeroDivisionError("0 raised to a non-positive power")
        return Fraction(0)
    v = u ** p  # exact Fraction power, p may be negative
    rn, okn = iroot(v.numerator, q)
    if not okn:
        return None
    rd, okd = iroot(v.denominator, q)
    if not okd:
        return None
    return Fraction(rn, rd)


def rational_pow_bounds(u, p: int, q: int, bits: int) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of u**(p/q) with width <= 2**-bits scale.

    Writes u**p = A/B (A, B positive ints) and brackets (A/B)**(1/q) between
    s/(2**bits) and (s+1)/(2**bits) scaled by B, where s is the integer q-th
    root of A * B**(q-1) * 2**(q*bits).  Every step is integer arithmetic, so
    the enclosure is rigorous, and it collapses to a point when the value is
    an exact dyadic-scaled rational.
    """
    u = Fraction(u)
    if u < 0:
        raise ValueError("rational_pow_bounds: base must be >= 0")
    if q < 1:
        raise ValueError("rational_pow_bounds: q must be >= 1")
    if bits < 1:
        raise ValueError("rational_pow_bounds: bits must be >= 1")
    if u == 0:
        if p <= 0:
            raise ZeroDivisionError("0 raised to a non-positive power")
        return Fraction(0), Fraction(0)
    v = u ** p
    a, b = v.numerator, v.denominator
    # value = (a/b)**(1/q) = (a * b**(q-1))**(1/q) / b
    big = a * b ** (q - 1) * (1 << (q * bits))
    s, exactflag = iroot(big, q)
    den = b << bits
    lo = Fraction(s, den)
    hi = lo if exactflag else Fraction(s + 1, den)
    return lo, hi


__all__ = [
    "TiePolicy",
    "DEFAULT_TIE",
    "binomial_row",
    "common_denominator",
    "homogeneous_sum",
    "round_ratio",
    "round_bracket",
    "iroot",
    "rational_pow_exact",
    "rational_pow_bounds",
]
