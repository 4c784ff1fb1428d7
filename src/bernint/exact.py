"""Exact integer and rational arithmetic for integer-coefficient Bernstein forms.

Python's int is already an arbitrary-precision integer and fractions.Fraction
already keeps rationals reduced with positive denominators, so those two types
are used directly throughout the package.  This module adds the pieces they
lack:

* cached binomial rows (multiplicative recurrence, exact),
* homogeneous_sum, the one exact evaluator of Bernstein and power sums,
* round_ratio, floor and nearest-integer rounding of an integer ratio with
  an explicit tie policy (floor_int and nearest_int wrap it for rationals),
* integer q-th roots and exact/certified rational powers u**(p/q),
* interval-guarded rounding: guarded_round rounds a value known only
  through an enclosure [lo, hi], and round_with_escalation tightens the
  enclosure until the answer is provably unambiguous (escalate_precision is
  the one doubling loop, shared with the certified comparisons in analysis).

The guarded rounding is what lets non-polynomial corpus functions (whose
values at the Bernstein nodes are usually irrational) be rounded *correctly*,
not merely plausibly: floor and nearest-integer are monotone step functions,
so if both endpoints of an enclosure round to the same integer, the true
value does too.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence, TypeVar

DEFAULT_START_BITS = 128
DEFAULT_MAX_BITS = 4096

T = TypeVar("T")


class TiePolicy(enum.Enum):
    """How nearest-integer rounding resolves exact half-integers."""

    HALF_UP = "half_up"
    HALF_DOWN = "half_down"
    HALF_AWAY_FROM_ZERO = "half_away"
    HALF_TO_EVEN = "half_even"


DEFAULT_TIE = TiePolicy.HALF_AWAY_FROM_ZERO


class PrecisionInsufficient(ArithmeticError):
    """An enclosure was too wide to round unambiguously; retry with more bits."""


class PrecisionExhausted(ArithmeticError):
    """Escalation hit the precision cap without resolving the rounding."""


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


def homogeneous_sum(e: Sequence[int], p: int, q: int) -> int:
    """sum_k e[k] p^k q^(m-k), m = len(e) - 1, by Horner on integers.

    A degree-n Bernstein form at x = a/b is homogeneous_sum(e, a, b-a) / b^n
    with e[k] = c_k C(n,k); a power-basis polynomial is (e, a, b) / b^m.
    """
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


def floor_int(q) -> int:
    """Largest integer <= q."""
    q = Fraction(q)
    return round_ratio(q.numerator, q.denominator, "floor")


def nearest_int(q, policy: TiePolicy = DEFAULT_TIE) -> int:
    """Integer nearest to q; exact halves resolved by ``policy``."""
    q = Fraction(q)
    return round_ratio(q.numerator, q.denominator, "nearest", policy)


def guarded_round(lo, hi, mode: str, policy: TiePolicy = DEFAULT_TIE) -> int:
    """Round a value known only to lie in the enclosure [lo, hi].

    mode is "floor" or "nearest".  Both roundings are monotone step
    functions, so endpoint agreement certifies the result; disagreement
    raises PrecisionInsufficient.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("guarded_round: enclosure has lo > hi")
    a, b = (round_ratio(v.numerator, v.denominator, mode, policy) for v in (lo, hi))
    if a != b:
        raise PrecisionInsufficient(
            f"enclosure of width {float(hi - lo):.3g} straddles a {mode} boundary"
        )
    return a


def escalate_precision(attempt: Callable[[int], T]) -> T:
    """Return ``attempt(bits)`` at the first precision where it decides.

    ``attempt`` raises PrecisionInsufficient when its enclosure at ``bits`` is
    too wide to decide.  Precision doubles from DEFAULT_START_BITS up to
    DEFAULT_MAX_BITS; at the cap the last PrecisionInsufficient is raised
    again as PrecisionExhausted with the same message.
    """
    bits = DEFAULT_START_BITS
    while True:
        try:
            return attempt(bits)
        except PrecisionInsufficient as e:
            if bits >= DEFAULT_MAX_BITS:
                raise PrecisionExhausted(str(e)) from None
            bits = min(2 * bits, DEFAULT_MAX_BITS)


def round_with_escalation(
    enclose: Callable[[int], tuple[Fraction, Fraction]],
    mode: str,
    policy: TiePolicy = DEFAULT_TIE,
) -> int:
    """Drive guarded_round with ever-tighter enclosures until it resolves.

    ``enclose(bits)`` must return a rational interval (lo, hi) containing the
    true value, with width shrinking as ``bits`` grows.  Precision doubles
    from DEFAULT_START_BITS up to DEFAULT_MAX_BITS; if the rounding is still
    ambiguous at the cap (e.g. the true value sits exactly on a boundary and
    the oracle cannot say so), PrecisionExhausted is raised.  An enclosure
    with lo > hi raises ValueError.
    """

    def attempt(bits: int) -> int:
        lo, hi = enclose(bits)
        try:
            return guarded_round(lo, hi, mode, policy)
        except PrecisionInsufficient:
            raise PrecisionInsufficient(
                f"rounding still ambiguous at {bits} bits "
                f"(enclosure [{float(lo)!r}, {float(hi)!r}])"
            ) from None

    return escalate_precision(attempt)


def iroot(a: int, q: int) -> tuple[int, bool]:
    """Integer q-th root: largest r with r**q <= a, plus exactness flag.

    Newton iteration on integers; exact for any size of a.
    """
    if a < 0:
        raise ValueError("iroot: a must be >= 0")
    if q < 1:
        raise ValueError("iroot: q must be >= 1")
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
    "DEFAULT_START_BITS",
    "DEFAULT_MAX_BITS",
    "PrecisionInsufficient",
    "PrecisionExhausted",
    "binomial_row",
    "common_denominator",
    "homogeneous_sum",
    "round_ratio",
    "floor_int",
    "nearest_int",
    "guarded_round",
    "escalate_precision",
    "round_with_escalation",
    "iroot",
    "rational_pow_exact",
    "rational_pow_bounds",
]
