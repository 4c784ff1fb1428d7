"""Classical and integer-coefficient Bernstein models.

A model of degree n is a coefficient sequence (c_0, ..., c_n) in the
Bernstein basis p_{n,k}(x) = C(n,k) x^k (1-x)^(n-k):

* Classic:    c_k = f(k/n)
* FloorInt:   c_k = floor(f(k/n) C(n,k)) / C(n,k)
* NearestInt: c_k = nearest(f(k/n) C(n,k)) / C(n,k)   (tie policy applies)

so the integer kinds are exactly the polynomials with integer coefficients
in the scaled basis x^k (1-x)^(n-k).  A model stores that scaled form as
its data: integers e_k over one denominator D > 0, e_k / D = c_k C(n,k),
in lowest terms; the c_k are a view derived on demand.  Models are built
from the corpus node brackets FunctionSpec.scaled_bracket, integers with
num_k/den <= c f(k/n) < (num_k + 1)/den, and from nothing else.  The
integer kinds round the brackets at c = C(n,k) (exact.round_bracket) and
have D = 1; a Classic model reads the brackets of f(k/n) itself, at c = 1,
and stores C(n,k) num_k over den when all are exact, the bracket midpoints
otherwise.

Evaluation has two paths: a float path, O(n) per point, using the ratio
form sum_k c_k w_k / sum_k w_k with weights w_k = C(n,k) u^k, u = x/(1-x),
built as a product chain (on 1-x for x > 1/2, so u <= 1), and an exact
path, homogeneous_sum over (e, D).  On wide batches the float path stops
each point once its remaining terms provably cannot change a bit of its
sums (the tail cut of _bernstein_linear), so its values are those of the
full chain.  Derivatives of a model are
again models on the same denominator, one degree lower per order:
differentiating sum_k e_k x^k (1-x)^(m-k) gives the scaled integers
e'_j = (j+1) e_{j+1} - (m-j) e_j.  After s steps coefficient k is
n!/(n-s)! times the s-th forward difference of the c_k at unit index step;
for the classic kind this is the usual divided-difference formula with real
step 1/n, the prefactor absorbing the scaling.

The gap between an integer kind and B_n f is built once, by gap_interval:
two unreduced integer rows over one den from one APPROX_BITS bracket per
node, hi_k = m_k den - num_k and lo_k the same less 1 at the inexact nodes.
proximity_gap_exact evaluates both rows exactly by homogeneous_sum (none
at all when both rows are zero), and analysis.proximity_gap
(above this module, which imports only exact) measures their midpoint
(lo_k + hi_k) / (2 den) on a grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from bernint.exact import (
    DEFAULT_TIE,
    TiePolicy,
    binomial_row,
    homogeneous_sum,
    round_bracket,
)


class HypothesisViolation(Exception):
    """Input breaks a theorem hypothesis (e.g. non-integer endpoint values)."""


# Precision of the node brackets behind Classic models and gap_interval.
APPROX_BITS = 192

_ZERO = Fraction(0)


class OperatorKind(enum.Enum):
    CLASSIC = "classic"
    FLOOR_INT = "floor"
    NEAREST_INT = "nearest"


@dataclass(frozen=True)
class BernsteinModel:
    """Degree-n polynomial in Bernstein form, stored as scaled integers.

    ``scaled`` holds n + 1 ints e_k and ``denominator`` an int D > 0 with
    e_k / D == c_k C(n,k), kept in lowest terms (D is the least such
    denominator); build_model's integer kinds have D = 1, so e_k is the
    rounded integer itself.  ``coeffs`` (the c_k as Fractions) and
    ``float_coeffs`` are views derived from (e, D) on first use.
    ``coeffs_exact`` is False only when a Classic model stores the midpoints
    of APPROX_BITS node brackets, some of them inexact, instead of f(k/n).
    """

    kind: OperatorKind
    n: int
    scaled: tuple
    denominator: int = 1
    coeffs_exact: bool = True

    def __post_init__(self):
        if len(self.scaled) != self.n + 1:
            raise ValueError(
                f"coefficient count {len(self.scaled)} != degree {self.n} + 1"
            )
        if not (isinstance(self.denominator, int) and self.denominator > 0):
            raise ValueError(f"denominator must be an int > 0, got {self.denominator!r}")
        if not all(isinstance(e, int) for e in self.scaled):
            raise ValueError("scaled coefficients must be ints")
        g = math.gcd(self.denominator, *self.scaled)
        if g > 1:  # lowest terms, so that == compares values
            object.__setattr__(self, "scaled", tuple(e // g for e in self.scaled))
            object.__setattr__(self, "denominator", self.denominator // g)

    @cached_property
    def coeffs(self) -> tuple:
        d = self.denominator
        return tuple(Fraction(e, d * b) for e, b in zip(self.scaled, binomial_row(self.n)))

    @cached_property
    def float_coeffs(self) -> np.ndarray:
        d = self.denominator
        # int / int rounds correctly, as float(Fraction) does
        return np.array(
            [e / (d * b) for e, b in zip(self.scaled, binomial_row(self.n))],
            dtype=np.float64,
        )


def build_model(
    f,
    n: int,
    kind: OperatorKind,
    tie: TiePolicy = DEFAULT_TIE,
) -> BernsteinModel:
    """Construct the degree-n model of corpus function ``f``.

    Integer kinds store e_k = round(f(k/n) C(n,k)) over D = 1, each rounded
    from its node bracket at bits = 1 and c = C(n,k) (exact.round_bracket).
    A Classic model reads one row of APPROX_BITS brackets (num_k, den,
    exact_k) of f(k/n) itself, at c = 1; den = D_f n^deg for a polynomial f
    and n 2^APPROX_BITS otherwise.  When every bracket is exact it stores
    C(n,k) num_k over den.  Otherwise it stores the bracket midpoints,
    C(n,k) (2 num_k + (0 if exact_k else 1)) over 2 den, flagged
    coeffs_exact=False: exact at the exact nodes, and each c_k within
    2^-(APPROX_BITS + 1) / n of f(k/n) at the others.
    """
    if n < 1:
        raise ValueError("build_model: n must be >= 1")
    row = binomial_row(n)
    if kind is OperatorKind.CLASSIC:
        nums, dens, exacts = zip(*f.scaled_bracket_row(n, APPROX_BITS, (1,) * (n + 1)))
        if all(exacts):
            return BernsteinModel(kind=kind, n=n, denominator=dens[0],
                                  scaled=tuple(b * num for b, num in zip(row, nums)))
        return BernsteinModel(
            kind=kind, n=n, denominator=2 * dens[0], coeffs_exact=False,
            scaled=tuple(b * (2 * num + (0 if exact else 1))
                         for b, num, exact in zip(row, nums, exacts)),
        )
    mode = kind.value
    return BernsteinModel(
        kind=kind,
        n=n,
        scaled=tuple(round_bracket(*b, mode, tie) for b in f.scaled_bracket_row(n, 1, row)),
    )


# The kernel's weights grow by at most C(n, L) over L degree steps (u <= 1).
# A segment with C(n, L) < 2^_SEGMENT_BITS that starts from den in [1/2, 1]
# keeps den below 2^(_SEGMENT_BITS + 31) for fewer than 2^31 terms, and num
# below 2^1023 for coefficients under 2^_COEFF_BITS.
_SEGMENT_BITS = 960
_COEFF_BITS = 32
# Batches of at most this many points run the kernel as tables, wider ones as
# a loop over the degree.  On a 2-CPU x86-64 host the two cost the same at
# 160-250 points for n in {16, 128, 512} with accumulate-summed tables; a
# 32-point zoom round at n = 512 takes 0.3 ms as tables and 2.5 ms as a loop.
# Reduce-summed tables (_column_sums) move the crossover of a lone call to
# 700-1000 points in a kernel microbenchmark.  The only perfbench calls in
# that range are interactive_small's 257-point `error --grid 257` grids, and
# that workload runs no faster end to end with 640, so the constant stays.
_TABLE_POINTS = 192
# Degree steps between two tail-cut checks of the wide loop.  A check costs
# about 20 whole-window passes against 5 per step, and at n <= 64 none runs.
# Over the sweep's 4097-point grids at n = 16..512 on a 2-CPU x86-64 host,
# 32 to 96 steps all take the same time within 5%.
_CUT_STEPS = 64


def _segment_length(n: int) -> int:
    """Largest L <= n with C(n, j) < 2^_SEGMENT_BITS for every j <= L (1 at n = 0)."""
    row = binomial_row(n)
    if row[n // 2].bit_length() <= _SEGMENT_BITS:
        return max(n, 1)
    length = 1
    while row[length + 1].bit_length() <= _SEGMENT_BITS:
        length += 1
    return length


def _column_sums(table: np.ndarray) -> np.ndarray:
    """Sums down axis 0 that add whole rows in order, as the degree loop does.

    np.add.reduce does that for two or more columns.  A one-column table is
    contiguous along axis 0, where reduce sums pairwise, so it accumulates.
    """
    if table.shape[1] == 1:
        return np.add.accumulate(table, axis=0)[-1]
    return np.add.reduce(table, axis=0)


def _clip(parts, lo, hi):
    """The (slice, value) pairs with each slice cut to [lo, hi), empty ones left out."""
    cut = [(slice(max(s.start, lo), min(s.stop, hi)), v) for s, v in parts]
    return [(s, v) for s, v in cut if s.stop > s.start]


def _finished(r, w, den, num, p) -> np.ndarray:
    """Which points no later degree step can change, as a boolean array.

    Before step k a point holds its last weight w = w_{k-1} and its sums den
    and num; r = fl(a_k u) is its next factor and p = fl(w C_k), where C_k
    is the largest |c_j|, j >= k, on its side.  Under round-to-nearest, with
    rounding monotone, a point is finished when all three hold:

    (i)   r <= 1.  The float a_j do not increase with j, so every later
          factor fl(a_j u) <= 1 and every later weight w_j <= w.
    (ii)  w < spacing(den)/2.  Each later den + w_j then rounds back to den.
    (iii) p < |spacing(num)|/4, or p == 0 and num is not -0.0.  Each later
          term fl(c_j w_j) is at most p in size.  The gap below num is at
          least half the gap above (exactly half at a power of two), so a
          term under a quarter of spacing(num) rounds num + term back to
          num.  When p == 0 every term is a signed zero, and num + 0 == num
          for every num but -0.0, which +0.0 turns into +0.0.
    """
    return ((r <= 1.0) & (w < np.spacing(den) / 2)
            & ((p < np.abs(np.spacing(num)) / 4)
               | ((p == 0.0) & ((num != 0.0) | ~np.signbit(num)))))


def _bernstein_linear(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate sum_k coeffs[k] C(n,k) x^k (1-x)^(n-k) at each x in [0, 1].

    Ratio form: with u = t/(1-t) the value at t is sum_k c_k w_k / sum_k w_k,
    w_k = C(n,k) u^k, since (1-t)^n sum_k w_k = 1.  Points with x > 1/2 run
    on t = 1-x against the reversed coefficients, which keeps u in [0, 1].
    Every point takes one fixed sequence of float operations: for k = 1..n,
    w_k = w_{k-1} (a_k u) with a_k = (n-k+1)/k, then den += w_k and
    num += c_k w_k; so its value does not depend on the batch it came in.
    Narrow batches run that sequence as (degree x points) tables, a few
    numpy calls per segment: a cumulative product down the degree axis gives
    the weights, and column sums that add the rows in order (_column_sums)
    give den and num.  Wide batches loop over the degree, 5 whole-batch
    ufunc passes per step.

    The wide loop stops each point once its remaining steps are exact
    no-ops (the tail cut).  The weights C(n,k) u^k peak near k = n t and then
    fall geometrically, so a point far from t = 1/2 stops moving den and num
    long before k = n.  In the final segment, every _CUT_STEPS steps, the
    loop drops from both ends of an active window [lo, hi) the points that
    _finished reports: the next factor a_k u is at most 1, the last weight
    is under half the spacing of den, and that weight times the largest
    remaining |c_j| of the point's side is under a quarter of the spacing
    of num (or is 0, with num not -0.0).  Under round-to-nearest each skipped
    den += w_j and num += c_j w_j then leaves its sum as it was, so every
    value is the one the full loop gives.  The layout sorts the left side
    by ascending t and the right side by descending t whenever xs is sorted,
    as the grids are, so the finished points gather at the window's ends;
    the later passes run on views of the window, and the loop ends when it
    is empty.  Tables run every step and stay the reference.

    The weights stay finite at any degree: the coefficients are scaled by an
    exact 2^-E once they reach 2^_COEFF_BITS, and w, num and den by the same
    power of two at segment boundaries (_segment_length), so each segment
    restarts from den in [1/2, 1).
    """
    n = coeffs.size - 1
    e = max(math.frexp(float(np.max(np.abs(coeffs))))[1] - _COEFF_BITS, 0)
    c = np.ldexp(coeffs, -e)
    right = xs > 0.5
    t = np.concatenate((xs[~right], 1.0 - xs[right]))
    m = t.size - np.count_nonzero(right)
    # the points of each side present, with that side's coefficients
    sides = [(s, cs) for s, cs in ((slice(0, m), c), (slice(m, t.size), c[::-1]))
             if s.stop > s.start]
    a = np.arange(n, 0, -1) / np.arange(1, n + 1)  # a[k-1] = a_k
    u = t / (1.0 - t)
    w = np.ones_like(u)
    den = np.ones_like(u)
    num = np.empty_like(u)
    for s, cs in sides:
        num[s] = cs[0]
    seg = _segment_length(n)
    for k0 in range(1, n + 1, seg):
        k1 = min(k0 + seg, n + 1)
        if k0 > 1:
            shift = -np.frexp(den)[1]
            for v in (w, num, den):
                np.ldexp(v, shift, out=v)
        if u.size <= _TABLE_POINTS:
            # row j is step k0 - 1 + j; row 0 carries the running value in
            table = np.empty((k1 - k0 + 1, u.size))
            table[0] = w
            np.multiply(a[k0 - 1:k1 - 1, None], u, out=table[1:])
            np.multiply.accumulate(table, axis=0, out=table)
            w = table[-1].copy()
            table[0] = den
            den = _column_sums(table)
            for s, cs in sides:
                table[1:, s] *= cs[k0:k1, None]
            table[0] = num
            num = _column_sums(table)
        else:
            # the tail cut, in the final segment only (no rescale follows it):
            # every _CUT_STEPS steps the window [lo, hi) drops the points at
            # its two ends whose remaining steps are no-ops (_finished)
            r = np.empty_like(u)
            tmp = np.empty_like(u)
            lo, hi = 0, u.size
            uv, rv, wv, dv, nv, tv = u, r, w, den, num, tmp
            live_sides, tails = sides, None
            for b0 in range(k0, k1, _CUT_STEPS):
                if k1 == n + 1 and b0 > 1:
                    if tails is None:
                        # each side's suffix maxima C_k of |c_j|
                        tails = [(s, np.maximum.accumulate(np.abs(cs)[::-1])[::-1])
                                 for s, cs in sides]
                    np.multiply(uv, a[b0 - 1], out=rv)
                    for v, tail in _clip(tails, lo, hi):
                        np.multiply(w[v], tail[b0], out=tmp[v])
                    live = np.flatnonzero(~_finished(rv, wv, dv, nv, tv))
                    if live.size == 0:
                        break
                    lo, hi = lo + int(live[0]), lo + int(live[-1]) + 1
                    win = slice(lo, hi)
                    uv, rv, wv, dv, nv, tv = u[win], r[win], w[win], den[win], num[win], tmp[win]
                    live_sides = _clip(sides, lo, hi)
                b1 = min(b0 + _CUT_STEPS, k1)
                parts = [(w[v], tmp[v], cs[b0:b1].tolist()) for v, cs in live_sides]
                for j, ak in enumerate(a[b0 - 1:b1 - 1].tolist()):
                    np.multiply(uv, ak, out=rv)
                    wv *= rv
                    dv += wv
                    for wp, tp, cp in parts:
                        np.multiply(wp, cp[j], out=tp)
                    nv += tv
    q = np.ldexp(num / den, e)
    out = np.empty(xs.shape, dtype=np.float64)
    out[~right] = q[:m]
    out[right] = q[m:]
    return out


def evaluate(model: BernsteinModel, x):
    """Float evaluation at a point or array of points in [0, 1].

    Uses the O(n)-per-point ratio form of _bernstein_linear; raises
    ValueError unless every point is finite and inside [0, 1].
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("evaluate: points must be finite and lie in [0, 1]")
    out = _bernstein_linear(model.float_coeffs, xs)
    return float(out[0]) if scalar else out


def evaluate_exact(model: BernsteinModel, x) -> Fraction:
    """Exact rational evaluation at rational x = a/b; no rounding anywhere.

    The value is homogeneous_sum(scaled, a, b-a) / (denominator b^n).
    """
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    if not 0 <= a <= b:  # 0 <= x <= 1 on integers, as b > 0
        raise ValueError("evaluate_exact: point must lie in [0, 1]")
    return Fraction(homogeneous_sum(model.scaled, a, b - a), model.denominator * b ** model.n)


def derivative_model(model: BernsteinModel, s: int) -> BernsteinModel:
    """The s-th derivative as a degree n-s Bernstein model on the same denominator.

    Each step maps the scaled integers e_0..e_m to
    e'_j = (j+1) e_{j+1} - (m-j) e_j, the derivative of sum_k e_k x^k (1-x)^(m-k);
    after s steps coefficient k equals n!/(n-s)! * (s-th unit-index forward
    difference of the model coefficients at k).  s = 0 gives the model
    itself, and s > n the zero model of degree 0, the true derivative of a
    degree-n polynomial; s < 0 raises ValueError.
    """
    if s < 0:
        raise ValueError(f"derivative_model: order must be >= 0, got {s}")
    if s == 0:
        return model
    e, m = model.scaled, model.n
    if s > m:
        e, m = (0,), 0
    else:
        for _ in range(s):
            e = [(j + 1) * e[j + 1] - (m - j) * e[j] for j in range(m)]
            m -= 1
    return BernsteinModel(kind=model.kind, n=m, scaled=tuple(e),
                          denominator=model.denominator, coeffs_exact=model.coeffs_exact)


def require_integer_endpoints(f) -> None:
    """Raise HypothesisViolation unless f(0) and f(1) are integers.

    Decided by f.integer_endpoints, from the two brackets at n = 1.
    """
    if not f.integer_endpoints:
        raise HypothesisViolation(f"{f.name}: f(0) or f(1) is not an integer")


def gap_interval(
    f,
    n: int,
    kind: OperatorKind,
    tie: TiePolicy = DEFAULT_TIE,
) -> tuple[tuple, tuple, int]:
    """The gap (integer-kind model - B_n f) as integer rows (lo, hi) over one den.

    One bracket call per node at c = C(n,k), the k-th entry
    (num_k, den, exact_k), gives the rounded integer m_k (exact.round_bracket)
    and the scaled gap m_k - C(n,k) f(k/n), which lies in
    (m_k den - num_k - 1, m_k den - num_k] / den, at the right end exactly
    when exact_k.  hi has the integers m_k den - num_k, and lo the same less
    1 at every inexact node; neither row is reduced, so hi_k - lo_k is 0 or
    1, and lo == hi exactly when every bracket is exact.  The basis weights
    are nonnegative, so sum_k e_k x^k (1-x)^(n-k) / den encloses the gap at
    every x between e = lo and e = hi, and the two ends differ by at most
    2^-APPROX_BITS / n, as sum_k x^k (1-x)^(n-k) <= 1.
    """
    if kind is OperatorKind.CLASSIC:
        raise ValueError("gap_interval: kind must be FloorInt or NearestInt")
    mode = kind.value
    brackets = f.scaled_bracket_row(n, APPROX_BITS, binomial_row(n))
    den = brackets[0][1]
    hi = tuple(round_bracket(num, den, exact, mode, tie) * den - num
               for num, _, exact in brackets)
    lo = tuple(e if exact else e - 1 for e, (_, _, exact) in zip(hi, brackets))
    return lo, hi, den


def proximity_gap_exact(
    f,
    n: int,
    kind: OperatorKind,
    xs: Sequence,
    tie: TiePolicy = DEFAULT_TIE,
):
    """Certified rational enclosures of (integer model - B_n f)(x) at each x.

    Returns a list of Fraction pairs (lo, hi) with lo <= gap(x) <= hi: the
    exact values of the two rows of gap_interval.  At x = a/b both share
    q = den b^n; lo is s/q for s the homogeneous_sum of the lo row, and hi
    adds the homogeneous_sum of the 0/1 row hi - lo, which multiplies no
    wide coefficients; where that sum is 0, hi is lo.  Equal all-zero rows
    (an f the kind reproduces, such as integer_linear(3,2) or abs_shift)
    give (0, 0) at every point without a sum.  Fully rigorous, which is
    what lets tests verify the 1/n and 1/(2n) bounds without floats.
    """
    lo, hi, den = gap_interval(f, n, kind, tie)
    width = None if lo == hi else [b - a for a, b in zip(lo, hi)]
    zero = width is None and not any(lo)
    out = []
    for x in xs:
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        if not 0 <= a <= b:
            raise ValueError("proximity_gap_exact: points must lie in [0, 1]")
        if zero:
            out.append((_ZERO, _ZERO))
            continue
        q = den * b ** n
        s = homogeneous_sum(lo, a, b - a)
        w = 0 if width is None else homogeneous_sum(width, a, b - a)
        v = Fraction(s, q)
        out.append((v, Fraction(s + w, q) if w else v))
    return out


__all__ = [
    "HypothesisViolation",
    "OperatorKind",
    "BernsteinModel",
    "build_model",
    "evaluate",
    "evaluate_exact",
    "derivative_model",
    "require_integer_endpoints",
    "gap_interval",
    "proximity_gap_exact",
]
