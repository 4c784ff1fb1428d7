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
path, homogeneous_sum over (e, D).  The float path is one kernel,
_bernstein_linear, on a row prepared once (_KernelRows: the exact 2^-E
scaling, the reversed row, the ratio row, the segment length): a model
caches its prepared row, so sup_norm's grid call and zoom rounds reuse it.
A prepared row may hold a second coefficient row for the points x > 1/2,
which is how gap_sum sums both ends of its row in one call.  The kernel
takes a point or an array-like of points and refuses any that is not
finite or lies outside [0, 1].  On wide batches it stops each point once
its remaining terms provably cannot change a bit of its sums (the tail
cut), so its values are those of the full chain.  Derivatives of a model are
again models on the same denominator, one degree lower per order:
differentiating sum_k e_k x^k (1-x)^(m-k) gives the scaled integers
e'_j = (j+1) e_{j+1} - (m-j) e_j.  After s steps coefficient k is
n!/(n-s)! times the s-th forward difference of the c_k at unit index step;
for the classic kind this is the usual divided-difference formula with real
step 1/n, the prefactor absorbing the scaling.

The gap between an integer kind and B_n f is read off one APPROX_BITS
bracket per node: the bracket (num_k, den, exact_k) of C(n,k) f(k/n) and
its rounded integer m_k give hi_k = m_k den - num_k, and lo_k the same
less 1 at an inexact node.  gap_interval builds both rows over every node,
two unreduced integer rows over one den, and proximity_gap_exact, its one
reader, evaluates both rows exactly by homogeneous_sum (none at all when
both rows are zero).  gap_sum is the float reader: the s-th derivative of
the midpoint (lo_k + hi_k) / (2 den), differentiated on ints by the rule of
derivative_model and summed by the function of _endpoint_sum.  Its scaled
weights x^k (1-x)^(m-k) are tiny away from the ends, so from degree m = 70
on a point x <= 1/2 keeps the terms k < J(m) and a point x > 1/2 the top
J(m), and the dropped terms total at most 2^-64 max_k |e_k| / den.  The
two ends, as floats, are prepared once per n as the two rows of one
kernel set-up of degree J(m) - 1 <= 30 (J = 11 at m = 512), the left end
for the points x <= 1/2 and the right end for the others, so a batch of
points is one kernel call whichever sides it spans.  gap_sum reads only
the nodes those two ends need, at most 2 (J + s) brackets, and
differentiates each end on its own; below degree 70 the ends are the
whole row.  analysis.proximity_gap measures gap_sum at s = 0, and
analysis.error_curve adds its s-th derivative to a polynomial spec's
exact E_n.

classic_power_form reads B_n f of a polynomial spec in the power basis from
its first deg + 1 node brackets, O(deg) work per n; analysis evaluates it
exactly (voronovskaya_check) and in floats (error_curve).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from bernint.corpus import CapabilityError
from bernint.exact import (
    DEFAULT_TIE,
    TiePolicy,
    _forward_differences,
    binomial_row,
    homogeneous_sum,
    round_bracket,
)


class HypothesisViolation(Exception):
    """Input breaks a theorem hypothesis (e.g. non-integer endpoint values)."""


# Precision of the node brackets behind Classic models and the gap.
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
    ``float_coeffs`` are views derived from (e, D) on first use, and so is
    ``_kernel_rows``, the kernel's set-up of float_coeffs that evaluate
    reads.  ``coeffs_exact`` is False only when a Classic model stores the
    midpoints of APPROX_BITS node brackets, some of them inexact, instead
    of f(k/n).
    A model does not record the kind that built it: two models are equal
    exactly when they are the same polynomial.
    """

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

    @cached_property
    def _kernel_rows(self) -> "_KernelRows":
        return _KernelRows(self.float_coeffs)


def _degree(n, who: str) -> int:
    """n as an int degree; ValueError naming ``who`` unless n is an integer >= 1."""
    if n % 1:
        raise ValueError(f"{who}: n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{who}: n must be >= 1")
    return int(n)


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
    n = _degree(n, "build_model")
    row = binomial_row(n)
    if kind is OperatorKind.CLASSIC:
        nums, dens, exacts = zip(*f.scaled_bracket_row(n, APPROX_BITS, (1,) * (n + 1)))
        if all(exacts):
            return BernsteinModel(n=n, denominator=dens[0],
                                  scaled=tuple(b * num for b, num in zip(row, nums)))
        return BernsteinModel(
            n=n, denominator=2 * dens[0], coeffs_exact=False,
            scaled=tuple(b * (2 * num + (0 if exact else 1))
                         for b, num, exact in zip(row, nums, exacts)),
        )
    mode = kind.value
    return BernsteinModel(
        n=n,
        scaled=tuple(round_bracket(*b, mode, tie) for b in f.scaled_bracket_row(n, 1, row)),
    )


def classic_power_form(f, n: int) -> tuple[list, int]:
    """B_n f of a polynomial spec in the power basis, as ints (e, den).

    For f of degree deg (``f.poly_coeffs``), B_n f is a polynomial of degree
    at most m = min(deg, n), B_n f(x) = sum_{j<=m} C(n,j) Delta^j_{1/n} f(0) x^j
    (Lorentz, Bernstein Polynomials, 1.3).  The m + 1 node brackets
    f.scaled_bracket(k, n, APPROX_BITS, 1), k = 0..m, share one den
    (FunctionSpec.row_den) and have numerators P(k) = den f(k/n), so with
    D_j = Delta^j P(0) the m + 1 ints e_j = C(n,j) D_j give
    B_n f(x) = sum_j e_j x^j / den; at x = a/b that is
    homogeneous_sum(e, a, b) / (den b^m), the value of
    build_model(f, n, CLASSIC) there.  O(deg) small-integer work per n, and
    no row of n + 1 brackets.  Raises CapabilityError when a bracket is
    inexact (node values that are not those of a polynomial do not fix B_n f
    by their first m + 1), and ValueError unless f has poly_coeffs and n is
    an integer >= 1, or when two brackets have different dens.
    """
    if f.poly_coeffs is None:
        raise ValueError(f"classic_power_form: {f.name} is not a polynomial spec")
    n = _degree(n, "classic_power_form")
    brackets = [f.scaled_bracket(k, n, APPROX_BITS, 1)
                for k in range(min(len(f.poly_coeffs) - 1, n) + 1)]
    nums, _, exacts = zip(*brackets)
    if not all(exacts):
        raise CapabilityError(f"{f.name}: the power form of B_n f needs exact node values")
    den = f.row_den(brackets)
    return [math.comb(n, j) * d for j, d in enumerate(_forward_differences(nums))], den


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
    """Largest L <= n with C(n, j) < 2^_SEGMENT_BITS for every j <= L (1 at n = 0).

    Up to n = 965 the middle entry C(n, n // 2) fits, and it alone decides:
    no binomial row is built there.
    """
    if math.comb(n, n // 2).bit_length() <= _SEGMENT_BITS:
        return max(n, 1)
    row = binomial_row(n)
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


class _KernelRows:
    """The set-up of _bernstein_linear for one degree-n coefficient row per side.

    ``lower`` holds the coefficients c_0..c_n that the points x <= 1/2 are
    summed against and ``upper`` those of the points x > 1/2, by default
    the same row (evaluate; gap_sum gives its two end rows).  Each side
    keeps its row scaled by its own exact 2^-E, E = max(e - _COEFF_BITS, 0)
    for the binary exponent e of its largest |c_k|, the upper one reversed
    (its points run on t = 1 - x).  Both share the ratio row
    a_k = (n-k+1)/k and the segment length (_segment_length); each side's
    suffix maxima of |c|, which only the tail cut reads, are formed on
    first use.  A row is prepared once and read by every call on it: the
    model caches its own (BernsteinModel._kernel_rows), and gap_sum's
    function holds the one of its two end rows.
    """

    def __init__(self, lower: np.ndarray, upper: np.ndarray | None = None):
        self.n = lower.size - 1
        low = self._scaled(lower)
        high = low if upper is None else self._scaled(upper)
        self.exps = (low[0], high[0])
        self.coeffs = (low[1], high[1][::-1])
        self.a = np.arange(self.n, 0, -1) / np.arange(1, self.n + 1)  # a[k-1] = a_k
        self.seg = _segment_length(self.n)

    @staticmethod
    def _scaled(coeffs: np.ndarray) -> tuple[int, np.ndarray]:
        """(E, coeffs 2^-E), the coefficients below 2^_COEFF_BITS in size."""
        e = max(math.frexp(float(np.max(np.abs(coeffs))))[1] - _COEFF_BITS, 0)
        return e, np.ldexp(coeffs, -e)

    @cached_property
    def tails(self) -> tuple:
        """Each side's suffix maxima C_k = max_{j>=k} |c_j| of its scaled row."""
        return tuple(np.maximum.accumulate(np.abs(cs)[::-1])[::-1] for cs in self.coeffs)


def _bernstein_linear(rows: _KernelRows, x, who: str) -> np.ndarray:
    """Evaluate sum_k c_k C(n,k) x^k (1-x)^(n-k) at each point x, c from ``rows``.

    x is a point or an array of points, each finite and in [0, 1]
    (ValueError naming ``who`` otherwise); the result has the shape of
    np.atleast_1d(x).  A point x <= 1/2 is summed against rows' lower row
    and a point x > 1/2 against its upper row, so one call serves both ends
    of gap_sum's row.

    Ratio form: with u = t/(1-t) the value at t is sum_k c_k w_k / sum_k w_k,
    w_k = C(n,k) u^k, since (1-t)^n sum_k w_k = 1.  Points with x > 1/2 run
    on t = 1-x against the reversed coefficients, which keeps u in [0, 1].
    Every point takes one fixed sequence of float operations: for k = 1..n,
    w_k = w_{k-1} (a_k u) with a_k = (n-k+1)/k, then den += w_k and
    num += c_k w_k; so its value does not depend on the batch it came in,
    nor on the row of the other side.  Narrow batches run that sequence as
    (degree x points) tables, a few numpy calls per segment: a cumulative
    product down the degree axis gives the weights, and column sums that
    add the rows in order (_column_sums) give den and num.  Wide batches
    loop over the degree, 5 whole-batch ufunc passes per step.

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

    The weights stay finite at any degree: each side's coefficients are
    scaled by an exact 2^-E once they reach 2^_COEFF_BITS (_KernelRows), and
    w, num and den by the same power of two at segment boundaries
    (_segment_length), so each segment restarts from den in [1/2, 1).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError(f"{who}: points must be finite and lie in [0, 1]")
    n, a, seg = rows.n, rows.a, rows.seg
    right = xs > 0.5
    t = np.concatenate((xs[~right], 1.0 - xs[right]))
    m = t.size - np.count_nonzero(right)
    spans = (slice(0, m), slice(m, t.size))
    # the points of each side present, with that side's scaled coefficients
    sides = [(s, cs) for s, cs in zip(spans, rows.coeffs) if s.stop > s.start]
    u = t / (1.0 - t)
    w = np.ones_like(u)
    den = np.ones_like(u)
    num = np.empty_like(u)
    for s, cs in sides:
        num[s] = cs[0]
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
                        tails = list(zip(spans, rows.tails))  # _clip drops an empty side
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
    q = num / den
    out = np.empty(xs.shape, dtype=np.float64)
    out[~right] = np.ldexp(q[:m], rows.exps[0])
    out[right] = np.ldexp(q[m:], rows.exps[1])
    return out


def evaluate(model: BernsteinModel, x):
    """Float evaluation at a point or array of points in [0, 1].

    One call of the O(n)-per-point ratio form of _bernstein_linear on the
    model's prepared row (cached on the model, as float_coeffs is); raises
    ValueError unless every point is finite and inside [0, 1].
    """
    out = _bernstein_linear(model._kernel_rows, x, "evaluate")
    return float(out[0]) if np.ndim(x) == 0 else out


@lru_cache(maxsize=None)
def _endpoint_terms(m: int) -> int:
    """J(m): the least J <= m/2 with (m+1-J) J^J (m-J)^(m-J) 2^64 <= m^m, else m + 1.

    J^J (m-J)^(m-J) / m^m is the largest value B(J) of x^J (1-x)^(m-J) on
    [0, 1], and the left side falls with J up to m/2, so the first J that
    qualifies is the least.  Decided in floats, with a proven margin: J is
    the first J = 1, 2, ..., m//2 whose log margin

        L(J) = m ln m - [ln(m+1-J) + J ln J + (m-J) ln(m-J) + 64 ln 2],

    the log of m^m over the left side, exceeds delta = 2^-40 (m ln m + 64).
    The float L(J) is a dozen roundings, each within a few units in the
    last place of terms whose sizes add up to less than 2 m ln m + 64, so
    it is far closer than delta to the true L(J): a pass proves the integer
    inequality, so the truncation bound of _endpoint_sum holds at J, and a
    near-tie (|L(J)| <= delta) can only give a larger J.  Over every
    m <= 2^14 the smallest |L| at J and at J - 1 is 2.7e-4 (m = 4904)
    against delta <= 1.5e-7, so there the rule is the integer test.  No J
    qualifies for m <= 69, the first truncating degree is m = 70 (J = 31),
    J is 11 at m = 512 and 5 at m = 2^20 and 2^22.
    """
    delta = 2.0 ** -40 * (m * math.log(max(m, 1)) + 64)
    for j in range(1, m // 2 + 1):
        if _endpoint_margin(m, j) > delta:
            return j
    return m + 1


def _endpoint_margin(m: int, j: int) -> float:
    """L(j) of _endpoint_terms in floats, for 1 <= j <= m/2."""
    return m * math.log(m) - (math.log(m + 1 - j) + j * math.log(j)
                              + (m - j) * math.log(m - j) + 64 * math.log(2))


def _endpoint_sum(left, right, m: int, den: int) -> Callable:
    """The function x -> sum_k e_k x^k (1-x)^(m-k) / den, from the two ends of e.

    left holds the ints e_0..e_(J-1) and right e_(m-J+1)..e_m of a degree-m
    row, J = len(left) = len(right) (gap_sum takes J = _endpoint_terms(m));
    den is an int > 0.  A point x <= 1/2 keeps the terms k < J:

        (1-x)^(m-J+1) sum_{j<J} c_j C(J-1,j) x^j (1-x)^(J-1-j),
        c_j = e_j / (den C(J-1,j)),

    a degree J - 1 kernel sum times a power factor; a point x > 1/2 keeps,
    by symmetry, the top J terms, x^(m-J+1) times the sum of the c_j of
    right.  Each c_j is one correctly rounded int / int division, both rows
    are prepared for the kernel once (_KernelRows, left for the lower side
    and right for the upper), and each call of the function is one kernel
    call over all its points, whichever side they lie on.  The factor is
    exp((m-J+1) log1p(-t)), with t = x on the left and the exact 1 - x on
    the right; at J = m + 1 it is exp(0) = 1 and is not applied.  The
    middle of the row is never read.  The function takes a point or an
    array-like of points, as evaluate does, and raises ValueError naming
    gap_sum unless every point is finite and in [0, 1].

    Truncation bound: at J = _endpoint_terms(m) <= m/2 the dropped terms
    total at most 2^-64 max_j |e_j| / den at every x in [0, 1].  For
    x <= 1/2 they are the m + 1 - J terms k >= J.  The weight
    x^k (1-x)^(m-k) is at most B(k) <= B(J) for J <= k <= m/2, where
    B(k) = k^k (m-k)^(m-k) / m^m is its largest value on [0, 1] and falls
    up to m/2; for k >= m/2 it is (x(1-x))^(m-k) x^(2k-m) <= 2^-m
    = B(m/2) <= B(J).  So the dropped terms total at most
    (m+1-J) B(J) max|e_j| / den, which J(m) keeps under
    2^-64 max|e_j| / den; x > 1/2 is the mirror image.  At J = m + 1
    (every m <= 69) both ends are the whole row and nothing is dropped:
    the kernel sums, on either side, the coefficients e_k / (den C(m,k))
    that evaluate sums on the BernsteinModel of (e, den), and a point's
    value does not depend on its batch, so the sum is evaluate's, bit for
    bit.
    """
    terms = len(left)
    rows = _KernelRows(*(np.array([v / (den * math.comb(terms - 1, j)) for j, v in enumerate(end)])
                         for end in (left, right)))
    power = m - terms + 1

    def endpoint_sum(x):
        out = _bernstein_linear(rows, x, "gap_sum")
        if power:
            xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
            out *= np.exp(power * np.log1p(-np.where(xs > 0.5, 1.0 - xs, xs)))
        return float(out[0]) if np.ndim(x) == 0 else out

    return endpoint_sum


def _unit_point(x, message: str) -> tuple[int, int]:
    """(a, b) with x = a/b, b > 0; raises ValueError(message) unless 0 <= x <= 1.

    a and b are read off an int or a Fraction as they are; a point of any
    other type (a float, a string such as "1/3") goes through Fraction(x)
    first.
    """
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    a, b = x.numerator, x.denominator
    if not 0 <= a <= b:  # 0 <= x <= 1 on integers, as b > 0
        raise ValueError(message)
    return a, b


def evaluate_exact(model: BernsteinModel, x) -> Fraction:
    """Exact rational evaluation at rational x = a/b; no rounding anywhere.

    The value is homogeneous_sum(scaled, a, b-a) / (denominator b^n), with
    x read by _unit_point.
    """
    a, b = _unit_point(x, "evaluate_exact: point must lie in [0, 1]")
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
    e, m = _derivative_row(model.scaled, model.n, s)
    return BernsteinModel(n=m, scaled=e, denominator=model.denominator,
                          coeffs_exact=model.coeffs_exact)


def _derivative_row(e, m: int, s: int, start: int = 0) -> tuple[tuple, int]:
    """The s-th derivative of a run of the row sum_k e_k x^k (1-x)^(m-k), and its degree.

    e holds the entries start..start + len(e) - 1 of a degree-m row, by
    default all of it.  Each step maps them to
    e'_j = (j+1) e_{j+1} - (m-j) e_j, one degree lower: e'_j needs only e_j
    and e_{j+1}, so a run loses its last entry and keeps its start.  A
    prefix (start = 0) stays a prefix of the row one degree lower, and a
    suffix (start + len(e) = m + 1) a suffix.  s > m gives the zero row
    ((0,), 0).  The rule of derivative_model, shared with the two row ends
    of gap_sum.
    """
    if s > m:
        return (0,), 0
    for _ in range(s):
        e = [(j + 1) * b - (m - j) * a for j, (a, b) in enumerate(zip(e, e[1:]), start)]
        m -= 1
    return tuple(e), m


def require_integer_endpoints(f) -> None:
    """Raise HypothesisViolation unless f(0) and f(1) are integers.

    Decided by f.integer_endpoints, from the two brackets at n = 1.
    """
    if not f.integer_endpoints:
        raise HypothesisViolation(f"{f.name}: f(0) or f(1) is not an integer")


def _gap_rows(brackets, den: int, kind: OperatorKind, tie: TiePolicy) -> tuple[tuple, tuple]:
    """The gap rows (lo, hi) of node brackets (num_k, den, exact_k) at c = C(n,k).

    The node rule, written once: hi_k = m_k den - num_k, with m_k the
    rounded integer of the node (exact.round_bracket), and lo_k = hi_k at an
    exact node, hi_k - 1 elsewhere.  gap_interval reads it over the whole
    row and gap_sum over the end nodes; each makes one call per row.
    """
    mode = kind.value
    hi = tuple(round_bracket(num, den, exact, mode, tie) * den - num
               for num, _, exact in brackets)
    lo = tuple(e if exact else e - 1 for e, (_, _, exact) in zip(hi, brackets))
    return lo, hi


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
    when exact_k.  The rows come from _gap_rows: hi has the integers
    m_k den - num_k, and lo the same less 1 at every inexact node; neither
    row is reduced, so hi_k - lo_k is 0 or 1, and lo == hi exactly when
    every bracket is exact.  The basis weights are nonnegative, so
    sum_k e_k x^k (1-x)^(n-k) / den encloses the gap at every x between
    e = lo and e = hi, and the two ends differ by at most
    2^-APPROX_BITS / n, as sum_k x^k (1-x)^(n-k) <= 1.  proximity_gap_exact
    is its one reader; gap_sum applies _gap_rows to the row ends only.
    Raises ValueError for the Classic kind and unless n is an integer >= 1
    (8.0 and numpy.int64(8) are taken as 8).
    """
    if kind is OperatorKind.CLASSIC:
        raise ValueError("gap_interval: kind must be FloorInt or NearestInt")
    n = _degree(n, "gap_interval")
    brackets = f.scaled_bracket_row(n, APPROX_BITS, binomial_row(n))
    den = brackets[0][1]
    lo, hi = _gap_rows(brackets, den, kind, tie)
    return lo, hi, den


def gap_sum(f, n: int, kind: OperatorKind, s: int = 0, tie: TiePolicy = DEFAULT_TIE):
    """The s-th derivative of the gap (integer-kind model - B_n f), as a float function.

    The gap's midpoint row e_k = lo_k + hi_k over 2 den (the rows of
    gap_interval; at an exact node the gap itself, elsewhere within
    2^-(APPROX_BITS + 1) / n of it), differentiated s times on ints and
    summed by the function of _endpoint_sum, which reads only the first and
    last J = _endpoint_terms(n - s) entries of the differentiated row.
    Those need the nodes k < J + s and k > n - J - s, and gap_sum reads
    those alone: one bracket f.scaled_bracket(k, n, APPROX_BITS, C(n,k))
    each, on one den (f.row_den), and from them the entries lo_k + hi_k of
    gap_interval's rows, by the one node rule of _gap_rows.
    Each end is differentiated on its own by _derivative_row, the left one
    as a prefix and the right one as a suffix of the row.  Up to
    n - s = 69, where J = n - s + 1, the two ends are the whole row.  The
    two ends are prepared for the kernel once, here, and each call of the
    returned function is one kernel call over all its points.  It takes a
    point or an array-like of points, as evaluate does, and raises
    ValueError unless every point is finite and in [0, 1].

    The value is within 2^-64 max_j |e_j| / (2 den) of the full sum of the
    differentiated row e, and that bound has an a priori size: every
    |lo_k + hi_k| is at most 2 den, and a step from degree d multiplies the
    largest |e_j| by at most d + 1, so the dropped terms total at most
    2^-64 (n+1)^s.  s > n gives the zero function, the sum of the zero row
    of degree 0.  Raises ValueError for s < 0, unless n is an integer >= 1,
    and for the Classic kind.
    """
    if s < 0:
        raise ValueError(f"gap_sum: order must be >= 0, got {s}")
    n = _degree(n, "gap_sum")
    if kind is OperatorKind.CLASSIC:
        raise ValueError("gap_sum: kind must be FloorInt or NearestInt")
    if s > n:
        return _endpoint_sum((0,), (0,), 0, 1)
    m = n - s
    size = _endpoint_terms(m) + s  # the nodes each end needs, n + 1 up to m = 69
    nodes = [*range(size), *range(max(n + 1 - size, size), n + 1)]
    brackets = [f.scaled_bracket(k, n, APPROX_BITS, math.comb(n, k)) for k in nodes]
    den = f.row_den(brackets)
    mid = [a + b for a, b in zip(*_gap_rows(brackets, den, kind, tie))]
    left, _ = _derivative_row(mid[:size], n, s)
    right, _ = _derivative_row(mid[-size:], n, s, n + 1 - size)
    return _endpoint_sum(left, right, m, 2 * den)


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
    give (0, 0) at every point without a sum.  Points are read as
    evaluate_exact reads them: int and Fraction points as they are, others
    through Fraction(x).  Fully rigorous, which is what lets tests verify
    the 1/n and 1/(2n) bounds without floats.  n is checked as gap_interval
    checks it, under this function's name.
    """
    n = _degree(n, "proximity_gap_exact")
    lo, hi, den = gap_interval(f, n, kind, tie)
    width = None if lo == hi else [b - a for a, b in zip(lo, hi)]
    zero = width is None and not any(lo)
    out = []
    for x in xs:
        a, b = _unit_point(x, "proximity_gap_exact: points must lie in [0, 1]")
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
    "classic_power_form",
    "evaluate",
    "evaluate_exact",
    "derivative_model",
    "require_integer_endpoints",
    "gap_interval",
    "gap_sum",
    "proximity_gap_exact",
]
