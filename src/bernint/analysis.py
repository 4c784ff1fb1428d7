"""Sup-norm estimation, moduli of smoothness, rate fitting and experiments.

Everything here is desk-scale numerics with deterministic grids, and every
sup norm and modulus is taken over the whole of [0, 1], where the paper's
proximity bounds, saturation and moduli live:

* sup_norm: dense-grid max of |F| on [0, 1] plus zoom rounds around the
  argmax (one 32-point call per round).  Estimates are lower bounds of the
  sup of the float values F returned at the evaluated points, and refining
  the grid never decreases them.  They are not certified lower bounds of
  the true sup: F's own rounding (the kernel's, or a Horner sum's) is not
  bounded, so a value may lie above the true one by that rounding.  The
  grid is built once per point count and shared, read-only, by every call.
* proximity_gap: sup_norm of the gap between an integer kind and B_n f,
  read through operators.gap_sum, the one float reader of the gap: from
  degree 70 on, the terms near the end each point is on, within
  2^-64 max_k |e_k| / den of the full sum, from the brackets of the nodes
  those terms need and no others.
* omega1 / omega_phi2: moduli of smoothness on [0, 1], sampled on uniform
  grids.  omega1 takes the largest max - min over sliding windows, with
  running maxima and minima built by doubling (O(m log w) for m points and
  w steps), and refuses a t below its finest step 2^-18; the second-order
  Ditzian-Totik modulus applies the paper rule "difference = 0 when a node
  leaves [0,1]" literally, and takes the second difference of a
  polynomial spec's derivative in its exact Taylor form, free of the
  cancellation of target differences at small t.  Both raise ValueError,
  as sup_norm does, when the target is NaN or infinite at a sampled point.
* fit_rate: least-squares slope of log error against log n, with exact zeros
  excluded (they signal the trivial class, not a rate).
* experiment procedures (error_curve, voronovskaya_check, saturation_probe,
  boundary_interpolation_check, converse_experiment, hypothesis_check)
  wiring the operators and corpus together.  error_curve measures every
  point of [0, 1], a spec's kink included.  For a polynomial of degree deg
  both error_curve and voronovskaya_check read B_n f off its power form
  (operators.classic_power_form), the Newton form
  B_n f(x) = sum_{j<=m} C(n,j) Delta^j_{1/n} f(0) x^j, m = min(deg, n),
  built from the first m + 1 node brackets: O(deg) small-integer work per n
  and no model.  error_curve has two routes.  For a polynomial spec it
  takes E_n = B_n f - f exactly and its s-th derivative to floats, and runs
  a degree deg - s Horner sum per point in place of the O(n) kernel; under
  FloorInt and NearestInt (for an f that is not integer-linear) it adds the
  s-th derivative of the gap, operators.gap_sum (from degree 70 on, near
  each end with kernel calls of degree at most 30, from 2 (J + s) node
  brackets, J <= 31).  Every other spec builds the model and runs the
  degree-n kernel.
  voronovskaya_check evaluates the power form exactly at x, and refuses a
  spec without poly_coeffs; analysis reads no row of node brackets.
  saturation_probe, like converse_experiment, puts an integer-linear f in
  the trivial class from its coefficients alone: every kind reproduces it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Callable, Optional, Sequence

import numpy as np

from bernint.corpus import CapabilityError, FunctionSpec, _horner
from bernint.exact import (DEFAULT_TIE, TiePolicy, _power_derivative, common_denominator,
                           homogeneous_sum)
from bernint.operators import (
    OperatorKind,
    _degree,
    build_model,
    classic_power_form,
    derivative_model,
    evaluate,
    gap_sum,
    require_integer_endpoints,
)

# ---------------------------------------------------------------------------
# grids and sup norms

# Largest sampling grid anywhere: sup-search grids are refused above it and
# omega1 densifies only up to it (a few MB per array).
_MAX_GRID_POINTS = (1 << 18) + 1

# Points per sup_norm zoom round; a round shrinks the bracket by 2/33.  Kernel
# calls this narrow run as (degree x points) tables, whose cost grows with the
# width: at n = 512 on a 2-CPU x86-64 host a 16-point call takes 0.21 ms, a
# 32-point one 0.29 ms and a 64-point one 0.40 ms.  So 8-16 points would
# shrink the bracket slightly faster per millisecond; 32 stays because the
# reported estimates depend on which points the rounds probe.
_REFINE_POINTS = 32
_REFINE_STEPS = np.arange(1, _REFINE_POINTS + 1) / (_REFINE_POINTS + 1)


@dataclass(frozen=True)
class GridConfig:
    """Sup-search grid: M endpoint-clustered points, R zoom rounds.

    Each zoom round evaluates _REFINE_POINTS interior points of the bracket
    around the best point found so far (see sup_norm); the default 6 rounds
    shrink the initial bracket by (2/33)^6, about 5e-8.  Both fields are
    integers: an integral float such as 100.0 is stored as the int 100, and
    any other non-integer raises ValueError.
    """

    points: int = 4097
    refine: int = 6

    def __post_init__(self):
        for name in ("points", "refine"):
            v = getattr(self, name)
            if v % 1:
                raise ValueError(f"GridConfig: {name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if not 33 <= self.points <= _MAX_GRID_POINTS:
            raise ValueError(f"GridConfig: points must lie in [33, {_MAX_GRID_POINTS}]")
        if self.refine < 0:
            raise ValueError("GridConfig: refine must be >= 0")


DEFAULT_GRID = GridConfig()


# A sweep calls sup_norm dozens of times on one grid (24 times per pass of
# the four default sweep commands), and a build takes about 50 us at 4097
# points on a 2-CPU x86-64 host, so sup_norm reads one read-only array per
# point count.  The few grids of a run stay cached, at most 2 MB each.
@lru_cache(maxsize=4)
def _abscissas(points: int) -> np.ndarray:
    # arccos-clustered: the error of Bernstein approximants concentrates at
    # the endpoints, so sample densely there
    i = np.arange(points)
    xs = (1.0 - np.cos(np.pi * i / (points - 1))) / 2.0
    xs.flags.writeable = False
    return xs


def grid_points(grid: GridConfig) -> np.ndarray:
    """The evaluation abscissas of ``grid`` on [0, 1], as a new writable array."""
    return _abscissas(grid.points).copy()


@dataclass(frozen=True)
class SupEstimate:
    """Estimate of a sup norm: the best float value seen, and where."""

    value: float
    argmax: float

    def __float__(self):
        return float(self.value)


def _as_eval(F) -> Callable:
    return F.eval_float if hasattr(F, "eval_float") else F


def _finite_values(fn: Callable, xs: np.ndarray, who: str) -> np.ndarray:
    """fn(xs) as floats; ValueError naming ``who`` unless there is one finite
    value per point (a scalar for an array of points is refused, not
    broadcast)."""
    vals = np.asarray(fn(xs), dtype=np.float64)
    if vals.shape != xs.shape:
        raise ValueError(f"{who}: target must return one value per point")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{who}: target is not finite at some point")
    return vals


def sup_norm(F, grid: GridConfig = DEFAULT_GRID) -> SupEstimate:
    """Estimate sup |F| on [0, 1].

    Dense-grid maximum followed by ``grid.refine`` zoom rounds: each round
    evaluates _REFINE_POINTS equally spaced interior points of the bracket
    around the best point in one call, and the next bracket is the two
    neighbours of the round's best point, so every round shrinks the bracket
    by 2/(_REFINE_POINTS + 1).  Refinement ends early once a round leaves
    the bracket as it was.  Every evaluated point contributes, so the result
    is a lower bound of the sup of F's float values over the evaluated
    points; it bounds the true sup only as far as F's own rounding allows,
    which is not bounded here.  Raises ValueError if F yields a NaN or
    an infinity at any evaluated point.  F receives the grid as a read-only
    array, shared between calls (grid_points gives a writable copy).
    """
    fn = _as_eval(F)
    xs = _abscissas(grid.points)
    vals = np.abs(_finite_values(fn, xs, "sup_norm"))
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    left = float(xs[i - 1]) if i > 0 else float(xs[i])
    right = float(xs[i + 1]) if i < len(xs) - 1 else float(xs[i])
    for _ in range(grid.refine):
        if right - left <= 0.0:
            break
        inner = left + (right - left) * _REFINE_STEPS
        vals = np.abs(_finite_values(fn, inner, "sup_norm"))
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_x, best_v = float(inner[j]), float(vals[j])
        bracket = (
            float(inner[j - 1]) if j > 0 else left,
            float(inner[j + 1]) if j < _REFINE_POINTS - 1 else right,
        )
        if bracket == (left, right):
            break
        left, right = bracket
    return SupEstimate(value=best_v, argmax=best_x)


def proximity_gap(
    f: FunctionSpec,
    n: int,
    kind: OperatorKind,
    grid: GridConfig = DEFAULT_GRID,
    tie: TiePolicy = DEFAULT_TIE,
) -> SupEstimate:
    """Sup-norm estimate of |integer-kind model - B_n f| on [0, 1].

    Requires integer endpoint values f(0), f(1) (hypothesis of the 1/n and
    1/(2n) proximity bounds) and an integer n >= 1 (ValueError).  Measures
    operators.gap_sum at s = 0, the midpoint of the gap rows:
    c_k - f(k/n), with the bracket midpoint for an irrational f(k/n).  One
    kernel call over the whole row up to n = 69, and from n = 70 on the
    terms near the end each point is on, within
    2^-64 max_k |lo_k + hi_k| / (2 den) of the full sum; those are the
    first and last J(n) terms, J(n) <= 31, and gap_sum reads the node
    brackets of those terms alone.
    """
    n = _degree(n, "proximity_gap")
    require_integer_endpoints(f)
    return sup_norm(gap_sum(f, n, kind, 0, tie), grid)


# ---------------------------------------------------------------------------
# moduli of smoothness


@dataclass(frozen=True)
class ModulusEstimate:
    t: float
    value: float

    def __float__(self):
        return float(self.value)


# omega1 densifies its uniform grid (up to _MAX_GRID_POINTS) until the
# sliding window holds at least this many steps.
_OMEGA1_MIN_WINDOW = 32

# top h sample of the omega_phi2 sweep backs off from t by one part in 2^40:
# still an admissible step (the sup runs over 0 < h <= t), but it keeps the
# float-rounded second difference provably below the h = t envelope.
_H_BACKOFF = 1.0 - 2.0 ** -40
_H_COUNT = 64
_H_SPAN = 100.0
# Steps h per omega_phi2 target call.  On a 2-CPU x86-64 host (2 MB L2) at the
# default 4097 points, blocks of 4-8 steps take 0.71-0.74 of the time of one
# call per step, 16 steps 0.80 and all 64 steps 1.7x: large blocks spill L2.
_H_BLOCK = 4


def _omega1_window_max(vals: np.ndarray, w: int) -> float:
    """max |vals[i] - vals[j]| over |i - j| <= w, in O(m log w).

    That is the largest max - min over windows of w + 1 consecutive values.
    Running maxima and minima double their window up to the largest power of
    two p <= w + 1 (a sparse table); a window of w + 1 is the union of the
    p-windows at its two ends.  Rounding is monotone, so fl(max - min) is the
    largest fl(|vals[i] - vals[j]|) of its window: the value is bit for bit
    that of the scan over every offset d <= w.
    """
    if w <= 0:
        return 0.0
    size = min(w + 1, len(vals))
    hi = lo = vals
    p = 1
    while 2 * p <= size:
        hi = np.maximum(hi[:-p], hi[p:])
        lo = np.minimum(lo[:-p], lo[p:])
        p *= 2
    shift = size - p
    top = np.maximum(hi[:hi.size - shift], hi[shift:])
    bottom = np.minimum(lo[:lo.size - shift], lo[shift:])
    # 0.0, not -0.0, when every window holds equal values of mixed sign
    return max(0.0, float(np.max(top - bottom)))


def omega1(F, t: float, points: Optional[int] = None) -> ModulusEstimate:
    """First modulus of continuity sup_{|x-y|<=t} |F(x)-F(y)| on [0, 1].

    Sliding-window scan over a uniform grid dense enough that the window
    holds at least 32 steps; lower-bound semantics as everywhere.  Raises
    ValueError if F yields a NaN or an infinity at a grid point.
    """
    return omega1_sweep(F, [t], points)[0]


def _omega1_grid(ts: list[float], points: Optional[int]) -> tuple[int, list[int]]:
    """The uniform grid size m and the window of each t that omega1_sweep uses.

    Raises ValueError for an empty ts, a t outside (0, 1], and a t below the
    finest step of the grid (no two grid points within t).  No target is
    evaluated, so callers can refuse a t list before any costly work.
    """
    if not ts:
        raise ValueError("omega1: need at least one t")
    for t in ts:
        if not (0.0 < t <= 1.0):
            raise ValueError(f"omega1: need 0 < t <= 1, got t={t}")
    need = int(math.ceil(_OMEGA1_MIN_WINDOW / min(ts))) + 1
    m = min(max(points or DEFAULT_GRID.points, need), _MAX_GRID_POINTS)
    step = 1.0 / (m - 1)
    windows = [int(math.floor(t / step + 1e-9)) for t in ts]
    if min(windows) == 0:
        # no two grid points lie within t: the window max would read 0.0
        raise ValueError(f"omega1: t={min(ts)!r} is below the finest grid step; "
                         f"the smallest t it resolves is {step!r}")
    return m, windows


def omega1_sweep(
    F, ts: Sequence[float], points: Optional[int] = None
) -> list[ModulusEstimate]:
    """omega1 at several t on one shared grid (makes monotonicity exact).

    The grid has at most _MAX_GRID_POINTS points, so its finest step is
    2^-18; a t below it (no two grid points within t) raises ValueError
    naming that step, rather than reading an empty window as 0.0.
    """
    ts = [float(t) for t in ts]
    m, windows = _omega1_grid(ts, points)
    xs = np.linspace(0.0, 1.0, m)
    vals = _finite_values(_as_eval(F), xs, "omega1")
    return [ModulusEstimate(t=t, value=_omega1_window_max(vals, w)) for t, w in zip(ts, windows)]


def _taylor_rows(coeffs, s: int) -> list[list[float]]:
    """Float coefficients of A_j = 2 g^(2j) / (2j)!, j = 1..deg(g) // 2, for
    g = f^(s) of the polynomial f = sum_k coeffs[k] x^k; row j - 1, lowest
    order first.

    Then Delta^2_d g(x) = g(x + d) - 2 g(x) + g(x - d) = sum_j A_j(x) d^(2j)
    exactly.  With f = sum_k e_k x^k / D on ints, g has the integer
    coefficients g_k = (k + s)!/k! e_(k+s) over D, and A_j the coefficients
    2 C(i + 2j, 2j) g_(i+2j), i >= 0, each turned into a float by one
    correctly rounded int / int division.  A g of degree below 2 has no row.
    """
    e, d = common_denominator(coeffs)
    g = _power_derivative(e, s)
    return [[2 * math.comb(k, 2 * j) * g[k] / d for k in range(2 * j, len(g))]
            for j in range(1, (len(g) + 1) // 2)]


def omega_phi2(f, t: float, grid: Optional[GridConfig] = None, s: int = 0) -> ModulusEstimate:
    """Second-order Ditzian-Totik modulus of g = f^(s), phi(x) = sqrt(x(1-x)).

    sup over 64 log-spaced h in (t/100, t] and a uniform x grid of
    |Delta^2 g(x)| = |g(x + h phi(x)) - 2 g(x) + g(x - h phi(x))|, the
    difference taken as 0 whenever a node leaves [0, 1] (the paper's "0,
    otherwise" rule; the test is (x - h phi >= 0) & (x + h phi <= 1) in
    floats).  f is a FunctionSpec or a callable; order s > 0 needs a spec
    (ValueError for a callable; CapabilityError above the spec's s_max).
    Two paths give the value:

    * the Taylor path, for a spec with ``poly_coeffs``: Delta^2 g(x) =
      sum_{j>=1} A_j(x) d^(2j) with d = fl(h phi(x)) and A_j = 2 g^(2j)/(2j)!
      (_taylor_rows), each A_j evaluated once on the grid, then one Horner
      sum of degree deg(g) // 2 in y = fl(d^2) per point and step.  No
      target call and no cancellation: each value lies within
      4 (deg(g) + 1) u sum_j |A_j|~(x) d^(2j) of the exact |Delta^2_d g(x)|
      at that d, where |A_j|~ has the absolute values of A_j's coefficients
      and u = 2^-53 (the rounding of the coefficients, of both Horner sums
      and of y), so the value keeps its relative accuracy as t shrinks.  A
      g of degree below 2 gives exactly 0.0.
    * the direct path, for a callable or any other spec: the difference of
      target values at the float nodes fl(x +- h phi(x)), clipped to [0, 1].
      Each target value carries its own rounding, of order u sup |g|
      whatever t is, so the relative error of the result is unbounded as t
      shrinks: for x^2 at t = 1e-6 it reads 5.000444502911705e-13, above
      the exact sup t^2/2 = 5e-13, and at t = 1e-7 the result falls under
      the noise floor below.  A max at most 32 eps max(1, max |g|) is
      reported as 0.0, the honest lower bound for a second difference that
      vanishes exactly (a linear g).  The steps run _H_BLOCK at a time, one
      target call on the clipped x + h phi and x - h phi of the whole
      block, which needs a target whose value at a point does not depend on
      the batch.

    Raises ValueError if g is NaN or infinite at an evaluated point (a
    coefficient row A_j, on the Taylor path).
    """
    t = float(t)
    if not (0.0 < t <= 1.0):
        raise ValueError(f"omega_phi2: need 0 < t <= 1, got {t}")
    spec = isinstance(f, FunctionSpec)
    if s and not spec:
        raise ValueError(f"omega_phi2: order s = {s} needs a FunctionSpec, not a callable")
    if spec:
        f.require(s)
    m = grid.points if grid is not None else DEFAULT_GRID.points
    xs = np.linspace(0.0, 1.0, m)
    phi = np.sqrt(xs * (1.0 - xs))
    hs = np.geomspace(t / _H_SPAN, t, _H_COUNT)
    hs[-1] = t * _H_BACKOFF
    if spec and f.poly_coeffs is not None:
        rows = [_finite_values(lambda x, a=a: _horner(a, x), xs, "omega_phi2")
                for a in _taylor_rows(f.poly_coeffs, s)]
        return ModulusEstimate(t=t, value=_omega_phi2_taylor(rows, xs, phi, hs))
    fn = (lambda x: f.deriv_float(s, x)) if spec else _as_eval(f)
    return ModulusEstimate(t=t, value=_omega_phi2_direct(fn, xs, phi, hs))


def _omega_phi2_taylor(rows, xs, phi, hs) -> float:
    """max over hs and feasible x of |sum_j rows[j-1] (h phi)^(2j)| (Taylor path)."""
    if not rows:
        return 0.0
    best = 0.0
    for i in range(0, _H_COUNT, _H_BLOCK):
        off = hs[i:i + _H_BLOCK, None] * phi
        # the direct path's test: xs - off >= 0 in floats is off <= xs,
        # since a float difference is 0 only when it is exactly 0
        feasible = off <= xs
        feasible &= xs + off <= 1.0
        y = np.multiply(off, off, out=off)
        acc = rows[-1] * y
        for a in rows[-2::-1]:
            acc += a
            acc *= y
        np.abs(acc, out=acc)
        acc *= feasible
        best = max(best, float(acc.max()))
    return best


def _omega_phi2_direct(fn, xs, phi, hs) -> float:
    """omega_phi2 from target values at the float nodes (direct path)."""
    m = xs.size
    mid = _finite_values(fn, xs, "omega_phi2")
    mid2 = 2.0 * mid
    best = 0.0
    # one node array for every block: pts[0] is x + h phi and pts[1] is
    # x - h phi, one row per step
    nodes = np.empty((2, _H_BLOCK, m))
    for i in range(0, _H_COUNT, _H_BLOCK):
        h = hs[i:i + _H_BLOCK, None]
        pts = nodes[:, :h.shape[0]]
        np.multiply(h, phi, out=pts[0])
        np.subtract(xs, pts[0], out=pts[1])
        pts[0] += xs
        feasible = (pts[1] >= 0.0) & (pts[0] <= 1.0)
        np.clip(pts, 0.0, 1.0, out=pts)
        vp, vm = _finite_values(fn, pts.reshape(-1), "omega_phi2").reshape(pts.shape)
        # |vp - 2 mid + vm|, 0 at the infeasible nodes, in place in pts[0]
        d = np.subtract(vp, mid2, out=pts[0])
        d += vm
        np.abs(d, out=d)
        np.copyto(d, 0.0, where=~feasible)
        best = max(best, float(d.max()))
    # a max below the double-rounding noise floor of the evaluation is
    # indistinguishable from an exactly vanishing second difference (linear
    # functions); 0 is the honest lower bound, so report that
    scale = max(1.0, float(np.max(np.abs(mid))))
    if best <= 32.0 * np.finfo(np.float64).eps * scale:
        best = 0.0
    return best


# ---------------------------------------------------------------------------
# rate fitting


class InsufficientData(ValueError):
    """Too few positive (n, error) pairs to fit a rate."""


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log error = log C - alpha log n."""

    alpha: float
    C: float
    residual: float
    pairs: tuple
    zero_pairs: tuple


def fit_rate(pairs) -> RateFit:
    """Fit a power law error ~ C n^-alpha.

    Exact zeros are excluded from the fit and reported in ``zero_pairs``
    (they signal exact interpolation, not a rate).  When at least 8 positive
    pairs are available the 3 smallest n are discarded as pre-asymptotic.
    Fewer than 4 positive pairs, or fitted pairs at fewer than two distinct
    n, raise InsufficientData.  Raises ValueError unless every n is an
    integer >= 1 (8.0 and numpy.int64(8) are taken as 8) and every error a
    finite float >= 0.
    """
    cleaned = []
    zeros = []
    for n, e in pairs:
        n = _degree(n, "fit_rate")
        e = float(e)
        if not math.isfinite(e):
            raise ValueError(f"fit_rate: non-finite error {e} at n={n}")
        if e < 0.0:
            raise ValueError(f"fit_rate: negative error {e} at n={n}")
        (zeros if e == 0.0 else cleaned).append((n, e))
    cleaned.sort()
    zeros.sort()
    if len(cleaned) < 4:
        raise InsufficientData(
            f"fit_rate: need >= 4 positive pairs, got {len(cleaned)} "
            f"({len(zeros)} exact zeros)"
        )
    used = cleaned[3:] if len(cleaned) >= 8 else cleaned
    if used[0][0] == used[-1][0]:  # sorted, so one n throughout
        raise InsufficientData(f"fit_rate: the fitted pairs all have n = {used[0][0]}")
    x = np.log([n for n, _ in used])
    y = np.log([e for _, e in used])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return RateFit(
        alpha=float(-slope),
        C=float(np.exp(intercept)),
        residual=resid,
        pairs=tuple(used),
        zero_pairs=tuple(zeros),
    )


def _fit_loglog(ts, vals) -> tuple[Optional[float], bool]:
    """Slope of log vals against log ts; (None, all_zero_flag) if degenerate."""
    pos = [(t, v) for t, v in zip(ts, vals) if v > 0.0]
    if len(pos) < 2:
        return None, all(v == 0.0 for v in vals)
    x = np.log([t for t, _ in pos])
    y = np.log([v for _, v in pos])
    slope = float(np.polyfit(x, y, 1)[0])
    return slope, False


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class ErrorPoint:
    n: int
    error: float
    argmax: float


def _power_error(form, fe, fd, s: int) -> np.ndarray:
    """Float coefficients of E^(s), lowest order first, for E = B_n f - f.

    form = (e, den) is B_n f = sum_j e_j x^j / den (classic_power_form)
    and f = sum_j fe_j x^j / fd.  E is formed exactly on ints over
    d = lcm(den, fd) and differentiated there (x^j gains j!/(j-s)!); each
    coefficient then becomes a float by one correctly rounded int / int
    division.
    """
    e, den = form
    d = math.lcm(den, fd)
    err = [u * (d // den) - v * (d // fd) for u, v in zip_longest(e, fe, fillvalue=0)]
    return np.array([c / d for c in _power_derivative(err, s)])


def error_curve(
    f: FunctionSpec,
    kind: OperatorKind,
    s: int,
    n_list: Sequence[int],
    grid: GridConfig = DEFAULT_GRID,
    tie: TiePolicy = DEFAULT_TIE,
) -> list[ErrorPoint]:
    """Per n: sup-norm estimate of |(model)^(s) - f^(s)| on [0, 1].

    Every point of [0, 1] counts, a kink included: each served derivative
    order of a built-in spec is continuous there.  Two routes:

    * the power-form route, for a polynomial spec (``poly_coeffs``).
      E_n = B_n f - f is read exactly off classic_power_form and
      poly_coeffs, differentiated s times on ints and converted to floats
      coefficient by coefficient (_power_error); sup_norm runs the in-place
      float Horner of the polynomial deriv_float on it, deg - s steps per
      point.  Under FloorInt and NearestInt the model is B_n f plus the gap
      G_n, so (model)^(s) - f^(s) = G_n^(s) + E_n^(s), and G_n^(s) is
      operators.gap_sum: from n - s = 70 on, one kernel call of degree at
      most 30 (10 at n - s = 512) per side in place of the degree-n pass,
      from the brackets of the 2 (J + s) nodes those calls need.
      The Classic kind has no gap, and neither has an integer-linear f
      under any kind (each kind reproduces it, so every error is exactly
      0.0).  No model is built.
    * the model route, for every other spec: sup_norm of
      evaluate(derivative_model(build_model(f, n, kind, tie), s))
      - f.deriv_float(s), the O(n)-per-point kernel.

    At n < s the model's s-th derivative is zero (on the power-form route,
    B_n f has degree below s), so the curve is total over n_list.  Every
    route raises ValueError naming build_model unless n is an integer
    >= 1, and the power-form route raises CapabilityError when one of the
    first deg + 1 node brackets of a polynomial spec is inexact.
    """
    if s < 0:
        raise ValueError("error_curve: s must be >= 0")
    f.require(s)
    poly = f.poly_coeffs is not None
    has_gap = kind is not OperatorKind.CLASSIC and not f.integer_linear
    if poly:
        fe, fd = common_denominator(f.poly_coeffs)
    out = []
    for n in n_list:
        n = _degree(n, "build_model")
        if poly:
            c = _power_error(classic_power_form(f, n), fe, fd, s)
            g = gap_sum(f, n, kind, s, tie) if has_gap else None
            est = sup_norm(lambda xs: _horner(c, xs) if g is None else g(xs) + _horner(c, xs), grid)
        else:
            dm = derivative_model(build_model(f, n, kind, tie), s)
            est = sup_norm(lambda xs: evaluate(dm, xs) - f.deriv_float(s, xs), grid)
        out.append(ErrorPoint(n=n, error=est.value, argmax=est.argmax))
    return out


@dataclass(frozen=True)
class VoronovskayaRow:
    n: int
    scaled_gap: Fraction
    residual: Fraction


@dataclass(frozen=True)
class VoronovskayaReport:
    x: Fraction
    limit: Fraction
    rows: tuple


def voronovskaya_check(f: FunctionSpec, x, n_list: Sequence[int]) -> VoronovskayaReport:
    """Exact-rational convergence of n (B_n f(x) - f(x)) to x(1-x) f''(x)/2.

    Each n evaluates the power form B_n f = sum_j e_j x^j / den,
    j <= m = min(deg, n) (classic_power_form, read off the first m + 1 node
    brackets at c = 1), at x = a/b as one ratio S / d of integers,
    S = homogeneous_sum(e, a, b) and d = den b^m: O(deg) small-integer work
    per n and no model.  With f(x) = p/q each row's scaled gap is the one
    Fraction n (S q - p d) / (d q).

    Raises CapabilityError when f(x) or f''(x) is not exactly known, when f
    has no ``poly_coeffs`` or when a node bracket is inexact, ValueError
    when two node brackets of one n have different dens, and ValueError
    unless 0 < x < 1 and every n is an integer >= 1.
    """
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("voronovskaya_check: x must lie in (0, 1)")
    fx = f.eval_exact(x)
    d2 = f.deriv_exact(2, x) if f.supports(2) else None
    if fx is None or d2 is None:
        raise CapabilityError(
            f"{f.name}: voronovskaya_check needs exact f(x) and f''(x)"
        )
    if f.poly_coeffs is None:
        raise CapabilityError(f"{f.name}: voronovskaya_check needs a polynomial spec")
    limit = x * (1 - x) * d2 / 2
    a, b = x.numerator, x.denominator
    p, q = fx.numerator, fx.denominator
    rows = []
    for n in n_list:
        n = _degree(n, "voronovskaya_check")
        e, den = classic_power_form(f, n)
        d = den * b ** (len(e) - 1)
        s = homogeneous_sum(e, a, b)
        scaled = Fraction(n * (s * q - p * d), d * q)
        rows.append(VoronovskayaRow(n=n, scaled_gap=scaled, residual=abs(scaled - limit)))
    return VoronovskayaReport(x=x, limit=limit, rows=tuple(rows))


class SaturationVerdict(enum.Enum):
    TRIVIAL_CLASS = "TrivialClass"
    SATURATED_RATE = "SaturatedRate"
    SUB_SATURATED = "SubSaturated"


@dataclass(frozen=True)
class SaturationReport:
    verdict: SaturationVerdict
    rows: tuple  # (n, n * error)
    band_ratio: Optional[float]  # max/min of n*error over the top half of the sweep
    bounded: Optional[bool]  # band_ratio < 10
    vanishing: bool  # last n*error < first / 10
    inconsistent: bool  # vanishing without membership in the trivial class
    notes: str


def saturation_probe(
    f: FunctionSpec,
    kind: OperatorKind,
    s: int,
    n_list: Sequence[int],
    grid: GridConfig = DEFAULT_GRID,
    tie: TiePolicy = DEFAULT_TIE,
) -> SaturationReport:
    """Classify the decay of n * ||(model)^(s) - f^(s)|| over ``n_list``.

    TrivialClass: integer-linear f = px + q, decided from f's coefficients
    alone, not by measurement: B_n reproduces px + q, and the scaled node
    values C(n,k) f(k/n) = p C(n-1,k-1) + q C(n,k) are integers, which floor
    and nearest (under every tie policy) round to themselves, so every kind
    reproduces f at every n.  SaturatedRate: n*error stays in a band
    ("bounded" = max/min over the top half of the sweep < 10).
    SubSaturated: n*error decays (last < first/10); for a
    non-integer-linear f this contradicts the saturation theorem and is
    flagged inconsistent rather than silently accepted.
    """
    if len(n_list) < 2:
        raise ValueError("saturation_probe: need at least two n values")
    require_integer_endpoints(f)
    if f.integer_linear:
        # each n is a model degree, refused as build_model refuses it
        for n in n_list:
            _degree(n, "build_model")
        return SaturationReport(
            verdict=SaturationVerdict.TRIVIAL_CLASS,
            rows=tuple((int(n), 0.0) for n in n_list),
            band_ratio=None,
            bounded=None,
            vanishing=True,
            inconsistent=False,
            notes="integer-linear function reproduced exactly at every n "
            "(coefficient comparison)",
        )
    curve = error_curve(f, kind, s, n_list, grid, tie)
    rows = tuple((p.n, p.n * p.error) for p in curve)
    scaled = [v for _, v in rows]
    first, last = scaled[0], scaled[-1]
    vanishing = last < first / 10.0 if first > 0.0 else all(v == 0.0 for v in scaled)
    top = scaled[len(scaled) // 2 :]
    band_ratio = (max(top) / min(top)) if min(top) > 0.0 else math.inf
    return SaturationReport(
        verdict=SaturationVerdict.SUB_SATURATED if vanishing else SaturationVerdict.SATURATED_RATE,
        rows=rows,
        band_ratio=band_ratio,
        bounded=band_ratio < 10.0,
        vanishing=vanishing,
        inconsistent=vanishing,
        notes=("n*error decays although f is not integer-linear: contradicts "
               "the saturation theorem; flagged for investigation" if vanishing else
               "n*error non-vanishing; band ratio over the top half of the sweep "
               f"= {band_ratio:.3g} (bounded means < 10)"),
    )


@dataclass(frozen=True)
class BoundaryRow:
    n: int
    matches: tuple  # entry i: (left boundary exact match, right exact match)


@dataclass(frozen=True)
class BoundaryReport:
    s: int
    rows: tuple
    threshold: Optional[int]  # least n (in the list) from which all rows match


def boundary_interpolation_check(
    f: FunctionSpec,
    kind: OperatorKind,
    s: int,
    n_list: Sequence[int],
    tie: TiePolicy = DEFAULT_TIE,
) -> BoundaryReport:
    """Exact endpoint-derivative matches (model)^(i)(0,1) = f^(i)(0,1), i < s.

    A Bernstein-form model of degree m has value coeffs[0] at 0 and
    coeffs[m] at 1, so the comparisons are pure rational arithmetic.
    """
    if s < 1:
        raise ValueError("boundary_interpolation_check: s must be >= 1")
    endpoints = [f.endpoint_deriv(i) for i in range(s)]
    rows = []
    for n in sorted(n_list):
        model = build_model(f, n, kind, tie)
        if not model.coeffs_exact:
            raise CapabilityError(
                f"{f.name}: boundary check needs exact model coefficients"
            )
        matches = []
        for i in range(s):
            dm = derivative_model(model, i)
            matches.append(
                (dm.coeffs[0] == endpoints[i][0], dm.coeffs[-1] == endpoints[i][1])
            )
        rows.append(BoundaryRow(n=model.n, matches=tuple(matches)))
    threshold = None
    for row in reversed(rows):
        if all(a and b for a, b in row.matches):
            threshold = row.n
        else:
            break
    return BoundaryReport(s=s, rows=tuple(rows), threshold=threshold)


@dataclass(frozen=True)
class ConverseReport:
    """Measured converse-direction exponents.

    alpha is the fitted error exponent; slope_w2 and slope_w1 are log-log
    slopes of omega_phi2(f^(s), t) and omega1(f^(s), t) sweeps, expected
    near 2*alpha and alpha.  Exact-zero moduli (linear derivative) and the
    trivial class are reported, not fitted.
    """

    trivial: bool
    alpha: Optional[float] = None
    alpha_residual: Optional[float] = None
    slope_w2: Optional[float] = None
    slope_w1: Optional[float] = None
    w2_exact_zero: bool = False
    w1_exact_zero: bool = False
    delta_w2: Optional[float] = None
    delta_w1: Optional[float] = None
    error_pairs: tuple = ()
    w2_pairs: tuple = ()
    w1_pairs: tuple = ()
    notes: str = ""


def converse_experiment(
    f: FunctionSpec,
    kind: OperatorKind,
    s: int,
    n_list: Sequence[int],
    t_list: Sequence[float],
    grid: GridConfig = DEFAULT_GRID,
    tie: TiePolicy = DEFAULT_TIE,
) -> ConverseReport:
    """Compare the error-decay exponent with modulus-of-smoothness slopes.

    Unless f is in the trivial class (whose report skips the moduli), the t
    list is checked as omega1_sweep checks it before the error curve is
    measured, so a t the omega1 grid cannot resolve costs no sweep.
    """
    if s < 1:
        raise ValueError("converse_experiment: s must be >= 1")
    f.require(s)
    if f.integer_linear:
        return ConverseReport(
            trivial=True,
            w2_exact_zero=True,
            w1_exact_zero=True,
            notes="trivial class: errors identically zero, fits skipped",
        )
    ts = [float(t) for t in t_list]
    _omega1_grid(ts, grid.points)
    curve = error_curve(f, kind, s, n_list, grid, tie)
    pairs = [(p.n, p.error) for p in curve]
    try:
        fit = fit_rate(pairs)
        alpha, alpha_resid = fit.alpha, fit.residual
    except InsufficientData as e:
        return ConverseReport(
            trivial=False,
            error_pairs=tuple(pairs),
            notes=f"error curve unusable for a fit: {e}",
        )
    deriv = lambda xs: f.deriv_float(s, xs)  # noqa: E731
    w2_pairs = tuple((t, omega_phi2(f, t, grid, s).value) for t in ts)
    w1_pairs = tuple((e.t, e.value) for e in omega1_sweep(deriv, ts, grid.points))
    slope_w2, w2_zero = _fit_loglog([t for t, _ in w2_pairs], [v for _, v in w2_pairs])
    slope_w1, w1_zero = _fit_loglog([t for t, _ in w1_pairs], [v for _, v in w1_pairs])
    return ConverseReport(
        trivial=False,
        alpha=alpha,
        alpha_residual=alpha_resid,
        slope_w2=slope_w2,
        slope_w1=slope_w1,
        w2_exact_zero=w2_zero,
        w1_exact_zero=w1_zero,
        delta_w2=None if slope_w2 is None else abs(slope_w2 - 2.0 * alpha),
        delta_w1=None if slope_w1 is None else abs(slope_w1 - alpha),
        error_pairs=tuple(pairs),
        w2_pairs=w2_pairs,
        w1_pairs=w1_pairs,
        notes="modulus slopes are reported, not asserted "
        "(constants and the alpha = 1 boundary are outside the desk scale)",
    )


@dataclass(frozen=True)
class HypothesisReport:
    """Endpoint integrality / vanishing / node-inequality verdicts."""

    name: str
    s: int
    integrality: tuple  # (label, value string, ok)
    vanishing: tuple  # (label, value string, ok)
    n0: Optional[int]
    violations: tuple  # (n, k, description) for the inequality families
    checked_n: tuple
    passed: bool


def _dlabel(i: int, end: int) -> str:
    if i == 0:
        return f"f({end})"
    return "f" + "'" * i + f"({end})" if i <= 3 else f"f^({i})({end})"


def _certified_ge(f: FunctionSpec, k: int, n: int, rhs: Fraction) -> bool:
    """Decide f(k/n) >= rhs exactly, on integers, from one node bracket.

    With rhs = p/q in lowest terms, the bracket at c = q has num =
    floor(den q f(k/n)); since den p is an integer, den q f(k/n) >= den p
    holds exactly when num >= den p.
    """
    num, den, _ = f.scaled_bracket(k, n, 1, rhs.denominator)
    return num >= rhs.numerator * den


def hypothesis_check(f: FunctionSpec, s: int, n_range) -> HypothesisReport:
    """Verify the endpoint and node hypotheses for simultaneous approximation.

    Checks integrality of f(0), f(1) (and of f'(0), f'(1) when s >= 1),
    vanishing of f^(i) at both endpoints for i = 2..s, and the two
    inequality families f(k/n) >= f(0) + (k/n) f'(0) (k = 1..s) and
    f(k/n) >= f(1) - (1 - k/n) f'(1) (k = n-s..n-1) over the given n range
    (only n >= max(s, 1) can be checked), each decided on the integer node
    bracket (_certified_ge).  Reports the least n0 from which every larger n
    in the range passes, or the violations.  Raises ValueError when an n is
    not an integer.
    """
    if s < 0:
        raise ValueError("hypothesis_check: s must be >= 0")
    f.require(s)
    integrality = []
    needed = [0, 1] if s >= 1 else [0]
    ends: dict[tuple[int, int], Fraction] = {}
    for i in needed:
        v0, v1 = f.endpoint_deriv(i)
        ends[(i, 0)], ends[(i, 1)] = v0, v1
        integrality.append((_dlabel(i, 0), str(v0), v0.denominator == 1))
        integrality.append((_dlabel(i, 1), str(v1), v1.denominator == 1))
    vanishing = []
    for i in range(2, s + 1):
        v0, v1 = f.endpoint_deriv(i)
        vanishing.append((_dlabel(i, 0), str(v0), v0 == 0))
        vanishing.append((_dlabel(i, 1), str(v1), v1 == 0))

    checked = set()
    for n in n_range:
        if n % 1:
            raise ValueError(f"hypothesis_check: n must be an integer, got {n!r}")
        if n >= max(s, 1):
            checked.add(int(n))
    ns = sorted(checked)
    violations = []
    ok_by_n = {}
    for n in ns:
        bad = []
        if s >= 1:
            f0, d0 = ends[(0, 0)], ends[(1, 0)]
            f1, d1 = ends[(0, 1)], ends[(1, 1)]
            for k in range(1, s + 1):
                node = Fraction(k, n)
                rhs = f0 + node * d0
                if not _certified_ge(f, k, n, rhs):
                    bad.append((n, k, f"f({k}/{n}) < f(0) + (k/n) f'(0) = {rhs}"))
            for k in range(n - s, n):
                node = Fraction(k, n)
                rhs = f1 - (1 - node) * d1
                if not _certified_ge(f, k, n, rhs):
                    bad.append((n, k, f"f({k}/{n}) < f(1) - (1-k/n) f'(1) = {rhs}"))
        ok_by_n[n] = not bad
        violations.extend(bad)
    n0 = None
    for n in reversed(ns):
        if ok_by_n[n]:
            n0 = n
        else:
            break
    passed = (
        all(ok for _, _, ok in integrality)
        and all(ok for _, _, ok in vanishing)
        and n0 is not None
    )
    return HypothesisReport(
        name=f.name,
        s=s,
        integrality=tuple(integrality),
        vanishing=tuple(vanishing),
        n0=n0,
        violations=tuple(violations),
        checked_n=tuple(ns),
        passed=passed,
    )


__all__ = [
    "GridConfig",
    "DEFAULT_GRID",
    "grid_points",
    "SupEstimate",
    "sup_norm",
    "proximity_gap",
    "ModulusEstimate",
    "omega1",
    "omega1_sweep",
    "omega_phi2",
    "InsufficientData",
    "RateFit",
    "fit_rate",
    "ErrorPoint",
    "error_curve",
    "VoronovskayaRow",
    "VoronovskayaReport",
    "voronovskaya_check",
    "SaturationVerdict",
    "SaturationReport",
    "saturation_probe",
    "BoundaryRow",
    "BoundaryReport",
    "boundary_interpolation_check",
    "ConverseReport",
    "converse_experiment",
    "HypothesisReport",
    "hypothesis_check",
]
