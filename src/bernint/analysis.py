"""Sup-norm estimation, moduli of smoothness, rate fitting and experiments.

Everything here is desk-scale numerics with deterministic grids, and every
sup norm and modulus is taken over the whole of [0, 1], where the paper's
proximity bounds, saturation and moduli live:

* sup_norm: dense-grid max of |F| on [0, 1] plus zoom rounds around the
  argmax (one 32-point call per round).  Estimates are honest lower bounds
  of the true sup (only evaluated points count); refining the grid never
  decreases them.
* proximity_gap: sup_norm of the gap between an integer kind and B_n f,
  measured on the midpoint of the integer rows of operators.gap_interval.
* omega1 / omega_phi2: moduli of smoothness on [0, 1], sampled on uniform
  grids.  omega1 takes the largest max - min over sliding windows, with
  running maxima and minima built by doubling (O(m log w) for m points and
  w steps); the second-order Ditzian-Totik modulus applies the paper rule
  "difference = 0 when a node leaves [0,1]" literally.  Both raise
  ValueError, as sup_norm does, when the target is NaN or infinite at a
  sampled point.
* fit_rate: least-squares slope of log error against log n, with exact zeros
  excluded (they signal the trivial class, not a rate).
* experiment procedures (error_curve, voronovskaya_check, saturation_probe,
  boundary_interpolation_check, converse_experiment, hypothesis_check)
  wiring the operators and corpus together.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from bernint.corpus import KINK_WINDOW, CapabilityError, FunctionSpec
from bernint.exact import DEFAULT_TIE, TiePolicy
from bernint.operators import (
    BernsteinModel,
    OperatorKind,
    build_model,
    derivative_model,
    evaluate,
    evaluate_exact,
    gap_interval,
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
    shrink the initial bracket by (2/33)^6, about 5e-8.
    """

    points: int = 4097
    refine: int = 6

    def __post_init__(self):
        if not 33 <= self.points <= _MAX_GRID_POINTS:
            raise ValueError(f"GridConfig: points must lie in [33, {_MAX_GRID_POINTS}]")
        if self.refine < 0:
            raise ValueError("GridConfig: refine must be >= 0")


DEFAULT_GRID = GridConfig()


def grid_points(grid: GridConfig) -> np.ndarray:
    """The evaluation abscissas of ``grid`` on [0, 1]."""
    # arccos-clustered: the error of Bernstein approximants concentrates at
    # the endpoints, so sample densely there
    i = np.arange(grid.points)
    return (1.0 - np.cos(np.pi * i / (grid.points - 1))) / 2.0


@dataclass(frozen=True)
class SupEstimate:
    """Lower-bound estimate of a sup norm: best value seen and where."""

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
    is a lower bound of the true sup.  Raises ValueError if F yields a NaN or
    an infinity at any evaluated point.
    """
    fn = _as_eval(F)
    xs = grid_points(grid)
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
    1/(2n) proximity bounds).  Measures the midpoint of the gap_interval
    rows, (lo_k + hi_k) / (2 den): c_k - f(k/n), with the bracket midpoint
    for an irrational f(k/n).
    """
    require_integer_endpoints(f)
    lo, hi, den = gap_interval(f, n, kind, tie)
    gap = BernsteinModel(
        kind=kind, n=n, scaled=tuple(a + b for a, b in zip(lo, hi)), denominator=2 * den
    )
    return sup_norm(lambda xs: evaluate(gap, xs), grid)


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


def omega1_sweep(
    F, ts: Sequence[float], points: Optional[int] = None
) -> list[ModulusEstimate]:
    """omega1 at several t on one shared grid (makes monotonicity exact)."""
    ts = [float(t) for t in ts]
    if not ts:
        raise ValueError("omega1: need at least one t")
    for t in ts:
        if not (0.0 < t <= 1.0):
            raise ValueError(f"omega1: need 0 < t <= 1, got t={t}")
    need = int(math.ceil(_OMEGA1_MIN_WINDOW / min(ts))) + 1
    m = min(max(points or DEFAULT_GRID.points, need), _MAX_GRID_POINTS)
    xs = np.linspace(0.0, 1.0, m)
    step = 1.0 / (m - 1)
    vals = _finite_values(_as_eval(F), xs, "omega1")
    return [
        ModulusEstimate(t=t, value=_omega1_window_max(vals, int(math.floor(t / step + 1e-9))))
        for t in ts
    ]


def omega_phi2(f, t: float, grid: Optional[GridConfig] = None) -> ModulusEstimate:
    """Second-order Ditzian-Totik modulus with step weight phi(x) = sqrt(x(1-x)).

    sup over 64 log-spaced h in (t/100, t] and a uniform x grid of
    |f(x + h phi(x)) - 2 f(x) + f(x - h phi(x))|, the difference taken as 0
    whenever a node leaves [0, 1] (the paper's "0, otherwise" rule).  Raises
    ValueError if f yields a NaN or an infinity at any evaluated point.
    The steps run _H_BLOCK at a time, one target call on the clipped
    x + h phi and x - h phi of the whole block, which needs a target whose
    value at a point does not depend on the batch.  Every block reuses one
    node array, and the second differences are taken in place in it.
    """
    t = float(t)
    if not (0.0 < t <= 1.0):
        raise ValueError(f"omega_phi2: need 0 < t <= 1, got {t}")
    fn = _as_eval(f)
    m = grid.points if grid is not None else DEFAULT_GRID.points
    xs = np.linspace(0.0, 1.0, m)
    phi = np.sqrt(xs * (1.0 - xs))
    mid = _finite_values(fn, xs, "omega_phi2")
    mid2 = 2.0 * mid
    hs = np.geomspace(t / _H_SPAN, t, _H_COUNT)
    hs[-1] = t * _H_BACKOFF
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
    return ModulusEstimate(t=t, value=best)


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
    Fewer than 4 positive pairs raise InsufficientData.
    """
    cleaned = []
    zeros = []
    for n, e in pairs:
        n = int(n)
        e = float(e)
        if n < 1:
            raise ValueError(f"fit_rate: n must be >= 1, got {n}")
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


def _masked_difference(dmodel: BernsteinModel, target: Callable, kink: Optional[float]):
    """|model - target| evaluator, zeroed inside the kink exclusion window."""

    def F(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        d = evaluate(dmodel, xs) - np.asarray(target(xs), dtype=np.float64)
        if kink is not None:
            d = np.where(np.abs(xs - kink) < KINK_WINDOW / 2.0, 0.0, d)
        return d

    return F


def error_curve(
    f: FunctionSpec,
    kind: OperatorKind,
    s: int,
    n_list: Sequence[int],
    grid: GridConfig = DEFAULT_GRID,
    tie: TiePolicy = DEFAULT_TIE,
) -> list[ErrorPoint]:
    """Per n: sup-norm estimate of |(model)^(s) - f^(s)| on [0, 1].

    For kink functions with s >= 1 the sup search skips the declared
    exclusion window around the kink, where the derivative oracle does not
    apply.  At n < s the model's s-th derivative is the zero model, so the
    curve is total over n_list.
    """
    if s < 0:
        raise ValueError("error_curve: s must be >= 0")
    f.require(s)
    target = (lambda xs: f.deriv_float(s, xs)) if s else (lambda xs: f.eval_float(xs))
    kink = f.kink if s >= 1 else None
    out = []
    for n in n_list:
        model = build_model(f, n, kind, tie)
        est = sup_norm(_masked_difference(derivative_model(model, s), target, kink), grid)
        out.append(ErrorPoint(n=int(n), error=est.value, argmax=est.argmax))
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
    """Exact-rational convergence of n (B_n f(x) - f(x)) to x(1-x) f''(x)/2."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("voronovskaya_check: x must lie in (0, 1)")
    fx = f.eval_exact(x)
    d2 = f.deriv_exact(2, x) if f.supports(2) else None
    if fx is None or d2 is None:
        raise CapabilityError(
            f"{f.name}: voronovskaya_check needs exact f(x) and f''(x)"
        )
    limit = x * (1 - x) * d2 / 2
    rows = []
    for n in n_list:
        model = build_model(f, int(n), OperatorKind.CLASSIC)
        if not model.coeffs_exact:
            raise CapabilityError(
                f"{f.name}: voronovskaya_check needs exact node values"
            )
        gap = evaluate_exact(model, x) - fx
        scaled = n * gap
        rows.append(
            VoronovskayaRow(n=int(n), scaled_gap=scaled, residual=abs(scaled - limit))
        )
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

    TrivialClass: integer-linear f reproduced exactly at every n (verified by
    coefficient comparison, not by measurement).  SaturatedRate: n*error
    stays in a band ("bounded" = max/min over the top half of the sweep
    < 10).  SubSaturated: n*error decays (last < first/10); for a
    non-integer-linear f this contradicts the saturation theorem and is
    flagged inconsistent rather than silently accepted.
    """
    if len(n_list) < 2:
        raise ValueError("saturation_probe: need at least two n values")
    require_integer_endpoints(f)
    if f.integer_linear:
        reproduced = True
        for n in n_list:
            model = build_model(f, int(n), kind, tie)
            samples = tuple(f.eval_exact(Fraction(k, int(n))) for k in range(int(n) + 1))
            if model.coeffs != samples:
                reproduced = False
                break
        if reproduced:
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
    if vanishing:
        return SaturationReport(
            verdict=SaturationVerdict.SUB_SATURATED,
            rows=rows,
            band_ratio=band_ratio,
            bounded=band_ratio < 10.0,
            vanishing=True,
            inconsistent=True,
            notes="n*error decays although f is not integer-linear: contradicts "
            "the saturation theorem; flagged for investigation",
        )
    return SaturationReport(
        verdict=SaturationVerdict.SATURATED_RATE,
        rows=rows,
        band_ratio=band_ratio,
        bounded=band_ratio < 10.0,
        vanishing=False,
        inconsistent=False,
        notes="n*error non-vanishing; band ratio over the top half of the sweep "
        f"= {band_ratio:.3g} (bounded means < 10)",
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
    for n in sorted(int(n) for n in n_list):
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
        rows.append(BoundaryRow(n=n, matches=tuple(matches)))
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
    alpha: Optional[float]
    alpha_residual: Optional[float]
    slope_w2: Optional[float]
    slope_w1: Optional[float]
    w2_exact_zero: bool
    w1_exact_zero: bool
    delta_w2: Optional[float]
    delta_w1: Optional[float]
    error_pairs: tuple
    w2_pairs: tuple
    w1_pairs: tuple
    notes: str


def converse_experiment(
    f: FunctionSpec,
    kind: OperatorKind,
    s: int,
    n_list: Sequence[int],
    t_list: Sequence[float],
    grid: GridConfig = DEFAULT_GRID,
    tie: TiePolicy = DEFAULT_TIE,
) -> ConverseReport:
    """Compare the error-decay exponent with modulus-of-smoothness slopes."""
    if s < 1:
        raise ValueError("converse_experiment: s must be >= 1")
    f.require(s)
    if f.integer_linear:
        return ConverseReport(
            trivial=True,
            alpha=None,
            alpha_residual=None,
            slope_w2=None,
            slope_w1=None,
            w2_exact_zero=True,
            w1_exact_zero=True,
            delta_w2=None,
            delta_w1=None,
            error_pairs=(),
            w2_pairs=(),
            w1_pairs=(),
            notes="trivial class: errors identically zero, fits skipped",
        )
    curve = error_curve(f, kind, s, n_list, grid, tie)
    pairs = [(p.n, p.error) for p in curve]
    try:
        fit = fit_rate(pairs)
        alpha, alpha_resid = fit.alpha, fit.residual
    except InsufficientData as e:
        return ConverseReport(
            trivial=False,
            alpha=None,
            alpha_residual=None,
            slope_w2=None,
            slope_w1=None,
            w2_exact_zero=False,
            w1_exact_zero=False,
            delta_w2=None,
            delta_w1=None,
            error_pairs=tuple(pairs),
            w2_pairs=(),
            w1_pairs=(),
            notes=f"error curve unusable for a fit: {e}",
        )
    deriv = lambda xs: f.deriv_float(s, xs)  # noqa: E731
    ts = [float(t) for t in t_list]
    w2_pairs = tuple((t, omega_phi2(deriv, t, grid).value) for t in ts)
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
    in the range passes, or the violations.
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

    ns = sorted({int(n) for n in n_range if int(n) >= max(s, 1)})
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
