"""Classical and integer-coefficient Bernstein models.

A model of degree n is a coefficient sequence (c_0, ..., c_n) in the
Bernstein basis p_{n,k}(x) = C(n,k) x^k (1-x)^(n-k):

* Classic:    c_k = f(k/n)
* FloorInt:   c_k = floor(f(k/n) C(n,k)) / C(n,k)
* NearestInt: c_k = nearest(f(k/n) C(n,k)) / C(n,k)   (tie policy applies)

so the integer kinds are exactly the polynomials with integer coefficients
in the scaled basis.  Evaluation has two paths: a float path using the
linear-time convex-combination recurrence of Wozny & Chudy ("Linear-time
geometric algorithm for evaluating Bezier curves", CAD 118, 2020), O(n) per
point, and an exact rational path for oracle work.  Derivatives of a
model are again models, one degree lower per order, with coefficients
n!/(n-s)! * (s-th forward difference of the coefficient sequence at unit
index step); for the classic kind this is the same thing as the usual
divided-difference formula with real step 1/n, the prefactor absorbing the
scaling.

The gap between an integer kind and B_n f is built once, as the pair of
exact models of gap_models; proximity_gap_exact evaluates that pair, and
analysis.proximity_gap (above this module, which imports only exact)
measures it on a grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from bernint.exact import (
    DEFAULT_TIE,
    PrecisionExhausted,
    TiePolicy,
    binomial_row,
    common_denominator,
    floor_int,
    homogeneous_sum,
    nearest_int,
    round_with_escalation,
)


class HypothesisViolation(Exception):
    """Input breaks a theorem hypothesis (e.g. non-integer endpoint values)."""


# Precision of the node enclosures behind Classic models of irrational-valued
# functions and behind gap_models.
APPROX_BITS = 192


class OperatorKind(enum.Enum):
    CLASSIC = "classic"
    FLOOR_INT = "floor"
    NEAREST_INT = "nearest"


@dataclass(frozen=True)
class BernsteinModel:
    """Degree-n polynomial in Bernstein form with exact rational coefficients.

    ``tie`` records the tie policy for NearestInt models (None otherwise).
    ``coeffs_exact`` is False only when a Classic model of a function without
    exact rational values stores certified high-precision midpoints instead.
    ``derivative_order`` counts how many times derivative_model was applied.
    """

    kind: OperatorKind
    n: int
    coeffs: tuple
    tie: Optional[TiePolicy] = None
    coeffs_exact: bool = True
    derivative_order: int = 0

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise ValueError(
                f"coefficient count {len(self.coeffs)} != degree {self.n} + 1"
            )

    @cached_property
    def float_coeffs(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs], dtype=np.float64)

    @cached_property
    def integer_form(self) -> tuple[list[int], int]:
        """(e, D) with e[k] / D == c_k C(n,k): the scaled basis over one denominator."""
        row = binomial_row(self.n)
        return common_denominator([c * row[k] for k, c in enumerate(self.coeffs)])


@dataclass(frozen=True)
class DiffTable:
    """Forward finite differences of a sequence.

    ``step`` describes the abscissa spacing the differences refer to: the
    string "index" for unit index step on coefficient sequences, or an exact
    Fraction (e.g. 1/n) for real-step differences of function samples.
    """

    order: int
    step: Union[str, Fraction]
    values: tuple


def build_model(
    f,
    n: int,
    kind: OperatorKind,
    tie: TiePolicy = DEFAULT_TIE,
) -> BernsteinModel:
    """Construct the degree-n model of corpus function ``f``.

    Integer kinds round f(k/n)*C(n,k) exactly: rational values directly,
    irrational ones through certified enclosures with escalating precision
    (hard PrecisionExhausted naming the node if the cap is hit).  A Classic
    model of an irrational-valued f stores APPROX_BITS-wide midpoints and is
    flagged coeffs_exact=False.
    """
    if n < 1:
        raise ValueError("build_model: n must be >= 1")
    if kind is OperatorKind.NEAREST_INT:
        mode = "nearest"
    elif kind is OperatorKind.FLOOR_INT:
        mode = "floor"
    else:
        mode = None
    row = binomial_row(n)
    coeffs = []
    exact = True
    for k in range(n + 1):
        node = Fraction(k, n)
        v = f.eval_exact(node)
        if mode is None:
            if v is not None:
                coeffs.append(v)
            else:
                lo, hi = f.eval_bounds(node, APPROX_BITS)
                coeffs.append((lo + hi) / 2)
                exact = False
            continue
        c = row[k]
        if v is not None:
            scaled = v * c
            m = floor_int(scaled) if mode == "floor" else nearest_int(scaled, tie)
        else:

            # the scaled enclosure is C(n,k) times as wide as f's, so ask f
            # for that many more bits: one attempt decides nearly every node
            def enclose(bits, _node=node, _c=c):
                lo, hi = f.eval_bounds(_node, bits + _c.bit_length())
                return lo * _c, hi * _c

            try:
                m = round_with_escalation(enclose, mode, tie)
            except PrecisionExhausted as e:
                raise PrecisionExhausted(
                    f"build_model({getattr(f, 'name', f)!r}, n={n}): "
                    f"cannot round coefficient at node k={k}: {e}"
                ) from None
        coeffs.append(Fraction(m, c))
    return BernsteinModel(
        kind=kind,
        n=n,
        coeffs=tuple(coeffs),
        tie=tie if kind is OperatorKind.NEAREST_INT else None,
        coeffs_exact=exact,
    )


def _bernstein_linear(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate sum_k coeffs[k] C(n,k) x^k (1-x)^(n-k) at each x in [0, 1].

    Wozny-Chudy recurrence: q_k = q_{k-1} + h_k (c_k - q_{k-1}) with
    h_k = h_{k-1} u / (k/(n-k+1) + h_{k-1} u), h_0 = 1, q_0 = c_0 and
    u = x/(1-x), so h_k lies in [0, 1], each step is a convex combination
    and q_n is the value.  Points with x > 1/2 run on 1-x against the
    reversed coefficients, which keeps u in [0, 1].  The batch is split by
    side once, left points first, so every step is a fixed handful of
    in-place ufunc calls with scalar coefficients whichever sides are
    present (sup_norm's small zoom-round calls straddle x = 1/2 whenever the
    argmax sits there).
    """
    n = coeffs.size - 1
    right = xs > 0.5
    t = np.concatenate((xs[~right], 1.0 - xs[right]))
    m = t.size - np.count_nonzero(right)
    u = t / (1.0 - t)
    c = coeffs.tolist()
    h = np.ones_like(t)
    q = np.empty_like(t)
    tmp = np.empty_like(t)
    q_left, q_right, tmp_left, tmp_right = q[:m], q[m:], tmp[:m], tmp[m:]
    q_left.fill(c[0])
    q_right.fill(c[n])
    for k in range(1, n + 1):
        h *= u
        np.add(h, k / (n - k + 1), out=tmp)
        h /= tmp
        np.subtract(c[k], q_left, out=tmp_left)
        np.subtract(c[n - k], q_right, out=tmp_right)
        tmp *= h
        q += tmp
    out = np.empty(xs.shape, dtype=np.float64)
    out[~right] = q_left
    out[right] = q_right
    return out


def evaluate(model: BernsteinModel, x):
    """Float evaluation at a point or array of points in [0, 1].

    Uses the linear-time recurrence of _bernstein_linear; raises ValueError
    unless every point is finite and inside [0, 1].
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("evaluate: points must be finite and lie in [0, 1]")
    out = _bernstein_linear(model.float_coeffs, xs)
    return float(out[0]) if scalar else out


def evaluate_exact(model: BernsteinModel, x) -> Fraction:
    """Exact rational evaluation at rational x = a/b; no rounding anywhere.

    The value is homogeneous_sum(e, a, b-a) / (D b^n) for (e, D) = integer_form.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("evaluate_exact: point must lie in [0, 1]")
    e, d = model.integer_form
    a, b = x.numerator, x.denominator
    return Fraction(homogeneous_sum(e, a, b - a), d * b ** model.n)


def finite_difference(values: Sequence, s: int, step: Union[str, Fraction] = "index") -> DiffTable:
    """Forward differences: entry k is sum_i (-1)^i C(s,i) values[k+s-i]."""
    if s < 1:
        raise ValueError("finite_difference: order must be >= 1")
    vals = [Fraction(v) for v in values]
    if len(vals) < s + 1:
        raise ValueError(
            f"finite_difference: need at least {s + 1} values, got {len(vals)}"
        )
    srow = binomial_row(s)
    out = []
    for k in range(len(vals) - s):
        acc = Fraction(0)
        for i in range(s + 1):
            term = srow[i] * vals[k + s - i]
            acc = acc + term if i % 2 == 0 else acc - term
        out.append(acc)
    return DiffTable(order=s, step=step, values=tuple(out))


def derivative_model(
    model: BernsteinModel, s: int, allow_degenerate: bool = False
) -> BernsteinModel:
    """The s-th derivative as a degree n-s Bernstein model.

    Coefficient k equals n!/(n-s)! * (s-th unit-index forward difference of
    the model coefficients at k).  s > n is an error unless allow_degenerate,
    in which case the identically-zero model is returned (harness use).
    """
    if s < 1:
        raise ValueError("derivative_model: order must be >= 1")
    if s > model.n:
        if not allow_degenerate:
            raise ValueError(
                f"derivative_model: order {s} exceeds degree {model.n}"
            )
        return BernsteinModel(
            kind=model.kind,
            n=0,
            coeffs=(Fraction(0),),
            tie=model.tie,
            coeffs_exact=model.coeffs_exact,
            derivative_order=model.derivative_order + s,
        )
    diffs = finite_difference(model.coeffs, s).values
    scale = 1
    for i in range(s):
        scale *= model.n - i
    return BernsteinModel(
        kind=model.kind,
        n=model.n - s,
        coeffs=tuple(d * scale for d in diffs),
        tie=model.tie,
        coeffs_exact=model.coeffs_exact,
        derivative_order=model.derivative_order + s,
    )


def require_integer_endpoints(f) -> None:
    """Raise HypothesisViolation unless f(0) and f(1) are certified integers."""
    for end in (Fraction(0), Fraction(1)):
        v = f.eval_exact(end)
        if v is None:
            if not getattr(f, "integer_endpoints", False):
                raise HypothesisViolation(
                    f"{getattr(f, 'name', f)}: endpoint value at {end} not certified integer"
                )
        elif v.denominator != 1:
            raise HypothesisViolation(
                f"{getattr(f, 'name', f)}: f({end}) = {v} is not an integer"
            )


def gap_models(
    f,
    n: int,
    kind: OperatorKind,
    tie: TiePolicy = DEFAULT_TIE,
) -> tuple[BernsteinModel, BernsteinModel]:
    """The gap (integer-kind model - B_n f) as two exact models (gap_lo, gap_hi).

    Coefficient k is c_k minus the upper (gap_lo) or lower (gap_hi) end of
    f(k/n): its exact value where rational, else its APPROX_BITS enclosure.
    The basis weights are nonnegative, so gap_lo <= gap <= gap_hi at every
    point.  When every node value is rational the two models are equal and
    the same object is returned twice.
    """
    if kind is OperatorKind.CLASSIC:
        raise ValueError("gap_models: kind must be FloorInt or NearestInt")
    model = build_model(f, n, kind, tie)
    d_lo, d_hi = [], []
    for k, c in enumerate(model.coeffs):
        node = Fraction(k, n)
        v = f.eval_exact(node)
        vlo, vhi = (v, v) if v is not None else f.eval_bounds(node, APPROX_BITS)
        d_lo.append(c - vhi)
        d_hi.append(c - vlo)
    gap_lo = BernsteinModel(kind=kind, n=n, coeffs=tuple(d_lo), tie=model.tie)
    if d_lo == d_hi:
        return gap_lo, gap_lo
    return gap_lo, BernsteinModel(kind=kind, n=n, coeffs=tuple(d_hi), tie=model.tie)


def proximity_gap_exact(
    f,
    n: int,
    kind: OperatorKind,
    xs: Sequence,
    tie: TiePolicy = DEFAULT_TIE,
):
    """Certified rational enclosures of (integer model - B_n f)(x) at each x.

    Returns a list of Fraction pairs (lo, hi) with lo <= gap(x) <= hi: the
    exact values of the two gap_models, so the pair collapses to a point
    (one exact evaluation) for functions with exact rational node values.
    Fully rigorous, which is what lets tests verify the 1/n and 1/(2n)
    bounds without floats.
    """
    gap_lo, gap_hi = gap_models(f, n, kind, tie)
    out = []
    for x in xs:
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError("proximity_gap_exact: points must lie in [0, 1]")
        lo = evaluate_exact(gap_lo, x)
        out.append((lo, lo if gap_hi is gap_lo else evaluate_exact(gap_hi, x)))
    return out


__all__ = [
    "HypothesisViolation",
    "OperatorKind",
    "BernsteinModel",
    "DiffTable",
    "build_model",
    "evaluate",
    "evaluate_exact",
    "finite_difference",
    "derivative_model",
    "require_integer_endpoints",
    "gap_models",
    "proximity_gap_exact",
]
