"""Built-in test functions with exact rational evaluation and derivative oracles.

Each entry is a FunctionSpec: it can evaluate itself as an exact rational
(where the value is rational), as a certified rational enclosure at a chosen
precision, and as a fast numpy float path; derivative oracles exist up to a
declared maximum order s_max and refuse higher orders rather than returning
garbage.

Families
--------
integer_linear(p,q)      px + q with p,q integers — the trivial class.
monomial(m)              x^m, m >= 2.
poly_boundary_flat(s)    x^(s+1) (1-x)^(s+1) + p x + q (defaults p=1, q=0);
                         derivatives of orders 2..s vanish at both endpoints.
abs_shift                |2x - 1|: kink at 1/2, integer endpoints.
holder_interior(g)       |2x - 1|^g + p x + q for non-integer g in (0,2):
                         Hoelder-g at the interior kink, integer endpoints.
                         (The plain |x - 1/2|^g has the irrational endpoint
                         value 2^-g that no integer-linear shift can repair;
                         rescaling the argument keeps the smoothness class
                         and makes the endpoints integers.)

Every built-in entry also has a scaled_round oracle: the exact floor or
nearest integer of C(n,k) f(k/n), computed on integers alone (integer root
extraction for the Hoelder entries, one divmod for the rest).  This is what
the integer-coefficient models in operators are built from.  Values of the
Hoelder entries at rational points are usually irrational; eval_bounds
returns rigorous enclosures of them, which the proximity gaps and the
Classic models use, and which operators falls back to for a spec built
without scaled_round.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from bernint.exact import (DEFAULT_TIE, TiePolicy, binomial_row, common_denominator,
                           homogeneous_sum, iroot, rational_pow_bounds,
                           rational_pow_exact, round_ratio)

# Full width of the exclusion window centered on a kink: derivative-based
# sup searches skip |x - kink| < KINK_WINDOW/2 (the derivative oracle is not
# meaningful arbitrarily close to the kink); evaluation itself is fine
# everywhere.
KINK_WINDOW = 1e-6


class CapabilityError(Exception):
    """An oracle was asked for something it cannot certify (order, exactness)."""


class FunctionSpec:
    """One corpus function: exact, certified and float oracles plus metadata.

    Immutable; every oracle call is pure.  ``s_max`` is the largest derivative
    order served (None = unlimited, polynomials).  ``kink`` marks an interior
    non-smooth point, or None.
    """

    def __init__(
        self,
        name: str,
        *,
        s_max: Optional[int],
        integer_endpoints: bool,
        integer_linear: bool = False,
        kink: Optional[float] = None,
        doc: str = "",
        value_float: Callable,
        value_exact: Optional[Callable] = None,
        value_bounds: Optional[Callable] = None,
        deriv_float: Optional[Callable] = None,
        deriv_exact: Optional[Callable] = None,
        poly_coeffs: Optional[tuple] = None,
        scaled_round: Optional[Callable] = None,
    ):
        self.name = name
        self.s_max = s_max
        self.integer_endpoints = integer_endpoints
        self.integer_linear = integer_linear
        self.kink = kink
        self.doc = doc
        self.poly_coeffs = poly_coeffs  # exact Fraction vector for polynomials
        self._value_float = value_float
        self._value_exact = value_exact
        self._value_bounds = value_bounds
        self._deriv_float = deriv_float
        self._deriv_exact = deriv_exact
        self._scaled_round = scaled_round

    def __repr__(self):
        return f"FunctionSpec({self.name!r})"

    def supports(self, s: int) -> bool:
        """Whether an order-s derivative oracle exists (s=0 is the function)."""
        if s < 0:
            return False
        return self.s_max is None or s <= self.s_max

    def require(self, s: int) -> None:
        """Raise CapabilityError unless an order-s derivative oracle exists."""
        if not self.supports(s):
            raise CapabilityError(
                f"{self.name}: no derivative oracle of order {s} (s_max={self.s_max})"
            )

    def eval_float(self, xs):
        """Vectorized float evaluation."""
        return self._value_float(np.asarray(xs, dtype=np.float64))

    def eval_exact(self, x) -> Optional[Fraction]:
        """Exact rational value at rational x, or None when irrational."""
        if self._value_exact is None:
            return None
        return self._value_exact(Fraction(x))

    def eval_bounds(self, x, bits: int) -> tuple[Fraction, Fraction]:
        """Certified rational enclosure of f(x); width shrinks with ``bits``."""
        x = Fraction(x)
        if self._value_bounds is not None:
            return self._value_bounds(x, bits)
        v = self.eval_exact(x)
        if v is None:
            raise CapabilityError(f"{self.name}: no certified enclosure oracle")
        return v, v

    def scaled_round(
        self, k: int, n: int, mode: str, tie: TiePolicy = DEFAULT_TIE
    ) -> Optional[int]:
        """floor ("floor") or nearest integer ("nearest") of C(n,k) f(k/n), exactly.

        None when the spec has no integer rounding oracle.
        """
        if not 0 <= k <= n or n < 1:
            raise ValueError(f"{self.name}: scaled_round needs 0 <= k <= n and n >= 1, "
                             f"got k={k}, n={n}")
        if self._scaled_round is None:
            return None
        return self._scaled_round(k, n, mode, tie)

    def deriv_float(self, s: int, xs):
        """Vectorized float s-th derivative (s=0 is the function itself)."""
        self.require(s)
        xs = np.asarray(xs, dtype=np.float64)
        if s == 0:
            return self._value_float(xs)
        if self._deriv_float is None:
            raise CapabilityError(f"{self.name}: no float derivative oracle")
        return self._deriv_float(s, xs)

    def deriv_exact(self, s: int, x) -> Optional[Fraction]:
        """Exact rational s-th derivative at rational x, or None if irrational."""
        self.require(s)
        x = Fraction(x)
        if s == 0:
            return self.eval_exact(x)
        if self._deriv_exact is None:
            raise CapabilityError(f"{self.name}: no exact derivative oracle")
        return self._deriv_exact(s, x)

    def endpoint_deriv(self, i: int) -> tuple[Fraction, Fraction]:
        """Exact (f^(i)(0), f^(i)(1)); CapabilityError when not exactly known."""
        self.require(i)
        v0 = self.deriv_exact(i, Fraction(0))
        v1 = self.deriv_exact(i, Fraction(1))
        if v0 is None or v1 is None:
            raise CapabilityError(
                f"{self.name}: endpoint derivative of order {i} not exactly known"
            )
        return v0, v1


@dataclass(frozen=True)
class CorpusEntry:
    """A FunctionSpec (whose ``doc`` describes it) and its intended experiments.

    ``verify_s`` is the derivative order the entry declares for hypothesis
    checking; every built-in entry passes hypothesis_check at that order.
    """

    spec: FunctionSpec
    experiments: tuple[str, ...]
    verify_s: int


# ---------------------------------------------------------------------------
# polynomial machinery


def _polynomial_spec(name, coeffs, *, doc="", integer_linear=None) -> FunctionSpec:
    coeffs = tuple(Fraction(c) for c in coeffs)
    # chain[i] = (e, D): the i-th derivative is sum_k e[k] x^k / D
    chain = [common_denominator(coeffs)]
    fchain = [np.array([float(c) for c in coeffs])]

    def _order(i: int):
        while len(chain) <= i:
            e, d = chain[-1]
            e = [k * ek for k, ek in enumerate(e)][1:] or [0]
            chain.append((e, d))
            fchain.append(np.array([ek / d for ek in e]))  # int / int rounds correctly
        return chain[i], fchain[i]

    def value_float(xs):
        return npoly.polyval(xs, fchain[0])

    def value_exact(x):
        return deriv_exact(0, x)

    def deriv_float(s, xs):
        _order(s)
        return npoly.polyval(xs, fchain[s])

    def deriv_exact(s, x):
        (e, d), _ = _order(s)
        b = x.denominator
        return Fraction(homogeneous_sum(e, x.numerator, b), d * b ** (len(e) - 1))

    def scaled_round(k, n, mode, tie):
        e, d = chain[0]
        num = homogeneous_sum(e, k, n) * binomial_row(n)[k]
        return round_ratio(num, d * n ** (len(e) - 1), mode, tie)

    f0 = coeffs[0]
    f1 = sum(coeffs, Fraction(0))
    trimmed = list(coeffs)
    while len(trimmed) > 1 and trimmed[-1] == 0:
        trimmed.pop()
    if integer_linear is None:
        integer_linear = len(trimmed) <= 2 and all(c.denominator == 1 for c in trimmed)
    return FunctionSpec(
        name,
        s_max=None,
        integer_endpoints=(f0.denominator == 1 and f1.denominator == 1),
        integer_linear=integer_linear,
        doc=doc,
        value_float=value_float,
        value_exact=value_exact,
        deriv_float=deriv_float,
        deriv_exact=deriv_exact,
        poly_coeffs=coeffs,
        scaled_round=scaled_round,
    )


# ---------------------------------------------------------------------------
# families


def _lin_tail(p: int, q: int) -> str:
    """Render '+ px + q' for docstrings, omitting zero terms."""
    s = ""
    if p:
        s += (" + " if p > 0 else " - ") + (f"{abs(p)}x" if abs(p) != 1 else "x")
    if q:
        s += (" + " if q > 0 else " - ") + str(abs(q))
    return s


def _make_integer_linear(p: int, q: int) -> FunctionSpec:
    return _polynomial_spec(
        f"integer_linear({p},{q})",
        [q, p],
        doc=f"f(x) = {p}x + {q}; trivial class, reproduced exactly by every kind",
        integer_linear=True,
    )


def _make_monomial(m: int) -> FunctionSpec:
    if m < 2:
        raise LookupError("monomial: exponent must be >= 2 (use integer_linear below that)")
    return _polynomial_spec(
        f"monomial({m})", [0] * m + [1], doc=f"f(x) = x^{m}"
    )


def _make_poly_boundary_flat(s: int, p: int = 1, q: int = 0) -> FunctionSpec:
    if s < 1:
        raise LookupError("poly_boundary_flat: order must be >= 1")
    # x^(s+1) (1-x)^(s+1): coefficient of x^(s+1+j) is (-1)^j C(s+1, j)
    deg = 2 * (s + 1)
    coeffs = [Fraction(0)] * (deg + 1)
    row = binomial_row(s + 1)
    for j, c in enumerate(row):
        coeffs[s + 1 + j] = Fraction(-c if j % 2 else c)
    coeffs[0] += q
    coeffs[1] += p
    suffix = "" if (p, q) == (1, 0) else f",{p},{q}"
    return _polynomial_spec(
        f"poly_boundary_flat({s}{suffix})",
        coeffs,
        doc=f"f(x) = x^{s + 1}(1-x)^{s + 1}{_lin_tail(p, q)}; "
        f"derivatives of orders 2..{s} vanish at both endpoints",
    )


def _make_abs_shift() -> FunctionSpec:
    def value_exact(x):
        return abs(2 * x - 1)

    def value_float(xs):
        return np.abs(2.0 * xs - 1.0)

    def scaled_round(k, n, mode, tie):
        return round_ratio(abs(2 * k - n) * binomial_row(n)[k], n, mode, tie)

    return FunctionSpec(
        "abs_shift",
        s_max=0,
        integer_endpoints=True,
        kink=0.5,
        doc="f(x) = |2x - 1|; Lipschitz with a kink at 1/2, integer endpoints",
        value_float=value_float,
        value_exact=value_exact,
        scaled_round=scaled_round,
    )


def _make_holder_interior(gamma: Fraction, p: int = 0, q: int = 0) -> FunctionSpec:
    gamma = Fraction(gamma)
    if not (0 < gamma < 2) or gamma.denominator == 1:
        raise LookupError("holder_interior: exponent must be non-integer in (0, 2)")
    gm1 = gamma - 1
    gf = float(gamma)
    a, b = gamma.numerator, gamma.denominator

    def value_exact(x):
        pw = rational_pow_exact(abs(2 * x - 1), gamma.numerator, gamma.denominator)
        return None if pw is None else pw + p * x + q

    def value_bounds(x, bits):
        lin = p * x + q
        lo, hi = rational_pow_bounds(
            abs(2 * x - 1), gamma.numerator, gamma.denominator, bits
        )
        return lo + lin, hi + lin

    def value_float(xs):
        return np.abs(2.0 * xs - 1.0) ** gf + p * xs + q

    def scaled_round(k, n, mode, tie):
        c = binomial_row(n)[k]
        # 2n C |2k/n - 1|^(a/b) is the b-th root of x / n^a, and s its floor
        x = (2 * n * c) ** b * abs(2 * k - n) ** a
        na = n ** a
        s, _ = iroot(x // na, b)
        num = s + 2 * c * (p * k + q * n)  # floor of 2n C f(k/n)
        if s ** b * na == x:  # 2n C f(k/n) == num exactly
            return round_ratio(num, 2 * n, mode, tie)
        # C f(k/n) lies strictly inside (num, num + 1) / 2n, an interval no
        # floor or nearest boundary (a multiple of 1/2n) falls in, so its
        # midpoint rounds the same way and is never a tie
        return round_ratio(2 * num + 1, 4 * n, mode, tie)

    def deriv_float(s, xs):
        u = 2.0 * xs - 1.0
        return 2.0 * gf * np.sign(u) * np.abs(u) ** float(gm1) + p

    def deriv_exact(s, x):
        u = 2 * x - 1
        pw = rational_pow_exact(abs(u), gm1.numerator, gm1.denominator)
        if pw is None:
            return None
        sgn = (u > 0) - (u < 0)
        return 2 * gamma * sgn * pw + p

    s_max = 1 if gamma > 1 else 0
    suffix = "" if (p, q) == (0, 0) else f",{p},{q}"
    return FunctionSpec(
        f"holder_interior({gamma}{suffix})",
        s_max=s_max,
        integer_endpoints=True,
        kink=0.5,
        doc=f"f(x) = |2x - 1|^({gamma}){_lin_tail(p, q)}; "
        f"Hoelder-{gamma} at the interior kink, integer endpoints",
        value_float=value_float,
        value_exact=value_exact,
        value_bounds=value_bounds,
        deriv_float=deriv_float if s_max >= 1 else None,
        deriv_exact=deriv_exact if s_max >= 1 else None,
        scaled_round=scaled_round,
    )


# ---------------------------------------------------------------------------
# registry

_NAME_RE = re.compile(r"^\s*([a-z_0-9]+)\s*(?:\(\s*([^()]*?)\s*\))?\s*$")


def _int_arg(v: Fraction, what: str) -> int:
    if v.denominator != 1:
        raise LookupError(f"{what} must be an integer, got {v}")
    return int(v)


def builtin(name: str) -> FunctionSpec:
    """Instantiate a corpus function from its name, e.g. ``monomial(3)``.

    Arguments are rational literals: ``holder_interior(1/2)``,
    ``integer_linear(-2,0)``.  Unknown names raise LookupError.
    """
    m = _NAME_RE.match(name)
    if not m:
        raise LookupError(f"cannot parse function name {name!r}")
    family, argstr = m.group(1), m.group(2)
    try:
        args = (
            [Fraction(a.strip()) for a in argstr.split(",")]
            if argstr
            else []
        )
    except (ValueError, ZeroDivisionError) as e:
        raise LookupError(f"bad arguments in {name!r}: {e}") from None

    if family == "integer_linear":
        if len(args) != 2:
            raise LookupError("integer_linear takes two integer arguments (p, q)")
        return _make_integer_linear(
            _int_arg(args[0], "p"), _int_arg(args[1], "q")
        )
    if family == "monomial":
        if len(args) != 1:
            raise LookupError("monomial takes one integer argument (the exponent)")
        return _make_monomial(_int_arg(args[0], "exponent"))
    if family == "poly_boundary_flat":
        if len(args) not in (1, 3):
            raise LookupError("poly_boundary_flat takes (s) or (s, p, q)")
        s = _int_arg(args[0], "s")
        if len(args) == 3:
            return _make_poly_boundary_flat(
                s, _int_arg(args[1], "p"), _int_arg(args[2], "q")
            )
        return _make_poly_boundary_flat(s)
    if family == "abs_shift":
        if args:
            raise LookupError("abs_shift takes no arguments")
        return _make_abs_shift()
    if family == "holder_interior":
        if len(args) not in (1, 3):
            raise LookupError("holder_interior takes (gamma) or (gamma, p, q)")
        if len(args) == 3:
            return _make_holder_interior(
                args[0], _int_arg(args[1], "p"), _int_arg(args[2], "q")
            )
        return _make_holder_interior(args[0])
    raise LookupError(f"unknown function {name!r}")


def entries() -> tuple[CorpusEntry, ...]:
    """The default corpus roster with intended experiments."""

    def E(name, experiments, verify_s):
        return CorpusEntry(builtin(name), tuple(experiments), verify_s)

    return (
        E("integer_linear(3,2)", ["saturation", "verify"], 1),
        E("monomial(2)", ["proximity", "rate", "saturation", "voronovskaya",
                          "boundary", "converse", "verify"], 1),
        E("monomial(3)", ["proximity", "voronovskaya", "verify"], 1),
        E("monomial(5)", ["proximity", "rate"], 1),
        E("poly_boundary_flat(2)", ["proximity", "rate", "converse", "verify"], 2),
        E("abs_shift", ["proximity", "modulus"], 0),
        E("holder_interior(1/2)", ["proximity", "modulus", "rate"], 0),
        E("holder_interior(3/2)", ["proximity", "modulus", "converse"], 1),
    )


__all__ = [
    "KINK_WINDOW",
    "CapabilityError",
    "FunctionSpec",
    "CorpusEntry",
    "builtin",
    "entries",
]
