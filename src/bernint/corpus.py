"""Built-in test functions with exact rational evaluation and derivative oracles.

Each entry is a FunctionSpec with one s-indexed oracle per number type,
s = 0 being the function itself: the s-th derivative as an exact rational
(where the value is rational) and along a fast numpy float path.  Orders
above a declared maximum s_max are refused rather than answered with
garbage.  eval_bounds gives a certified rational enclosure of f.

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

A spec's ``kink`` only describes f (list-fns reports it): every derivative
order a built-in spec serves is continuous there.

Every spec has a node bracket oracle, scaled_bracket(k, n, bits, c) for
any integer c >= 1: integers (num, den, exact) with num = floor(den c f(k/n)),
so num/den <= c f(k/n) < (num + 1)/den, equality exactly when ``exact``,
and den depending on (n, bits) alone (a row with two dens is refused).
The polynomials and abs_shift give their exact value (one Horner sum, or
|2k - n| c over n), and the polynomials give a whole row of them in one
pass (forward differences in k, scaled_bracket_row); the Hoelder entries
give den = n 2^bits and an integer root, so their bracket is 2^-bits / n
wide.  operators builds the integer-kind models and the gap from the
brackets at c = C(n,k), and Classic models from those of f(k/n) itself, at
c = 1, and B_n f of a polynomial from its first deg + 1 brackets at c = 1
(classic_power_form); analysis decides each node inequality of
hypothesis_check f(k/n) >= p/q from the bracket at c = q, and the spec
decides whether f(0) and f(1) are integers from their brackets at n = 1,
c = 1.  Values of the Hoelder entries at rational points are usually
irrational; eval_bounds returns rigorous enclosures of them, kept as the
independent reference that the brackets are tested against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Callable, Optional

import numpy as np

from bernint.exact import (_forward_differences, _power_derivative, binomial_row,
                           common_denominator, homogeneous_sum, iroot, rational_pow_bounds,
                           rational_pow_exact)

class CapabilityError(Exception):
    """An oracle was asked for something it cannot certify (order, exactness)."""


class FunctionSpec:
    """One corpus function: exact, certified and float oracles plus metadata.

    Immutable; every oracle call is pure.  Three oracles are required:
    ``deriv_float(s, xs)`` and ``deriv_exact(s, x)``, the s-th derivative
    (s = 0 the function) on a float array and at a Fraction, the latter None
    where the value is irrational, both only asked for orders that
    ``supports``; and ``scaled_bracket``, the integer node bracket described
    in the module docstring, as a callable (k, n, bits, c) -> (num, den,
    exact).  An optional ``scaled_bracket_row``, a callable (n, bits, cs)
    -> the n + 1 brackets, builds a whole row in one pass; without it a row
    is one bracket call per node.  ``s_max`` is the largest derivative
    order served (None = unlimited, polynomials).  ``kink``, an interior
    non-smooth point or None, only describes f: list-fns reports it, and no
    computation reads it.  Nothing else is declared:
    ``integer_endpoints`` is decided from the brackets of f(0) and f(1),
    and ``integer_linear`` from ``poly_coeffs``.
    """

    def __init__(
        self,
        name: str,
        *,
        s_max: Optional[int],
        kink: Optional[float] = None,
        doc: str = "",
        deriv_float: Callable,
        deriv_exact: Callable,
        scaled_bracket: Callable,
        value_bounds: Optional[Callable] = None,
        poly_coeffs: Optional[tuple] = None,
        scaled_bracket_row: Optional[Callable] = None,
    ):
        self.name = name
        self.s_max = s_max
        self.kink = kink
        self.doc = doc
        self.poly_coeffs = poly_coeffs  # exact Fraction vector for polynomials
        self._value_bounds = value_bounds
        self._deriv_float = deriv_float
        self._deriv_exact = deriv_exact
        self._scaled_bracket = scaled_bracket
        self._scaled_bracket_row = scaled_bracket_row

    def __repr__(self):
        return f"FunctionSpec({self.name!r})"

    @property
    def integer_endpoints(self) -> bool:
        """Whether f(0) and f(1) are integers, decided by their brackets at n = 1.

        f(k) is an integer exactly when its bracket is exact and den divides
        num; an inexact bracket means den f(k) is not an integer, so f(k) is not.
        """
        return all(exact and num % den == 0
                   for num, den, exact in (self.scaled_bracket(k, 1, 1, 1) for k in (0, 1)))

    @property
    def integer_linear(self) -> bool:
        """Whether f = px + q with integers p, q: the trivial class."""
        c = self.poly_coeffs
        return c is not None and not any(c[2:]) and all(v.denominator == 1 for v in c)

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
        return self._deriv_float(0, np.asarray(xs, dtype=np.float64))

    def eval_exact(self, x) -> Optional[Fraction]:
        """Exact rational value at rational x, or None when irrational."""
        return self._deriv_exact(0, Fraction(x))

    def eval_bounds(self, x, bits: int) -> tuple[Fraction, Fraction]:
        """Certified rational enclosure of f(x); width shrinks with ``bits``."""
        x = Fraction(x)
        if self._value_bounds is not None:
            return self._value_bounds(x, bits)
        v = self.eval_exact(x)
        if v is None:
            raise CapabilityError(f"{self.name}: no certified enclosure oracle")
        return v, v

    def scaled_bracket(self, k: int, n: int, bits: int, c: int) -> tuple[int, int, bool]:
        """Integer bracket (num, den, exact) of c f(k/n), for any integer c >= 1.

        num = floor(den c f(k/n)), so num/den <= c f(k/n) < (num + 1)/den,
        with equality exactly when ``exact`` is True.  den depends only on
        (n, bits), and is even whenever a bracket is inexact; bits >= 1 sets
        the width of inexact brackets.  c = C(n,k) gives a model's scaled
        coefficient; c = q decides f(k/n) >= p/q.
        """
        self._check_node(k, n, bits)
        if c < 1:
            raise ValueError(f"{self.name}: a bracket needs c >= 1, got {c}")
        return self._scaled_bracket(k, n, bits, c)

    def scaled_bracket_row(self, n: int, bits: int, cs) -> list[tuple[int, int, bool]]:
        """[scaled_bracket(k, n, bits, cs[k]) for k = 0..n].

        All n + 1 brackets share one den.  cs = binomial_row(n) brackets a
        model's scaled coefficients C(n,k) f(k/n), and cs = (1,) * (n + 1) the
        node values f(k/n) themselves.  A spec with a row oracle (the
        polynomials) builds the row in one pass; the others make one bracket
        call per node.  Either way a row whose dens differ raises ValueError
        (row_den).
        """
        self._check_node(0, n, bits)
        if len(cs) != n + 1 or min(cs) < 1:
            raise ValueError(f"{self.name}: a bracket row needs n + 1 = {n + 1} "
                             f"multipliers c >= 1")
        if self._scaled_bracket_row is not None:
            row = self._scaled_bracket_row(n, bits, cs)
        else:
            oracle = self._scaled_bracket
            row = [oracle(k, n, bits, c) for k, c in enumerate(cs)]
        self.row_den(row)
        return row

    def row_den(self, brackets) -> int:
        """The one den of brackets of this spec at one (n, bits).

        Raises ValueError naming the spec when two of them differ: read over
        the first den, such a row would give wrong values without an error.
        """
        den = brackets[0][1]
        if any(d != den for _, d, _ in brackets):
            raise ValueError(f"{self.name}: bracket den must depend only on (n, bits)")
        return den

    def _check_node(self, k: int, n: int, bits: int) -> None:
        if not 0 <= k <= n or n < 1:
            raise ValueError(f"{self.name}: a node needs 0 <= k <= n and n >= 1, "
                             f"got k={k}, n={n}")
        if bits < 1:
            raise ValueError(f"{self.name}: a bracket needs bits >= 1, got {bits}")

    def deriv_float(self, s: int, xs):
        """Vectorized float s-th derivative (s=0 is the function itself)."""
        self.require(s)
        return self._deriv_float(s, np.asarray(xs, dtype=np.float64))

    def deriv_exact(self, s: int, x) -> Optional[Fraction]:
        """Exact rational s-th derivative at rational x, or None if irrational."""
        self.require(s)
        return self._deriv_exact(s, Fraction(x))

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


def _horner(c, xs):
    """sum_k c[k] xs^k for float coefficients c, lowest order first.

    Horner in place: the float operations of numpy's polyval, in its order,
    without a new array per degree.
    """
    out = xs * 0.0
    out += c[-1]
    for ck in c[-2::-1]:
        out *= xs
        out += ck
    return out


def _polynomial_spec(name, coeffs, *, doc="") -> FunctionSpec:
    coeffs = tuple(Fraction(c) for c in coeffs)
    # chain[i] = e: the i-th derivative is sum_k e[k] x^k / d0.  Its float
    # row e[k] / d0 is built on the first float call of order i, so an exact
    # oracle never converts (a coefficient past the float range raises
    # OverflowError only where a float is asked for).
    e0, d0 = common_denominator(coeffs)
    chain = [e0]
    floats = {}

    def _order(i: int):
        while len(chain) <= i:
            chain.append(_power_derivative(e0, len(chain)))
        return chain[i]

    def deriv_float(s, xs):
        if s not in floats:
            floats[s] = np.array([ek / d0 for ek in _order(s)])  # int / int rounds correctly
        return _horner(floats[s], xs)

    def deriv_exact(s, x):
        e = _order(s)
        b = x.denominator
        return Fraction(homogeneous_sum(e, x.numerator, b), d0 * b ** (len(e) - 1))

    deg = len(e0) - 1

    def scaled_bracket(k, n, bits, c):
        return homogeneous_sum(e0, k, n) * c, d0 * n ** deg, True

    def scaled_bracket_row(n, bits, cs):
        # den f(k/n) = P(k) = homogeneous_sum(e0, k, n), a degree-deg integer
        # polynomial in k: its forward differences at 0, then its values at
        # k = 0..n by deg running sums
        diffs = _forward_differences(homogeneous_sum(e0, k, n) for k in range(deg + 1))
        values = repeat(diffs[deg], n + 1)
        for d in reversed(diffs[:deg]):
            values = accumulate(islice(values, n), initial=d)
        den = d0 * n ** deg
        return [(v * c, den, True) for v, c in zip(values, cs)]

    return FunctionSpec(
        name,
        s_max=None,
        doc=doc,
        deriv_float=deriv_float,
        deriv_exact=deriv_exact,
        poly_coeffs=coeffs,
        scaled_bracket=scaled_bracket,
        scaled_bracket_row=scaled_bracket_row,
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
    def deriv_exact(s, x):
        return abs(2 * x - 1)

    def deriv_float(s, xs):
        return np.abs(2.0 * xs - 1.0)

    def scaled_bracket(k, n, bits, c):
        return abs(2 * k - n) * c, n, True

    return FunctionSpec(
        "abs_shift",
        s_max=0,
        kink=0.5,
        doc="f(x) = |2x - 1|; Lipschitz with a kink at 1/2, integer endpoints",
        deriv_float=deriv_float,
        deriv_exact=deriv_exact,
        scaled_bracket=scaled_bracket,
    )


def _make_holder_interior(gamma: Fraction, p: int = 0, q: int = 0) -> FunctionSpec:
    gamma = Fraction(gamma)
    if not (0 < gamma < 2) or gamma.denominator == 1:
        raise LookupError("holder_interior: exponent must be non-integer in (0, 2)")
    gm1 = gamma - 1
    gf = float(gamma)
    a, b = gamma.numerator, gamma.denominator

    def value_bounds(x, bits):
        lin = p * x + q
        lo, hi = rational_pow_bounds(
            abs(2 * x - 1), gamma.numerator, gamma.denominator, bits
        )
        return lo + lin, hi + lin

    def scaled_bracket(k, n, bits, c):
        den = n << bits
        # den C |2k/n - 1|^(a/b) is the b-th root of x / n^a, and s its floor
        x = (den * c) ** b * abs(2 * k - n) ** a
        na = n ** a
        s, _ = iroot(x // na, b)
        # the floor of den C f(k/n), equal to it when the root is exact
        return s + (c << bits) * (p * k + q * n), den, s ** b * na == x

    def deriv_float(s, xs):
        u = 2.0 * xs - 1.0
        if s == 0:
            return np.abs(u) ** gf + p * xs + q
        return 2.0 * gf * np.sign(u) * np.abs(u) ** float(gm1) + p

    def deriv_exact(s, x):
        u = 2 * x - 1
        if s == 0:
            pw = rational_pow_exact(abs(u), a, b)
            return None if pw is None else pw + p * x + q
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
        kink=0.5,
        doc=f"f(x) = |2x - 1|^({gamma}){_lin_tail(p, q)}; "
        f"Hoelder-{gamma} at the interior kink, integer endpoints",
        deriv_float=deriv_float,
        deriv_exact=deriv_exact,
        value_bounds=value_bounds,
        scaled_bracket=scaled_bracket,
    )


# ---------------------------------------------------------------------------
# registry

_NAME_RE = re.compile(r"^\s*([a-z_0-9]+)\s*(?:\(\s*([^()]*?)\s*\))?\s*$")


def _int_arg(v: Fraction, what: str) -> int:
    if v.denominator != 1:
        raise LookupError(f"{what} must be an integer, got {v}")
    return int(v)


# Every family once: its factory, the argument names it takes at each
# arity (None names the one rational argument, every other is an integer),
# and the usage text of a call with any other number of arguments.
_FAMILIES = {
    "integer_linear": (_make_integer_linear, {2: ("p", "q")},
                       "integer_linear takes two integer arguments (p, q)"),
    "monomial": (_make_monomial, {1: ("exponent",)},
                 "monomial takes one integer argument (the exponent)"),
    "poly_boundary_flat": (_make_poly_boundary_flat, {1: ("s",), 3: ("s", "p", "q")},
                           "poly_boundary_flat takes (s) or (s, p, q)"),
    "abs_shift": (_make_abs_shift, {0: ()}, "abs_shift takes no arguments"),
    "holder_interior": (_make_holder_interior, {1: (None,), 3: (None, "p", "q")},
                        "holder_interior takes (gamma) or (gamma, p, q)"),
}


def builtin(name: str) -> FunctionSpec:
    """Instantiate a corpus function from its name, e.g. ``monomial(3)``.

    Arguments are rational literals: ``holder_interior(1/2)``,
    ``integer_linear(-2,0)``, read as _FAMILIES declares them.  Unknown
    names, a wrong number of arguments and a non-integer where an integer
    is declared raise LookupError.
    """
    m = _NAME_RE.match(name)
    if not m:
        raise LookupError(f"cannot parse function name {name!r}")
    family, argstr = m.group(1), m.group(2)
    try:
        args = [Fraction(a.strip()) for a in argstr.split(",")] if argstr else []
    except (ValueError, ZeroDivisionError) as e:
        raise LookupError(f"bad arguments in {name!r}: {e}") from None
    if family not in _FAMILIES:
        raise LookupError(f"unknown function {name!r}")
    make, arities, usage = _FAMILIES[family]
    if len(args) not in arities:
        raise LookupError(usage)
    return make(*(v if what is None else _int_arg(v, what)
                  for v, what in zip(args, arities[len(args)])))


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
    "CapabilityError",
    "FunctionSpec",
    "CorpusEntry",
    "builtin",
    "entries",
]
