"""The three benchmark workloads: seeded op streams and their correctness oracles.

Each workload is an endless stream of passes; a pass is the list of every op
of the workload once, in seeded order.  A run stops only at a pass boundary:
ops of one workload differ in cost by up to 100x (the four ``sweep_default``
commands by up to 1.5x), so only whole passes give every run the same mix.

An op is one closed-loop call into bernint: a CLI command through
``bernint.cli.main`` or one public-API call.  ``Op.run`` is the timed part;
``Op.check`` is the oracle, run afterwards and outside the timed region.  It
returns ``(ok, max_rel_err, detail)``, where ``max_rel_err`` is the largest
relative error of a float output against the exact reference it was checked
with (0 when the op has no float output).

Oracles do not compare report bytes: a correct kernel change may move a float
by an ulp.  Exact outputs are compared exactly against references computed
here from the corpus oracles (``eval_exact``, ``eval_bounds``) and
``math.comb``, not from the operators layer.  Float outputs are checked with
stated tolerances and rigorous error bounds:

* classic operator: |B_n f - f| <= ||f''|| / (8n) for polynomials and
  <= (3/2) w1(f, n^-1/2) otherwise (Popoviciu);
* integer variants: the classic bound plus 1/n (floor) or 1/(2n) (nearest);
* moduli: w1(f, t) <= w1 bound of the entry, w_phi2(f, t) <= 2 w1(f, t/2).

Only the public API is used: nothing from ``bernint._*``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

import bernint
from bernint import OperatorKind, builtin, entries
from bernint import cli

FLOAT_SLACK = 1e-9  # absolute slack on float bounds (sup search, kernel rounding)
RATE_X2_RTOL = 1e-9  # rate monomial(2): every error equals 1/(4n) to this
EPS = 2.0 ** -52

SWEEP_N = (16, 32, 64, 128, 256, 512)  # the CLI's default sweep
GAP_N = (8, 16, 32, 64, 128, 256)
SMALL_N = (2, 3, 5, 8, 13, 21, 34, 55)
ERROR_N = (16, 32, 64)
KINDS = {"classic": OperatorKind.CLASSIC, "floor": OperatorKind.FLOOR_INT,
         "nearest": OperatorKind.NEAREST_INT}


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


def run_cli(argv) -> CliResult:
    """One ``bernint`` command in this process, its report captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return CliResult(rc, out.getvalue(), err.getvalue())


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


# ---------------------------------------------------------------------------
# exact references and error bounds


def seeded_point(rng: random.Random) -> Fraction:
    """p/q in (0, 1) with q in [512, 1023]: a fixed 10-bit denominator band."""
    q = rng.randint(512, 1023)
    return Fraction(rng.randint(1, q - 1), q)


def bernstein_exact(coeffs, x: Fraction) -> Fraction:
    """sum_k c_k C(n,k) x^k (1-x)^(n-k), in exact arithmetic."""
    n = len(coeffs) - 1
    a, b = x.numerator, x.denominator
    c = b - a
    acc = sum(Fraction(ck) * math.comb(n, k) * a ** k * c ** (n - k)
              for k, ck in enumerate(coeffs) if ck)
    return Fraction(acc) / b ** n


def round_kind(v: Fraction, kind: str) -> int:
    """floor, or nearest with halves away from zero (the CLI default tie)."""
    if kind == "floor":
        return math.floor(v)
    return math.floor(v + Fraction(1, 2)) if v >= 0 else -math.floor(-v + Fraction(1, 2))


def node_enclosure(f, node: Fraction, bits: int = 256):
    v = f.eval_exact(node)
    return (v, v) if v is not None else f.eval_bounds(node, bits)


def rounded_ok(m: int, lo: Fraction, hi: Fraction, kind: str) -> bool:
    """Does integer m round every value in the enclosure [lo, hi]?"""
    if lo == hi:
        return m == round_kind(lo, kind)
    if kind == "floor":
        return m <= lo and hi < m + 1
    return m - Fraction(1, 2) < lo and hi < m + Fraction(1, 2)


def _poly_sup_derivs(f):
    """Upper bounds of sup|f'| and sup|f''| on [0, 1] from the monomial coefficients."""
    c = f.poly_coeffs
    d1 = sum(abs(a) * i for i, a in enumerate(c))
    d2 = sum(abs(a) * i * (i - 1) for i, a in enumerate(c))
    return float(d1), float(d2)


def omega1_bound(f, t: float) -> float:
    """Upper bound of w1(f, t) for a corpus entry."""
    if f.poly_coeffs is not None:
        return _poly_sup_derivs(f)[0] * t
    if f.name == "abs_shift":
        return 2.0 * t
    gamma = Fraction(f.name[len("holder_interior("):-1])
    if gamma < 1:  # | |u|^g - |v|^g | <= |u - v|^g with u = 2x - 1
        return (2.0 * t) ** float(gamma)
    return 2.0 * float(gamma) * t  # Lipschitz with sup|f'| = 2 gamma


def classic_bound(f, n: int) -> float:
    if f.poly_coeffs is not None:
        return _poly_sup_derivs(f)[1] / (8.0 * n)
    return 1.5 * omega1_bound(f, n ** -0.5)


def error_bound(f, kind: str, n: int) -> float:
    extra = {"classic": 0.0, "floor": 1.0 / n, "nearest": 0.5 / n}[kind]
    return classic_bound(f, n) + extra + FLOAT_SLACK


def rel_err(value: float, exact) -> float:
    exact = float(exact)
    return abs(value - exact) / abs(exact) if exact else abs(value)


class Failed(Exception):
    """An oracle rejected an output."""


def need(cond, detail):
    if not cond:
        raise Failed(detail)


def guarded(check):
    """Turn a checker that raises into one returning (ok, max_rel_err, detail)."""

    def wrapper(result):
        try:
            return True, check(result), ""
        except Failed as e:
            return False, 0.0, str(e)
        except Exception as e:  # an output the checker cannot read is a failed op
            return False, 0.0, f"malformed output: {type(e).__name__}: {e}"

    return wrapper


def cli_report(res: CliResult) -> dict:
    need(res.rc == 0, f"exit code {res.rc}: {res.err.strip()[-300:]}")
    return json.loads(res.out)


# ---------------------------------------------------------------------------
# sweep_default: the ROADMAP's end-to-end commands at their default sweep


def _check_rate_x2(res, n_list=SWEEP_N):
    rep = cli_report(res)
    need([r["n"] for r in rep["errors"]] == list(n_list), "n sweep")
    worst = 0.0
    for r in rep["errors"]:
        e = rel_err(r["error"], Fraction(1, 4 * r["n"]))
        need(e <= RATE_X2_RTOL, f"error at n={r['n']} is {r['error']!r}, not 1/(4n)")
        worst = max(worst, e)
    fit = rep["fit"]
    need(0.98 <= fit["alpha"] <= 1.02, f"alpha {fit['alpha']}")
    need(0.24 <= fit["C"] <= 0.26, f"C {fit['C']}")
    return worst


def _check_saturation_x2(res):
    rep = cli_report(res)
    f = builtin("monomial(2)")
    need(rep["verdict"] == "SaturatedRate", f"verdict {rep['verdict']}")
    need(rep["bounded"] is True and rep["inconsistent"] is False, "band flags")
    need([r["n"] for r in rep["rows"]] == list(SWEEP_N), "n sweep")
    for r in rep["rows"]:
        need(0.0 < r["n_error"] <= r["n"] * error_bound(f, "nearest", r["n"]),
             f"n*error {r['n_error']} at n={r['n']}")
    return 0.0


def _check_converse_flat(res):
    rep = cli_report(res)
    f = builtin("poly_boundary_flat(2)")
    need(rep["trivial"] is False, "trivial")
    errs = [r["error"] for r in rep["errors"]]
    need([r["n"] for r in rep["errors"]] == list(SWEEP_N), "n sweep")
    need(all(0.0 < b < a for a, b in zip(errs, errs[1:])), f"errors not decreasing {errs}")
    need(0.85 <= rep["alpha"] <= 1.15, f"alpha {rep['alpha']}")
    need(1.5 <= rep["slope_omega_phi2"] <= 2.5, f"omega_phi2 slope {rep['slope_omega_phi2']}")
    lip = _poly_sup_derivs(f)[1]  # f' is Lipschitz with constant sup|f''|
    w1 = [r["value"] for r in rep["omega1"]]
    need(all(a <= b for a, b in zip(w1, w1[1:])), "omega1 not monotone")
    for r in rep["omega1"]:
        need(0.0 < r["value"] <= lip * r["t"] + FLOAT_SLACK, f"omega1 at t={r['t']}")
    for r in rep["omega_phi2"]:
        need(0.0 < r["value"] <= lip * r["t"] + FLOAT_SLACK, f"omega_phi2 at t={r['t']}")
    return 0.0


def _check_rate_holder(res):
    rep = cli_report(res)
    f = builtin("holder_interior(1/2)")
    errs = [r["error"] for r in rep["errors"]]
    need([r["n"] for r in rep["errors"]] == list(SWEEP_N), "n sweep")
    need(all(0.0 < b < a for a, b in zip(errs, errs[1:])), f"errors not decreasing {errs}")
    for r in rep["errors"]:
        need(r["error"] <= error_bound(f, "floor", r["n"]), f"error at n={r['n']}")
    need(0.2 <= rep["fit"]["alpha"] <= 0.3, f"alpha {rep['fit']['alpha']} (expect 1/4)")
    return 0.0


SWEEP_OPS = (
    (("rate", "--fn", "monomial(2)"), _check_rate_x2),
    (("saturation", "--fn", "monomial(2)", "--kind", "nearest"), _check_saturation_x2),
    (("converse", "--fn", "poly_boundary_flat(2)", "--kind", "nearest", "--s", "1"),
     _check_converse_flat),
    (("rate", "--fn", "holder_interior(1/2)", "--kind", "floor"), _check_rate_holder),
)


def _cli_op(argv, check) -> Op:
    return Op(" ".join(argv), lambda: run_cli(argv), guarded(check))


def sweep_default(rng: random.Random) -> Iterator[list]:
    while True:
        ops = [_cli_op(argv, check) for argv, check in SWEEP_OPS]
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# exact_enclosure: certified gap enclosures and exact Voronovskaya, no floats


class GapOracle:
    """Exact (integer model - classic model) at a point, for rational-valued f."""

    def __init__(self):
        self._diffs = {}
        self._rational = {}

    def rational(self, f, n: int) -> bool:
        """Are all node values f(k/n) rational?"""
        key = (f.name, n)
        if key not in self._rational:
            self._rational[key] = all(
                f.eval_exact(Fraction(k, n)) is not None for k in range(n + 1))
        return self._rational[key]

    def diffs(self, f, n: int, kind: str):
        key = (f.name, n, kind)
        if key not in self._diffs:
            out = []
            for k in range(n + 1):
                v = f.eval_exact(Fraction(k, n))
                c = math.comb(n, k)
                out.append(Fraction(round_kind(v * c, kind), c) - v)
            self._diffs[key] = out
        return self._diffs[key]


def _gap_op(f, n, kind, xs, probes, oracle: GapOracle) -> Op:
    okind = KINDS[kind]
    bound = Fraction(1, n) if kind == "floor" else Fraction(1, 2 * n)

    @guarded
    def check(encl):
        rational = oracle.rational(f, n)
        need(len(encl) == len(xs), "point count")
        for x, (lo, hi) in zip(xs, encl):
            need(lo <= hi, f"lo > hi at {x}")
            need(-bound <= lo and hi <= bound, f"gap outside +-{bound} at {x}")
            if kind == "floor":  # the true gap is <= 0, and lo is below it
                need(lo <= 0, f"floor gap positive at {x}")
            if x in (0, 1):
                need(lo == hi == 0, f"gap nonzero at endpoint {x}")
            if rational:
                need(lo == hi, f"enclosure not a point at {x}")
            else:
                need(hi - lo <= Fraction(1, 2 ** 100), f"enclosure too wide at {x}")
        if rational:
            d = oracle.diffs(f, n, kind)
            for i in probes:
                need(encl[i][0] == bernstein_exact(d, xs[i]), f"gap value at {xs[i]}")
        return 0.0

    return Op(f"gap {f.name} {kind} n={n}",
              lambda: bernint.proximity_gap_exact(f, n, okind, xs), check)


def _voronovskaya_op(f, x: Fraction) -> Op:
    # monomial(3): n (B_n f - f)(x) = 3x^2(1-x) + x(1-x)(1-2x)/n exactly
    limit = 3 * x * x * (1 - x)

    @guarded
    def check(rep):
        need(rep.limit == limit, f"limit {rep.limit} != {limit}")
        need([r.n for r in rep.rows] == list(GAP_N), "n list")
        for r in rep.rows:
            tail = x * (1 - x) * (1 - 2 * x) / r.n
            need(r.scaled_gap == limit + tail, f"scaled gap at n={r.n}")
            need(r.residual == abs(tail), f"residual at n={r.n}")
        return 0.0

    return Op(f"voronovskaya {f.name} x={x}",
              lambda: bernint.voronovskaya_check(f, x, GAP_N), check)


DYADIC = tuple(Fraction(i, 64) for i in range(65))


def _gap_points(rng):
    return list(DYADIC) + [seeded_point(rng) for _ in range(16)]


def exact_enclosure(rng: random.Random) -> Iterator[list]:
    specs = [e.spec for e in entries()]
    x3 = builtin("monomial(3)")
    oracle = GapOracle()
    while True:
        ops = [_gap_op(f, n, kind, _gap_points(rng), (rng.randrange(65), rng.randrange(65, 81)),
                       oracle)
               for f in specs for kind in ("floor", "nearest") for n in GAP_N]
        # A quantile that falls between two cost classes jumps between them
        # with the host's speed.  The 12 costliest gap ops (n=256, all but the
        # piecewise-linear entries) are 12 of 96; with 64 Voronovskaya ops
        # (16-18 ms, like n=16) the 90th percentile falls in the middle of
        # the next class (Hölder n=128 and piecewise-linear n=256, 250-320
        # ms, ranks 13-20 from the top) and the median inside the merged
        # Voronovskaya and n=16 class, 16 ranks below the n=32 ops.
        ops += [_voronovskaya_op(x3, Fraction(1, 2) if i % 2 else seeded_point(rng))
                for i in range(64)]
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# interactive_small: many short CLI commands at low degree


def _coeffs_op(f, kind, n) -> Op:
    argv = ("coeffs", "--fn", f.name, "--kind", kind, "--n", str(n))

    def check(res):
        rep = cli_report(res)
        rows = rep["rows"]
        need(len(rows) == n + 1, "row count")
        exact = True
        for k, r in enumerate(rows):
            node = Fraction(k, n)
            c = math.comb(n, k)
            lo, hi = node_enclosure(f, node)
            coeff = Fraction(r["coeff"])
            need(r["k"] == k and Fraction(r["node"]) == node, f"row {k} index")
            need(r["coeff_float"] == float(coeff), f"coeff_float at k={k}")
            if kind == "classic":
                need(r["rounded"] is None, f"rounded at k={k}")
                need(lo - Fraction(1, 2 ** 150) <= coeff <= hi + Fraction(1, 2 ** 150),
                     f"classic coeff at k={k}")
                exact = exact and lo == hi
            else:
                m = int(r["rounded"])
                need(coeff == Fraction(m, c), f"coeff != rounded/C at k={k}")
                need(rounded_ok(m, lo * c, hi * c, kind), f"{kind} rounding at k={k}")
        need(rep["coeffs_exact"] is exact, "coeffs_exact flag")
        return 0.0

    return _cli_op(argv, check)


def _eval_op(f, kind, n, xs) -> Op:
    argv = ("eval", "--fn", f.name, "--kind", kind, "--n", str(n),
            "--x", ",".join(f"{x.numerator}/{x.denominator}" for x in xs))

    def check(res):
        rep = cli_report(res)
        coeffs, rational = [], True
        for k in range(n + 1):
            lo, hi = node_enclosure(f, Fraction(k, n))
            rational = rational and lo == hi
            if kind == "classic":
                coeffs.append((lo + hi) / 2)
            else:
                c = math.comb(n, k)
                coeffs.append(Fraction(round_kind((lo + hi) / 2 * c, kind), c))
        exact = rational or kind != "classic"
        need(len(rep["rows"]) == len(xs), "row count")
        worst = 0.0
        for x, r in zip(xs, rep["rows"]):
            need(Fraction(r["x"]) == x, "point order")
            ref = bernstein_exact(coeffs, x)
            if exact:
                need(Fraction(r["exact"]) == ref, f"exact value at {x}")
            else:
                need(r["exact"] is None, f"exact field for inexact model at {x}")
            # float kernel bound, Farouki-Rajan: 4(n+1) eps sum |c_k| b_k(x)
            absref = bernstein_exact([abs(c) for c in coeffs], x)
            tol = 4 * (n + 1) * EPS * float(absref) + 1e-300
            need(abs(r["value"] - float(ref)) <= tol, f"float value at {x}")
            worst = max(worst, rel_err(r["value"], ref))
        return worst

    return _cli_op(argv, check)


def _verify_op(entry) -> Op:
    argv = ("verify", "--fn", entry.spec.name, "--s", str(entry.verify_s))

    def check(res):
        rep = cli_report(res)
        need(rep["passed"] is True and rep["n0"] is not None, "hypotheses not verified")
        need(not rep["violations"], "violations reported")
        return 0.0

    return _cli_op(argv, check)


def _modulus_op(f) -> Op:
    argv = ("modulus", "--fn", f.name)

    def check(res):
        rep = cli_report(res)
        rows = rep["rows"]
        need([r["t"] for r in rows] == [0.05, 0.1, 0.2, 0.4], "t list")
        w1 = [r["omega1"] for r in rows]
        need(all(a <= b for a, b in zip(w1, w1[1:])), "omega1 not monotone")
        for r in rows:
            t = r["t"]
            need(0.0 < r["omega1"] <= omega1_bound(f, t) + FLOAT_SLACK, f"omega1 at t={t}")
            need(0.0 <= r["omega_phi2"] <= 2 * omega1_bound(f, t / 2) + FLOAT_SLACK,
                 f"omega_phi2 at t={t}")
            if f.integer_linear:
                need(r["omega_phi2"] == 0.0, f"omega_phi2 of a linear f at t={t}")
        return 0.0

    return _cli_op(argv, check)


def _error_op(f, kind) -> Op:
    argv = ("error", "--fn", f.name, "--kind", kind, "--n-min", str(ERROR_N[0]),
            "--n-max", str(ERROR_N[-1]), "--grid", "257")

    def check(res):
        rep = cli_report(res)
        need([r["n"] for r in rep["rows"]] == list(ERROR_N), "n sweep")
        worst = 0.0
        for r in rep["rows"]:
            n, e = r["n"], r["error"]
            need(0.0 <= r["argmax"] <= 1.0, f"argmax at n={n}")
            if f.integer_linear:
                need(e <= 1e-12, f"trivial class not reproduced at n={n}: {e}")
            else:
                need(0.0 < e <= error_bound(f, kind, n), f"error {e} at n={n}")
            if f.name == "monomial(2)" and kind == "classic":
                worst = max(worst, rel_err(e, Fraction(1, 4 * n)))
                need(worst <= RATE_X2_RTOL, f"error at n={n} is not 1/(4n)")
        return worst

    return _cli_op(argv, check)


def interactive_small(rng: random.Random) -> Iterator[list]:
    roster = entries()
    while True:
        ops = []
        for entry in roster:
            f = entry.spec
            for kind in KINDS:
                for n in SMALL_N:
                    ops.append(_coeffs_op(f, kind, n))
                    ops.append(_eval_op(f, kind, n, [seeded_point(rng) for _ in range(3)]))
            # one error, verify and modulus op per entry: they take 30-70 ms
            # against 3-9 ms, and at 24 of 408 ops they keep p90 inside the
            # n=34..55 coeffs/eval ops rather than on the edge between classes
            ops.append(_error_op(f, rng.choice(list(KINDS))))
            ops.append(_verify_op(entry))
            ops.append(_modulus_op(f))
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# speed probes: fixed jobs that share a workload's bottleneck, timed between
# ops to measure the host's current speed (see run.py)


def fraction_probe() -> None:
    """Interpreter and big-integer work, like the exact layer and the CLI."""
    acc = Fraction(0)
    for k in range(1, 800):
        acc += Fraction(k, 3 * k + 1)


PROBE_X = np.linspace(0.0, 1.0, 4097)


def stream_probe() -> None:
    """Two passes of a degree-512 de Casteljau table at 4097 points.

    Like the float kernel at the default sweep, it streams 17 MB arrays
    through memory; its peak memory stays below that of one sweep op.
    """
    b = np.ones((513, PROBE_X.size))
    for _ in range(2):
        b = b[:-1] * (1.0 - PROBE_X) + b[1:] * PROBE_X


# (probe, its time at the reference speed in seconds)
FRACTION_PROBE = (fraction_probe, 0.004)
PROBES = {
    "sweep_default": (stream_probe, 0.035),
    "exact_enclosure": FRACTION_PROBE,
    "interactive_small": FRACTION_PROBE,
}


def warmup_op(workload: str, rng: random.Random) -> Op:
    """The op set-up runs once after `import bernint`: it counts in setup_s only."""
    x2 = builtin("monomial(2)")
    if workload == "sweep_default":  # a short sweep: setup_s is not a full n=512 op
        return _cli_op(("rate", "--fn", "monomial(2)", "--n-max", "128", "--grid", "257"),
                       lambda res: _check_rate_x2(res, (16, 32, 64, 128)))
    if workload == "exact_enclosure":
        return _gap_op(x2, 64, "nearest", _gap_points(rng), (0, 80), GapOracle())
    return _eval_op(x2, "nearest", 13, [seeded_point(rng) for _ in range(3)])


WORKLOADS = {
    "sweep_default": sweep_default,
    "exact_enclosure": exact_enclosure,
    "interactive_small": interactive_small,
}
