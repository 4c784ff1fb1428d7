"""Acceptance gate: twelve criteria, one recorded PASS/FAIL line each.

Every test computes its quantities with pinned tolerances, registers a
one-line verdict (printed in the pytest terminal summary), and then
asserts.  Expected values were derived independently: closed forms for the
classic operator on monomials, Pascal-triangle binomials, and hand-computed
rounding tables for the integer variants at small n.
"""

import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np

from bernint import (
    OperatorKind,
    binomial_row,
    boundary_interpolation_check,
    build_model,
    builtin,
    derivative_model,
    entries,
    error_curve,
    evaluate,
    evaluate_exact,
    fit_rate,
    hypothesis_check,
    omega1,
    omega_phi2,
    proximity_gap,
    proximity_gap_exact,
    saturation_probe,
    voronovskaya_check,
)
from bernint.analysis import SaturationVerdict

from conftest import record_criterion

CLASSIC = OperatorKind.CLASSIC
FLOOR = OperatorKind.FLOOR_INT
NEAREST = OperatorKind.NEAREST_INT

X2 = builtin("monomial(2)")
X3 = builtin("monomial(3)")

POW2_N = (2, 4, 8, 16, 32, 64, 128, 256)
SWEEP_N = (16, 32, 64, 128, 256, 512)


def test_criterion_01_kantorovich_proximity():
    """Gap to the classic operator bounded by 1/n (floor) and 1/(2n) (nearest)."""
    t0 = time.monotonic()
    xs65 = [F(i, 64) for i in range(65)]
    worst = 0.0
    ok = True
    for entry in entries():
        f = entry.spec
        for kind, den in ((FLOOR, 1), (NEAREST, 2)):
            for n in POW2_N:
                bound = 1.0 / (den * n)
                est = proximity_gap(f, n, kind)
                worst = max(worst, est.value * den * n)
                if est.value > bound * (1.0 + 1e-12):
                    ok = False
                exact_bound = F(1, den * n)
                for lo, hi in proximity_gap_exact(f, n, kind, xs65):
                    if max(abs(lo), abs(hi)) > exact_bound:
                        ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    record_criterion(
        1,
        ok,
        f"gap*n*den <= {worst:.6f} over 8 entries, n<=256, grid+65 exact points "
        f"({elapsed:.1f}s < 60s)",
    )
    assert ok


def test_criterion_02_trivial_class_exactness():
    """Integer-linear px+q reproduced exactly by all three kinds at every n."""
    probes = (F(1, 3), F(2, 7), F(5, 8))
    ok = True
    for p in (-2, 0, 3):
        for q in (-2, 0, 3):
            f = builtin(f"integer_linear({p},{q})")
            for n in range(1, 257):
                # c_k C(n,k) = (p k/n + q) C(n,k) = p C(n-1,k-1) + q C(n,k) over D = 1;
                # models are in lowest terms, so this is coeffs == f(k/n)
                below = (0,) + binomial_row(n - 1)
                want = (tuple(p * a + q * b for a, b in zip(below, binomial_row(n))), 1)
                models = [build_model(f, n, kind) for kind in (CLASSIC, FLOOR, NEAREST)]
                if any((m.scaled, m.denominator) != want for m in models):
                    ok = False
                # identical coefficients: checking one model checks all three
                if any(evaluate_exact(models[0], x) != f.eval_exact(x) for x in probes):
                    ok = False
    record_criterion(2, ok, "9 integer-linear combos: 3 kinds coeff-equal, error 0, n<=256")
    assert ok


def test_criterion_03_classic_rate_recovery():
    t0 = time.monotonic()
    curve = error_curve(X2, CLASSIC, 0, SWEEP_N)
    fit = fit_rate([(p.n, p.error) for p in curve])
    elapsed = time.monotonic() - t0
    ok = 0.98 <= fit.alpha <= 1.02 and 0.24 <= fit.C <= 0.26 and elapsed < 10.0
    record_criterion(
        3, ok, f"alpha={fit.alpha:.6f} in [0.98,1.02], C={fit.C:.6f} in [0.24,0.26] "
        f"({elapsed:.1f}s < 10s)"
    )
    assert ok


def test_criterion_04_saturation_band():
    lo, hi = 0.25 - 0.5 * 1.05, 0.25 + 0.5 * 1.05
    ok = True
    detail = []
    for kind in (FLOOR, NEAREST):
        rep = saturation_probe(X2, kind, 0, [64, 128, 256, 512])
        vals = [v for _, v in rep.rows]
        if rep.verdict is not SaturationVerdict.SATURATED_RATE:
            ok = False
        if not all(lo <= v <= hi for v in vals):
            ok = False
        detail.append(f"{kind.value}: n*err in [{min(vals):.4f},{max(vals):.4f}]")
    record_criterion(4, ok, f"x^2 {'; '.join(detail)} within [{lo:.3f},{hi:.3f}], SaturatedRate")
    assert ok


def test_criterion_05_voronovskaya_exact():
    rep = voronovskaya_check(X3, F(1, 2), [16, 32, 64, 128, 256])
    ok = rep.limit == F(3, 8)
    worst = F(0)
    for row in rep.rows:
        dev = abs(row.scaled_gap - F(3, 8))
        worst = max(worst, dev * row.n)
        if dev > F(1, row.n):
            ok = False
    record_criterion(
        5, ok, f"x^3 at 1/2: |n*gap - 3/8| * n <= {float(worst):.3g} (exact rationals)"
    )
    assert ok


def _iterated_differences(values, s):
    work = list(values)
    for _ in range(s):
        work = [b - a for a, b in zip(work, work[1:])]
    return work


def test_criterion_06_derivative_formula_equivalence():
    poly = [e.spec for e in entries() if e.spec.poly_coeffs is not None]
    assert len(poly) == 5
    x = 0.3
    ok = True
    slope_floor = 1.9
    for f in poly:
        for s in (1, 2):
            for n in (8, 16, 32, 64, 128):
                m = build_model(f, n, CLASSIC)
                dm = derivative_model(m, s)
                scale = 1
                for i in range(s):
                    scale *= n - i
                want = tuple(scale * v for v in _iterated_differences(m.coeffs, s))
                if dm.coeffs != want:
                    ok = False
                # float path: central differences of the model evaluation
                target = evaluate(dm, x)
                scale_f = max(1.0, abs(evaluate(m, x)))
                hs = np.logspace(-3, -5, 5) if s == 1 else np.logspace(-2, -3.5, 4)
                errs, noise = [], []
                for h in hs:
                    if s == 1:
                        d = (evaluate(m, x + h) - evaluate(m, x - h)) / (2.0 * h)
                        nf = np.finfo(float).eps * scale_f / h
                    else:
                        d = (
                            evaluate(m, x + h)
                            - 2.0 * evaluate(m, x)
                            + evaluate(m, x - h)
                        ) / h**2
                        nf = 4.0 * np.finfo(float).eps * scale_f / h**2
                    errs.append(abs(d - target))
                    noise.append(nf)
                errs = np.array(errs)
                noise = np.array(noise)
                keep = errs > 100.0 * noise
                if keep.sum() >= 2:
                    slope = np.polyfit(np.log(hs[keep]), np.log(errs[keep]), 1)[0]
                    if slope < slope_floor:
                        ok = False
                else:
                    # difference error is below measurement noise at every h:
                    # the model and its derivative agree to the noise floor
                    if errs.max() > 1000.0 * noise.max():
                        ok = False
    record_criterion(
        6, ok, "5 poly entries, s in {1,2}, n<=128: exact Delta^s identity + "
        f"central-diff order >= {slope_floor}"
    )
    assert ok


def test_criterion_07_modulus_oracles():
    f = lambda x: x * x
    ok = True
    worst = ""
    for t in (0.05, 0.1, 0.2, 0.4):
        target = 0.5 * t * t
        v = omega_phi2(f, t).value
        if not (target * (1.0 - 1e-3) <= v <= target):
            ok = False
            worst = f" omega_phi2({t})={v!r}"
        # the spec itself takes the Taylor path
        v = omega_phi2(X2, t).value
        if not (target * (1.0 - 1e-3) <= v <= target):
            ok = False
            worst = f" omega_phi2(monomial(2), {t})={v!r}"
    w1 = omega1(f, 0.25).value
    if not (0.4375 * (1.0 - 1e-3) <= w1 <= 0.4375):
        ok = False
        worst += f" omega1={w1!r}"
    record_criterion(
        7, ok, f"omega_phi2(x^2,t) in [t^2/2*(1-1e-3), t^2/2] for 4 t; "
        f"omega1(x^2,1/4)={w1:.6f}{worst}"
    )
    assert ok


def test_criterion_08_characterization_band():
    ok = True
    detail = []
    for name in ("monomial(2)", "poly_boundary_flat(2)"):
        f = builtin(name)
        curve = error_curve(f, NEAREST, 0, SWEEP_N)
        ratios = []
        for p in curve:
            w = omega_phi2(f.eval_float, p.n ** -0.5).value
            ratios.append((p.error + 1.0 / p.n) / (w + 1.0 / p.n))
        band = max(ratios) / min(ratios)
        if not all(0.05 <= r <= 20.0 for r in ratios) or band >= 10.0:
            ok = False
        detail.append(f"{name}: ratios [{min(ratios):.3f},{max(ratios):.3f}] band {band:.3f}")
        # the same band with the spec itself: the Taylor path for polynomials
        ratios = [(p.error + 1.0 / p.n) / (omega_phi2(f, p.n ** -0.5).value + 1.0 / p.n)
                  for p in curve]
        band = max(ratios) / min(ratios)
        if not all(0.05 <= r <= 20.0 for r in ratios) or band >= 10.0:
            ok = False
            detail.append(f"{name} (spec): ratios [{min(ratios):.3f},{max(ratios):.3f}]")
    record_criterion(8, ok, "; ".join(detail) + " (must sit in [1/20,20], band < 10)")
    assert ok


def test_criterion_09_boundary_interpolation():
    rep = boundary_interpolation_check(X2, NEAREST, 2, list(range(2, 65)))
    ok = rep.threshold == 3
    record_criterion(
        9, ok, f"x^2 nearest s=2: endpoint values+derivatives exact from n={rep.threshold}"
    )
    assert ok


def test_criterion_10_hypothesis_checker():
    good = hypothesis_check(X2, 1, range(1, 65))
    bad = hypothesis_check(X3, 2, range(1, 65))
    witness = ("f''(1)", "6", False)
    ok = good.passed and good.n0 == 1 and (not bad.passed) and witness in bad.vanishing
    record_criterion(
        10, ok, f"(x^2,s=1) passes with n0={good.n0}; (x^3,s=2) fails with witness f''(1)=6"
    )
    assert ok


def test_criterion_11_planted_exponent_recovery():
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        pairs = [(n, 3.7 * n ** (-alpha)) for n in SWEEP_N]
        fit = fit_rate(pairs)
        worst = max(worst, abs(fit.alpha - alpha))
    ok = worst <= 1e-10
    record_criterion(11, ok, f"alpha in {{0.25,0.5,0.75,1.0}}: max |fit - alpha| = {worst:.2e}")
    assert ok


def test_criterion_12_determinism(tmp_path):
    ok = True
    for fmt, args in (
        ("json", ["rate", "--fn", "monomial(2)", "--n-min", "16", "--n-max", "256"]),
        ("csv", ["modulus", "--fn", "monomial(2)", "--t", "0.05,0.1,0.2,0.4"]),
    ):
        blobs = []
        for i in range(2):
            out = tmp_path / f"{fmt}{i}"
            cmd = (
                [sys.executable, "-m", "bernint.cli"]
                + args
                + ["--format", fmt, "--out", str(out)]
            )
            res = subprocess.run(cmd, capture_output=True, text=True)
            if res.returncode != 0:
                ok = False
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            ok = False
    record_criterion(12, ok, "rate/json and modulus/csv: two runs byte-identical")
    assert ok
