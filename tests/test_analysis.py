"""Sup-norm search, moduli of smoothness, log-log rate fitting, and the
desk-scale experiment drivers."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from bernint import (
    DEFAULT_GRID,
    CapabilityError,
    GridConfig,
    InsufficientData,
    OperatorKind,
    boundary_interpolation_check,
    builtin,
    converse_experiment,
    entries,
    error_curve,
    evaluate,
    fit_rate,
    grid_points,
    hypothesis_check,
    omega1,
    omega1_sweep,
    omega_phi2,
    saturation_probe,
    sup_norm,
    voronovskaya_check,
)
import bernint.analysis as analysis
from bernint.analysis import _MAX_GRID_POINTS, SaturationVerdict, _omega1_window_max
from bernint.operators import BernsteinModel, gap_interval

X2 = builtin("monomial(2)")
NEAREST = OperatorKind.NEAREST_INT
FLOOR = OperatorKind.FLOOR_INT
CLASSIC = OperatorKind.CLASSIC


# ---------------------------------------------------------------------------
# grids and sup norm


def test_grid_points_clustered_contains_endpoints_and_midpoint():
    xs = grid_points(GridConfig(points=4097))
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert np.abs(xs - 0.5).min() <= 1e-15  # cos(pi/2) is not exactly 0 in float
    # clustered: spacing near the ends is much finer than in the middle
    assert xs[1] - xs[0] < (xs[2049] - xs[2048]) / 100


def test_grid_refined_is_nested():
    g = GridConfig(points=129, refine=0)
    coarse = grid_points(g)
    fine = grid_points(GridConfig(points=2 * g.points - 1, refine=0))
    assert fine.size == 2 * coarse.size - 1
    assert np.isin(coarse, fine).all()


def test_sup_norm_frozen():
    est = sup_norm(lambda x: x * (1.0 - x))
    assert abs(est.value - 0.25) <= 1e-12
    assert abs(est.argmax - 0.5) <= 1e-6
    assert float(sup_norm(lambda x: np.full_like(x, 3.0))) == 3.0


def test_sup_norm_rejects_non_finite_target():
    for target in (lambda x: np.where(x > 0.7, np.nan, x),
                   lambda x: np.where(x < 0.2, np.inf, x)):
        with pytest.raises(ValueError, match="not finite"):
            sup_norm(target)
    # NaN only where the zoom rounds probe, never on the grid
    grid = grid_points(GridConfig(points=65))
    spiky = lambda x: np.where(np.isin(x, grid), x * (1.0 - x), np.nan)
    with pytest.raises(ValueError, match="not finite"):
        sup_norm(spiky, grid=GridConfig(points=65))


def test_grid_points_capped():
    assert GridConfig(points=_MAX_GRID_POINTS).points == _MAX_GRID_POINTS
    for points in (_MAX_GRID_POINTS + 1, 10**9):
        with pytest.raises(ValueError, match="points must lie in"):
            GridConfig(points=points)


def test_sup_norm_stops_when_bracket_stalls():
    calls = []

    def peak(x):  # the grid already attains the maximum 1.0
        calls.append(np.size(x))
        return 1.0 - np.abs(x - 0.5)

    def smooth(x):
        calls.append(np.size(x))
        return np.abs(np.sin(7.0 * x))

    est30 = sup_norm(peak, grid=GridConfig(points=65, refine=30))
    calls.clear()
    est = sup_norm(peak, grid=GridConfig(points=65, refine=10**5))
    assert (est.value, est.argmax) == (est30.value, est30.argmax)
    assert est.value == 1.0
    assert len(calls) < 2000
    # stopping early returns what running every round would
    long = sup_norm(smooth, grid=GridConfig(points=65, refine=10**5))
    assert len(calls) < 4000
    ref = sup_norm(smooth, grid=GridConfig(points=65, refine=300))
    assert (long.value, long.argmax) == (ref.value, ref.argmax)


def test_sup_norm_refinement_is_monotone():
    # a kernel target holds this too: the value at a point does not depend
    # on the batch it is evaluated in; its sup is at most max |c_k|
    lo, _, den = gap_interval(X2, 16, FLOOR)
    gap = BernsteinModel(kind=FLOOR, n=16, scaled=lo, denominator=den)
    targets = [
        (lambda x: np.abs(np.sin(47.0 * np.pi * x)), 1.0),
        (lambda x: evaluate(gap, x), float(max(abs(c) for c in gap.coeffs))),
    ]
    g = GridConfig(points=65, refine=0)
    for f, sup in targets:
        v1 = sup_norm(f, grid=g).value
        v2 = sup_norm(f, grid=GridConfig(points=2 * g.points - 1, refine=0)).value
        assert v2 >= v1  # nested grid: the estimate can only grow
        assert v2 <= sup * (1.0 + 1e-12)  # and stays a lower bound for the true sup


def test_sup_norm_zoom_rounds_locate_off_grid_peak():
    # one kernel call per zoom round, each shrinking the bracket by 2/33
    peak_x = 1.0 / np.sqrt(7.0)
    calls = []

    def cusp(x):  # steep enough that float values resolve the final bracket
        calls.append(np.size(x))
        return 1.0 - np.abs(x - peak_x)

    est = sup_norm(cusp)
    assert len(calls) <= 1 + DEFAULT_GRID.refine
    assert calls[0] == DEFAULT_GRID.points
    xs = grid_points(DEFAULT_GRID)
    i = int(np.argmax(1.0 - np.abs(xs - peak_x)))
    bracket = (xs[i + 1] - xs[i - 1]) * (2.0 / 33.0) ** DEFAULT_GRID.refine
    assert abs(est.argmax - peak_x) <= bracket
    assert 1.0 - bracket <= est.value <= 1.0


# ---------------------------------------------------------------------------
# first-order modulus


def test_omega1_x2_quarter_frozen():
    # sup over |x-y| <= 1/4 of |x^2-y^2| is attained at (3/4, 1): 7/16
    est = omega1(lambda x: x * x, 0.25)
    assert est.value == pytest.approx(0.4375, abs=1e-12)


def test_omega1_identity_and_constant():
    assert omega1(lambda x: x, 0.25).value == pytest.approx(0.25, abs=1e-12)
    assert omega1(lambda x: np.full_like(x, 2.0), 0.3).value == 0.0


def test_omega1_brute_force_oracle():
    f = lambda x: np.cos(3.0 * x) + 0.2 * x * x
    t = 0.125
    xs = np.linspace(0.0, 1.0, 2049)
    vals = f(xs)
    w = 256  # t / step with step = 1/2048
    best = 0.0
    for i in range(xs.size):
        hi = min(xs.size, i + w + 1)
        seg = vals[i:hi]
        best = max(best, float(seg.max() - seg.min()))
    est = omega1(f, t, points=2049)
    assert est.value == pytest.approx(best, abs=1e-12)


def test_omega1_subadditive_on_shared_grid():
    f = lambda x: np.sin(5.0 * x) + x * x
    w1 = omega1(f, 0.125, points=4097).value
    w2 = omega1(f, 0.25, points=4097).value
    assert w2 <= 2.0 * w1 + 1e-12


def _window_max_by_offsets(vals, w):
    """The O(m w) scan over every offset d <= w that _omega1_window_max replaced."""
    if w <= 0:
        return 0.0
    m = len(vals)
    if w >= m - 1:
        return float(vals.max() - vals.min())
    best = 0.0
    for d in range(1, w + 1):
        diff = float(np.max(np.abs(vals[d:] - vals[:-d])))
        if diff > best:
            best = diff
    return best


def test_omega1_window_max_matches_offset_scan():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 4, 7, 16, 33, 100):
        arrays = [
            rng.standard_normal(m),
            np.cumsum(rng.standard_normal(m)),  # walks: the max sits at long offsets
            np.cumsum(rng.uniform(0.0, 1.0, m)) * 1e-3,
            rng.integers(-2, 3, m).astype(np.float64),  # ties everywhere
            np.sin(np.linspace(0.0, 7.0, m)) + 1e16,  # differences that round
        ]
        for vals in arrays:
            for w in range(m + 2):
                assert _omega1_window_max(vals, w) == _window_max_by_offsets(vals, w), (m, w)


def test_moduli_reject_non_finite_target():
    moduli = (
        lambda F: omega1(F, 0.1),
        lambda F: omega1_sweep(F, [0.05, 0.1]),
        lambda F: omega_phi2(F, 0.1),
    )
    for bad in (np.nan, np.inf, -np.inf):
        target = lambda x, bad=bad: np.where(x > 0.5, bad, x)
        for modulus in moduli:
            with pytest.raises(ValueError, match="not finite"):
                modulus(target)
    # an empty step list fails by name, not inside min()
    with pytest.raises(ValueError, match="omega1: need at least one t"):
        omega1_sweep(lambda x: x, [])


def test_moduli_reject_a_target_without_one_value_per_point():
    estimates = (
        ("sup_norm", lambda F: sup_norm(F)),
        ("omega1", lambda F: omega1(F, 0.1)),
        ("omega1", lambda F: omega1_sweep(F, [0.05, 0.1])),
        ("omega_phi2", lambda F: omega_phi2(F, 0.1)),
    )
    # a scalar is refused, not broadcast: omega_phi2 used to return 0.0 here
    for target in (lambda x: 1.0, lambda x: np.ones(x.size + 1), lambda x: x[:-1]):
        for who, estimate in estimates:
            with pytest.raises(ValueError, match=f"^{who}: target must return one value per point$"):
                estimate(target)
    assert omega_phi2(lambda x: np.ones_like(x), 0.1).value == 0.0


def test_omega1_sweep_is_monotone():
    f = lambda x: np.abs(x - 0.37)
    vals = [e.value for e in omega1_sweep(f, [0.05, 0.1, 0.2, 0.4])]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# second-order weighted modulus


def test_omega_phi2_x2_frozen():
    for t in (0.2, 1.0):
        est = omega_phi2(lambda x: x * x, t)
        target = 0.5 * t * t
        assert target * (1.0 - 1e-3) <= est.value <= target


def test_omega_phi2_linear_is_exactly_zero():
    assert omega_phi2(lambda x: 2.0 * x, 0.3).value == 0.0
    assert omega_phi2(lambda x: np.full_like(x, 1.0), 0.1).value == 0.0


def test_omega_phi2_positive_for_kink():
    f = builtin("abs_shift")
    assert omega_phi2(f.eval_float, 0.25).value > 0.01


def test_omega_phi2_sweep_is_monotone():
    f = builtin("abs_shift")
    vals = [omega_phi2(f.eval_float, t).value for t in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    # for this kink the law is 2t exactly up to grid resolution
    for t, v in zip((0.05, 0.1, 0.2, 0.4, 0.8), vals):
        assert v == pytest.approx(2.0 * t, rel=1e-6)


def _omega_phi2_per_step(fn, t, m):
    """omega_phi2 with one pair of target calls per step h: the reference."""
    xs = np.linspace(0.0, 1.0, m)
    phi = np.sqrt(xs * (1.0 - xs))
    mid = np.asarray(fn(xs), dtype=np.float64)
    hs = np.geomspace(t / 100.0, t, 64)
    hs[-1] = t * (1.0 - 2.0 ** -40)
    best = 0.0
    for h in hs:
        offset = h * phi
        xp = xs + offset
        xm = xs - offset
        feasible = (xm >= 0.0) & (xp <= 1.0)
        vp = np.asarray(fn(np.clip(xp, 0.0, 1.0)), dtype=np.float64)
        vm = np.asarray(fn(np.clip(xm, 0.0, 1.0)), dtype=np.float64)
        d = np.where(feasible, np.abs(vp - 2.0 * mid + vm), 0.0)
        hmax = float(d.max())
        if hmax > best:
            best = hmax
    scale = max(1.0, float(np.max(np.abs(mid))))
    if best <= 32.0 * np.finfo(np.float64).eps * scale:
        best = 0.0
    return best


@pytest.mark.parametrize("name", [e.spec.name for e in entries()])
def test_omega_phi2_equals_the_per_step_sweep(name):
    """Blocking the steps h changes no bit of any corpus derivative's modulus."""
    f = builtin(name)
    for s in (s for s in range(3) if f.supports(s)):
        fn = lambda xs, s=s: f.deriv_float(s, xs)
        for grid in (None, GridConfig(points=33)):
            m = grid.points if grid is not None else DEFAULT_GRID.points
            for t in (0.003, 0.05, 0.4, 1.0):
                assert omega_phi2(fn, t, grid).value == _omega_phi2_per_step(fn, t, m), (s, m, t)


@pytest.mark.parametrize("step, side", [(0, 1), (5, -1), (37, 1), (63, -1)])
def test_omega_phi2_checks_every_offset_point(step, side):
    """A target that is NaN at one x +- h phi(x) only, off the uniform grid, raises."""
    t, m, i = 0.4, 33, 7
    xs = np.linspace(0.0, 1.0, m)
    hs = np.geomspace(t / 100.0, t, 64)
    hs[-1] = t * (1.0 - 2.0 ** -40)
    x0 = xs[i] + side * hs[step] * np.sqrt(xs[i] * (1.0 - xs[i]))
    assert 0.0 < x0 < 1.0 and not np.any(xs == x0)
    target = lambda x: np.where(x == x0, np.nan, x * x)
    assert np.all(np.isfinite(target(xs)))
    with pytest.raises(ValueError, match="not finite"):
        omega_phi2(target, t, GridConfig(points=m))


def test_omega1_subadditive_on_corpus_functions():
    for name in ("abs_shift", "holder_interior(1/2)", "poly_boundary_flat(2)"):
        f = builtin(name).eval_float
        w1 = omega1(f, 0.125, points=4097).value
        w2 = omega1(f, 0.25, points=4097).value
        assert w2 <= 2.0 * w1 + 1e-12


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_exact_law():
    pairs = [(n, 0.25 / n) for n in (16, 32, 64, 128, 256, 512)]
    fit = fit_rate(pairs)
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)
    assert fit.C == pytest.approx(0.25, rel=1e-12)
    assert fit.residual <= 1e-12


def test_fit_rate_constant_data():
    fit = fit_rate([(n, 0.7) for n in (16, 32, 64, 128)])
    assert fit.alpha == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_filters_exact_zeros():
    pairs = [(16, 0.0), (32, 1.0 / 32), (64, 1.0 / 64), (128, 1.0 / 128), (256, 1.0 / 256)]
    fit = fit_rate(pairs)
    assert fit.zero_pairs == ((16, 0.0),)
    assert fit.alpha == pytest.approx(1.0, abs=1e-10)


def test_fit_rate_discards_smallest_n_when_long():
    # 3 smallest n carry garbage; with >= 8 positive pairs they are trimmed
    pairs = [(2, 5.0), (3, 4.0), (4, 3.0)] + [(n, 1.0 / n) for n in (16, 32, 64, 128, 256)]
    fit = fit_rate(pairs)
    assert fit.alpha == pytest.approx(1.0, abs=1e-10)


def test_fit_rate_insufficient():
    with pytest.raises(InsufficientData):
        fit_rate([(16, 0.0), (32, 0.0), (64, 1e-3)])


# ---------------------------------------------------------------------------
# experiment drivers


def test_error_curve_classic_x2_frozen():
    curve = error_curve(X2, CLASSIC, 0, [16, 32])
    assert abs(curve[0].error - 1.0 / 64) <= 1e-15
    assert abs(curve[1].error - 1.0 / 128) <= 1e-15


def test_error_curve_capability_check():
    with pytest.raises(CapabilityError):
        error_curve(builtin("abs_shift"), CLASSIC, 1, [8, 16])


def test_voronovskaya_x2_exact_at_every_n():
    rep = voronovskaya_check(X2, F(1, 4), [4, 8, 16, 300])
    assert rep.limit == F(3, 16)
    for row in rep.rows:
        assert row.scaled_gap == F(3, 16)
        assert row.residual == 0


def test_voronovskaya_linear_is_zero():
    rep = voronovskaya_check(builtin("integer_linear(3,2)"), F(1, 3), [4, 8])
    assert rep.limit == 0
    assert all(row.scaled_gap == 0 for row in rep.rows)


def test_voronovskaya_requires_second_derivative_oracle():
    with pytest.raises(CapabilityError):
        voronovskaya_check(builtin("holder_interior(1/2)"), F(1, 3), [4, 8])


def test_voronovskaya_residual_decays_like_one_over_n():
    # away from x=1/2 the next-order term of x^3 is x(1-x)(1-2x)/n^2 exactly
    rep = voronovskaya_check(builtin("monomial(3)"), F(1, 3), [8, 16, 32, 64, 128])
    assert rep.rows[0].residual == F(1, 108)
    fit = fit_rate([(r.n, float(r.residual)) for r in rep.rows])
    assert fit.alpha == pytest.approx(1.0, abs=1e-10)


def test_classic_error_to_modulus_ratio_band():
    """Direct-estimate consistency: ||B_n f - f|| / omega_phi2(f, n^-1/2)
    stays in a narrow band per function (the two-sided equivalence)."""
    for name, band_cap in (("monomial(2)", 1.01), ("abs_shift", 1.1), ("poly_boundary_flat(2)", 1.2)):
        f = builtin(name)
        curve = error_curve(f, CLASSIC, 0, [16, 32, 64, 128, 256, 512])
        ratios = []
        for p in curve:
            w = omega_phi2(f.eval_float, p.n ** -0.5).value
            ratios.append(p.error / w)
        assert all(0.05 <= r <= 20.0 for r in ratios)
        assert max(ratios) / min(ratios) < band_cap


def test_saturation_trivial_class():
    rep = saturation_probe(builtin("integer_linear(3,2)"), FLOOR, 0, [8, 16, 32])
    assert rep.verdict is SaturationVerdict.TRIVIAL_CLASS
    assert all(v == 0.0 for _, v in rep.rows)
    assert not rep.inconsistent


def test_saturation_band_x2():
    for kind in (FLOOR, NEAREST):
        rep = saturation_probe(X2, kind, 0, [64, 128, 256, 512])
        assert rep.verdict is SaturationVerdict.SATURATED_RATE
        assert rep.bounded and rep.band_ratio < 10.0
        for _, v in rep.rows:
            assert v == pytest.approx(0.25, abs=1e-9)


def test_boundary_threshold_x2_nearest():
    rep = boundary_interpolation_check(X2, NEAREST, 2, list(range(2, 65)))
    assert rep.threshold == 3
    assert rep.rows[0].matches == ((True, True), (False, False))


def test_boundary_threshold_none_when_derivative_never_matches():
    # classic derivative at 0 is n*(f(1/n)-f(0)) = 1/n for x^2: never equals 0,
    # so the i=1 entry of an s=2 check can never match
    rep = boundary_interpolation_check(X2, CLASSIC, 2, list(range(2, 20)))
    assert rep.threshold is None
    assert rep.rows[0].matches == ((True, True), (False, False))


def test_converse_quadratic():
    rep = converse_experiment(X2, CLASSIC, 1, [16, 32, 64, 128, 256], [0.05, 0.1, 0.2, 0.4])
    assert not rep.trivial
    assert rep.alpha == pytest.approx(1.0, abs=1e-6)
    assert rep.w2_exact_zero and rep.slope_w2 is None
    assert rep.slope_w1 == pytest.approx(1.0, abs=0.01)
    assert rep.delta_w1 <= 0.01


def test_converse_trivial_short_circuit():
    rep = converse_experiment(
        builtin("integer_linear(3,2)"), FLOOR, 1, [16, 32, 64, 128], [0.1, 0.2]
    )
    assert rep.trivial
    assert rep.alpha is None and rep.w2_exact_zero


def test_hypothesis_check_frozen_reports():
    ok = hypothesis_check(X2, 1, range(1, 65))
    assert ok.passed and ok.n0 == 1
    assert ("f'(1)", "2", True) in ok.integrality

    bad = hypothesis_check(builtin("monomial(3)"), 2, range(1, 65))
    assert not bad.passed
    assert ("f''(1)", "6", False) in bad.vanishing


HOLDER_SPECS = ["holder_interior(1/2)", "holder_interior(3/2)",
                "holder_interior(3/2,2,-1)", "holder_interior(1/3,-1,2)"]


def reference_ge(f, k, n, rhs, bounds=None):
    """f(k/n) >= rhs from the exact value, else from ``bounds`` (default: a
    4096-bit enclosure)."""
    v = f.eval_exact(F(k, n))
    if v is not None:
        return v >= rhs
    lo, hi = bounds or f.eval_bounds(F(k, n), 4096)
    assert lo >= rhs or hi < rhs, "the reference cannot decide"
    return lo >= rhs


@pytest.mark.parametrize("name", HOLDER_SPECS)
def test_node_checks_decide_on_brackets_as_fine_enclosures_do(name, monkeypatch):
    # _certified_ge reads one integer node bracket per decision, at bits = 1,
    # and decides an rhs 2^-150 or 2^-5000 from an irrational value, or equal
    # to an exact node value; hypothesis_check reports as it would on
    # 4096-bit enclosures
    f = builtin(name)
    cases = []
    for n in (1, 2, 9, 32, 64):
        for k in range(n + 1):
            v = f.eval_exact(F(k, n))
            lo, hi = f.eval_bounds(F(k, n), 4096) if v is None else (v, v)
            exact = () if v is None else (v,)
            for rhs in (*exact, lo - F(1, 2**150), hi + F(1, 2**150),
                        F(math.floor(lo * 1000), 1000), f.eval_exact(F(0)) - F(k, n)):
                cases.append((k, n, rhs, reference_ge(f, k, n, rhs)))
            fine = f.eval_bounds(F(k, n), 6000) if v is None else (v, v)
            for rhs in (fine[0] - F(1, 2**5000), fine[1] + F(1, 2**5000)):
                cases.append((k, n, rhs, reference_ge(f, k, n, rhs, fine)))
    assert {want for *_, want in cases} == {True, False}
    monkeypatch.setattr(analysis, "_certified_ge", reference_ge)
    reports = {s: hypothesis_check(f, s, range(1, 65)) for s in range(f.s_max + 1)}
    monkeypatch.undo()

    def refuse(*args, **kwargs):
        raise AssertionError("node checks must not call eval_bounds")

    oracle, bits_asked = f._scaled_bracket, []

    def counting(k, n, bits, c):
        bits_asked.append(bits)
        return oracle(k, n, bits, c)

    monkeypatch.setattr(f, "eval_bounds", refuse)
    monkeypatch.setattr(f, "_scaled_bracket", counting)
    for k, n, rhs, want in cases:
        assert analysis._certified_ge(f, k, n, rhs) is want, (k, n, rhs)
    assert len(bits_asked) == len(cases) and set(bits_asked) == {1}
    for s, want in reports.items():
        assert hypothesis_check(f, s, range(1, 65)) == want


def test_node_checks_build_no_binomial_row():
    # a node inequality needs C(n,k) only at k <= s and k >= n - s, so a
    # check near the CLI's degree cap stays cheap
    from bernint import binomial_row

    before = binomial_row.cache_info()
    for name in ("monomial(2)", "holder_interior(3/2)"):
        assert hypothesis_check(builtin(name), 1, range(16000, 16004)).passed
    after = binomial_row.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
