"""Sup-norm search, moduli of smoothness, log-log rate fitting, and the
desk-scale experiment drivers."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from bernint import (
    DEFAULT_GRID,
    CapabilityError,
    FunctionSpec,
    GridConfig,
    InsufficientData,
    OperatorKind,
    TiePolicy,
    boundary_interpolation_check,
    build_model,
    builtin,
    converse_experiment,
    derivative_model,
    entries,
    error_curve,
    evaluate,
    evaluate_exact,
    fit_rate,
    grid_points,
    hypothesis_check,
    omega1,
    omega1_sweep,
    omega_phi2,
    proximity_gap,
    proximity_gap_exact,
    saturation_probe,
    sup_norm,
    voronovskaya_check,
)
import bernint.analysis as analysis
import bernint.operators as operators
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


def test_sup_norm_results_survive_mutated_grid_points():
    # sup_norm reads one cached grid per point count; grid_points hands out
    # fresh writable copies, so writing into one changes no later sup
    targets = (lambda x: x * (1.0 - x), lambda x: np.sin(7.0 * x) * x ** 3,
               X2.eval_float)
    grids = (DEFAULT_GRID, GridConfig(points=65), GridConfig(points=65, refine=0))

    def sups():
        return [(e.value.hex(), e.argmax.hex())
                for g in grids for e in (sup_norm(t, g) for t in targets)]

    before = sups()
    for g in grids:
        xs, again = grid_points(g), grid_points(g)
        assert xs.flags.writeable and not np.shares_memory(xs, again)
        xs[:] = 0.3
        assert not np.any(grid_points(g) == 0.3)
    assert sups() == before


def test_sup_norm_target_cannot_write_into_the_grid():
    def scribble(x):
        x[0] = 0.5
        return x

    with pytest.raises(ValueError, match="read-only"):
        sup_norm(scribble)
    assert grid_points(DEFAULT_GRID)[0] == 0.0


def test_grid_points_capped():
    assert GridConfig(points=_MAX_GRID_POINTS).points == _MAX_GRID_POINTS
    for points in (_MAX_GRID_POINTS + 1, 10**9):
        with pytest.raises(ValueError, match="points must lie in"):
            GridConfig(points=points)
    # integral floats and numpy ints are stored as ints; a fractional count
    # is refused, not rounded into a grid that stops short of x = 1
    for points, refine in ((100.0, 2.0), (np.int64(100), np.int64(2))):
        grid = GridConfig(points=points, refine=refine)
        assert (grid.points, grid.refine) == (100, 2)
        assert type(grid.points) is int and type(grid.refine) is int
        assert grid == GridConfig(points=100, refine=2)
        assert sup_norm(lambda x: x, grid).value == 1.0
    for field, bad in (("points", 100.5), ("refine", 2.5), ("points", math.nan),
                       ("refine", math.inf)):
        with pytest.raises(ValueError, match=f"GridConfig: {field} must be an integer"):
            GridConfig(**{field: bad})


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
    gap = BernsteinModel(n=16, scaled=lo, denominator=den)
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


POLY_ENTRIES = [e.spec.name for e in entries() if e.spec.poly_coeffs is not None]


@pytest.mark.parametrize("name", POLY_ENTRIES)
def test_omega_phi2_taylor_path_matches_the_per_step_sweep(name):
    """A polynomial spec's Taylor-form modulus is the direct one to 1e-8 relative."""
    f = builtin(name)
    for s in range(len(f.poly_coeffs)):
        fn = lambda xs, s=s: f.deriv_float(s, xs)
        for m in (33, 4097):
            for t in (0.003, 0.05, 0.4, 1.0):
                got = omega_phi2(f, t, GridConfig(points=m), s).value
                want = _omega_phi2_per_step(fn, t, m)
                assert abs(got - want) <= 1e-8 * want, (s, m, t, got, want)


def test_omega_phi2_taylor_path_is_the_exact_difference_within_its_rounding_bound():
    """At one (x, h), the Taylor value is the exact Delta^2 g at d = fl(h phi(x))
    within 4 (deg g + 1) u sum_j |A_j|~(x) d^(2j) (the omega_phi2 docstring)."""
    rng = np.random.default_rng(2205)
    cases = [(builtin(name), s) for name in POLY_ENTRIES
             for s in range(len(builtin(name).poly_coeffs) - 2)]
    u = F(1, 2 ** 53)
    checked = 0
    while checked < 50:
        f, s = cases[rng.integers(len(cases))]
        x, h = float(rng.uniform(0.0, 1.0)), float(10.0 ** rng.uniform(-8.0, 0.0))
        xs = np.array([x])
        phi = np.sqrt(xs * (1.0 - xs))
        d = F(float(h * phi[0]))
        if not (d <= F(x) and F(x) + d <= 1):
            continue
        rows = [analysis._horner(a, xs) for a in analysis._taylor_rows(f.poly_coeffs, s)]
        got = analysis._omega_phi2_taylor(rows, xs, phi, np.full(64, h))
        g = [F(math.perm(k, s)) * c for k, c in enumerate(f.poly_coeffs)][s:]
        at = lambda z: sum(c * z ** k for k, c in enumerate(g))  # noqa: E731
        exact = abs(at(F(x) + d) - 2 * at(F(x)) + at(F(x) - d))
        terms = sum(abs(2 * math.comb(k, 2 * j) * g[k]) * F(x) ** (k - 2 * j) * d ** (2 * j)
                    for j in range(1, (len(g) + 1) // 2) for k in range(2 * j, len(g)))
        assert abs(F(got) - exact) <= 4 * len(g) * u * terms, (f.name, s, x, h)
        checked += 1


def test_omega_phi2_taylor_path_keeps_x2_at_small_t():
    # the direct path reads 5.000444502911705e-13 at t = 1e-6 and 0.0 at 1e-7
    for t in (1e-7, 1e-6, 1e-3, 1.0):
        assert t * t / 2 * (1.0 - 1e-3) <= omega_phi2(X2, t).value <= t * t / 2, t
    assert omega_phi2(X2, 1e-6).value <= 5e-13


def _omega_phi2_taylor_every_column(rows, xs, phi, hs):
    """The Taylor sweep over every step and column, 4 steps a pass, as it ran
    before the columns were bounded: the reference of the pruned sweep."""
    if not rows:
        return 0.0
    best = 0.0
    for i in range(0, 64, 4):
        off = hs[i:i + 4, None] * phi
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


def _taylor_inputs(f, s, m, t):
    xs = np.linspace(0.0, 1.0, m)
    phi = np.sqrt(xs * (1.0 - xs))
    hs = np.geomspace(t / 100.0, t, 64)
    hs[-1] = t * (1.0 - 2.0 ** -40)
    rows = [analysis._horner(a, xs) for a in analysis._taylor_rows(f.poly_coeffs, s)]
    return rows, xs, phi, hs


@pytest.mark.parametrize("name", [*POLY_ENTRIES, "monomial(9)", "poly_boundary_flat(3)"])
def test_omega_phi2_taylor_path_is_the_every_column_sweep_bit_for_bit(name):
    # the columns the bound drops change no bit of the modulus, also where the
    # max lies at a step below the largest (x^9 at t = 1: near x = 1 only
    # the smaller steps are feasible)
    f = builtin(name)
    for s in range(len(f.poly_coeffs) + 1):
        for m in (33, 257, 4097):
            for t in (1e-6, 1e-3, 0.05, 0.4, 1.0):
                args = _taylor_inputs(f, s, m, t)
                want = _omega_phi2_taylor_every_column(*args)
                assert analysis._omega_phi2_taylor(*args) == want, (s, m, t)
                assert omega_phi2(f, t, GridConfig(points=m), s).value == want, (s, m, t)


def test_omega_phi2_taylor_path_sweeps_only_the_columns_its_bound_keeps(monkeypatch):
    # the largest step over every column, then every step over the columns
    # whose bound can reach its max; a row whose every column's bound reaches
    # it keeps them all, though the values differ
    sizes = []
    sweep = analysis._taylor_sweep

    def counted(rows, xs, phi, hs):
        sizes.append((xs.size, hs.size))
        return sweep(rows, xs, phi, hs)

    monkeypatch.setattr(analysis, "_taylor_sweep", counted)
    pbf2 = builtin("poly_boundary_flat(2)")
    for t, kept in ((0.05, 192), (0.1, 382), (0.2, 762), (0.4, 1490)):
        sizes.clear()
        want = _omega_phi2_taylor_every_column(*_taylor_inputs(pbf2, 1, 4097, t))
        assert omega_phi2(pbf2, t, s=1).value == want
        assert sizes == [(4097, 1), (kept, 64)], t
    xs = np.full(9, 0.5)
    phi = np.sqrt(xs * (1.0 - xs))
    rows = [np.full(9, 3.0), np.resize([1.0, -1.0], 9)]  # bound (3 + y) y on each
    hs = np.geomspace(0.004, 0.4, 64)
    sizes.clear()
    want = _omega_phi2_taylor_every_column(rows, xs, phi, hs)
    assert analysis._omega_phi2_taylor(rows, xs, phi, hs) == want
    assert sizes == [(9, 1), (9, 64)]


def test_omega_phi2_of_a_linear_derivative_is_exactly_zero():
    for name, s in (("integer_linear(3,2)", 0), ("monomial(2)", 1), ("monomial(3)", 2),
                    ("monomial(3)", 3), ("monomial(3)", 4), ("poly_boundary_flat(2)", 5)):
        assert omega_phi2(builtin(name), 0.4, s=s).value == 0.0, (name, s)


def test_omega_phi2_orders_need_a_spec():
    with pytest.raises(ValueError, match="omega_phi2: order s = 1 needs a FunctionSpec"):
        omega_phi2(X2.eval_float, 0.1, s=1)
    with pytest.raises(CapabilityError):
        omega_phi2(builtin("abs_shift"), 0.1, s=1)
    # a non-polynomial spec takes the direct path: the callable's value
    f = builtin("holder_interior(3/2)")
    assert omega_phi2(f, 0.2, s=1).value == omega_phi2(lambda xs: f.deriv_float(1, xs), 0.2).value


def test_omega1_refuses_a_t_below_its_finest_step():
    step = 1.0 / (_MAX_GRID_POINTS - 1)
    for ts in ([1e-7], [0.1, 2e-7], [step * 0.99]):
        with pytest.raises(ValueError, match=f"omega1: t=.* is below the finest grid step; "
                                             f"the smallest t it resolves is {step!r}"):
            omega1_sweep(lambda x: 3.0 * x * x, ts)
    assert omega1_sweep(lambda x: x, [step])[0].value == pytest.approx(step)


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
    # pairs at one n fix no slope, also when the 3 smallest n are trimmed
    with pytest.raises(InsufficientData, match="all have n = 16"):
        fit_rate([(16, 1.0 / 16), (16, 1.0 / 32), (16, 1.0 / 64), (16, 1.0 / 128)])
    with pytest.raises(InsufficientData, match="all have n = 16"):
        fit_rate([(2, 0.5), (3, 0.3), (4, 0.25)] + [(16, 1.0 / 16)] * 5)


def test_fit_rate_refuses_non_finite_errors_and_non_integer_n():
    law = [(16, 1.0 / 16), (32, 1.0 / 32), (64, 1.0 / 64), (128, 1.0 / 128)]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="fit_rate: non-finite error"):
            fit_rate(law[:2] + [(64, bad)] + law[3:])
    for bad in (16.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="fit_rate: n must be an integer"):
            fit_rate([(bad, 1.0 / 16)] + law[1:])
    # 16.0 and numpy.int64(16) are the integer 16
    for n in (16.0, np.int64(16)):
        fit = fit_rate([(n, 1.0 / 16)] + law[1:])
        assert fit.pairs == tuple(law) and type(fit.pairs[0][0]) is int


# ---------------------------------------------------------------------------
# experiment drivers


def test_error_curve_classic_x2_frozen():
    curve = error_curve(X2, CLASSIC, 0, [16, 32])
    assert abs(curve[0].error - 1.0 / 64) <= 1e-15
    assert abs(curve[1].error - 1.0 / 128) <= 1e-15


POLYNOMIALS = [e.spec.name for e in entries() if e.spec.poly_coeffs is not None]


@pytest.mark.parametrize("name", POLYNOMIALS)
def test_classic_error_curve_matches_the_model_route(name):
    # the power-form path against sup_norm of the Classic model's s-th
    # derivative minus f^(s), at every order up to the first that vanishes
    f = builtin(name)
    deg = len(f.poly_coeffs) - 1
    for s in range(deg + 2):
        for p in error_curve(f, CLASSIC, s, [1, 2, 3, 16, 512]):
            dm = derivative_model(build_model(f, p.n, CLASSIC), s)
            want = sup_norm(lambda xs: evaluate(dm, xs) - f.deriv_float(s, xs)).value
            if f.integer_linear or s > deg:  # E_n^(s) is the zero polynomial
                assert p.error == 0.0 and want <= 1e-13
            else:
                assert p.error == pytest.approx(want, rel=1e-10, abs=0.0)


def test_power_form_errors_call_no_kernel(monkeypatch):
    calls = []
    kernel = operators._bernstein_linear

    def counted(rows, x, who):
        calls.append(np.size(x))
        return kernel(rows, x, who)

    monkeypatch.setattr(operators, "_bernstein_linear", counted)
    with monkeypatch.context() as m:
        for name in ("build_model", "derivative_model", "evaluate"):
            m.setattr(analysis, name, lambda *a, name=name: pytest.fail(f"called {name}"))
        for name in POLYNOMIALS:
            f = builtin(name)
            for s in range(len(f.poly_coeffs) + 1):
                error_curve(f, CLASSIC, s, [1, 16, 512])
        for kind in (FLOOR, NEAREST):
            assert {p.error for p in error_curve(builtin("integer_linear(3,2)"), kind, 0,
                                                 [16, 512])} == {0.0}
    assert calls == []
    # the integer kinds of any other polynomial sum their gap row in the kernel
    error_curve(X2, FLOOR, 0, [16])
    assert calls


NONLINEAR_POLYNOMIALS = [n for n in POLYNOMIALS if not builtin(n).integer_linear]


@pytest.mark.parametrize("kind", [FLOOR, NEAREST])
@pytest.mark.parametrize("name", NONLINEAR_POLYNOMIALS)
def test_integer_kind_error_curve_matches_the_model_route(name, kind):
    # the gap path (exact E_n plus the endpoint gap sum) against sup_norm of
    # the integer model's s-th derivative minus f^(s)
    f = builtin(name)
    for s in range(3):  # a polynomial spec serves every order
        for p in error_curve(f, kind, s, [16, 32, 64, 128, 256, 512]):
            dm = derivative_model(build_model(f, p.n, kind), s)
            want = sup_norm(lambda xs: evaluate(dm, xs) - f.deriv_float(s, xs)).value
            assert p.error == pytest.approx(want, rel=1e-9, abs=0.0)


def test_integer_kind_errors_of_polynomials_build_no_model(monkeypatch):
    # from n - s = 70 on, the gap is summed near each end with kernel calls
    # of degree at most 30: no model and no degree-n pass
    degrees = []
    kernel = operators._bernstein_linear

    def counted(rows, x, who):
        degrees.append(rows.n)
        return kernel(rows, x, who)

    monkeypatch.setattr(operators, "_bernstein_linear", counted)
    for name in ("build_model", "derivative_model", "evaluate"):
        monkeypatch.setattr(analysis, name, lambda *a, name=name: pytest.fail(f"called {name}"))
    for name in NONLINEAR_POLYNOMIALS:
        for kind in (FLOOR, NEAREST):
            error_curve(builtin(name), kind, 1, [71, 128, 512, 2048])
    assert degrees and max(degrees) <= 30
    degrees.clear()
    error_curve(X2, FLOOR, 0, [16, 69])
    assert set(degrees) == {16, 69}  # below degree 70 the whole row, as a model would
    # one kernel call per batch of the gap, both ends in it: every batch of
    # the sweeps, and the default grid and a 32-point zoom round that
    # straddles 1/2 at each degree
    batches = []
    values = analysis._finite_values

    def counted_batches(fn, xs, who):
        batches.append(xs.size)
        return values(fn, xs, who)

    monkeypatch.setattr(analysis, "_finite_values", counted_batches)
    degrees.clear()
    error_curve(X2, NEAREST, 0, [16, 32, 64, 128, 256, 512])
    error_curve(X2, FLOOR, 1, [16, 32, 64, 128, 256, 512])
    assert len(degrees) == len(batches) and 32 in batches
    inner = 0.5 + (np.arange(1, 33) / 33 - 0.5) * 1e-3
    assert inner.min() < 0.5 < inner.max()
    for n, s in ((16, 0), (69, 0), (71, 1), (512, 2), (2048, 0)):
        g = operators.gap_sum(X2, n, NEAREST, s)
        for xs in (grid_points(DEFAULT_GRID), inner):
            degrees.clear()
            g(xs)
            assert degrees == [min(n - s, operators._endpoint_terms(n - s) - 1)], (n, s)


def test_integer_kind_errors_read_a_lossy_gap_row_at_its_midpoint():
    # a bracket the power form never reads (k = 5 > deg) may be inexact: the
    # gap is then read at the midpoint of its rows, within 1/(2 den) of the
    # true one at that node, so the s-th derivative moves by at most
    # (2n)^s / (2 den) (den = n^2 here)
    def x2(exact):
        return FunctionSpec("x2_poly", s_max=None, poly_coeffs=X2.poly_coeffs,
                            deriv_exact=X2.deriv_exact, deriv_float=X2.deriv_float,
                            scaled_bracket=lambda k, n, bits, c: (k * k * c, n * n, exact(k)))

    assert error_curve(x2(lambda k: True), NEAREST, 1, [16]) == error_curve(X2, NEAREST, 1, [16])
    n = 16
    for kind in (FLOOR, NEAREST):
        for s in range(3):
            (lossy,) = error_curve(x2(lambda k: k != 5), kind, s, [n])
            (exact,) = error_curve(X2, kind, s, [n])
            assert abs(lossy.error - exact.error) <= (2 * n) ** s / (2 * n * n)


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


@pytest.mark.parametrize("name", [e.spec.name for e in entries()
                                  if e.spec.poly_coeffs is not None])
def test_voronovskaya_matches_the_model_route(name):
    # each row equals n (B_n f(x) - f(x)) read off the exact Classic model,
    # at every n up to deg + 1 (so n < deg for monomial(5) and
    # poly_boundary_flat(2), where B_n f has degree n) and on long rows
    f = builtin(name)
    deg = len(f.poly_coeffs) - 1
    ns = [*range(1, deg + 2), 8, 255, 256, 300, 4096]
    models = {n: build_model(f, n, CLASSIC) for n in ns}
    for x in (F(1, 2), F(1, 3), F(601, 999), F(389, 877)):
        rep = voronovskaya_check(f, x, ns)
        assert rep.x == x and rep.limit == x * (1 - x) * f.deriv_exact(2, x) / 2
        assert [r.n for r in rep.rows] == ns
        for r in rep.rows:
            want = r.n * (evaluate_exact(models[r.n], x) - f.eval_exact(x))
            assert type(r.scaled_gap) is F and r.scaled_gap == want
            assert type(r.residual) is F and r.residual == abs(want - rep.limit)


def test_voronovskaya_reads_a_polynomial_off_its_first_deg_plus_one_brackets(monkeypatch):
    # a polynomial row costs O(deg) per n: the brackets of k = 0..min(deg, n)
    # at c = 1, and never a row of n + 1
    f = builtin("monomial(5)")
    want = voronovskaya_check(f, F(601, 999), [1, 4, 5, 6, 64, 4096])
    calls = []
    bracket = f.scaled_bracket

    def counted(k, n, bits, c):
        calls.append((k, n, c))
        return bracket(k, n, bits, c)

    monkeypatch.setattr(f, "scaled_bracket", counted)
    monkeypatch.setattr(f, "scaled_bracket_row",
                        lambda *a: pytest.fail("read a row of n + 1 brackets"))
    assert voronovskaya_check(f, F(601, 999), [r.n for r in want.rows]) == want
    assert calls == [(k, n, 1) for n in (1, 4, 5, 6, 64, 4096) for k in range(min(5, n) + 1)]


def test_voronovskaya_refuses_a_spec_without_poly_coeffs(monkeypatch):
    # x^2 with exact values and f'' but no poly_coeffs has no power form: it
    # is refused, naming the spec, before any node bracket is read
    f = FunctionSpec("x2_unlisted", s_max=None, deriv_exact=X2.deriv_exact,
                     deriv_float=X2.deriv_float, scaled_bracket=X2.scaled_bracket)
    for oracle in ("scaled_bracket", "scaled_bracket_row"):
        monkeypatch.setattr(f, oracle, lambda *a: pytest.fail("read a node bracket"))
    with pytest.raises(CapabilityError,
                       match="x2_unlisted: voronovskaya_check needs a polynomial spec"):
        voronovskaya_check(f, F(1, 3), [4, 8, 16])


def test_voronovskaya_checks_the_brackets_of_a_polynomial():
    # the power form reads deg + 1 brackets and refuses an inexact one
    def x2(bracket):
        return FunctionSpec("x2_poly", s_max=None, poly_coeffs=X2.poly_coeffs,
                            deriv_exact=X2.deriv_exact, deriv_float=X2.deriv_float,
                            scaled_bracket=bracket)

    x, ns = F(1, 3), [1, 4, 16]
    assert voronovskaya_check(x2(lambda k, n, bits, c: (k * k * c, n * n, True)), x, ns) \
        == voronovskaya_check(X2, x, ns)
    with pytest.raises(CapabilityError, match="needs exact node values"):
        voronovskaya_check(x2(lambda k, n, bits, c: (k * k * c, n * n, k != 1)), x, ns)
    with pytest.raises(ValueError, match="x2_poly: bracket den must depend only on"):
        voronovskaya_check(x2(lambda k, n, bits, c: (k * k * (k + 1) * c, n * n * (k + 1), True)),
                           x, ns)


def test_voronovskaya_refuses_a_degree_below_one():
    for ns in ([0], [4, 0], [-1]):
        with pytest.raises(ValueError, match="n must be >= 1"):
            voronovskaya_check(X2, F(1, 2), ns)


def test_hypothesis_check_refuses_degrees_below_one():
    # these were skipped without a word
    for n in (0, -3):
        with pytest.raises(ValueError, match="hypothesis_check: n must be >= 1"):
            hypothesis_check(X2, 1, [n, 8])


def test_experiments_take_integral_degrees_only():
    x3 = builtin("monomial(3)")
    rep = voronovskaya_check(x3, F(1, 3), [8.0, np.int64(16)])
    assert rep == voronovskaya_check(x3, F(1, 3), [8, 16])
    assert [type(r.n) for r in rep.rows] == [int, int]
    with pytest.raises(ValueError, match="voronovskaya_check: n must be an integer, got 8.5"):
        voronovskaya_check(x3, F(1, 3), [8.5, 8])
    rep = hypothesis_check(X2, 1, [8.0, np.int64(16)])
    assert rep == hypothesis_check(X2, 1, [8, 16])
    assert [type(n) for n in rep.checked_n] == [int, int]
    with pytest.raises(ValueError, match="hypothesis_check: n must be an integer, got 8.5"):
        hypothesis_check(X2, 1, [8.5])
    assert error_curve(X2, FLOOR, 0, [8.0, np.int64(16)]) == error_curve(X2, FLOOR, 0, [8, 16])
    for call in (lambda: error_curve(X2, FLOOR, 1, [8.5]),
                 lambda: saturation_probe(X2, FLOOR, 0, [8.5, 16]),
                 lambda: saturation_probe(builtin("integer_linear(3,2)"), FLOOR, 0, [8.5, 16]),
                 lambda: error_curve(X2, CLASSIC, 0, [8.5]),
                 lambda: error_curve(builtin("integer_linear(3,2)"), NEAREST, 1, [8.5]),
                 lambda: boundary_interpolation_check(X2, FLOOR, 1, [8.5])):
        with pytest.raises(ValueError, match="build_model: n must be an integer, got 8.5"):
            call()


def test_gap_functions_take_integral_degrees_only():
    h = builtin("holder_interior(1/2)")
    for f in (X2, h):
        for n in (8.0, np.int64(8)):
            assert gap_interval(f, n, FLOOR) == gap_interval(f, 8, FLOOR)
            assert proximity_gap_exact(f, n, NEAREST, [F(1, 3)]) \
                == proximity_gap_exact(f, 8, NEAREST, [F(1, 3)])
            assert proximity_gap(f, n, FLOOR) == proximity_gap(f, 8, FLOOR)
    for who, call in (("gap_interval", lambda: gap_interval(X2, 8.5, FLOOR)),
                      ("proximity_gap_exact",
                       lambda: proximity_gap_exact(X2, 8.5, FLOOR, [F(1, 2)])),
                      ("proximity_gap", lambda: proximity_gap(X2, 8.5, FLOOR))):
        with pytest.raises(ValueError, match=f"{who}: n must be an integer, got 8.5"):
            call()
    with pytest.raises(ValueError, match="proximity_gap: n must be >= 1"):
        proximity_gap(X2, 0, FLOOR)


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
        # the same band with the spec itself: the Taylor path for polynomials
        ratios = [p.error / omega_phi2(f, p.n ** -0.5).value for p in curve]
        assert all(0.05 <= r <= 20.0 for r in ratios)
        assert max(ratios) / min(ratios) < band_cap


def test_saturation_trivial_class():
    rep = saturation_probe(builtin("integer_linear(3,2)"), FLOOR, 0, [8, 16, 32])
    assert rep.verdict is SaturationVerdict.TRIVIAL_CLASS
    assert all(v == 0.0 for _, v in rep.rows)
    assert not rep.inconsistent


@pytest.mark.parametrize("name", ["integer_linear(3,2)", "integer_linear(-2,0)",
                                  "integer_linear(0,5)", "integer_linear(7,-3)"])
def test_trivial_class_check_agrees_with_the_models(name):
    """Every kind reproduces an integer-linear f at every n and tie, the
    theorem the TrivialClass verdict, read off f's coefficients, rests on."""
    f = builtin(name)
    ns = range(1, 65)
    for kind in OperatorKind:
        for tie in TiePolicy:
            for n in ns:
                model = build_model(f, n, kind, tie)
                samples = tuple(f.eval_exact(F(k, n)) for k in range(n + 1))
                assert model.coeffs == samples, (kind, tie, n)
            rep = saturation_probe(f, kind, 0, ns, tie=tie)
            assert rep.verdict is SaturationVerdict.TRIVIAL_CLASS
            assert rep.rows == tuple((n, 0.0) for n in ns)
            assert rep.notes == ("integer-linear function reproduced exactly at every n "
                                 "(coefficient comparison)")


def test_saturation_band_x2():
    for kind in (FLOOR, NEAREST):
        rep = saturation_probe(X2, kind, 0, [64, 128, 256, 512])
        assert rep.verdict is SaturationVerdict.SATURATED_RATE
        assert rep.bounded and rep.band_ratio < 10.0
        for _, v in rep.rows:
            assert v == pytest.approx(0.25, abs=1e-9)


def test_saturation_flags_a_decaying_curve_as_inconsistent(monkeypatch):
    ns = [16, 32, 64, 128]
    monkeypatch.setattr(analysis, "error_curve",
                        lambda f, kind, s, n_list, grid, tie:
                        [analysis.ErrorPoint(n=n, error=n ** -3.0, argmax=0.5) for n in n_list])
    rows = tuple((n, n ** -2.0) for n in ns)
    assert saturation_probe(X2, FLOOR, 0, ns) == analysis.SaturationReport(
        verdict=SaturationVerdict.SUB_SATURATED, rows=rows, band_ratio=4.0, bounded=True,
        vanishing=True, inconsistent=True,
        notes="n*error decays although f is not integer-linear: contradicts "
        "the saturation theorem; flagged for investigation")


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


def test_converse_fits_no_modulus_slope_from_one_t():
    # two equal t give positive moduli at one t only: no slope, no delta, and
    # not the all-zero flag (a fit through them warned and read slope 0.0)
    rep = converse_experiment(X2, FLOOR, 1, [16, 32, 64, 128], [0.5, 0.5])
    assert rep.w1_pairs[0] == rep.w1_pairs[1] and rep.w1_pairs[0][1] > 0.0
    assert rep.slope_w1 is None and rep.delta_w1 is None and not rep.w1_exact_zero
    assert rep.slope_w2 is None and rep.w2_exact_zero  # omega_phi2 of g = 2x is 0
    assert rep.alpha is not None


def test_converse_checks_its_t_list_before_the_error_curve(monkeypatch):
    monkeypatch.setattr(analysis, "error_curve",
                        lambda *a: pytest.fail("measured the error curve"))
    f = builtin("holder_interior(3/2)")
    with pytest.raises(ValueError, match=r"omega1: t=1e-07 is below the finest grid step"):
        converse_experiment(f, FLOOR, 1, [16, 32, 64, 128], [0.1, 1e-7])
    with pytest.raises(ValueError, match=r"omega1: need 0 < t <= 1, got t=2.0"):
        converse_experiment(f, FLOOR, 1, [16, 32, 64, 128], [2.0])


def test_converse_trivial_short_circuit():
    rep = converse_experiment(
        builtin("integer_linear(3,2)"), FLOOR, 1, [16, 32, 64, 128], [0.1, 0.2]
    )
    assert rep == analysis.ConverseReport(
        trivial=True, alpha=None, alpha_residual=None, slope_w2=None, slope_w1=None,
        w2_exact_zero=True, w1_exact_zero=True, delta_w2=None, delta_w1=None,
        error_pairs=(), w2_pairs=(), w1_pairs=(),
        notes="trivial class: errors identically zero, fits skipped")


def test_converse_reports_an_unfittable_error_curve(monkeypatch):
    ns = [16, 32, 64, 128]
    monkeypatch.setattr(analysis, "error_curve",
                        lambda f, kind, s, n_list, grid, tie:
                        [analysis.ErrorPoint(n=n, error=0.0, argmax=0.5) for n in n_list])
    rep = converse_experiment(X2, FLOOR, 1, ns, [0.1, 0.2])
    assert rep == analysis.ConverseReport(
        trivial=False, alpha=None, alpha_residual=None, slope_w2=None, slope_w1=None,
        w2_exact_zero=False, w1_exact_zero=False, delta_w2=None, delta_w1=None,
        error_pairs=tuple((n, 0.0) for n in ns), w2_pairs=(), w1_pairs=(),
        notes="error curve unusable for a fit: fit_rate: need >= 4 positive pairs, "
        "got 0 (4 exact zeros)")


def test_hypothesis_check_frozen_reports():
    ok = hypothesis_check(X2, 1, range(1, 65))
    assert ok.passed and ok.n0 == 1
    assert ("f'(1)", "2", True) in ok.integrality

    bad = hypothesis_check(builtin("monomial(3)"), 2, range(1, 65))
    assert not bad.passed
    assert ("f''(1)", "6", False) in bad.vanishing


def test_hypothesis_check_reports_failed_node_inequalities():
    # f = x - x^2 has the integers f(0) = f(1) = 0, f'(0) = 1 and f'(1) = -1,
    # but f(k/n) = k/n - (k/n)^2 lies below both tangent lines at every node
    f = FunctionSpec(
        "x_minus_x2", s_max=1,
        deriv_exact=lambda s, x: x - x * x if s == 0 else 1 - 2 * x,
        deriv_float=lambda s, xs: xs - xs * xs if s == 0 else 1 - 2 * xs,
        scaled_bracket=lambda k, n, bits, c: ((k * n - k * k) * c, n * n, True),
    )
    rep = hypothesis_check(f, 1, range(2, 9))
    assert rep.passed is False and rep.n0 is None
    assert all(ok for *_, ok in rep.integrality)
    assert [(n, k) for n, k, _ in rep.violations] == [
        (n, k) for n in range(2, 9) for k in (1, n - 1)]
    assert [text for n, _, text in rep.violations if n == 2] == [
        "f(1/2) < f(0) + (k/n) f'(0) = 1/2",
        "f(1/2) < f(1) - (1-k/n) f'(1) = 1/2",
    ]


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
