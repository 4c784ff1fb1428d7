"""Command-line front end: run experiments, emit machine-readable reports.

    bernint <command> [flags]

Commands: list-fns, coeffs, eval, error, rate, modulus, saturation,
converse, verify, voronovskaya.  Reports go to stdout or --out PATH
(written atomically), as JSON (nested) or CSV (flat table with the
effective config in leading comment lines).

Config precedence: CLI flags > --config JSON file > built-in defaults; the
fully resolved config is embedded in every report, which together with the
fixed grids makes reports byte-identical across runs (timing is printed to
stderr only, never into the report).

Exit codes: 0 success; 1 hypothesis/assertion failure (report-level
failures flip the exit code only under --strict); 2 usage/validation
error, or a value past the float range; 3 internal failures.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import json
import math
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from bernint import __version__
from bernint.analysis import (
    DEFAULT_GRID,
    GridConfig,
    InsufficientData,
    converse_experiment,
    error_curve,
    fit_rate,
    hypothesis_check,
    omega1_sweep,
    omega_phi2,
    saturation_probe,
    voronovskaya_check,
)
from bernint.corpus import CapabilityError, builtin, entries
from bernint.exact import TiePolicy, binomial_row
from bernint.operators import (
    HypothesisViolation,
    OperatorKind,
    build_model,
    derivative_model,
    evaluate,
    evaluate_exact,
)

_KINDS = {k.value: k for k in OperatorKind}
_TIES = {t.value: t for t in TiePolicy}

# Most multiplications a geometric n sweep may take: a factor this close to 1
# would otherwise spin for hours before the first degree is run.
_MAX_N_STEPS = 1 << 20
# Largest degree --n or --n-max may ask for.  The binomial row alone holds
# about n^2/2 bits: coeffs at n = 2^14 takes a few seconds and under 200 MB,
# at n = 2^16 over 10 s and 1.6 GB.
_MAX_DEGREE = 1 << 14

# Every config key once: its default, its flag's type (int, float, str, bool
# for a bare switch, list for a comma-separated list that a --config file may
# also give as a JSON list) or its list of choices, and its help text.  The
# flag is --key with "-" for "_", in this order.
_FIELDS = {
    "fn": (None, str, "corpus function name, e.g. 'monomial(2)'"),
    "kind": ("classic", sorted(_KINDS), "operator kind"),
    "tie": ("half_away", sorted(_TIES), "nearest-int tie policy"),
    "s": (0, int, "derivative order (default 0)"),
    "n": (None, int, "single degree (coeffs/eval)"),
    "x": (None, list, "comma-separated rational points"),
    "n_min": (16, int, "smallest degree in sweeps"),
    "n_max": (512, int, "largest degree in sweeps"),
    "n_factor": (2.0, float, "geometric step of the n sweep"),
    "grid": (DEFAULT_GRID.points, int, f"sup-search grid points (default {DEFAULT_GRID.points})"),
    "refine": (DEFAULT_GRID.refine, int, f"refinement rounds (default {DEFAULT_GRID.refine})"),
    "t": ("0.05,0.1,0.2,0.4", list, "comma-separated modulus steps"),
    "out": (None, str, "output path (atomic write); default stdout"),
    "format": ("json", ["json", "csv"], "report format"),
    "strict": (False, bool, "exit 1 when a report-level hypothesis/assertion check fails"),
}


class ConfigError(Exception):
    """Invalid configuration; ``field`` names the offending key."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (defaults applied, values parsed)."""

    command: str
    fn: Optional[str]
    kind: OperatorKind
    tie: TiePolicy
    s: int
    n: Optional[int]
    x: Optional[tuple]  # of strings, exact point literals; None when unset
    n_list: tuple
    grid: GridConfig
    t_list: tuple
    out: Optional[str]
    format: str
    strict: bool

    def echo(self) -> dict:
        """The effective config as embedded in reports."""
        return {
            "fn": self.fn,
            "kind": self.kind.value,
            "tie": self.tie.value,
            "s": self.s,
            "n": self.n,
            "x": list(self.x) if self.x else None,
            "n_list": list(self.n_list),
            "grid_points": self.grid.points,
            "grid_distribution": "clustered",
            "refine": self.grid.refine,
            "t": list(self.t_list),
            "format": self.format,
            "strict": self.strict,
        }


def _geometric_n_list(n_min: int, n_max: int, factor: float) -> tuple:
    ns = []
    v = float(n_min)
    while round(v) <= n_max:
        n = int(round(v))
        if not ns or n > ns[-1]:
            ns.append(n)
        v *= factor
    return tuple(ns)


def _is_number(v) -> bool:
    """Whether v is a JSON number: an int or float, and not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_list(value, field: str, conv):
    """The parsed items of a list or comma-separated string; None stays None.

    An unset field (None) is kept apart from a given but empty list (()).
    """
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = [p.strip() for p in str(value).split(",") if p.strip()]
    try:
        return tuple(conv(p) for p in items)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise ConfigError(field, f"cannot parse {value!r}: {e}") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file keys over defaults, then validate."""
    merged = {key: default for key, (default, _, _) in _FIELDS.items()}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as e:
            raise ConfigError("config", f"cannot read {cfg_path}: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"bad JSON in {cfg_path}: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config", "config file must hold a JSON object")
        for key, val in file_cfg.items():
            if key not in _FIELDS:
                raise ConfigError(key, "unknown config key")
            merged[key] = val
    for key in _FIELDS:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val

    # a key with no default may be null; a list or dict would not even hash
    # for the membership tests of the choices
    for key, (default, kind, _) in _FIELDS.items():
        v = merged[key]
        if kind is str or isinstance(kind, list):
            if not (isinstance(v, str) or (v is None and default is None)):
                raise ConfigError(key, f"must be a string, got {json.dumps(v)}")
    for key, (_, kind, _) in _FIELDS.items():
        if isinstance(kind, list) and merged[key] not in kind:
            raise ConfigError(key, "must be " + (" or ".join(kind) if len(kind) == 2
                                                 else f"one of {kind}"))
    for key, (default, kind, _) in _FIELDS.items():
        v = merged[key]
        if kind not in (int, float) or (v is None and default is None):
            continue
        if not _is_number(v):
            raise ConfigError(key, f"must be a number, got {json.dumps(v)}")
        if kind is int and isinstance(v, float) and not v.is_integer():
            raise ConfigError(key, f"must be an integer, got {json.dumps(v)}")
    if isinstance(merged["t"], list) and not all(map(_is_number, merged["t"])):
        raise ConfigError("t", f"must be a list of numbers, got {json.dumps(merged['t'])}")
    if not isinstance(merged["strict"], bool):
        raise ConfigError("strict", "must be true or false")
    s = int(merged["s"])
    if s < 0:
        raise ConfigError("s", "must be >= 0")
    n = merged["n"]
    if n is not None:
        n = int(n)
        if n < 1:
            raise ConfigError("n", "must be >= 1")
        if n > _MAX_DEGREE:
            raise ConfigError("n", f"must be <= {_MAX_DEGREE}")
    n_min, n_max = int(merged["n_min"]), int(merged["n_max"])
    try:
        n_factor = float(merged["n_factor"])
    except OverflowError:  # an integer past the float range
        n_factor = math.inf
    if n_min < 1:
        raise ConfigError("n_min", "must be >= 1")
    if n_max < n_min:
        raise ConfigError("n_max", f"must be >= n_min = {n_min}")
    if n_max > _MAX_DEGREE:
        raise ConfigError("n_max", f"must be <= {_MAX_DEGREE}")
    if not 1.0 < n_factor < math.inf:
        raise ConfigError("n_factor", "must be finite and > 1")
    if math.log(n_max / n_min) / math.log(n_factor) > _MAX_N_STEPS:
        raise ConfigError("n_factor", f"too close to 1: the sweep {n_min}..{n_max} "
                          f"would take more than {_MAX_N_STEPS} steps")
    try:
        grid = GridConfig(points=int(merged["grid"]), refine=int(merged["refine"]))
    except (TypeError, ValueError) as e:
        raise ConfigError("grid/refine", str(e)) from None
    t_list = _parse_list(merged["t"], "t", float) or ()
    for t in t_list:
        if not (0.0 < t <= 1.0):
            raise ConfigError("t", f"steps must lie in (0, 1], got {t}")
    x = _parse_list(merged["x"], "x", str)
    for pt in x or ():
        try:
            xv = Fraction(pt)
        except (ValueError, ZeroDivisionError):
            raise ConfigError("x", f"cannot parse point {pt!r}") from None
        if not 0 <= xv <= 1:
            raise ConfigError("x", f"points must lie in [0, 1], got {pt}")
    return RunConfig(
        command=args.command,
        fn=merged["fn"],
        kind=_KINDS[merged["kind"]],
        tie=_TIES[merged["tie"]],
        s=s,
        n=n,
        x=x,
        n_list=_geometric_n_list(n_min, n_max, n_factor),
        grid=grid,
        t_list=t_list,
        out=merged["out"],
        format=merged["format"],
        strict=merged["strict"],
    )


# ---------------------------------------------------------------------------
# rendering helpers


def _f17(v) -> str:
    return format(float(v), ".17g")


def _f17_exact(q: Fraction) -> str:
    """q rounded to 17 significant digits in _f17's form, at any magnitude."""
    v = decimal.Context(prec=17).divide(q.numerator, q.denominator)
    return format(v, ".17g")


def _frac(q) -> str:
    """A Fraction or int q as "num/den", or "num" when integral, exactly.

    Exact values can run past Python's limit on the digits of an int-to-str
    conversion (4300 by default); the limit is lifted for this conversion
    alone, so the parsing of input keeps it.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python >= 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _render_csv(report: dict, header: list, rows: list) -> str:
    buf = io.StringIO()
    for key in sorted(report["config"]):
        buf.write(f"# {key}={report['config'][key]}\n")
    buf.write(f"# command={report['command']} version={report['version']}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            ["" if c is None else (_f17(c) if isinstance(c, float) else c) for c in row]
        )
    return buf.getvalue()


def _table(rows: list) -> tuple[list, list]:
    """CSV header and rows of a non-empty list of row dicts with equal keys."""
    return list(rows[0]), [list(row.values()) for row in rows]


def _atomic_write(path: str, text: str):
    """Write text to path through a temp file in the same directory.

    The file gets the mode a plain open() would give it (0o666 less the
    umask), not mkstemp's 0o600.
    """
    umask = os.umask(0)
    os.umask(umask)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bernint-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(cfg: RunConfig, report: dict, header: list, rows: list):
    text = (
        _render_json(report)
        if cfg.format == "json"
        else _render_csv(report, header, rows)
    )
    if cfg.out:
        try:
            _atomic_write(cfg.out, text)
        except OSError as e:
            raise ConfigError("out", f"cannot write {cfg.out}: {e}") from None
    else:
        sys.stdout.write(text)


def _base_report(cfg: RunConfig) -> dict:
    return {"command": cfg.command, "version": __version__, "config": cfg.echo()}


def _need_fn(cfg: RunConfig):
    if not cfg.fn:
        raise ConfigError("fn", "this command requires --fn")
    return builtin(cfg.fn)


# ---------------------------------------------------------------------------
# command handlers: return (report, csv_header, csv_rows, failed_flag)


def _cmd_list_fns(cfg: RunConfig):
    rows = [
        {
            "name": entry.spec.name,
            "s_max": entry.spec.s_max,
            "integer_endpoints": entry.spec.integer_endpoints,
            "integer_linear": entry.spec.integer_linear,
            "kink": entry.spec.kink,
            "verify_s": entry.verify_s,
            "experiments": list(entry.experiments),
            "doc": entry.spec.doc,
        }
        for entry in entries()
    ]
    report = _base_report(cfg)
    report["functions"] = rows
    table = _table([{**row, "experiments": "+".join(row["experiments"])} for row in rows])
    return report, *table, False


def _cmd_coeffs(cfg: RunConfig):
    f = _need_fn(cfg)
    if cfg.n is None:
        raise ConfigError("n", "coeffs requires --n")
    model = build_model(f, cfg.n, cfg.kind, cfg.tie)
    row_c = binomial_row(cfg.n)
    scaled = model.scaled  # an integer kind's rounded integers, over D = 1
    rows = []
    for k in range(cfg.n + 1):
        node = Fraction(k, cfg.n)
        raw = f.eval_exact(node)
        if raw is not None:
            raw_str, raw_exact = _frac(raw * row_c[k]), True
        else:
            v = float(f.eval_float([float(node)])[0])
            try:
                raw = v * row_c[k]
            except OverflowError:  # C(n, k) itself is past the float range
                raw = math.inf
            raw_str = _f17_exact(Fraction(v) * row_c[k]) if math.isinf(raw) else _f17(raw)
            raw_exact = False
        coeff = model.coeffs[k]
        rows.append(
            {
                "k": k,
                "node": _frac(node),
                "raw": raw_str,
                "raw_exact": raw_exact,
                "rounded": None if cfg.kind is OperatorKind.CLASSIC else _frac(scaled[k]),
                "coeff": _frac(coeff),
                "coeff_float": float(coeff),
            }
        )
    report = _base_report(cfg)
    report["n"] = cfg.n
    report["coeffs_exact"] = model.coeffs_exact
    report["rows"] = rows
    return report, *_table(rows), False


def _cmd_eval(cfg: RunConfig):
    f = _need_fn(cfg)
    if cfg.n is None:
        raise ConfigError("n", "eval requires --n")
    if not cfg.x:
        raise ConfigError("x", "eval requires --x (comma-separated points)")
    if cfg.s > cfg.n:
        raise ConfigError("s", f"derivative order {cfg.s} exceeds degree {cfg.n}")
    model = derivative_model(build_model(f, cfg.n, cfg.kind, cfg.tie), cfg.s)
    rows = []
    for literal in cfg.x:
        xq = Fraction(literal)
        val = evaluate(model, float(xq))
        exact = _frac(evaluate_exact(model, xq)) if model.coeffs_exact else None
        rows.append({"x": literal, "value": val, "exact": exact})
    report = _base_report(cfg)
    report["rows"] = rows
    return report, *_table(rows), False


def _cmd_error(cfg: RunConfig):
    f = _need_fn(cfg)
    curve = error_curve(f, cfg.kind, cfg.s, cfg.n_list, cfg.grid, cfg.tie)
    rows = [{"n": p.n, "error": p.error, "argmax": p.argmax} for p in curve]
    report = _base_report(cfg)
    report["rows"] = rows
    return report, *_table(rows), False


def _cmd_rate(cfg: RunConfig):
    f = _need_fn(cfg)
    curve = error_curve(f, cfg.kind, cfg.s, cfg.n_list, cfg.grid, cfg.tie)
    pairs = [(p.n, p.error) for p in curve]
    report = _base_report(cfg)
    report["errors"] = [{"n": n, "error": e} for n, e in pairs]
    try:
        fit = fit_rate(pairs)
    except InsufficientData as e:
        report["fit"] = None
        report["note"] = str(e)
        table = [[n, e_, None, None, None, False] for n, e_ in pairs]
        header = ["n", "error", "log_n", "log_error", "fitted_log_error", "used_in_fit"]
        return report, header, table, False
    report["fit"] = {
        "alpha": fit.alpha,
        "C": fit.C,
        "residual": fit.residual,
        "pairs_used": [{"n": n, "error": e} for n, e in fit.pairs],
        "zero_pairs": [{"n": n, "error": e} for n, e in fit.zero_pairs],
    }
    used = {n for n, _ in fit.pairs}
    table = []
    for n, e in pairs:
        if e > 0.0:
            ln, le = math.log(n), math.log(e)
            fitted = math.log(fit.C) - fit.alpha * ln
            table.append([n, e, ln, le, fitted, n in used])
        else:
            table.append([n, e, None, None, None, False])
    header = ["n", "error", "log_n", "log_error", "fitted_log_error", "used_in_fit"]
    return report, header, table, False


def _cmd_modulus(cfg: RunConfig):
    f = _need_fn(cfg)
    if not cfg.t_list:
        raise ConfigError("t", "modulus requires a non-empty --t list")
    f.require(cfg.s)
    target = f if cfg.s == 0 else (lambda xs: f.deriv_float(cfg.s, xs))
    w1 = omega1_sweep(target, cfg.t_list, points=cfg.grid.points)
    w2 = [omega_phi2(f, t, cfg.grid, cfg.s) for t in cfg.t_list]
    rows = [
        {"t": t, "omega1": a.value, "omega_phi2": b.value}
        for t, a, b in zip(cfg.t_list, w1, w2)
    ]
    report = _base_report(cfg)
    report["rows"] = rows
    return report, *_table(rows), False


def _cmd_saturation(cfg: RunConfig):
    f = _need_fn(cfg)
    rep = saturation_probe(f, cfg.kind, cfg.s, cfg.n_list, cfg.grid, cfg.tie)
    report = _base_report(cfg)
    report["verdict"] = rep.verdict.value
    rows = [{"n": n, "n_error": v} for n, v in rep.rows]
    report["rows"] = rows
    finite = rep.band_ratio is not None and math.isfinite(rep.band_ratio)
    report["band_ratio"] = rep.band_ratio if finite else None
    report["bounded"] = rep.bounded
    report["vanishing"] = rep.vanishing
    report["inconsistent"] = rep.inconsistent
    report["notes"] = rep.notes
    return report, *_table(rows), rep.inconsistent


def _cmd_converse(cfg: RunConfig):
    f = _need_fn(cfg)
    if not cfg.t_list:
        raise ConfigError("t", "converse requires a non-empty --t list")
    cfg = replace(cfg, s=max(cfg.s, 1))  # the order run, and reported
    rep = converse_experiment(f, cfg.kind, cfg.s, cfg.n_list, cfg.t_list, cfg.grid, cfg.tie)
    report = _base_report(cfg)
    report["trivial"] = rep.trivial
    report["alpha"] = rep.alpha
    report["alpha_residual"] = rep.alpha_residual
    report["slope_omega_phi2"] = rep.slope_w2
    report["slope_omega1"] = rep.slope_w1
    report["omega_phi2_exact_zero"] = rep.w2_exact_zero
    report["omega1_exact_zero"] = rep.w1_exact_zero
    report["delta_omega_phi2"] = rep.delta_w2
    report["delta_omega1"] = rep.delta_w1
    report["errors"] = [{"n": n, "error": e} for n, e in rep.error_pairs]
    report["omega_phi2"] = [{"t": t, "value": v} for t, v in rep.w2_pairs]
    report["omega1"] = [{"t": t, "value": v} for t, v in rep.w1_pairs]
    report["notes"] = rep.notes
    table = (
        [["error", float(n), e] for n, e in rep.error_pairs]
        + [["omega_phi2", t, v] for t, v in rep.w2_pairs]
        + [["omega1", t, v] for t, v in rep.w1_pairs]
    )
    return report, ["series", "abscissa", "value"], table, False


def _cmd_verify(cfg: RunConfig):
    f = _need_fn(cfg)
    rep = hypothesis_check(f, cfg.s, range(cfg.n_list[0], cfg.n_list[-1] + 1))
    report = _base_report(cfg)
    report["passed"] = rep.passed
    report["n0"] = rep.n0
    report["integrality"] = [
        {"check": lbl, "value": val, "ok": ok} for lbl, val, ok in rep.integrality
    ]
    report["vanishing"] = [
        {"check": lbl, "value": val, "ok": ok} for lbl, val, ok in rep.vanishing
    ]
    report["violations"] = [
        {"n": n, "k": k, "detail": msg} for n, k, msg in rep.violations
    ]
    table = (
        [["integrality", f"{lbl}={val}", ok] for lbl, val, ok in rep.integrality]
        + [["vanishing", f"{lbl}={val}", ok] for lbl, val, ok in rep.vanishing]
        + [["inequality", f"n={n} k={k}: {msg}", False] for n, k, msg in rep.violations]
        + [["n0", "" if rep.n0 is None else str(rep.n0), rep.n0 is not None]]
    )
    return report, ["check", "detail", "ok"], table, not rep.passed


def _cmd_voronovskaya(cfg: RunConfig):
    f = _need_fn(cfg)
    if cfg.x is not None and len(cfg.x) != 1:
        raise ConfigError("x", "voronovskaya takes a single point")
    literal = cfg.x[0] if cfg.x else "1/2"
    rep = voronovskaya_check(f, Fraction(literal), cfg.n_list)
    report = _base_report(cfg)
    report["x"] = _frac(rep.x)
    report["limit"] = _frac(rep.limit)
    report["limit_float"] = float(rep.limit)
    rows = [
        {
            "n": r.n,
            "scaled_gap": _frac(r.scaled_gap),
            "scaled_gap_float": float(r.scaled_gap),
            "residual": _frac(r.residual),
            "residual_float": float(r.residual),
        }
        for r in rep.rows
    ]
    report["rows"] = rows
    return report, *_table(rows), False


# Every command once: its handler and its help text, in the order --help lists them.
_COMMANDS = {
    "list-fns": (_cmd_list_fns, "list the built-in function corpus"),
    "coeffs": (_cmd_coeffs, "dump model coefficients (exact rationals and floats)"),
    "eval": (_cmd_eval, "evaluate a model (or its derivative) at points"),
    "error": (_cmd_error, "sup-norm error sweep over n"),
    "rate": (_cmd_rate, "fit the error decay exponent"),
    "modulus": (_cmd_modulus, "moduli of smoothness sweep over t"),
    "saturation": (_cmd_saturation, "classify n*error decay (trivial/saturated/sub-saturated)"),
    "converse": (_cmd_converse, "compare error exponent with modulus slopes"),
    "verify": (_cmd_verify, "check the endpoint/inequality hypotheses"),
    "voronovskaya": (_cmd_voronovskaya, "exact pointwise Voronovskaya convergence"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bernint argument parser, built once per process.

    Parsing reads it without changing it: every call starts from its
    defaults, so main can share one parser between calls.
    """
    shared = argparse.ArgumentParser(add_help=False)
    for key, (_, kind, help_text) in _FIELDS.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            shared.add_argument(flag, action="store_const", const=True, help=help_text)
        elif isinstance(kind, list):
            shared.add_argument(flag, choices=kind, help=help_text)
        else:
            shared.add_argument(flag, type=str if kind is list else kind, help=help_text)
    shared.add_argument("--config", help="JSON config file (snake_case keys)")

    parser = argparse.ArgumentParser(
        prog="bernint",
        description="Bernstein operators with integer coefficients: "
        "exact models and desk-scale experiments.",
    )
    parser.add_argument("--version", action="version", version=f"bernint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[shared], help=help_text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if e.code is not None else 0
        return 2 if code not in (0,) else 0
    started = time.monotonic()
    try:
        cfg = resolve_config(args)
        report, header, rows, failed = _COMMANDS[cfg.command][0](cfg)
        _emit(cfg, report, header, rows)
    except (ConfigError, LookupError, ValueError) as e:
        print(f"bernint: {e}", file=sys.stderr)
        return 2
    except CapabilityError as e:
        print(f"bernint: capability error ({e})", file=sys.stderr)
        return 2
    except HypothesisViolation as e:
        print(f"bernint: hypothesis violation ({e})", file=sys.stderr)
        return 1
    except OverflowError as e:  # a value past the float range, e.g. a huge derivative
        print(f"bernint: value past the float range ({e})", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    finally:
        elapsed = time.monotonic() - started
        print(f"bernint: elapsed {elapsed:.3f}s", file=sys.stderr)
    return 1 if (failed and cfg.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
