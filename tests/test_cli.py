"""Command-line interface: exit codes, config precedence, report formats,
and atomic output."""

import csv
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from bernint.cli import main


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_json(argv, capsys):
    rc, out = run(argv + ["--format", "json"], capsys)
    return rc, json.loads(out)


# ---------------------------------------------------------------------------
# exit codes


def test_list_fns_ok(capsys):
    rc, doc = run_json(["list-fns"], capsys)
    assert rc == 0
    names = [row["name"] for row in doc["functions"]]
    assert "monomial(2)" in names and "abs_shift" in names


def test_unknown_function_exits_2(capsys):
    rc, _ = run(["coeffs", "--fn", "nope", "--n", "4"], capsys)
    assert rc == 2


def test_grid_above_cap_exits_2_without_allocating(capsys):
    from bernint.analysis import _MAX_GRID_POINTS

    tracemalloc.start()
    try:
        rc = main(["rate", "--fn", "monomial(2)", "--grid", str(_MAX_GRID_POINTS + 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 1 << 20  # one grid array alone would be 2 MB
    assert "points must lie in" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--n", "--n-max"])
def test_degree_above_cap_exits_2_without_allocating(flag, capsys):
    from bernint.cli import _MAX_DEGREE

    tracemalloc.start()
    try:
        rc = main(["coeffs", "--fn", "monomial(2)", flag, str(_MAX_DEGREE + 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 1 << 20  # the binomial row at n = 2^14 alone is about 17 MB
    field = flag[2:].replace("-", "_")
    assert f"config field '{field}': must be <= {_MAX_DEGREE}" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this Python")
def test_exact_values_past_the_int_digit_limit_are_printed(capsys):
    from bernint import OperatorKind, build_model, builtin, evaluate_exact

    limit = sys.get_int_max_str_digits()
    argv = ["eval", "--fn", "monomial(2)", "--kind", "floor", "--n", "512"]
    rc, doc = run_json(argv + ["--x", "1/1000000000"], capsys)
    assert rc == 0
    value = evaluate_exact(build_model(builtin("monomial(2)"), 512, OperatorKind.FLOOR_INT),
                           Fraction(1, 10**9))
    sys.set_int_max_str_digits(0)
    try:
        want = f"{value.numerator}/{value.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 4300
    assert doc["rows"][0]["exact"] == want
    assert sys.get_int_max_str_digits() == limit  # restored once the report is out
    # input parsing keeps the limit: a point with 5000 digits is refused
    rc, out = run(argv + ["--x", "1/1" + "0" * 5000], capsys)
    assert (rc, out) == (2, "")


def test_missing_required_field_exits_2(capsys):
    for argv, field in (
        (["coeffs", "--fn", "monomial(2)"], "n"),  # no --n
        (["modulus", "--fn", "monomial(2)", "--t", ","], "t"),  # an empty t list
        (["converse", "--fn", "monomial(2)", "--t", ","], "t"),
        (["voronovskaya", "--fn", "monomial(3)", "--x", ","], "x"),  # an empty x list
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bernint: config field '{field}':" in captured.err


def test_capability_error_exits_2(capsys):
    rc, _ = run(
        ["error", "--fn", "abs_shift", "--s", "1", "--n-min", "4", "--n-max", "8"], capsys
    )
    assert rc == 2


def test_n_factor_too_close_to_one_exits_2_at_once():
    # about 2e11 steps to get from 16 to 20; the sweep is refused up front
    cmd = [
        sys.executable, "-m", "bernint.cli", "verify", "--fn", "monomial(2)",
        "--n-min", "16", "--n-max", "20", "--n-factor", "1.000000000001",
    ]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
    assert res.returncode == 2
    assert "config field 'n_factor'" in res.stderr


@pytest.mark.parametrize("factor", ["inf", "nan", "1"])
def test_n_factor_must_be_finite_and_above_one(factor, capsys):
    rc = main(["coeffs", "--fn", "monomial(2)", "--n", "4", "--n-factor", factor])
    assert rc == 2
    assert "config field 'n_factor'" in capsys.readouterr().err


# tuple(range(16, 113)) is the dense head of the 1.01 sweep; the tail skips
_SWEEP_1_01 = tuple(range(16, 113)) + (
    114, 115, 116, 117, 118, 119, 121, 122, 123, 124, 126, 127, 128, 129, 131,
    132, 133, 135, 136, 137, 139, 140, 141, 143, 144, 146, 147, 149, 150, 152,
    153, 155, 156, 158, 159, 161, 163, 164, 166, 167, 169, 171, 173, 174, 176,
    178, 180, 181, 183, 185, 187, 189, 191, 193, 194, 196, 198, 200, 202, 204,
    206, 208, 211, 213, 215, 217, 219, 221, 224, 226, 228, 230, 233, 235, 237,
    240, 242, 244, 247, 249, 252, 254, 257, 259, 262, 265, 267, 270, 273, 275,
    278, 281, 284, 287, 289, 292, 295, 298, 301, 304, 307, 310, 313, 317, 320,
    323, 326, 329, 333, 336, 339, 343, 346, 350, 353, 357, 360, 364, 368, 371,
    375, 379, 383, 386, 390, 394, 398, 402, 406, 410, 414, 418, 423, 427, 431,
    435, 440, 444, 449, 453, 458, 462, 467, 471, 476, 481, 486, 491, 495, 500,
    505, 510,
)


@pytest.mark.parametrize("factor, want", [
    ("1.5", (16, 24, 36, 54, 81, 122, 182, 273, 410)),
    ("1.01", _SWEEP_1_01),
])
def test_accepted_n_factor_keeps_its_sweep(factor, want, capsys):
    rc, doc = run_json(
        ["coeffs", "--fn", "monomial(2)", "--n", "4",
         "--n-min", "16", "--n-max", "512", "--n-factor", factor],
        capsys,
    )
    assert rc == 0
    assert tuple(doc["config"]["n_list"]) == want


def test_malformed_x_exits_2(capsys):
    rc, _ = run(["eval", "--fn", "monomial(2)", "--n", "4", "--x", "1/0"], capsys)
    assert rc == 2


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_verify_failure_is_reported_but_exit_0_without_strict(capsys):
    rc, doc = run_json(
        ["verify", "--fn", "monomial(3)", "--s", "2", "--n-min", "2", "--n-max", "8"],
        capsys,
    )
    assert rc == 0
    assert doc["passed"] is False
    assert {"check": "f''(1)", "value": "6", "ok": False} in doc["vanishing"]


def test_verify_failure_exits_1_with_strict(capsys):
    rc, _ = run(
        ["verify", "--fn", "monomial(3)", "--s", "2", "--n-min", "2", "--n-max", "8", "--strict"],
        capsys,
    )
    assert rc == 1


def test_verify_pass_exits_0_with_strict(capsys):
    rc, doc = run_json(
        ["verify", "--fn", "monomial(2)", "--s", "1", "--n-min", "1", "--n-max", "16", "--strict"],
        capsys,
    )
    assert rc == 0
    assert doc["passed"] is True and doc["n0"] == 1


# ---------------------------------------------------------------------------
# frozen outputs


def test_coeffs_frozen_rows(capsys):
    rc, doc = run_json(
        ["coeffs", "--fn", "monomial(2)", "--kind", "nearest", "--tie", "half_up", "--n", "2"],
        capsys,
    )
    assert rc == 0
    mid = doc["rows"][1]
    assert mid["raw"] == "1/2" and mid["rounded"] == "1" and mid["coeff"] == "1/2"


def test_eval_exact_rationals(capsys):
    rc, doc = run_json(
        ["eval", "--fn", "monomial(2)", "--kind", "floor", "--n", "2", "--x", "1/2,3/4"],
        capsys,
    )
    assert rc == 0
    assert doc["rows"][0] == {"x": "1/2", "exact": "1/4", "value": 0.25}
    assert doc["rows"][1]["exact"] == "9/16"


def test_rate_fit_values(capsys):
    rc, doc = run_json(
        ["rate", "--fn", "monomial(2)", "--n-min", "16", "--n-max", "128"], capsys
    )
    assert rc == 0
    assert abs(doc["fit"]["alpha"] - 1.0) < 1e-6
    assert abs(doc["fit"]["C"] - 0.25) < 1e-6


def test_rate_insufficient_data_is_annotated_not_fatal(capsys):
    rc, doc = run_json(
        ["rate", "--fn", "monomial(2)", "--n-min", "16", "--n-max", "64"], capsys
    )
    assert rc == 0
    assert doc["fit"] is None and "note" in doc


def test_coeffs_floor_drops_half(capsys):
    rc, doc = run_json(
        ["coeffs", "--fn", "monomial(2)", "--kind", "floor", "--n", "2"], capsys
    )
    assert rc == 0
    assert [r["raw"] for r in doc["rows"]] == ["0", "1/2", "1"]
    assert [r["rounded"] for r in doc["rows"]] == ["0", "0", "1"]


def test_error_sweep_rows(capsys):
    rc, doc = run_json(
        ["error", "--fn", "monomial(2)", "--n-min", "16", "--n-max", "64"], capsys
    )
    assert rc == 0
    errs = [row["error"] for row in doc["rows"]]
    assert errs == sorted(errs, reverse=True)
    assert abs(errs[0] - 1.0 / 64) < 1e-12  # exact law 1/(4n)


def test_voronovskaya_exact_strings(capsys):
    rc, doc = run_json(
        ["voronovskaya", "--fn", "monomial(3)", "--n-min", "8", "--n-max", "32"], capsys
    )
    assert rc == 0
    assert doc["limit"] == "3/8" and doc["x"] == "1/2"
    assert all(row["scaled_gap"] == "3/8" and row["residual"] == "0" for row in doc["rows"])


def test_converse_reports_slopes(capsys):
    rc, doc = run_json(
        ["converse", "--fn", "monomial(2)", "--kind", "nearest", "--s", "1",
         "--n-min", "16", "--n-max", "128"],
        capsys,
    )
    assert rc == 0
    assert doc["omega_phi2_exact_zero"] is True  # (x^2)' is linear
    assert abs(doc["slope_omega1"] - 1.0) < 0.05
    assert 0.9 < doc["alpha"] < 1.05


def test_converse_reports_the_order_it_runs(capsys):
    # converse needs s >= 1 and runs s = 1 by default; its config says so
    argv = ["converse", "--fn", "monomial(2)", "--n-min", "16", "--n-max", "64"]
    rc, doc = run_json(argv, capsys)
    assert rc == 0 and doc["config"]["s"] == 1
    assert abs(doc["errors"][0]["error"] - 1 / 16) < 1e-12  # |B_n(x^2)' - 2x| = 1/n
    rc, doc_s1 = run_json(argv + ["--s", "1"], capsys)
    assert rc == 0 and doc_s1 == doc


def test_converse_moduli_use_its_grid(capsys):
    # converse's omega rows are modulus's rows on the same --grid, and a
    # coarse grid gives other values than the default one
    fn = ["--fn", "poly_boundary_flat(2)", "--s", "1"]
    converse = ["converse", *fn, "--n-min", "16", "--n-max", "128"]
    rc, coarse = run_json(converse + ["--grid", "65"], capsys)
    assert rc == 0 and coarse["config"]["grid_points"] == 65
    rc, modulus = run_json(["modulus", *fn, "--grid", "65"], capsys)
    assert rc == 0
    rows = [(r["t"], r["omega1"], r["omega_phi2"]) for r in modulus["rows"]]
    got = [(a["t"], a["value"], b["value"])
           for a, b in zip(coarse["omega1"], coarse["omega_phi2"], strict=True)]
    assert got == rows and len(rows) == 4
    rc, default = run_json(converse, capsys)
    assert rc == 0
    for key in ("omega1", "omega_phi2"):
        assert all(a["value"] != b["value"] for a, b in zip(coarse[key], default[key]))


def test_saturation_trivial_json(capsys):
    rc, doc = run_json(
        ["saturation", "--fn", "integer_linear(3,2)", "--kind", "floor",
         "--n-min", "16", "--n-max", "64"],
        capsys,
    )
    assert rc == 0
    assert doc["verdict"] == "TrivialClass"
    assert all(row["n_error"] == 0.0 for row in doc["rows"])


def test_modulus_csv_shape(capsys):
    rc, out = run(
        ["modulus", "--fn", "monomial(2)", "--t", "0.1,0.2", "--format", "csv"], capsys
    )
    assert rc == 0
    lines = out.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert any(l.startswith("# fn=monomial(2)") for l in comments)
    assert data[0] == "t,omega1,omega_phi2"
    assert len(data) == 3
    t, w1, w2 = data[1].split(",")
    assert float(t) == 0.1 and 0.0 < float(w2) <= 0.005


# ---------------------------------------------------------------------------
# config file and precedence


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fn": "monomial(2)", "kind": "floor", "n": 8}))
    rc, doc = run_json(["coeffs", "--config", str(cfg)], capsys)
    assert rc == 0
    assert doc["config"]["n"] == 8 and doc["config"]["kind"] == "floor"


def test_grid_defaults_come_from_analysis(capsys):
    from bernint.analysis import DEFAULT_GRID

    rc, doc = run_json(["coeffs", "--fn", "monomial(2)", "--n", "4"], capsys)
    assert rc == 0
    assert doc["config"]["grid_points"] == DEFAULT_GRID.points
    assert doc["config"]["refine"] == DEFAULT_GRID.refine


def test_shared_parser_keeps_no_options_between_calls(capsys):
    from bernint.analysis import DEFAULT_GRID
    from bernint.cli import build_parser

    assert build_parser() is build_parser()
    sweep = ["error", "--fn", "monomial(2)", "--n-min", "16", "--n-max", "32"]
    rc, doc = run_json(sweep + ["--strict", "--kind", "floor", "--grid", "65"], capsys)
    assert rc == 0
    assert doc["config"]["strict"] is True and doc["config"]["kind"] == "floor"
    assert doc["config"]["grid_points"] == 65
    rc, doc = run_json(sweep, capsys)
    assert rc == 0
    assert doc["config"]["strict"] is False and doc["config"]["kind"] == "classic"
    assert doc["config"]["grid_points"] == DEFAULT_GRID.points


def test_cli_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fn": "monomial(2)", "n": 8}))
    rc, doc = run_json(["coeffs", "--config", str(cfg), "--n", "4"], capsys)
    assert rc == 0
    assert doc["config"]["n"] == 4
    assert doc["n"] == 4


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fn": "monomial(2)", "nn": 1}))
    rc, out = run(["coeffs", "--config", str(cfg), "--n", "4"], capsys)
    assert rc == 2


def test_bad_config_value_names_the_field(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fn": "monomial(2)", "n": "eight"}))
    rc = main(["coeffs", "--config", str(cfg)])
    assert rc == 2


# ---------------------------------------------------------------------------
# output files


def test_out_writes_file_atomically(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("stale")
    rc = main(
        ["eval", "--fn", "monomial(2)", "--n", "4", "--x", "1/2", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    # classic model: B_4(x^2) = x^2 + x(1-x)/4, so 1/4 + 1/16 at the midpoint
    assert doc["rows"][0]["exact"] == "5/16"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "report.json"]
    assert leftovers == []


def test_two_runs_are_byte_identical(tmp_path):
    """Same config -> byte-identical report, including through a subprocess."""
    args = [
        "modulus", "--fn", "monomial(2)", "--t", "0.05,0.1,0.2",
        "--format", "csv",
    ]
    outs = []
    for i in range(2):
        path = tmp_path / f"r{i}.csv"
        cmd = [sys.executable, "-m", "bernint.cli"] + args + ["--out", str(path)]
        res = subprocess.run(cmd, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_out_file_gets_the_umask_mode(tmp_path):
    out = tmp_path / "r.json"
    old = os.umask(0o022)
    try:
        rc = main(["coeffs", "--fn", "monomial(2)", "--n", "4", "--out", str(out)])
    finally:
        os.umask(old)
    assert rc == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


@pytest.mark.parametrize("where", ["missing-dir", "is-a-dir"])
def test_unwritable_out_exits_2_and_leaves_no_temp_file(where, tmp_path, capsys):
    if where == "missing-dir":
        out = tmp_path / "missing" / "r.json"
    else:
        out = tmp_path / "taken"
        out.mkdir()
    rc = main(["coeffs", "--fn", "monomial(2)", "--n", "4", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"bernint: config field 'out': cannot write {out}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if where == "missing-dir" else ["taken"]
    )


# ---------------------------------------------------------------------------
# config value types


@pytest.mark.parametrize(
    "values, field",
    [
        ({"strict": "false"}, "strict"),
        ({"strict": 1}, "strict"),
        ({"strict": None}, "strict"),
        ({"s": 1.9}, "s"),
        ({"s": True}, "s"),
        ({"n": 4.5}, "n"),
        ({"n": True}, "n"),
        ({"n_min": 16.5}, "n_min"),
        ({"n_min": True}, "n_min"),
        ({"n_max": 64.5}, "n_max"),
        ({"grid": 4097.9}, "grid"),
        ({"refine": 2.5}, "refine"),
        ({"refine": float("inf")}, "refine"),
        ({"grid": float("nan")}, "grid"),
        # integral values are accepted, whatever their JSON spelling
        ({"n": 4.0, "grid": 4097.0, "refine": 6.0, "s": 0.0, "strict": False}, None),
        ({"n_min": 2.0, "n_max": 8.0, "strict": True}, None),
        # numeric fields and t items are JSON numbers, never strings or bools
        ({"n": " 5 "}, "n"),
        ({"s": "1"}, "s"),
        ({"n_factor": "2"}, "n_factor"),
        ({"n_factor": True}, "n_factor"),
        ({"grid": "4097"}, "grid"),
        ({"t": [True, 0.2]}, "t"),
        ({"t": [None]}, "t"),
        ({"t": [[0.1]]}, "t"),
        ({"n_factor": 3, "t": [0.1, 1]}, None),
    ],
)
def test_config_file_values_are_not_coerced(values, field, tmp_path, capsys):
    def report(cfg_values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"fn": "monomial(2)", "n": 4, **cfg_values}))
        rc = main(["coeffs", "--config", str(cfg)])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    rc, out, err = report(values)
    if field is not None:
        assert rc == 2 and out == ""
        assert f"bernint: config field '{field}': must be" in err
        return
    integral = {k: v if isinstance(v, (bool, list)) else int(v) for k, v in values.items()}
    assert (rc, out) == report(integral)[:2]
    assert rc == 0


@pytest.mark.parametrize(
    "value, field",
    [
        (["floor"], "kind"),
        (None, "kind"),
        (["x"], "tie"),
        ({"half": "up"}, "tie"),
        (["csv"], "format"),
        (3, "format"),
        (5, "out"),
        (["report.json"], "out"),
        (False, "out"),
        (5, "fn"),
        (["monomial(2)"], "fn"),
    ],
)
def test_config_string_fields_refuse_other_types(value, field, tmp_path, capsys):
    # a list used to crash the membership tests, and a number the path
    # handling, with exit 3 and a traceback
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fn": "monomial(2)", "n": 3, field: value}))
    rc = main(["coeffs", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert f"bernint: config field '{field}': must be a string, got {json.dumps(value)}" \
        in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == [cfg]


# ---------------------------------------------------------------------------
# coeffs past the float range


@pytest.mark.parametrize(
    "name, n",
    [
        # C(1100, 550) is about 1e330: C(n, k) itself is past the float range
        ("holder_interior(1/2)", 1100),
        # C(1029, 514) is about 1.4e308, and f(k/n) * C(n, k) overflows to inf
        ("holder_interior(1/2,5,0)", 1029),
    ],
)
def test_coeffs_raw_past_the_float_range_is_exact(name, n, capsys):
    from math import comb

    from bernint import builtin

    f = builtin(name)
    rc, doc = run_json(["coeffs", "--fn", name, "--n", str(n)], capsys)
    assert rc == 0
    overflowed = 0
    for row in doc["rows"]:
        k = row["k"]
        if row["raw_exact"]:
            want = f.eval_exact(Fraction(k, n)) * comb(n, k)
            assert Fraction(row["raw"]) == want
            continue
        want = Fraction(float(f.eval_float([k / n])[0])) * comb(n, k)
        got = Fraction(row["raw"])
        assert abs(got - want) <= abs(want) * Fraction(1, 10**15), k
        overflowed += abs(want) > sys.float_info.max
    assert overflowed > 10


# ---------------------------------------------------------------------------
# one row list per report: CSV and JSON agree


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return format(v, ".17g") if isinstance(v, float) else str(v)


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--fn", "holder_interior(1/2)", "--n", "6"],
        ["eval", "--fn", "holder_interior(1/2)", "--n", "6", "--x", "0,1/3,0.7,1"],
        ["error", "--fn", "monomial(2)", "--kind", "floor", "--n-max", "64"],
        ["modulus", "--fn", "abs_shift", "--t", "0.1,0.2"],
        ["saturation", "--fn", "monomial(3)", "--n-max", "64"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_table_is_the_json_rows(argv, capsys):
    rc, doc = run_json(argv, capsys)
    assert rc == 0
    rc, out = run(argv + ["--format", "csv"], capsys)
    assert rc == 0
    table = list(csv.reader(l for l in out.splitlines() if not l.startswith("#")))
    rows = doc["rows"]
    assert sorted(table[0]) == list(rows[0])  # JSON keys are sorted
    assert table[1:] == [[_csv_cell(row[key]) for key in table[0]] for row in rows]
