"""Digest of the CLI's reports over a fixed command set, for diffing two trees.

Not a test module: a script.  It runs each command in process through
bernint.cli.main and prints one line per command,

    <sha256 of stdout + stderr> <exit code> <argv>

with the stderr line "bernint: elapsed ..." removed, so two runs of one tree
print the same lines.  Run it against two trees and diff the outputs:

    PYTHONPATH=/path/to/tree-a/src python tests/report_digest.py > a.txt
    PYTHONPATH=/path/to/tree-b/src python tests/report_digest.py > b.txt
    diff a.txt b.txt

The set: list-fns and the help of every command; coeffs and eval per entry
and kind; rate, error and saturation per entry, kind and s <= min(s_max, 2);
converse at 1 <= s <= min(s_max, 2); modulus and verify per entry;
voronovskaya per polynomial entry; refused input (bad names, flags and
config files); and values past the float range.  Exits 1 when any command
exits 3 (an internal failure), else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile

from bernint.cli import main
from bernint.corpus import entries

_ELAPSED = re.compile(r"^bernint: elapsed [0-9.]+s\n", re.MULTILINE)
_COMMANDS = ("list-fns", "coeffs", "eval", "error", "rate", "modulus", "saturation",
             "converse", "verify", "voronovskaya")
_KINDS = ("classic", "floor", "nearest")


def _config_files(directory: str) -> list:
    """Config files of refused values, written into directory."""
    bad = [{"kind": "round"}, {"tie": "up"}, {"format": "xml"}, {"nn": 1}, {"out": 5},
           {"n": "eight"}, {"n": 2.5}, {"n_factor": True}, {"t": [True]}, {"strict": 1},
           {"x": "2"}]
    paths = []
    for i, values in enumerate(bad):
        path = os.path.join(directory, f"bad{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fn": "monomial(2)", "n": 4, **values}, fh)
        paths.append(path)
    return paths


def command_set(config_dir: str) -> list:
    """The argv lists the digest runs, in order."""
    runs = [["--help"], ["list-fns"], ["list-fns", "--format", "csv"]]
    runs += [[c, "--help"] for c in _COMMANDS]
    for entry in entries():
        f = entry.spec
        fn = ["--fn", f.name]
        top = min(2 if f.s_max is None else f.s_max, 2)
        for kind in _KINDS:
            k = ["--kind", kind]
            runs.append(["coeffs", *fn, *k, "--n", "12"])
            runs.append(["eval", *fn, *k, "--n", "12", "--x", "0,1/3,1/2,1"])
            for s in range(top + 1):
                for command in ("rate", "error", "saturation"):
                    runs.append([command, *fn, *k, "--s", str(s)])
                if s >= 1:
                    runs.append(["converse", *fn, *k, "--s", str(s)])
        runs.append(["modulus", *fn])
        runs.append(["verify", *fn, "--s", str(entry.verify_s)])
        if f.poly_coeffs is not None:
            runs.append(["voronovskaya", *fn])
    runs += [
        # refused input
        ["coeffs", "--fn", "nope", "--n", "4"],
        ["coeffs", "--fn", "monomial(1)", "--n", "4"],
        ["coeffs", "--fn", "holder_interior(1)", "--n", "4"],
        ["coeffs", "--fn", "integer_linear(3)", "--n", "4"],
        ["coeffs", "--fn", "monomial(2)"],
        ["coeffs", "--n", "4"],
        ["coeffs", "--fn", "monomial(2)", "--n", "4", "--kind", "round"],
        ["coeffs", "--fn", "monomial(2)", "--n", "4", "--format", "xml"],
        ["coeffs", "--fn", "monomial(2)", "--n", "0"],
        ["coeffs", "--fn", "monomial(2)", "--n", "20000"],
        ["eval", "--fn", "monomial(2)", "--n", "4"],
        ["eval", "--fn", "monomial(2)", "--n", "4", "--x", "2"],
        ["eval", "--fn", "monomial(2)", "--n", "4", "--s", "5", "--x", "1/2"],
        ["error", "--fn", "abs_shift", "--s", "1"],
        ["error", "--fn", "monomial(2)", "--n-factor", "1"],
        ["error", "--fn", "monomial(2)", "--n-min", "64", "--n-max", "16"],
        ["error", "--fn", "monomial(2)", "--grid", "1"],
        ["modulus", "--fn", "monomial(2)", "--t", "2"],
        ["modulus", "--fn", "monomial(2)", "--t", ""],
        ["voronovskaya", "--fn", "abs_shift"],
        ["voronovskaya", "--fn", "monomial(2)", "--x", "1/3,1/2"],
        ["verify", "--fn", "monomial(3)", "--s", "2", "--strict"],
        ["nope"],
        ["rate", "--fn", "monomial(2)", "--bogus"],
        ["coeffs", "--config", os.path.join(config_dir, "missing.json")],
        *(["coeffs", "--config", path] for path in _config_files(config_dir)),
        # values past the float range
        ["verify", "--fn", "poly_boundary_flat(1100)", "--s", "1", "--n-max", "64"],
        ["voronovskaya", "--fn", "poly_boundary_flat(1100)", "--n-max", "64"],
        ["modulus", "--fn", "monomial(200)", "--s", "180"],
        ["error", "--fn", "monomial(200)", "--s", "180", "--n-max", "64"],
    ]
    return runs


def digest(argv: list, config_dir: str) -> tuple[str, int]:
    """(sha256 of the command's stdout + stderr, exit code).

    The elapsed line is removed, and the temporary config directory is
    read as "<dir>" wherever it is named.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    text = (out.getvalue() + _ELAPSED.sub("", err.getvalue())).replace(config_dir, "<dir>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), rc


def run() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as config_dir:
        for argv in command_set(config_dir):
            sha, rc = digest(argv, config_dir)
            failed += rc == 3
            print(sha, rc, shlex.join(a.replace(config_dir, "<dir>") for a in argv), flush=True)
    if failed:
        print(f"report_digest: {failed} command(s) exited 3", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
