#!/usr/bin/env python3
"""bernint benchmark: three closed-loop workloads, checked outputs, JSON result.

Run from the root of a checkout (no install needed; ``src/`` is put on the
path):

    python3 perfbench/run.py --workload sweep_default --seed 1 --seconds 45 --trace 0

``--trace 0`` (the end-to-end run) measures whole passes of the workload for
about ``--seconds`` seconds of op time (it stops at the nearest pass boundary)
and reports setup_s, ops_per_s, op_p50_ms, op_p90_ms and peak_rss_mb.
``--trace 1`` runs one pass of the workload, each op both traced and untraced,
and reports the per-layer metrics (see tracer.py); its op list does not depend on
timing, so its counts repeat exactly for a seed.  Every op's output is checked
outside the timed region.  The last stdout line is the JSON result; the exit
code is 1 if any op failed its check, 2 if ``src/bernint`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"

# np.polyfit calls LAPACK; one thread per pool keeps the closed loop single-core.
THREAD_PINS = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

WORKLOAD_NAMES = ("sweep_default", "exact_enclosure", "interactive_small")
# fresh-interpreter starts whose median is setup_s (this process is one of them)
SETUP_STARTS = 7
# The host's speed drifts by up to 1.5x over minutes.  Between ops the run
# times the workload's speed probe (workloads.PROBES) once per PROBE_EVERY_S of
# op time and reports timings at the speed at which the probe takes its
# reference time.  Set-up is scaled by the Fraction probe, timed five times
# right after each start.
PROBE_EVERY_S = 0.5
SETUP_PROBES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full run record (env, samples) as JSON here")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment(bernint, numpy) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "L2": caches.get("L2"),
        "L3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bernint": getattr(bernint, "__version__", None),
        "kernel_backend": getattr(bernint, "KERNEL_BACKEND", None),
        "BERNINT_BACKEND": os.environ.get("BERNINT_BACKEND"),
        "thread_pins": THREAD_PINS,
    }


class Runner:
    """Runs ops in a closed loop and keeps the tallies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.failures = []

    def execute(self, op, timed_call):
        """Run ``op`` through ``timed_call`` (returns (output, seconds)), then check it."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out, seconds = timed_call(op)
        except Exception as e:  # an op that raises is a failed op, not a crash
            self._fail(op, f"raised {type(e).__name__}: {e}")
            return None, time.perf_counter() - t0
        ok, rel, detail = op.check(out)
        if ok:
            self.max_rel_err = max(self.max_rel_err, rel)
        else:
            self._fail(op, detail)
        return out, seconds

    def _fail(self, op, detail):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.label}: {detail}")


def time_probe(probe) -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def plain_call(op):
    t0 = time.perf_counter()
    out = op.run()
    return out, time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bernint" / "__init__.py").is_file():
        print(f"perfbench: no bernint sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))

    t_setup = time.perf_counter()
    import bernint
    import workloads

    warmup = workloads.warmup_op(args.workload, random.Random(f"warmup-{args.seed}"))
    warm_out, _ = plain_call(warmup)
    setup_s = time.perf_counter() - t_setup
    probe, probe_ref_s = workloads.FRACTION_PROBE
    setup_ref_s = setup_s * probe_ref_s / statistics.median(
        time_probe(probe) for _ in range(SETUP_PROBES))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    if not Path(bernint.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported bernint from {bernint.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy

    env = environment(bernint, numpy)
    runner = Runner()
    runner.execute(warmup, lambda op: (warm_out, 0.0))
    stream = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    if args.trace:
        record = traced_run(args, stream, runner, bernint)
    else:
        record = untraced_run(args, stream, runner, (setup_s, setup_ref_s),
                              workloads.PROBES[args.workload])
    return report(args, env, runner, record)


def untraced_run(args, stream, runner, setup_main, speed_probe):
    setup_raw, setup = [setup_main[0]], [setup_main[1]]
    for _ in range(SETUP_STARTS - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if child.returncode != 0:
            print(child.stderr, file=sys.stderr)
            raise SystemExit("perfbench: set-up start failed")
        start = json.loads(child.stdout.strip().splitlines()[-1])
        setup_raw.append(start["setup_s"])
        setup.append(start["setup_ref_s"])

    probe, probe_ref_s = speed_probe
    latencies = []
    probes = []
    busy = 0.0
    # whole passes, so that every run measures the same op mix; the run ends
    # at the pass boundary nearest to --seconds of op time
    for passes, ops in enumerate(stream, 1):
        for op in ops:
            while len(probes) * PROBE_EVERY_S <= busy:
                probes.append(time_probe(probe))
            _, seconds = runner.execute(op, plain_call)
            latencies.append(seconds)
            busy += seconds
        if busy * (1 + 0.5 / passes) >= args.seconds:
            break
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    probe_median = statistics.median(probes)
    raw = {"setup_s": statistics.median(setup_raw), "ops_per_s": len(latencies) / busy,
           "op_p50_ms": statistics.median(latencies) * 1e3, "op_p90_ms": p90 * 1e3}
    to_ref = probe_ref_s / probe_median  # op time at the reference speed per op time here
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (raw["ops_per_s"] / to_ref, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * to_ref, "ms"),
        "op_p90_ms": (raw["op_p90_ms"] * to_ref, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setup_s": len(setup), "ops_per_s": len(latencies),
               "op_p50_ms": len(latencies), "op_p90_ms": len(latencies), "peak_rss_mb": 1}
    return {"metrics": metrics, "samples": samples, "setup_samples_s": setup,
            "setup_raw_samples_s": setup_raw, "busy_s": busy, "passes": passes,
            "raw_metrics": raw, "probe_median_s": probe_median, "probes": len(probes)}


def traced_run(args, stream, runner, bernint):
    from tracer import Tracer

    ops = next(stream)
    cache_info = getattr(bernint.binomial_row, "cache_info", None)
    cache = {"hits": 0, "misses": 0}
    tracer = Tracer()

    def traced_call(op):
        before = cache_info() if cache_info else None
        out, seconds = tracer.run_op(op.label, op.run)
        if cache_info:
            after = cache_info()
            cache["hits"] += after.hits - before.hits
            cache["misses"] += after.misses - before.misses
        return out, seconds

    tracer.install()
    traced = untraced = 0.0
    report_bytes = 0
    try:
        # Each op runs traced and untraced (wrappers idle), in alternating
        # order so that the warm second run does not always favour one side.
        for i, op in enumerate(ops):
            if i % 2:
                untraced += runner.execute(op, plain_call)[1]
            out, seconds = runner.execute(op, traced_call)
            traced += seconds
            report_bytes += len(getattr(out, "out", ""))
            if not i % 2:
                untraced += runner.execute(op, plain_call)[1]
        wrapper_cost = tracer.wrapper_cost_s()
    finally:
        tracer.uninstall()

    s = tracer.summary()
    c = tracer.counts

    def span(name, field):
        return s.get(name, {}).get(field, 0)

    ev_busy = span("operators.evaluate", "busy_s")
    dp = c["evaluate.degree_points"]
    m = {
        "operators.evaluate.calls": (span("operators.evaluate", "calls"), "count"),
        "operators.evaluate.points": (c["evaluate.points"], "count"),
        "operators.evaluate.degree_points": (dp, "count"),
        "operators.evaluate.busy_s": (ev_busy, "s"),
        "operators.evaluate.ns_per_degree_point": (ev_busy / dp * 1e9 if dp else 0.0, "ns"),
        "operators.evaluate.small_call_p50_us": (tracer.small_call_p50_us(), "us"),
        "operators.proximity_gap_exact.calls":
            (span("operators.proximity_gap_exact", "calls"), "count"),
        "operators.proximity_gap_exact.points": (c["proximity_gap_exact.points"], "count"),
        "operators.proximity_gap_exact.busy_s":
            (span("operators.proximity_gap_exact", "busy_s"), "s"),
        "operators.proximity_gap_exact.self_s":
            (span("operators.proximity_gap_exact", "self_s"), "s"),
        "operators.evaluate_exact.calls": (span("operators.evaluate_exact", "calls"), "count"),
        "operators.evaluate_exact.busy_s": (span("operators.evaluate_exact", "busy_s"), "s"),
        "operators.build_model.calls": (span("operators.build_model", "calls"), "count"),
        "operators.build_model.coeffs": (c["build_model.coeffs"], "count"),
        "operators.build_model.busy_s": (span("operators.build_model", "busy_s"), "s"),
        "operators.build_model.self_s": (span("operators.build_model", "self_s"), "s"),
        "operators.derivative_model.calls":
            (span("operators.derivative_model", "calls"), "count"),
        "operators.derivative_model.busy_s":
            (span("operators.derivative_model", "busy_s"), "s"),
        "exact.round_with_escalation.calls":
            (span("exact.round_with_escalation", "calls"), "count"),
        "exact.round_with_escalation.busy_s":
            (span("exact.round_with_escalation", "busy_s"), "s"),
        "corpus.eval_bounds.calls": (span("corpus.eval_bounds", "calls"), "count"),
        "corpus.eval_bounds.escalated": (c["eval_bounds.escalated"], "count"),
        "corpus.eval_bounds.max_bits": (c["eval_bounds.max_bits"], "bits"),
        "corpus.eval_bounds.busy_s": (span("corpus.eval_bounds", "busy_s"), "s"),
        "exact.binomial_row.hits": (cache["hits"], "count"),
        "exact.binomial_row.misses": (cache["misses"], "count"),
        "exact.binomial_row.currsize": (cache_info().currsize if cache_info else 0, "count"),
        "analysis.sup_norm.calls": (span("analysis.sup_norm", "calls"), "count"),
        "analysis.sup_norm.busy_s": (span("analysis.sup_norm", "busy_s"), "s"),
        "analysis.sup_norm.self_s": (span("analysis.sup_norm", "self_s"), "s"),
        "analysis.omega1_sweep.calls": (span("analysis.omega1_sweep", "calls"), "count"),
        "analysis.omega1_sweep.busy_s": (span("analysis.omega1_sweep", "busy_s"), "s"),
        "analysis.omega_phi2.calls": (span("analysis.omega_phi2", "calls"), "count"),
        "analysis.omega_phi2.busy_s": (span("analysis.omega_phi2", "busy_s"), "s"),
        "cli.main.calls": (span("cli.main", "calls"), "count"),
        "cli.main.busy_s": (span("cli.main", "busy_s"), "s"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "trace.ops": (len(ops), "count"),
        "trace.traced_s": (traced, "s"),
        # the difference of the two op times is mostly machine drift, so the
        # overhead is the span count times the wrapper cost measured here
        "trace.overhead_s": (len(tracer.spans) * wrapper_cost, "s"),
    }
    span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(span_file)
    return {"metrics": m, "samples": {k: len(ops) for k in m}, "untraced_s": untraced,
            "traced_minus_untraced_s": traced - untraced, "wrapper_cost_s": wrapper_cost,
            "span_file": str(span_file.relative_to(ROOT)), "spans": len(tracer.spans)}


def report(args, env, runner, record) -> int:
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in record["metrics"].items():
        print(f"{name:44s} {value:>16.6g} {unit:6s} (n={record['samples'][name]})")
    failed_ratio = runner.failed / runner.attempted
    print(f"{'failed_ratio':44s} {failed_ratio:>16.6g} {'':6s} "
          f"({runner.failed} of {runner.attempted} ops)")
    print(f"{'max_rel_err':44s} {runner.max_rel_err:>16.6g}")
    for name, value in record.get("raw_metrics", {}).items():
        print(f"{'raw.' + name:44s} {value:>16.6g}        (as timed, before scaling)")
    if "probe_median_s" in record:
        print(f"{'speed_probe_median_s':44s} {record['probe_median_s']:>16.6g} s      "
              f"(n={record['probes']})")
    if "traced_minus_untraced_s" in record:
        print(f"{'trace.traced_minus_untraced_s':44s} "
              f"{record['traced_minus_untraced_s']:>16.6g} s      (drift-dominated)")
    for line in runner.failures:
        print("# FAILED " + line)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }
    if args.out:
        full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "env": env, "failed_ratio": failed_ratio,
                "max_rel_err": runner.max_rel_err, "failures": runner.failures,
                **{k: v for k, v in record.items() if k != "metrics"}, "result": result}
        Path(args.out).write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
