"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``install`` wraps the
public functions named in ``TRACED`` and puts each wrapper at every place a
public ``bernint`` module holds the function.  ``operators``, ``analysis``
and ``cli`` import names like ``evaluate`` and ``build_model`` with
``from ... import``, so patching only the defining module would miss most
calls.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (None for an op's root span) and ``op`` numbers the benchmark
op the span belongs to.  Self time is a span's duration minus the time its
direct children cover.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

import numpy as np

START_BITS = 128  # corpus.eval_bounds calls above this precision count as escalated

# (defining module, attribute, span name); a missing attribute is skipped so
# the same benchmark runs on versions that removed or renamed one of them.
TRACED = (
    ("bernint.cli", "main", "cli.main"),
    ("bernint.analysis", "sup_norm", "analysis.sup_norm"),
    ("bernint.analysis", "omega1_sweep", "analysis.omega1_sweep"),
    ("bernint.analysis", "omega_phi2", "analysis.omega_phi2"),
    ("bernint.operators", "proximity_gap_exact", "operators.proximity_gap_exact"),
    ("bernint.operators", "build_model", "operators.build_model"),
    ("bernint.operators", "derivative_model", "operators.derivative_model"),
    ("bernint.operators", "evaluate_exact", "operators.evaluate_exact"),
    ("bernint.operators", "evaluate", "operators.evaluate"),
    ("bernint.exact", "round_with_escalation", "exact.round_with_escalation"),
    ("bernint.corpus", "FunctionSpec.eval_bounds", "corpus.eval_bounds"),
)

SMALL_CALL_POINTS = 2  # evaluate calls this small are mostly sup-search refinement


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.active = False
        self.counts = dict.fromkeys(
            ("evaluate.points", "evaluate.degree_points", "proximity_gap_exact.points",
             "build_model.coeffs", "eval_bounds.escalated", "eval_bounds.max_bits"), 0)
        self.small_call_s = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op])
        self.stack.append(idx)
        return idx

    def _exit(self, idx, t0, t1):
        self.stack.pop()
        span = self.spans[idx]
        span[1], span[2] = t0, t1

    def run_op(self, label, fn):
        """Run one benchmark op under a root span; returns (result, seconds)."""
        self.op += 1
        self.active = True
        idx = self._enter("op " + label)
        t0 = time.perf_counter()
        try:
            return fn(), time.perf_counter() - t0
        finally:
            self._exit(idx, t0, time.perf_counter())
            self.active = False

    def _count(self, name, args, kwargs, seconds):
        c = self.counts
        if name == "operators.evaluate":
            points = int(np.size(_arg(args, kwargs, 1, "x")))
            c["evaluate.points"] += points
            c["evaluate.degree_points"] += points * _arg(args, kwargs, 0, "model").n
            if points <= SMALL_CALL_POINTS:
                self.small_call_s.append(seconds)
        elif name == "operators.proximity_gap_exact":
            c["proximity_gap_exact.points"] += len(_arg(args, kwargs, 3, "xs"))
        elif name == "operators.build_model":
            c["build_model.coeffs"] += _arg(args, kwargs, 1, "n") + 1
        elif name == "corpus.eval_bounds":
            bits = _arg(args, kwargs, 2, "bits")  # args[0] is the FunctionSpec
            c["eval_bounds.escalated"] += bits > START_BITS
            c["eval_bounds.max_bits"] = max(c["eval_bounds.max_bits"], bits)

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._enter(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._exit(idx, t0, t1)
                tracer._count(name, args, kwargs, t1 - t0)

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every TRACED function wherever a public bernint module holds it."""
        for modname, attr, name in TRACED:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = owner.__dict__.get(leaf)
            if orig is None:
                continue
            wrapper = self.wrap(name, orig)
            sites = [owner] if path else [
                m for key, m in list(sys.modules.items())
                if (key == "bernint" or key.startswith("bernint."))
                and not any(p.startswith("_") for p in key.split("."))
            ]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is orig:
                        setattr(site, key, wrapper)
                        self._patched.append((site, key, orig))

    def uninstall(self):
        for site, key, orig in reversed(self._patched):
            setattr(site, key, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy seconds (outermost spans) and self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (t1 - t0) - child[i]
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                s["busy_s"] += t1 - t0
        return out

    def wrapper_cost_s(self, calls=20000, repeats=5) -> float:
        """Median time one active wrapper adds to a call, measured on a no-op.

        The per-name counting in ``_count`` is left out, so this is a lower
        bound of the cost of a real span.
        """

        def bare(*args, **kwargs):
            return None

        wrapped = self.wrap("calibrate", bare)
        saved = self.spans, self.stack, self.active
        costs = []
        try:
            self.active = True
            for _ in range(repeats):
                self.spans, self.stack = [], []
                t0 = time.perf_counter()
                for _ in range(calls):
                    wrapped(0, x=0)
                t1 = time.perf_counter()
                for _ in range(calls):
                    bare(0, x=0)
                t2 = time.perf_counter()
                costs.append(((t1 - t0) - (t2 - t1)) / calls)
        finally:
            self.spans, self.stack, self.active = saved
        return statistics.median(costs)

    def small_call_p50_us(self) -> float:
        return statistics.median(self.small_call_s) * 1e6 if self.small_call_s else 0.0

    def write_jsonl(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": op, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
