"""Spans recorded from outside the package, and the per-layer metrics made from them.

A traced pass replaces each layer entry point under the name its calling
module binds (``portdim.bbsolve`` and ``portdim.gld`` import these names
directly), so the package itself is not modified.  Calls that the benchmark
makes into a layer are recorded through :meth:`Tracer.call`.

A span is ``[name, start, end, parent, pass_id, count]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``pass_id`` the timed pass it
belongs to (-1 in set-up) and ``count`` whatever the span's result reports
(simplex pivots, evaluations, draws).  Spans stay in memory and are written
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: entry points replaced in ``portdim.bbsolve``: name -> (span name, count of the result)
BBSOLVE_ENTRY_POINTS = {
    "solve_lp": ("subsolver.lp", lambda r: (r.iterations, int(r.status != "optimal"))),
    "solve_milp": ("subsolver.milp", lambda r: r.iterations),
    "portfolio_moments": ("comoments.scalar", None),
    "moment_derivatives": ("comoments.scalar", None),
    "bisect": ("bbsolve.bisect", None),
    "alpha_floor": ("bbsolve.alpha_floor", None),
    "bound_lp1": ("bbsolve.bound", None),
    "bound_lp2": ("bbsolve.bound", None),
    "bound_milp": ("bbsolve.bound", None),
}

#: entry points replaced in ``portdim.gld``
GLD_ENTRY_POINTS = {
    "batch_kurtosis_and_gradient": ("comoments.batch", None),
    "project_rows": ("gld.project", None),
    "local_descent": ("gld.polish", lambda r: r[2]),
    "portfolio_kurtosis": ("comoments.scalar", None),
    "kurtosis_gradient": ("comoments.scalar", None),
}

#: every per-layer metric, in print order, with its unit
LAYER_METRICS = {
    "retsim.spec_s": "s",
    "retsim.sample_s": "s",
    "retsim.draws_per_s": "1/s",
    "comoments.build_s": "s",
    "comoments.build_rows_per_s": "1/s",
    "comoments.batch.calls": "count",
    "comoments.batch.busy_s": "s",
    "comoments.batch.ms_per_call": "ms",
    "comoments.scalar.calls": "count",
    "comoments.scalar.busy_s": "s",
    "comoments.scalar.us_per_call": "us",
    "subsolver.lp.calls": "count",
    "subsolver.lp.busy_s": "s",
    "subsolver.lp.ms_per_call": "ms",
    "subsolver.lp.pivots": "count",
    "subsolver.lp.pivots_per_call": "count",
    "subsolver.lp.not_optimal": "count",
    "subsolver.milp.calls": "count",
    "subsolver.milp.busy_s": "s",
    "subsolver.milp.pivots": "count",
    "bbsolve.iterations": "count",
    "bbsolve.cells_created": "count",
    "bbsolve.fathom_ratio": "ratio",
    "bbsolve.alpha_s": "s",
    "bbsolve.bound.calls": "count",
    "bbsolve.bound.self_s": "s",
    "bbsolve.self_s": "s",
    "bbsolve.ms_per_iteration": "ms",
    "bbsolve.iter_ms_p50": "ms",
    "bbsolve.iter_ms_p99": "ms",
    "gld.iterations": "count",
    "gld.evaluations": "count",
    "gld.ms_per_iteration": "ms",
    "gld.iter_ms_p50": "ms",
    "gld.iter_ms_p99": "ms",
    "gld.project.busy_s": "s",
    "gld.self_s": "s",
    "gld.polish.busy_s": "s",
    "gld.polish.evaluations": "count",
    "gld.support_size": "count",
    "divmeasure.busy_s": "s",
    "harness.io_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans_per_pass": "count",
}

_NAME, _START, _END, _PARENT, _PASS, _COUNT = range(6)


def _parent_name(spans: list[list], span: list) -> str | None:
    return spans[span[_PARENT]][_NAME] if span[_PARENT] >= 0 else None


def untraced_call(name, fn, *args, count=None, **kwargs):
    """The untraced stand-in for :meth:`Tracer.call`: just the call."""
    return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.pass_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span[_COUNT] = count(result)
        return result

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Replace the layer entry points for the duration of a traced pass.

        An entry point the package no longer has is skipped and listed in
        ``missing``, so its metrics read 0 instead of the run failing.
        """
        from portdim import bbsolve, gld

        saved = []
        try:
            for module, table in ((bbsolve, BBSOLVE_ENTRY_POINTS), (gld, GLD_ENTRY_POINTS)):
                for attr, (name, count) in table.items():
                    original = getattr(module, attr, None)
                    if original is None:
                        label = f"{module.__name__}.{attr}"
                        if label not in self.missing:
                            self.missing.append(label)
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write all spans as gzipped CSV, one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "pass_id", "count"])
            for index, span in enumerate(self.spans):
                writer.writerow([index, *span])


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_times(spans: list[list]) -> np.ndarray:
    """Span duration minus the time of its direct children."""
    duration = np.array([s[_END] - s[_START] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, duration):
        if s[_PARENT] >= 0:
            child[s[_PARENT]] += d
    return duration - child


def _quantile_ms(gaps: list[float], q: float) -> float:
    return 1e3 * float(np.quantile(gaps, q)) if gaps else 0.0


def _iteration_gaps(spans: list[list], indices: list[int], marker: str, parent: str) -> list[float]:
    """Gaps between consecutive starts of ``marker`` spans under the same
    ``parent`` span: one gap per solver iteration."""
    last: dict[int, float] = {}
    gaps = []
    for i in indices:
        s = spans[i]
        if s[_NAME] != marker or _parent_name(spans, s) != parent:
            continue
        if s[_PARENT] in last:
            gaps.append(s[_START] - last[s[_PARENT]])
        last[s[_PARENT]] = s[_START]
    return gaps


def pass_metrics(spans: list[list], self_time: np.ndarray, indices: list[int], results) -> dict:
    """Per-layer metrics of one traced pass.

    ``indices`` are the pass's spans; ``results`` the pass's solver results
    as ``(kind, result)`` pairs, where kind is 'bb' or 'gld'.
    """
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    pivots = {"subsolver.lp": 0, "subsolver.milp": 0}
    not_optimal = 0
    polish_evals = 0
    project_busy = 0.0
    for i in indices:
        s = spans[i]
        name = s[_NAME]
        d = s[_END] - s[_START]
        busy[name] += d
        calls[name] += 1
        own[name] += self_time[i]
        if name == "subsolver.lp":
            pivots[name] += s[_COUNT][0]
            not_optimal += s[_COUNT][1]
        elif name == "subsolver.milp":
            pivots[name] += s[_COUNT]
        elif name == "gld.polish":
            polish_evals += s[_COUNT]
        elif name == "gld.project" and _parent_name(spans, s) == "gld.multistart":
            project_busy += d

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    bb_results = [r for kind, r in results if kind == "bb"]
    gld_results = [r for kind, r in results if kind == "gld"]
    created = sum(r.cells_created for r in bb_results)
    bb_iters = calls["bbsolve.bisect"]
    bb_gaps = _iteration_gaps(spans, indices, "bbsolve.bisect", "bbsolve.solve")
    gld_gaps = _iteration_gaps(spans, indices, "comoments.batch", "gld.multistart")
    return {
        "comoments.batch.calls": calls["comoments.batch"],
        "comoments.batch.busy_s": busy["comoments.batch"],
        "comoments.batch.ms_per_call": ratio(busy["comoments.batch"], calls["comoments.batch"], 1e3),
        "comoments.scalar.calls": calls["comoments.scalar"],
        "comoments.scalar.busy_s": busy["comoments.scalar"],
        "comoments.scalar.us_per_call": ratio(busy["comoments.scalar"], calls["comoments.scalar"], 1e6),
        "subsolver.lp.calls": calls["subsolver.lp"],
        "subsolver.lp.busy_s": busy["subsolver.lp"],
        "subsolver.lp.ms_per_call": ratio(busy["subsolver.lp"], calls["subsolver.lp"], 1e3),
        "subsolver.lp.pivots": pivots["subsolver.lp"],
        "subsolver.lp.pivots_per_call": ratio(pivots["subsolver.lp"], calls["subsolver.lp"]),
        "subsolver.lp.not_optimal": not_optimal,
        "subsolver.milp.calls": calls["subsolver.milp"],
        "subsolver.milp.busy_s": busy["subsolver.milp"],
        "subsolver.milp.pivots": pivots["subsolver.milp"],
        "bbsolve.iterations": bb_iters,
        "bbsolve.cells_created": created,
        "bbsolve.fathom_ratio": ratio(sum(r.cells_fathomed for r in bb_results), created),
        "bbsolve.alpha_s": busy["bbsolve.alpha_floor"],
        "bbsolve.bound.calls": calls["bbsolve.bound"],
        "bbsolve.bound.self_s": own["bbsolve.bound"],
        "bbsolve.self_s": sum(v for k, v in own.items() if k.startswith("bbsolve.")),
        "bbsolve.ms_per_iteration": ratio(busy["bbsolve.solve"], bb_iters, 1e3),
        "bbsolve.iter_ms_p50": _quantile_ms(bb_gaps, 0.5),
        "bbsolve.iter_ms_p99": _quantile_ms(bb_gaps, 0.99),
        "gld.iterations": len(gld_gaps),
        "gld.evaluations": sum(r.evaluations for r in gld_results),
        "gld.ms_per_iteration": ratio(sum(gld_gaps), len(gld_gaps), 1e3),
        "gld.iter_ms_p50": _quantile_ms(gld_gaps, 0.5),
        "gld.iter_ms_p99": _quantile_ms(gld_gaps, 0.99),
        "gld.project.busy_s": project_busy,
        "gld.self_s": own["gld.multistart"],
        "gld.polish.busy_s": busy["gld.polish"],
        "gld.polish.evaluations": polish_evals,
        "gld.support_size": sum(int(np.count_nonzero(r.best_weights.w > 1e-6)) for r in gld_results),
        "divmeasure.busy_s": busy["divmeasure.dimensionality"],
        "harness.io_s": busy["harness.write_moments"] + busy["harness.read_moments"],
        "trace.spans_per_pass": len(indices),
    }


def run_metrics(tracer: Tracer, pass_results: dict[int, list], untraced_s: list[float], traced_s: list[float]) -> dict:
    """Per-layer metrics of a traced run: medians over its traced passes.

    ``retsim`` and ``comoments.build`` are taken over every span of the run,
    set-up included, because on most workloads they run only in set-up.
    """
    spans = tracer.spans
    self_time = _self_times(spans)
    by_pass: dict[int, list[int]] = {p: [] for p in pass_results}
    for i, s in enumerate(spans):
        if s[_PASS] in by_pass:
            by_pass[s[_PASS]].append(i)
    per_pass = [pass_metrics(spans, self_time, by_pass[p], pass_results[p]) for p in sorted(by_pass)]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]} if per_pass else {}

    def median_of(name: str, value) -> float:
        values = [value(s) for s in spans if s[_NAME] == name]
        return statistics.median(values) if values else 0.0

    metrics["retsim.spec_s"] = median_of("retsim.spec", lambda s: s[_END] - s[_START])
    metrics["retsim.sample_s"] = median_of("retsim.sample", lambda s: s[_END] - s[_START])
    metrics["retsim.draws_per_s"] = median_of("retsim.sample", lambda s: s[_COUNT] / (s[_END] - s[_START]))
    metrics["comoments.build_s"] = median_of("comoments.build", lambda s: s[_END] - s[_START])
    metrics["comoments.build_rows_per_s"] = median_of("comoments.build", lambda s: s[_COUNT] / (s[_END] - s[_START]))
    overhead = statistics.median(traced_s) - statistics.median(untraced_s)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / statistics.median(untraced_s)
    return {k: metrics.get(k, 0.0) for k in LAYER_METRICS}
