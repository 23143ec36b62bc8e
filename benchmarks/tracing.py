"""Spans around the calls into each layer of eigenpath, recorded from the
benchmark's own files, and the per-layer metrics computed from them.

Each public function is wrapped where it is looked up: ``eigenpath.cli``
imports ``taylor_expand_all`` and friends by name, ``eigen_all`` is imported
separately by ``taylor``, ``chebyshev`` and ``analysis``, and ``taylor_rhs``
is called through the globals of both ``taylor`` and ``chebyshev``. The
problem's ``eval_at`` / ``derivs_at`` are wrapped on the problem the CLI
builds. Nothing under ``src/`` changes; the wrappers are installed for a
traced op and removed after it.

A span is (name, start, end, parent, op). Spans stay in memory and are
written once, when the run ends.
"""

import dataclasses
import functools
import gzip
import time

from collections import defaultdict

import eigenpath.analysis as analysis
import eigenpath.chebyshev as chebyshev
import eigenpath.cli as cli
import eigenpath.series as series
import eigenpath.taylor as taylor

from workloads import SAMPLE_METHODS

# (module, attribute looked up there, span name). The span name is the
# layer that defines the function, so eigen_all reads "linalg" wherever it
# is called from.
TARGETS = (
    (cli, "taylor_expand_all", "taylor.taylor_expand_all"),
    (cli, "cheb_expand_all", "chebyshev.cheb_expand_all"),
    (cli, "eigenpair_to_dict", "series.eigenpair_to_dict"),
    (cli, "load_eigenpair", "series.load_eigenpair"),
    (cli, "error_report", "analysis.error_report"),
    (cli, "rayleigh_errors", "analysis.rayleigh_errors"),
    (cli, "sample_eigenvalues", "analysis.sample_eigenvalues"),
    (cli, "eigpath_eval", "analysis.eigpath_eval"),
    (cli, "write_error_report_csv", "analysis.write_error_report_csv"),
    (cli, "write_samples_csv", "analysis.write_samples_csv"),
    (cli, "write_histogram_csv", "analysis.write_histogram_csv"),
    (cli, "write_sampling_summary_csv", "analysis.write_sampling_summary_csv"),
    (taylor, "eigen_all", "linalg.eigen_all"),
    (taylor, "build_bordered", "linalg.build_bordered"),
    (taylor, "solve_bordered", "linalg.solve_bordered"),
    (taylor, "solve_bordered_reduced", "linalg.solve_bordered_reduced"),
    (taylor, "taylor_rhs", "taylor.taylor_rhs"),
    (chebyshev, "eigen_all", "linalg.eigen_all"),
    (chebyshev, "build_bordered", "linalg.build_bordered"),
    (chebyshev, "solve_bordered", "linalg.solve_bordered"),
    (chebyshev, "taylor_rhs", "taylor.taylor_rhs"),
    (chebyshev, "project_matrix_coeffs", "chebyshev.project_matrix_coeffs"),
    (chebyshev, "warm_start", "chebyshev.warm_start"),
    (chebyshev, "cheb_residual", "chebyshev.cheb_residual"),
    (chebyshev, "cheb_jacobian", "chebyshev.cheb_jacobian"),
    (chebyshev, "newton_refine", "chebyshev.newton_refine"),
    (chebyshev, "eval_cheb_u", "series.eval_cheb_u"),
    (analysis, "eigen_all", "linalg.eigen_all"),
    (analysis, "eigpath_eval", "analysis.eigpath_eval"),
    (analysis, "rayleigh_refine", "analysis.rayleigh_refine"),
    (analysis, "greedy_match", "analysis.greedy_match"),
    (analysis, "eval_taylor", "series.eval_taylor"),
    (analysis, "eval_cheb_u", "series.eval_cheb_u"),
    (analysis, "horner", "series.horner"),
    (analysis, "clenshaw_u", "series.clenshaw_u"),
    (series, "horner", "series.horner"),
    (series, "clenshaw_u", "series.clenshaw_u"),
)

CLI_SPAN = "cli.main"
SAMPLE_SPAN = "analysis.sample_eigenvalues"
GRID_SPANS = ("analysis.error_report", "analysis.rayleigh_errors")
REPORT_SPAN = "analysis.error_report"    # its grid is the report's grid

# name -> unit, in the order printed; every name is reported on every
# workload (zero where the workload never reaches that function).
LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "series.eigenpair_to_dict.calls": "count",
    "series.eigenpair_to_dict.s": "s",
    "series.load_eigenpair.calls": "count",
    "series.load_eigenpair.s": "s",
    "series.eval_taylor.calls": "count",
    "series.eval_taylor.s": "s",
    "series.horner.calls": "count",
    "problems.derivs_at.calls": "count",
    "problems.derivs_at.s": "s",
    "problems.eval_at.calls": "count",
    "problems.eval_at.s": "s",
    "linalg.eigen_all.calls": "count",
    "linalg.eigen_all.s": "s",
    "linalg.eigen_all.calls_per_grid_point": "count/point",
    "linalg.build_bordered.calls": "count",
    "linalg.build_bordered.s": "s",
    "linalg.solve_bordered.calls": "count",
    "linalg.solve_bordered.s": "s",
    "linalg.solve_bordered_reduced.calls": "count",
    "linalg.solve_bordered_reduced.s": "s",
    "taylor.taylor_expand_all.calls": "count",
    "taylor.taylor_expand_all.self_s": "s",
    "taylor.taylor_rhs.calls": "count",
    "taylor.taylor_rhs.s": "s",
    "chebyshev.project_matrix_coeffs.s": "s",
    "chebyshev.warm_start.calls": "count",
    "chebyshev.warm_start.s": "s",
    "chebyshev.cheb_residual.calls": "count",
    "chebyshev.cheb_residual.s": "s",
    "chebyshev.cheb_jacobian.calls": "count",
    "chebyshev.cheb_jacobian.s": "s",
    "chebyshev.newton_refine.self_s": "s",
    "chebyshev.newton_iterations": "count",
    "chebyshev.newton_iters_per_pair": "count/pair",
    **{
        f"analysis.sample_eigenvalues.{method}.{kind}": unit
        for method in SAMPLE_METHODS
        for kind, unit in (("s", "s"), ("samples_per_s", "1/s"))
    },
    "analysis.error_report.s": "s",
    "analysis.rayleigh_errors.s": "s",
    "analysis.eigpath_eval.calls": "count",
    "analysis.greedy_match.calls": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []              # [name, start, end, parent, op]
        self.counters = defaultdict(int)
        self.op = -1
        self._stack = []
        self._saved = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def call(self, name, func, *args, **kwargs):
        """Run func inside a span called name."""
        index = self._open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, name, func, on_call=None):
        """Wrap func so each call is a span; ``on_call(args)`` may rename it."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name if on_call is None else on_call(args, kwargs)
            return self.call(label, func, *args, **kwargs)

        return traced

    def _sample_span(self, args, kwargs):
        method = args[5] if len(args) > 5 else kwargs["method"]
        count = args[3] if len(args) > 3 else kwargs["count"]
        self.counters[f"{SAMPLE_SPAN}.{method}.samples"] += count
        return f"{SAMPLE_SPAN}.{method}"

    def _report_span(self, name):
        def on_call(args, kwargs):
            grid = args[2] if len(args) > 2 else kwargs["grid"]
            self.counters[f"{name}.grid_points"] += len(grid)
            return name

        return on_call

    def _traced_builtin_problem(self, build):
        def builtin_problem(name, n):
            problem = self.call("problems.builtin_problem", build, name, n)
            return dataclasses.replace(
                problem,
                eval_at=self.wrap("problems.eval_at", problem.eval_at),
                derivs_at=self.wrap("problems.derivs_at", problem.derivs_at),
            )

        return builtin_problem

    def install(self, op):
        """Wrap every target for the op numbered ``op``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.op = op
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            on_call = None
            if name == SAMPLE_SPAN:
                on_call = self._sample_span
            elif name == REPORT_SPAN:
                on_call = self._report_span(name)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, on_call))
        self._saved.append((cli, "builtin_problem", cli.builtin_problem))
        cli.builtin_problem = self._traced_builtin_problem(cli.builtin_problem)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path, origin):
        """Write spans as gzip CSV, times in seconds since ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index,name,start_s,end_s,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{index},{name},{start - origin!r},{end - origin!r},{parent},{op}\n")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_times(spans):
    """Per span: (inclusive, self, counted).

    Self time is the span's duration minus the part of it its children
    cover. ``counted`` is false for a span nested inside another span of the
    same name, so inclusive sums never count a recursive interval twice.
    """
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        inside = [(max(spans[c][1], start), min(spans[c][2], end)) for c in children[index]]
        own = (end - start) - _covered([iv for iv in inside if iv[1] > iv[0]])
        counted = True
        ancestor = parent
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                counted = False
                break
            ancestor = spans[ancestor][3]
        out.append((end - start, own, counted))
    return out


def _totals(spans):
    """Per span name: calls, inclusive seconds and self seconds."""
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    own = defaultdict(float)
    for (name, *_), (incl, self_s, counted) in zip(spans, span_times(spans)):
        calls[name] += 1
        own[name] += self_s
        if counted:
            inclusive[name] += incl
    return calls, inclusive, own


def time_shares(spans):
    """{name: (inclusive, self)} as shares of the total cli.main time, for
    the README's description of where each workload spends its time."""
    _, inclusive, own = _totals(spans)
    total = inclusive[CLI_SPAN]
    return {name: (inclusive[name] / total, own[name] / total)
            for name in sorted(inclusive, key=inclusive.get, reverse=True)} if total else {}


def _under(spans, index, names):
    ancestor = spans[index][3]
    while ancestor >= 0:
        if spans[ancestor][0] in names:
            return True
        ancestor = spans[ancestor][3]
    return False


def layer_metrics(spans, counters, ops, op_counts):
    """Per-op layer metrics from the spans of ``ops`` traced ops.

    ``op_counts`` holds totals over those ops measured outside the spans:
    bytes_written, files_written and newton_iterations.
    """
    calls, inclusive, own = _totals(spans)
    per_op = 1.0 / ops
    grid_points = counters.get(f"{REPORT_SPAN}.grid_points", 0)
    grid_solves = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "linalg.eigen_all" and _under(spans, i, GRID_SPANS)
    )
    metrics = {}
    for key in LAYER_METRICS:
        if key.startswith("trace."):
            continue
        base, _, kind = key.rpartition(".")
        if kind == "calls":
            metrics[key] = calls[base] * per_op
        elif kind == "s":
            metrics[key] = inclusive[base] * per_op
        elif kind == "self_s":
            metrics[key] = own[CLI_SPAN if base == "cli" else base] * per_op
        elif kind == "samples_per_s":
            seconds = inclusive[base]
            metrics[key] = counters.get(f"{base}.samples", 0) / seconds if seconds else 0.0
    metrics["linalg.eigen_all.calls_per_grid_point"] = grid_solves / grid_points if grid_points else 0.0
    metrics["cli.bytes_written"] = op_counts["bytes_written"] * per_op
    metrics["cli.files_written"] = op_counts["files_written"] * per_op
    iterations = op_counts["newton_iterations"]
    metrics["chebyshev.newton_iterations"] = iterations * per_op
    cheb_pairs = calls["chebyshev.newton_refine"]
    metrics["chebyshev.newton_iters_per_pair"] = iterations / cheb_pairs if cheb_pairs else 0.0
    return metrics
