"""Command-line front end: expansion, error reporting, Monte-Carlo sampling,
and complexity benchmarks over the built-in and config-defined problems.

Exit codes: 0 success, 1 usage or I/O error, 2 numerical failure
(non-simple eigenvalue at the expansion point, Newton divergence, domain
violations). Every command writes a plain-text manifest next to its outputs
recording the resolved parameters; reruns with identical parameters
reproduce all numerical outputs (timing columns excepted). Every output
file goes through ``series.write_atomic`` (temp file, then rename; a failed
write leaves no temp file), and every CSV through one row formatter in
``analysis``: a header row, CRLF rows, floats with 17 significant digits.
The manifest is written last; when any write of a command fails, the
outputs it already wrote are removed, so no directory holds outputs
without their manifest.
"""

import argparse
import contextlib
import functools
import hashlib
import sys
import time

import numpy as np

from pathlib import Path

from . import __version__
from .analysis import (  # noqa: F401  (eigpath_eval, rayleigh_errors: looked up here by benchmarks/tracing.py)
    SAMPLE_METHODS,
    _eval_paths,
    bench_complexity,
    eigpath_eval,
    error_report,
    rayleigh_errors,
    sample_eigenvalues,
    write_error_report_csv,
    write_histogram_csv,
    write_samples_csv,
    write_sampling_summary_csv,
    write_timing_csv,
)
from .chebyshev import ChebRequest, cheb_expand_all
from .errors import ConfigError, EigenPathError, NumericalError
from .problems import builtin_problem, problem_from_config
from .series import (  # noqa: F401  (eigenpair_to_dict: looked up here by benchmarks/tracing.py)
    eigenpair_to_dict,
    load_eigenpair,
    save_eigenpair,
    write_atomic,
)
from .taylor import (
    ExpansionFailure,
    TaylorRequest,
    expansion_series,
    taylor_expand_all,
)


class UsageError(Exception):
    """Bad flags or arguments; mapped to exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_floats(text, count, flag):
    parts = text.split(",")
    if len(parts) != count:
        raise UsageError(f"{flag} expects {count} comma-separated values")
    try:
        return tuple(float(part) for part in parts)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _parse_int_list(text, flag):
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc
    if not values:
        raise UsageError(f"{flag} must list at least one integer")
    return values


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--grid expects a,b,count")
    try:
        a, b = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--grid: {exc}") from exc
    if count < 1:
        raise UsageError("--grid count must be >= 1")
    return np.linspace(a, b, count)


def _resolve_problem(args):
    """Build the problem from --problem; returns (problem, config_hash)."""
    spec = args.problem
    if spec is None:
        raise UsageError("--problem is required")
    if spec.startswith("config:"):
        path = spec[len("config:"):]
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        problem = problem_from_config(path)
        if args.n is not None and args.n != problem.n:
            raise UsageError(f"--n {args.n} conflicts with config n={problem.n}")
        return problem, digest
    if args.n is None:
        raise UsageError("--n is required for built-in problems")
    try:
        return builtin_problem(spec, args.n), "-"
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_outputs(outdir, outputs, command, params, seed, config_hash):
    """Write each (name, write) of ``outputs`` by calling write(outdir /
    name), then the manifest recording the parameters and listing the names.
    If a write fails, the files already written are removed and the error
    propagates."""
    lines = [
        f"command: {command}",
        f"version: {__version__}",
        f"seed: {seed}",
        f"config_sha256: {config_hash}",
        "parameters:",
    ]
    for key in sorted(params):
        lines.append(f"  {key}: {params[key]}")
    lines.append("outputs:")
    written = []
    try:
        for name, write in outputs:
            write(outdir / name)
            written.append(outdir / name)
            lines.append(f"  - {name}")
        write_atomic(outdir / "manifest.txt", "\n".join(lines) + "\n")
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise


def _ensure_outdir(args):
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def cmd_expand(args):
    problem, config_hash = _resolve_problem(args)
    if args.method == "taylor":
        if args.mu0 is None:
            raise UsageError("--mu0 is required with --method taylor")
        if args.interval is not None:
            raise UsageError("--interval conflicts with --method taylor")
        if args.quad_m is not None:
            raise UsageError("--quad-m applies only to --method chebyshev")
    else:
        if args.interval is None:
            raise UsageError("--interval is required with --method chebyshev")
        if args.mu0 is not None:
            raise UsageError("--mu0 conflicts with --method chebyshev")
        if args.single_precision_e:
            raise UsageError("--single-precision-e applies only to --method taylor")

    if args.eig == "all":
        selector = "all"
    else:
        try:
            index = int(args.eig)
        except ValueError as exc:
            raise UsageError("--eig must be 'all' or a 1-based index") from exc
        if index < 1:
            raise UsageError("--eig index is 1-based")
        selector = index - 1

    outdir = _ensure_outdir(args)
    # A failing pair is reported the same way under either selector: one
    # stderr line per failure, a manifest without its file, exit 2.
    if args.method == "taylor":
        results = taylor_expand_all(TaylorRequest(
            problem=problem,
            mu0=args.mu0,
            order=args.order,
            selector=selector,
            single_precision_e=args.single_precision_e,
        ))
    else:
        interval = _parse_floats(args.interval, 2, "--interval")
        results = cheb_expand_all(ChebRequest(
            problem=problem,
            interval=interval,
            order=args.order,
            quad_m=args.quad_m,
            selector=selector,
        ))

    failures = []
    outputs = []
    for slot, result in enumerate(results):
        index = slot if selector == "all" else selector
        if isinstance(result, ExpansionFailure):
            failures.append(result)
            continue
        name = f"eigenpair_{index + 1:02d}.json"
        outputs.append((name, functools.partial(save_eigenpair, result)))

    params = {
        "problem": args.problem,
        "n": problem.n,
        "method": args.method,
        "mu0": args.mu0,
        "interval": args.interval,
        "order": args.order,
        "eig": args.eig,
        "quad_m": args.quad_m,
        "single_precision_e": args.single_precision_e,
    }
    _write_outputs(outdir, outputs, "expand", params, "-", config_hash)

    if failures:
        for failure in failures:
            print(
                f"eigenpair {failure.index + 1} "
                f"(lambda0 ~ {failure.eigenvalue:.6g}): {failure.error}",
                file=sys.stderr,
            )
        return 2
    return 0


def cmd_report(args):
    problem, config_hash = _resolve_problem(args)
    metrics = args.metrics.split(",")
    known = ("eig-error", "vec-deviation", "rayleigh")
    for metric in metrics:
        if metric not in known:
            raise UsageError(f"unknown metric {metric!r}")
    grid = _parse_grid(args.grid)
    pairs = []
    for path in args.series:
        if not Path(path).exists():
            print(f"missing series file: {path}", file=sys.stderr)
            return 1
        pairs.append(load_eigenpair(path))
    if not pairs:
        raise UsageError("at least one --series file is required")

    report = error_report(problem, pairs, grid)
    outdir = _ensure_outdir(args)
    rayleigh = "rayleigh" in metrics
    outputs = [("report.csv", functools.partial(write_error_report_csv, report, rayleigh=rayleigh))]

    params = {
        "problem": args.problem,
        "n": problem.n,
        "series": ";".join(args.series),
        "grid": args.grid,
        "metrics": args.metrics,
    }
    _write_outputs(outdir, outputs, "report", params, "-", config_hash)
    return 0


def _expand_for_sampling(args, problem):
    """Expand all eigenpaths with the basis implied by --mu0/--interval."""
    start = time.perf_counter()
    if args.mu0 is not None:
        request = TaylorRequest(problem=problem, mu0=args.mu0, order=args.order)
        results = taylor_expand_all(request)
    else:
        interval = _parse_floats(args.interval, 2, "--interval")
        request = ChebRequest(problem=problem, interval=interval, order=args.order,
                              quad_m=args.quad_m)
        results = cheb_expand_all(request)
    setup_seconds = time.perf_counter() - start
    pairs = expansion_series(results)
    if len(pairs) < len(results):
        raise NumericalError(
            f"{len(results) - len(pairs)} eigenpair expansions failed during setup"
        )
    return pairs, setup_seconds


def _select_tracked(pairs, positions, mean):
    """Order eigenpaths by value at the distribution mean, descending."""
    lam, _ = _eval_paths(pairs, [mean])
    order = np.lexsort((-lam[0].imag, -lam[0].real))
    tracked = []
    for pos in positions:
        if not 1 <= pos <= len(pairs):
            raise UsageError(f"--pairs position {pos} out of range 1..{len(pairs)}")
        tracked.append(pairs[order[pos - 1]])
    return tracked


def _check_finite(sample_sets):
    """Raise NumericalError at the first method whose sampled values are not
    all finite, naming that method and the first such sample's mu."""
    for ss in sample_sets:
        bad = np.flatnonzero(~np.isfinite(ss.values).all(axis=1))
        if bad.size:
            raise NumericalError(
                f"method {ss.method}: non-finite sampled value at mu={ss.samples[bad[0]]:.17g}"
            )


def cmd_sample(args):
    problem, config_hash = _resolve_problem(args)
    if args.count < 1:
        raise UsageError("--count must be positive")
    if (args.mu0 is None) == (args.interval is None):
        raise UsageError("exactly one of --mu0 (Taylor) or --interval (Chebyshev) is required")
    methods = args.method.split(",")
    for method in methods:
        if method not in SAMPLE_METHODS:
            raise UsageError(f"unknown sampling method {method!r}")
        if method == "taylor-eval" and args.mu0 is None:
            raise UsageError("taylor-eval requires --mu0")
        if method == "cheb-eval" and args.interval is None:
            raise UsageError("cheb-eval requires --interval")
    if len(set(methods)) != len(methods):
        raise UsageError("--method lists a method twice")

    mean, stddev = _parse_floats(args.dist, 2, "--dist")
    positions = _parse_int_list(args.pairs, "--pairs")

    pairs, setup_seconds = _expand_for_sampling(args, problem)
    tracked = _select_tracked(pairs, positions, mean)

    sample_sets = []
    for method in methods:
        setup = 0.0 if method == "direct" else setup_seconds
        sample_sets.append(
            sample_eigenvalues(
                problem,
                tracked,
                (mean, stddev),
                args.count,
                args.seed,
                method,
                setup_seconds=setup,
            )
        )

    _check_finite(sample_sets)
    outdir = _ensure_outdir(args)
    outputs = [
        ("samples.csv", functools.partial(write_samples_csv, sample_sets)),
        ("histogram.csv", functools.partial(write_histogram_csv, sample_sets)),
        ("timing.csv", functools.partial(write_sampling_summary_csv, sample_sets)),
    ]

    params = {
        "problem": args.problem,
        "n": problem.n,
        "mu0": args.mu0,
        "interval": args.interval,
        "order": args.order,
        "quad_m": args.quad_m,
        "pairs": args.pairs,
        "dist": args.dist,
        "count": args.count,
        "method": args.method,
    }
    _write_outputs(outdir, outputs, "sample", params, args.seed, config_hash)
    return 0


def cmd_bench(args):
    n_list = _parse_int_list(args.n_list, "--n-list")
    p_list = _parse_int_list(args.p_list, "--p-list")
    if args.problem.startswith("config:"):
        raise UsageError("bench requires a built-in problem family")
    if args.problem not in ("example1", "example2", "example3"):
        raise UsageError(f"unknown built-in problem {args.problem!r}")

    def make(n):
        return builtin_problem(args.problem, n)

    rows = bench_complexity(make, n_list, p_list, mu0=args.mu0, repeats=args.repeats)
    outdir = _ensure_outdir(args)
    outputs = [("bench.csv", functools.partial(write_timing_csv, rows))]
    params = {
        "problem": args.problem,
        "n_list": args.n_list,
        "p_list": args.p_list,
        "mu0": args.mu0,
        "repeats": args.repeats,
    }
    _write_outputs(outdir, outputs, "bench", params, "-", "-")
    return 0


def build_parser():
    parser = _ArgumentParser(prog="eigenpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="compute eigenpath series")
    expand.add_argument("--problem", required=True,
                        help="example1|example2|example3|config:<path>")
    expand.add_argument("--n", type=int, default=None)
    expand.add_argument("--method", required=True, choices=("taylor", "chebyshev"))
    expand.add_argument("--mu0", type=float, default=None)
    expand.add_argument("--interval", default=None, help="a,b")
    expand.add_argument("--order", type=int, required=True)
    expand.add_argument("--eig", default="all", help="'all' or a 1-based index")
    expand.add_argument("--quad-m", dest="quad_m", type=int, default=None)
    expand.add_argument("--single-precision-e", dest="single_precision_e",
                        action="store_true")
    expand.add_argument("--out", required=True)
    expand.set_defaults(func=cmd_expand)

    report = sub.add_parser("report", help="grid error report against direct solves")
    report.add_argument("--problem", required=True)
    report.add_argument("--n", type=int, default=None)
    report.add_argument("--series", nargs="+", required=True)
    report.add_argument("--grid", required=True, help="a,b,count")
    report.add_argument("--metrics", default="eig-error,vec-deviation",
                        help="comma list of eig-error|vec-deviation|rayleigh")
    report.add_argument("--out", required=True)
    report.set_defaults(func=cmd_report)

    sample = sub.add_parser("sample", help="Monte-Carlo eigenvalue sampling")
    sample.add_argument("--problem", required=True)
    sample.add_argument("--n", type=int, default=None)
    sample.add_argument("--mu0", type=float, default=None)
    sample.add_argument("--interval", default=None, help="a,b")
    sample.add_argument("--order", type=int, required=True)
    sample.add_argument("--quad-m", dest="quad_m", type=int, default=None)
    sample.add_argument("--pairs", default="2,3",
                        help="1-based positions ordered by value at the mean")
    sample.add_argument("--dist", required=True, help="mean,stddev")
    sample.add_argument("--count", type=int, required=True)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--method", required=True,
                        help="comma list of taylor-eval|cheb-eval|rayleigh|direct")
    sample.add_argument("--out", required=True)
    sample.set_defaults(func=cmd_sample)

    bench = sub.add_parser("bench", help="taylor_expand_all timing table")
    bench.add_argument("--problem", default="example1")
    bench.add_argument("--n-list", dest="n_list", required=True)
    bench.add_argument("--p-list", dest="p_list", required=True)
    bench.add_argument("--mu0", type=float, default=0.2)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except EigenPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())
