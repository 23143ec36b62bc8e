"""Command-line front end: expansion, error reporting, Monte-Carlo sampling,
and complexity benchmarks over the built-in and config-defined problems.

``expand`` and ``sample`` choose the expansion basis by one rule: --mu0
asks for Taylor, --interval for Chebyshev, and exactly one must be given.
--single-precision-e applies only with --mu0; ``expand``'s --method must
agree with the basis so chosen. Each calls its kernel, ``taylor_expand_all``
or ``cheb_expand_all``, with the flags' values as arguments.

Exit codes: 0 success, 1 usage or I/O error, 2 numerical failure
(non-simple eigenvalue at the expansion point, Newton divergence, domain
violations). Every command writes a plain-text manifest next to its outputs
recording every parsed flag but --out, with n as resolved from the problem;
reruns with identical parameters reproduce all numerical outputs (timing
columns excepted). Every input (``bench``'s every n and order too) is
checked before the command computes, and a usage error is reported before
--out is created. Every output file goes through ``series.write_atomic``
(temp file, then rename; a failed write leaves no temp file), and every CSV
through one row formatter in ``analysis``: a header row, CRLF rows, floats
with 17 significant digits.
The manifest is written last; when any write of a command fails, the
outputs it already wrote are removed, so no directory holds outputs
without their manifest.
"""

import argparse
import contextlib
import functools
import math
import re
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
from .chebyshev import cheb_expand_all
from .errors import ConfigError, EigenPathError, NumericalError
from .linalg import sort_order
from .problems import builtin_problem, check_finite_at, problem_from_config
from .series import (  # noqa: F401  (eigenpair_to_dict: looked up here by benchmarks/tracing.py)
    eigenpair_to_dict,
    load_eigenpair,
    save_eigenpair,
    write_atomic,
)
from .taylor import ExpansionFailure, expansion_series, taylor_expand_all


class UsageError(Exception):
    """Bad flags or arguments; mapped to exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-1e-3", "-1,-0.5" and "-.5" are values: no flag looks like a number.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _finite_float(text, flag):
    """The value of a float flag, which must be finite."""
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc
    if not math.isfinite(value):
        raise UsageError(f"{flag}: {text!r} is not finite")
    return value


def _parse_floats(text, count, flag):
    parts = text.split(",")
    if len(parts) != count:
        raise UsageError(f"{flag} expects {count} comma-separated values")
    return tuple(_finite_float(part, flag) for part in parts)


def _mu0(text):
    return _finite_float(text, "--mu0")


def _parse_int_list(text, flag):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--grid expects a,b,count")
    a, b = (_finite_float(part, "--grid") for part in parts[:2])
    (count,) = _parse_int_list(parts[2], "--grid")
    if count < 1:
        raise UsageError("--grid count must be >= 1")
    return np.linspace(a, b, count)


def _resolve_problem(args):
    """Build the problem from --problem; returns (problem, config_hash).

    It sets ``args.n`` to the problem's n, which the manifest records."""
    spec = args.problem
    if spec.startswith("config:"):
        import hashlib   # only a config's digest needs it; kept out of start-up

        path = spec[len("config:"):]
        problem = problem_from_config(path)
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if args.n is not None and args.n != problem.n:
            raise UsageError(f"--n {args.n} conflicts with config n={problem.n}")
        args.n = problem.n
        return problem, digest
    if args.n is None:
        raise UsageError("--n is required for built-in problems")
    try:
        return builtin_problem(spec, args.n), "-"
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_outputs(args, outputs, config_hash="-"):
    """Create --out, write each (name, write) of ``outputs`` by calling
    write(out / name), then the manifest: every parsed flag but --out as a
    parameter (lists joined by ";"), except --seed, which has its own line,
    and the names written. If a write fails, the files already written are
    removed and the error propagates."""
    params = {key: value for key, value in vars(args).items()
              if key not in ("command", "func", "out", "seed")}
    lines = [
        f"command: {args.command}",
        f"version: {__version__}",
        f"seed: {getattr(args, 'seed', '-')}",
        f"config_sha256: {config_hash}",
        "parameters:",
    ]
    for key in sorted(params):
        value = params[key]
        lines.append(f"  {key}: {';'.join(value) if isinstance(value, list) else value}")
    lines.append("outputs:")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
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


def _expansion(args, problem, selector="all"):
    """The expansion the flags ask for, as a call of no arguments: Taylor
    about --mu0 or Chebyshev on --interval, exactly one of them;
    --single-precision-e with --interval is a usage error. The kernel,
    looked up here when the command runs, checks its order, selector and
    point or interval when called, before it computes anything."""
    if (args.mu0 is None) == (args.interval is None):
        raise UsageError("exactly one of --mu0 (Taylor) or --interval (Chebyshev) is required")
    single_precision_e = getattr(args, "single_precision_e", False)
    if args.mu0 is not None:
        return functools.partial(taylor_expand_all, problem, args.mu0, args.order, selector,
                                 single_precision_e)
    if single_precision_e:
        raise UsageError("--single-precision-e applies only with --mu0")
    return functools.partial(cheb_expand_all, problem,
                             _parse_floats(args.interval, 2, "--interval"), args.order, selector)


def cmd_expand(args):
    problem, config_hash = _resolve_problem(args)
    selector = "all"
    if args.eig != "all":
        try:
            index = int(args.eig)
        except ValueError as exc:
            raise UsageError("--eig must be 'all' or a 1-based index") from exc
        if not 1 <= index <= problem.n:
            raise UsageError(f"--eig index must lie in 1..{problem.n}")
        selector = index - 1
    expansion = _expansion(args, problem, selector)
    if (args.method == "taylor") != (args.mu0 is not None):
        raise UsageError(f"--method {args.method} disagrees with --mu0/--interval")

    # A failing pair is reported the same way under either selector: one
    # stderr line per failure, a manifest without its file, exit 2.
    failures = []
    outputs = []
    for slot, result in enumerate(expansion()):
        index = slot if selector == "all" else selector
        if isinstance(result, ExpansionFailure):
            failures.append(result)
            continue
        name = f"eigenpair_{index + 1:02d}.json"
        outputs.append((name, functools.partial(save_eigenpair, result)))
    _write_outputs(args, outputs, config_hash)

    for failure in failures:
        print(f"eigenpair {failure.index + 1} (lambda0 ~ {failure.eigenvalue:.6g}): "
              f"{failure.error}", file=sys.stderr)
    return 2 if failures else 0


def _load_series(path, n):
    """The pair in the series file ``path``, which must have size n."""
    pair = load_eigenpair(path)
    if pair.n != n:
        raise UsageError(f"series file {path} has n={pair.n}, the problem has n={n}")
    return pair


def cmd_report(args):
    problem, config_hash = _resolve_problem(args)
    metrics = args.metrics.split(",")
    known = ("eig-error", "vec-deviation", "rayleigh")
    for metric in metrics:
        if metric not in known:
            raise UsageError(f"unknown metric {metric!r}")
    grid = _parse_grid(args.grid)
    pairs = [_load_series(path, problem.n) for path in args.series]

    report = error_report(problem, pairs, grid)
    rayleigh = "rayleigh" in metrics
    outputs = [("report.csv", functools.partial(write_error_report_csv, report, rayleigh=rayleigh))]
    _write_outputs(args, outputs, config_hash)
    return 0


def _expand_for_sampling(args, problem):
    """Expand all eigenpaths with the basis implied by --mu0/--interval."""
    expansion = _expansion(args, problem)
    start = time.perf_counter()
    results = expansion()
    setup_seconds = time.perf_counter() - start
    pairs = expansion_series(results)
    if len(pairs) < len(results):
        raise NumericalError(
            f"{len(results) - len(pairs)} eigenpair expansions failed during setup"
        )
    return pairs, setup_seconds


def _select_tracked(pairs, positions, mean):
    """The pairs at the 1-based ``positions`` of the eigenpaths ordered by
    value at the distribution mean, descending."""
    lam, _ = _eval_paths(pairs, [mean])
    order = sort_order(lam[0])
    return [pairs[order[pos - 1]] for pos in positions]


def cmd_sample(args):
    problem, config_hash = _resolve_problem(args)
    if args.count < 1:
        raise UsageError("--count must be positive")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
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
    if stddev < 0:
        raise UsageError("--dist: stddev must be non-negative")
    positions = _parse_int_list(args.pairs, "--pairs")
    # sampling expands every pair, so there are exactly n
    for pos in positions:
        if not 1 <= pos <= problem.n:
            raise UsageError(f"--pairs position {pos} out of range 1..{problem.n}")
    if len(set(positions)) != len(positions):
        raise UsageError("--pairs lists a position twice")

    pairs, setup_seconds = _expand_for_sampling(args, problem)
    tracked = _select_tracked(pairs, positions, mean)

    sample_sets = [
        sample_eigenvalues(problem, tracked, (mean, stddev), args.count, args.seed, method)
        for method in methods
    ]

    for ss in sample_sets:
        check_finite_at(ss.samples, ss.values, f"method {ss.method}: sampled value")
    outputs = [
        ("samples.csv", functools.partial(write_samples_csv, sample_sets)),
        ("histogram.csv", functools.partial(write_histogram_csv, sample_sets)),
        ("timing.csv", functools.partial(write_sampling_summary_csv, sample_sets, setup_seconds)),
    ]
    _write_outputs(args, outputs, config_hash)
    return 0


def cmd_bench(args):
    n_list = _parse_int_list(args.n_list, "--n-list")
    p_list = _parse_int_list(args.p_list, "--p-list")
    if args.repeats < 1:
        raise UsageError("--repeats must be positive")
    make = functools.partial(builtin_problem, args.problem)
    rows = bench_complexity(make, n_list, p_list, mu0=args.mu0, repeats=args.repeats)
    _write_outputs(args, [("bench.csv", functools.partial(write_timing_csv, rows))])
    return 0


@functools.cache
def build_parser():
    """The command-line parser, built once: parsing leaves it unchanged.
    Each flag of several subcommands is declared once, in a parent parser."""
    out_flag = _ArgumentParser(add_help=False)
    out_flag.add_argument("--out", required=True)
    problem_flags = _ArgumentParser(add_help=False, parents=[out_flag])
    problem_flags.add_argument("--problem", required=True,
                               help="example1|example2|example3|config:<path>")
    problem_flags.add_argument("--n", type=int, default=None)
    basis_flags = _ArgumentParser(add_help=False, parents=[problem_flags])
    basis_flags.add_argument("--mu0", type=_mu0, default=None)
    basis_flags.add_argument("--interval", default=None, help="a,b")
    basis_flags.add_argument("--order", type=int, required=True)

    parser = _ArgumentParser(prog="eigenpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", parents=[basis_flags], help="compute eigenpath series")
    expand.add_argument("--method", required=True, choices=("taylor", "chebyshev"))
    expand.add_argument("--eig", default="all", help="'all' or a 1-based index")
    expand.add_argument("--single-precision-e", action="store_true")
    expand.set_defaults(func=cmd_expand)

    report = sub.add_parser("report", parents=[problem_flags],
                            help="grid error report against direct solves")
    report.add_argument("--series", nargs="+", required=True)
    report.add_argument("--grid", required=True, help="a,b,count")
    report.add_argument("--metrics", default="eig-error,vec-deviation",
                        help="comma list of eig-error|vec-deviation|rayleigh; abs_err_lambda "
                             "and vec_deviation are always written, rayleigh adds a column")
    report.set_defaults(func=cmd_report)

    sample = sub.add_parser("sample", parents=[basis_flags], help="Monte-Carlo eigenvalue sampling")
    sample.add_argument("--pairs", default="2,3",
                        help="1-based positions ordered by value at the mean")
    sample.add_argument("--dist", required=True, help="mean,stddev")
    sample.add_argument("--count", type=int, required=True)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--method", required=True,
                        help="comma list of taylor-eval|cheb-eval|rayleigh|direct")
    sample.set_defaults(func=cmd_sample)

    bench = sub.add_parser("bench", parents=[out_flag], help="taylor_expand_all timing table")
    bench.add_argument("--problem", default="example1")
    bench.add_argument("--n-list", dest="n_list", required=True)
    bench.add_argument("--p-list", dest="p_list", required=True)
    bench.add_argument("--mu0", type=_mu0, default=0.2)
    bench.add_argument("--repeats", type=int, default=3)
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
