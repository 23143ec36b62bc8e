"""Run one eigenpath benchmark workload and report its metrics.

    python3 benchmarks/run.py --workload taylor_expand --seed 1 --seconds 30 --trace 0

Drives the CLI in process through ``eigenpath.cli.main(argv)`` as a closed
loop with one client: each op (a fixed round of CLI commands drawn from the
seed) starts when the previous one and its correctness check have finished.
BLAS runs on one thread, pinned before numpy is imported. Op outputs are
checked outside the timed region, and every failure is counted.

Times are scaled to a nominal host speed by a reference kernel timed right
before and after each op (see calibration.py); raw wall times go to the
result file.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops and reports per-layer metrics from the traced ones,
plus the tracing overhead (traced minus untraced median op time).

Prints every metric by name with its unit, writes a result file (and, when
tracing, the spans) under benchmarks/results/, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from pathlib import Path

import envinfo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

SETUP_REPEATS = 9
SETUP_REFERENCE_REPEATS = 5   # warm reference kernels before and after each set-up child
SETUP_TIMEOUT_S = 60
WARMUP_OPS = 2
MIN_TIMED_OPS = 100          # p90 with at least 10 samples beyond it
RSS_AT_OPS = WARMUP_OPS + MIN_TIMED_OPS   # peak RSS read here, so it does not grow with host speed

# Gated metrics, as in BENCHMARK.json. op_s_p90 is measured and reported
# too, but not gated: its run-to-run spread stays near 10 % of its median on
# a shared host even after scaling, above a third of the largest bound.
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "items_per_s": "1/s",
    "op_ok_share": "ratio",
    "pair_ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("taylor_expand", "cheb_expand", "sample_report"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for checking the harness itself")
    return parser.parse_args(argv)


def measure_setup(workload, seed, tiny, workdir, reference_seconds):
    """Run SETUP_REPEATS fresh-process set-ups, one after another.

    Each child is bracketed by the median of SETUP_REFERENCE_REPEATS runs of
    the reference kernel in this (warm) process; a kernel run inside the
    fresh child would be slowed by its cold caches. Returns (per-child
    records, input directory of the last child), which the parent then
    reads its inputs from.
    """
    def reference():
        return statistics.median(reference_seconds() for _ in range(SETUP_REFERENCE_REPEATS))

    records = []
    inputs = None
    before = reference()
    for repeat in range(SETUP_REPEATS):
        inputs = workdir / f"inputs{repeat}"
        argv = [sys.executable, str(HERE / "setup_child.py"), "--workload", workload,
                "--seed", str(seed), "--out", str(inputs)]
        if tiny:
            argv.append("--tiny")
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed ({done.returncode}): {done.stderr.strip()}")
        after = reference()
        record = json.loads(done.stdout.strip().splitlines()[-1])
        record["reference_s"] = (before + after) / 2
        records.append(record)
        before = after
    return records, inputs


def output_size(opdir):
    """Files and bytes an op wrote. timing.csv is counted as a file but not in
    bytes: its measured-seconds columns change length from run to run."""
    files = 0
    size = 0
    for path in opdir.rglob("*"):
        if path.is_file():
            files += 1
            if path.name != "timing.csv":
                size += path.stat().st_size
    return files, size


def run_op(main, commands, tracer, op):
    """Run one op's commands through ``main``, with ``tracer`` installed
    unless it is None; returns (seconds, exit codes, error text)."""
    sink = io.StringIO()
    codes = []
    error = None
    if tracer is not None:
        tracer.install(op)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in commands:
                codes.append(main(argv))
    except Exception:  # a crashing command is a failed op, reported and counted
        error = traceback.format_exc(limit=3)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    codes += [None] * (len(commands) - len(codes))
    output = sink.getvalue().strip()
    if error is None and any(code != 0 for code in codes) and output:
        error = output[-2000:]
    return seconds, codes, error


def run(args):
    # Imported only here, after BLAS threads are pinned: all of these load numpy.
    from calibration import NOMINAL_S, reference_seconds
    from eigenpath.cli import main
    from tracing import CLI_SPAN, LAYER_METRICS, Tracer, layer_metrics, time_shares
    from workloads import WORKLOADS

    env = envinfo.environment()
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_records, inputs = measure_setup(args.workload, args.seed, args.tiny, workdir, reference_seconds)
        params = workload.params(args.seed, args.tiny)
        oracle = workload.oracle(params)
        opdir = workdir / "op"
        tracer = Tracer() if args.trace else None
        traced_main = tracer.wrap(CLI_SPAN, main) if tracer else None
        origin = time.perf_counter()

        ops = []
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < WARMUP_OPS + 4 or time.perf_counter() < deadline:
            shutil.rmtree(opdir, ignore_errors=True)
            opdir.mkdir()
            traced = tracer is not None and index >= WARMUP_OPS and index % 2 == 1
            commands = workload.commands(params, inputs, opdir)
            reference = reference_seconds()
            if traced:
                seconds, codes, error = run_op(traced_main, commands, tracer, index)
            else:
                seconds, codes, error = run_op(main, commands, None, index)
            check = workload.check(params, oracle, opdir, codes)
            if error:
                check.fail(error)
            files, size = output_size(opdir)
            ops.append({
                "op": index, "warmup": index < WARMUP_OPS, "traced": traced,
                "wall_s": seconds, "reference_s": reference, "codes": codes, "ok": check.ok,
                "pairs_attempted": check.pairs_attempted, "pairs_failed": check.pairs_failed,
                "items": check.items, "files": files, "bytes": size,
                "counts": check.counts, "messages": check.messages[:5],
            })
            index += 1
            if index <= RSS_AT_OPS:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = [op["reference_s"] for op in ops[1:]] + [reference_seconds()]
        for op, reference_after in zip(ops, after):
            op["seconds"] = op["wall_s"] * NOMINAL_S / ((op["reference_s"] + reference_after) / 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    pairs_attempted = sum(op["pairs_attempted"] for op in ops)
    pairs_failed = sum(op["pairs_failed"] for op in ops)
    timed = [op for op in ops if not op["warmup"] and not op["traced"]]
    times = [op["seconds"] for op in timed]

    if args.trace:
        traced_ops = [op for op in ops if op["traced"]]
        op_counts = {
            "bytes_written": sum(op["bytes"] for op in traced_ops),
            "files_written": sum(op["files"] for op in traced_ops),
            "newton_iterations": sum(op["counts"].get("newton_iterations", 0) for op in traced_ops),
        }
        values = layer_metrics(tracer.spans, tracer.counters, len(traced_ops), op_counts)
        untraced_p50 = statistics.median(times)
        traced_p50 = statistics.median(op["seconds"] for op in traced_ops)
        values["trace.overhead_s"] = traced_p50 - untraced_p50
        values["trace.overhead_share"] = (traced_p50 - untraced_p50) / untraced_p50
        units = LAYER_METRICS
        shares = time_shares(tracer.spans)
        samples = {"traced_ops": len(traced_ops), "untraced_ops": len(timed), "spans": len(tracer.spans)}
    else:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
        values = {
            "setup_s": statistics.median(
                (r["import_s"] + r["generate_s"]) * NOMINAL_S / r["reference_s"] for r in setup_records),
            "op_s_p50": statistics.median(times),
            "items_per_s": sum(op["items"] for op in timed) / sum(times),
            "op_ok_share": (attempted - failed) / attempted,
            "pair_ok_share": (pairs_attempted - pairs_failed) / pairs_attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        shares = {}
        samples = {"timed_ops": len(timed), "setup_repeats": SETUP_REPEATS}
    walls = [op["wall_s"] for op in timed]
    raw = {
        "op_wall_s_p50": statistics.median(walls),
        "op_wall_s_p90": statistics.quantiles(walls, n=10, method="inclusive")[-1],
        "reference_s_p50": statistics.median(op["reference_s"] for op in ops),
        "setup_wall_s": statistics.median(r["import_s"] + r["generate_s"] for r in setup_records),
    }

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    if tracer is not None:
        # One spans file per workload, replaced by each traced run.
        tracer.write(RESULTS / f"{args.workload}{'-tiny' if args.tiny else ''}.spans.csv.gz", origin)
    describe = [dataclasses.asdict(p) for p in params] if isinstance(params, tuple) else dataclasses.asdict(params)
    result = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "environment": env, "params": describe, "samples": samples,
        "setup": setup_records, "attempted": attempted, "failed": failed,
        "op_fail_share": failed / attempted,
        "pairs_attempted": pairs_attempted, "pairs_failed": pairs_failed,
        "pair_fail_share": pairs_failed / max(pairs_attempted, 1),
        "metrics": metrics, "ungated": {} if args.trace else {"op_s_p90": p90},
        "raw": raw, "nominal_reference_s": NOMINAL_S, "time_shares": shares, "ops": ops,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads_pinned']})")
    print(f"ops {attempted} attempted, {failed} failed; pairs {pairs_attempted} attempted, "
          f"{pairs_failed} failed; {', '.join(f'{k} {v}' for k, v in samples.items())}")
    if not args.trace and len(timed) < MIN_TIMED_OPS:
        print(f"warning: {len(timed)} timed ops, fewer than {MIN_TIMED_OPS}; p90 rests on few samples")
    print("raw wall times: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for op in ops:
        for message in op["messages"]:
            print(f"op {op['op']} failed: {message}")
    notes = {"setup_s": f"(median of {SETUP_REPEATS} fresh processes)",
             "op_s_p50": f"({len(timed)} ops)",
             "peak_rss_mb": f"(set-up and the first {min(attempted, RSS_AT_OPS)} ops)"}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']} {notes.get(name, '')}".rstrip())
    if not args.trace:
        print(f"op_s_p90 = {p90!r} s ({len(timed)} ops; reported, not gated)")
    for name, (inclusive, own) in shares.items():
        print(f"share of traced op time: {name} {inclusive:.1%} inclusive, {own:.1%} self")
    print(json.dumps({
        "correct": failed == 0 and pairs_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "eigenpath" / "cli.py").is_file():
        print(f"error: eigenpath sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        envinfo.pin_blas_threads()
    except envinfo.UnpinnedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    try:
        return run(args)
    except envinfo.UnpinnedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
