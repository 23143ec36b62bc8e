"""Run one workload on several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 benchmarks/spread.py --workload taylor_expand --seeds 1-10

The spread is (Q3 - Q1) / median over the runs, with quartiles from
``statistics.quantiles(values, n=4)``. A metric is steady when its spread
stays under a third of its bound (setup_s is reported but exempt).
Runs are sequential, one process at a time, so they do not compete for cores.
"""

import argparse
import json
import statistics
import subprocess
import sys

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; defaults to run_seconds in BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in parse_seeds(args.seeds):
        argv = [sys.executable, *spec["command"][1:], "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    steady = True
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
        steady = steady and ok
        print(f"{metric['name']:>14}: median {median:.6g} {metric['unit']}, spread {spread:.4f} "
              f"(bound {metric['bound']}, third {metric['bound'] / 3:.4f}) {'ok' if ok else 'WIDE'}")
    print(f"all correct: {all(run['correct'] for run in runs)}; steady: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
