"""One fresh-process set-up: import eigenpath.cli, then generate a workload's
inputs from its seed. Prints {"import_s": ..., "generate_s": ...}.

run.py starts this several times, brackets each start with the host-speed
reference kernel, and reports the median scaled total as setup_s.
"""

import argparse
import json
import sys
import time

from pathlib import Path

import envinfo


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    envinfo.pin_blas_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    start = time.perf_counter()
    import eigenpath.cli  # noqa: F401

    imported = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload.generate(workload.params(args.seed, args.tiny), out)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "generate_s": done - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
