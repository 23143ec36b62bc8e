"""Write the committed coefficient baseline that ``test_baseline.py`` checks.

One compressed ``.npz`` per case of :data:`CASES` goes to ``tests/baseline/``.
It holds every pair's position (``index``), eigenvalue coefficients (``lam``,
(pairs, p+1)) and eigenvector coefficients (``vec``, (pairs, p+1, n)), and
every failure's eigenpair index, error type and message (``fail_index``,
``fail_type``, ``fail_message``).

Run from the repository root, in seconds and with no download:

    PYTHONPATH=src python tests/make_baseline.py

Replacing a baseline file changes a check: the change that does it states
the largest change per case and its cause.
"""

from pathlib import Path

import numpy as np

from conftest import CROSSING
from eigenpath import (
    ExpansionFailure,
    builtin_problem,
    cheb_expand_all,
    problem_from_config,
    taylor_expand_all,
)

BASELINE = Path(__file__).resolve().parent / "baseline"

# name -> (method, problem, n, mu0 or interval, order, single_precision_e)
CASES = {
    "taylor_example1_n16": ("taylor", "example1", 16, 0.2, 12, False),
    "taylor_example2_n16": ("taylor", "example2", 16, 1.0, 10, False),
    "taylor_example3_n8": ("taylor", "example3", 8, 0.5, 12, False),
    "taylor_crossing": ("taylor", "crossing", 2, 0.2, 24, False),
    "taylor_example1_n8_single": ("taylor", "example1", 8, 0.2, 12, True),
    "cheb_example1_n8": ("chebyshev", "example1", 8, (0.25, 1.0), 7, False),
    "cheb_example2_n8": ("chebyshev", "example2", 8, (0.8, 1.2), 7, False),
    "cheb_example3_n8": ("chebyshev", "example3", 8, (0.1, 0.5), 12, False),
    "cheb_crossing_p6": ("chebyshev", "crossing", 2, (0.0, 1.0), 6, False),
    "cheb_crossing_p12": ("chebyshev", "crossing", 2, (0.0, 1.0), 12, False),
    "cheb_example1_n64": ("chebyshev", "example1", 64, (0.25, 1.0), 6, False),
}


def expand(case):
    """The expansion's results, one entry per eigenpair of the case."""
    method, name, n, where, order, single = CASES[case]
    problem = problem_from_config(CROSSING) if name == "crossing" else builtin_problem(name, n)
    if method == "taylor":
        return taylor_expand_all(problem, where, order, single_precision_e=single)
    return cheb_expand_all(problem, where, order)


def record(results):
    """The arrays of one case's file, from its results."""
    pairs = [(i, r) for i, r in enumerate(results) if not isinstance(r, ExpansionFailure)]
    failures = [r for r in results if isinstance(r, ExpansionFailure)]
    return {
        "index": np.array([i for i, _ in pairs], dtype=int),
        "lam": np.array([r.lam for _, r in pairs], dtype=complex),
        "vec": np.array([r.vec for _, r in pairs], dtype=complex),
        "fail_index": np.array([f.index for f in failures], dtype=int),
        "fail_type": np.array([type(f.error).__name__ for f in failures], dtype=str),
        "fail_message": np.array([str(f.error) for f in failures], dtype=str),
    }


def main():
    BASELINE.mkdir(exist_ok=True)
    for case in CASES:
        np.savez_compressed(BASELINE / f"{case}.npz", **record(expand(case)))


if __name__ == "__main__":
    main()
