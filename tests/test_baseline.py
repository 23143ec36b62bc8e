"""Every case of ``make_baseline.CASES`` against its committed file.

Failures must match exactly: eigenpair index, error type and message. Series
are compared relative to their own size, so coefficients at the rounding
floor cannot trip the check. The size of coefficients c_0..c_p is
max_k w_k |c_k|, |c_k| the largest entry's modulus, with weights w_k:

* Taylor: c_k = coeff_k / k! and w_k = r^k, with a fixed r per case
  (:data:`TAYLOR_RADII`) inside every pair's radius of convergence;
* Chebyshev: w_k = 1.

A pair's eigenvector series is compared after removing the one
unit-modulus factor that best aligns it with the baseline's; that factor
is then checked on its own, so that a change of phase convention shows as
exactly that.
"""

import math

import numpy as np
import pytest

from make_baseline import BASELINE, CASES, expand, record

# Largest relative change allowed. Two rounding-level rewrites, the
# projection summed by np.tensordot and the Taylor right-hand side summed in
# reverse order, changed no case by more than 1.5e-14, but the torus at n=64,
# whose near-double pairs' eigenvectors moved by up to 6.7e-6. The bounds sit
# about 70 and 15 times above those.
BOUND = 1e-12
BOUNDS = {"cheb_example1_n64": 1e-4}

# r per Taylor case: half the smallest radius of convergence that the ratio
# test (|c_{p-4}| / |c_p|)^(1/4) gives on the baseline's pairs, rounded down,
# but half the distance 0.5 to the Jordan block's branch point at mu = 0.
TAYLOR_RADII = {
    "taylor_example1_n16": 0.03,           # ratio test 0.066
    "taylor_example2_n16": 0.06,           # ratio test 0.136
    "taylor_example3_n8": 0.25,            # ratio test 0.56
    "taylor_crossing": 0.15,               # ratio test 0.30
    "taylor_example1_n8_single": 0.015,    # ratio test 0.035
}


def _weights(case):
    method, _, _, _, order, _ = CASES[case]
    if method == "chebyshev":
        return np.ones(order + 1)
    r = TAYLOR_RADII[case]
    return np.array([r**k / math.factorial(k) for k in range(order + 1)])


def _relative_change(got, want, weights):
    """max_k w_k |got_k - want_k| / max_k w_k |want_k| of one pair's series
    (p+1,) or (p+1, n)."""
    def size(c):
        return np.max(weights * np.abs(c).reshape(len(weights), -1).max(axis=1))

    return size(got - want) / size(want)


@pytest.mark.parametrize("case", CASES)
def test_case_matches_its_baseline(case):
    with np.load(BASELINE / f"{case}.npz") as data:
        want = dict(data)
    got = record(expand(case))
    for key in ("fail_index", "fail_type", "fail_message", "index"):
        assert got[key].tolist() == want[key].tolist(), key
    weights, bound = _weights(case), BOUNDS.get(case, BOUND)
    for index, lam, vec, want_lam, want_vec in zip(want["index"], got["lam"], got["vec"],
                                                   want["lam"], want["vec"]):
        assert _relative_change(lam, want_lam, weights) <= bound, f"eigenpair {index + 1}: lambda"
        overlap = np.vdot(weights[:, None] * want_vec, weights[:, None] * vec)
        phase = overlap / abs(overlap)
        assert _relative_change(vec / phase, want_vec, weights) <= bound, \
            f"eigenpair {index + 1}: v up to the factor {phase:.3g}"
        assert abs(phase - 1.0) <= bound, f"eigenpair {index + 1}: v's phase factor {phase:.3g}"
