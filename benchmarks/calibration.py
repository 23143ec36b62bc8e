"""Host-speed reference: a fixed piece of work timed next to every op.

On a shared machine the same code runs up to ~1.8 times slower for
stretches of seconds to minutes, depending on what the neighbours do;
process CPU time slows down with it, so CPU time does not help. Medians cannot remove drift
that lasts longer than a run. So the benchmark brackets every op between
two runs of this reference kernel, and reports op times scaled to a host on
which the kernel takes ``NOMINAL_S``:

    scaled = wall * NOMINAL_S / mean(reference_before, reference_after)

The kernel mixes what eigenpath's ops compute: interpreter work, numpy
calls on tiny vectors, small matrix products, a LAPACK eigensolve and JSON
encoding. It writes no files: file writes slowed down under host load about
twice as much as the ops did, and over the same ten runs per workload,
leaving them out of the kernel cut the quartile spread of the median op
time from 0.069 to 0.036 (taylor_expand), 0.039 to 0.016 (cheb_expand) and
0.070 to 0.019 (sample_report). The kernel is part of the benchmark and
never changes, so a change to the program moves only the op's side of the
ratio. Raw wall times are kept in the result file.
"""

import json
import time

import numpy as np

NOMINAL_S = 0.004

_MATRIX = np.random.default_rng(0).standard_normal((32, 32))
_SYMMETRIC = _MATRIX + _MATRIX.T
_SMALL = np.random.default_rng(1).standard_normal((6, 6))


def reference_seconds():
    """Wall time of one run of the reference kernel (about NOMINAL_S)."""
    start = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    v = np.ones(6)
    for _ in range(400):
        r = np.zeros(6)
        r += _SMALL @ v - 0.5 * v
        v = r / (1.0 + abs(r[0]))
    y = _MATRIX
    for _ in range(100):
        y = np.tanh(_MATRIX @ y * 0.05)
    for _ in range(3):
        np.linalg.eigh(_SYMMETRIC)
    json.dumps(y.tolist())
    return time.perf_counter() - start
