"""Pointwise evaluation, Rayleigh-quotient refinement, grid error reports
against direct eigensolves, Monte-Carlo sampling, and timing benchmarks.

Sampling and grid reports work on blocks of points: one ``eval_at`` call
for the block's (m, n, n) stack of A(mu) (``problems.matrix_stack``), one
stacked eigensolve on it (``eigen_all`` for the grid report, which reads
eigenvectors; the values-only ``eigenvalues`` for the ``direct`` sampler),
one evaluation per group of series sharing a basis and an order, on their
stacked coefficients, at every point of the block, and one batched greedy
match. Every value equals, bit for bit, what a loop over the block's points
and pairs computes one at a time: a real stack is solved by the real solver
matrix by matrix (``linalg``'s dtype policy), also when some A(mu) has a
complex pair.

Eigenvalue matching is greedy over ascending |difference| per point, which
equals the optimal assignment whenever direct eigenvalues are separated by
much more than the approximation error. The eigenvector deviation metric is
max over approximated vectors of | max_i |v_direct_i^H v_hat| - 1 |,
insensitive to phase.

Every CSV writer hands its columns to one formatter, ``_write_csv``: a header
row, then one CRLF-terminated row per entry, rendered by one ``%`` pattern
("%.17g" floats carry 17 significant digits, "%d" integers, "%s" text and
blank cells) and written through ``series.write_atomic``. The header names
never need quoting, so the bytes equal what ``csv.writer`` gives.
"""

import time

import numpy as np

from dataclasses import dataclass

from .errors import DegenerateEvaluationError
from .linalg import (
    BLOCK_BYTES,
    DEGENERATE_NORM_TOL,
    block_slices,
    eigen_all,
    eigenvalues,
    overflow_reported,
    phase_fix,
    vector_norms,
)
from .problems import check_finite_at, matrix_stack
from .series import (  # noqa: F401  (eval_*, horner, clenshaw_u: looked up here by benchmarks/tracing.py)
    CHEBYSHEV_U,
    TAYLOR,
    clenshaw_u,
    eval_cheb_u,
    eval_taylor,
    horner,
    write_atomic,
)
from .taylor import check_order_and_selector, taylor_expand_all

HISTOGRAM_BINS = 50

SAMPLE_METHODS = ("taylor-eval", "cheb-eval", "rayleigh", "direct")

def _blocks(count, n):
    """Consecutive slices of range(count), each within BLOCK_BYTES at size n.

    A point counts as four n x n arrays of 16 bytes per entry: A(mu), the
    solver's copy and eigenvectors, and the sorted eigenvectors (the grid
    report's ``eigen_all``; the values-only ``direct`` solve holds only the
    first two). That is their complex size; a real stack (see
    ``problems.matrix_stack``) holds half of it, and blocks keep the size
    the complex count gives.
    """
    return block_slices(count, 4 * 16 * n * n, BLOCK_BYTES)


def _eval_series(pairs, mus, field):
    """Every pair's ``field`` series ("lam" or "vec") at every point: shape
    (m, k) or (m, k, n). Pairs that share a basis and an order are stacked,
    (p+1, k) or (p+1, k, n), into one evaluation."""
    if not pairs:
        raise ValueError("pairs must be nonempty")
    groups = {}
    for i, pair in enumerate(pairs):
        groups.setdefault((pair.basis, pair.order), []).append(i)
    out = np.empty((len(mus), len(pairs)) + getattr(pairs[0], field).shape[1:], dtype=complex)
    for (basis, _), members in groups.items():
        coeffs = np.stack([getattr(pairs[i], field) for i in members], axis=1)
        out[:, members] = basis.evaluate(coeffs, mus)
    return out


def _eval_paths(pairs, mus):
    """Every pair at every point: lambda (m, k) and the unit-norm,
    phase-fixed eigenvector (m, k, n).

    Raises DegenerateEvaluationError naming the first point (pairs in order
    within a point) where an eigenvector's norm is below DEGENERATE_NORM_TOL.
    """
    mus = np.asarray(mus, dtype=float)
    lam = _eval_series(pairs, mus, "lam")
    vec = _eval_series(pairs, mus, "vec")
    norms = vector_norms(vec)
    degenerate = np.argwhere(norms < DEGENERATE_NORM_TOL)
    if degenerate.size:
        s, i = degenerate[0]
        raise DegenerateEvaluationError(
            f"evaluated eigenvector at mu={mus[s]} has norm {norms[s, i]:.2e}"
        )
    return lam, phase_fix(vec / norms[..., None], axis=-1)


def eigpath_eval(pair, mu):
    """Evaluate one eigenpath at mu: (lambda, unit-norm phase-fixed vector)."""
    lam, vec = _eval_paths([pair], [mu])
    return complex(lam[0, 0]), vec[0, 0]


def _rayleigh_quotients(a, q):
    """q^H A q / q^H q for matrices a (m, n, n) and vectors q (m, k, n)."""
    aq = np.matmul(a[:, None], q[..., None])[..., 0]
    return np.vecdot(q, aq) / np.vecdot(q, q)


def rayleigh_refine(problem, pair, mu):
    """Rayleigh quotient q^H A(mu) q / q^H q with q the normalized v(mu).

    For symmetric problems the eigenvalue error is quadratic in the
    eigenvector error; for non-symmetric problems no improvement is
    promised.
    """
    _, q = _eval_paths([pair], [mu])
    a = matrix_stack(problem, [mu], "rayleigh_refine")
    return complex(_rayleigh_quotients(a, q)[0, 0])


def greedy_match(approx, direct):
    """Match approximations to distinct direct values, closest pairs first.

    Takes one row, approx (k,) against direct (n,), or a stack of rows,
    (m, k) against (m, n). Returns index arrays of approx's shape with
    m[..., i] the direct index assigned to approx[..., i]; per row a
    bijection onto a subset of the direct values. Pairs are taken in the
    order of a stable sort of |approx_i - direct_j| over (i, j), so ties go
    to the smaller i, then the smaller j.
    """
    approx = np.asarray(approx)
    direct = np.asarray(direct)
    k, n = approx.shape[-1], direct.shape[-1]
    if k > n:
        raise ValueError("more approximations than direct values to match")
    rows_a = approx.reshape(-1, k)
    rows_d = direct.reshape(-1, n)
    m = rows_a.shape[0]
    diffs = np.abs(rows_a[:, :, None] - rows_d[:, None, :]).reshape(m, k * n)
    # Each (i, j)'s position in the row's scan order; k rounds of argmin over
    # the pairs still free then take them in exactly that order.
    rank = np.empty((m, k * n), dtype=np.intp)
    np.put_along_axis(rank, np.argsort(diffs, axis=1, kind="stable"), np.arange(k * n), axis=1)
    rank = rank.reshape(m, k, n)
    assignment = np.empty((m, k), dtype=int)
    rows = np.arange(m)
    for _ in range(k):
        i, j = np.divmod(rank.reshape(m, k * n).argmin(axis=1), n)
        assignment[rows, i] = j
        rank[rows, i, :] = k * n
        rank[rows, :, j] = k * n
    return assignment.reshape(approx.shape)


def _matched_errors(approx, direct):
    """Greedy assignment of each row and |approx - matched direct value|."""
    assignment = greedy_match(approx, direct)
    return assignment, np.abs(approx - np.take_along_axis(direct, assignment, axis=-1))


@dataclass(frozen=True)
class ErrorReport:
    """Grid-matched eigenvalue errors and eigenvector deviations."""

    grid: np.ndarray
    eig_errors: np.ndarray       # shape (len(grid), n_pairs)
    vec_deviation: np.ndarray    # shape (len(grid),)
    matching: np.ndarray         # shape (len(grid), n_pairs), direct indices
    rayleigh_errors: np.ndarray  # shape (len(grid), n_pairs), Rayleigh-refined
    max_error: float

    @property
    def n_pairs(self):
        return self.eig_errors.shape[1]


@overflow_reported()
def error_report(problem, pairs, grid):
    """Compare eigenpath series against direct eigensolves on a grid.

    One pass over the grid: each block of points gets one stacked
    eigensolve, and the same solves give the eigenvalue errors, the
    eigenvector deviations and the errors of the Rayleigh-refined
    eigenvalues (each refined value matched on its own, like the series
    values). It raises NumericalError, naming the first such grid mu, when
    A(mu) is not finite, or when a series overflows there so that its
    errors are not finite.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"grid must be one-dimensional, got shape {grid.shape}")
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    shape = (grid.size, len(pairs))
    eig_errors = np.empty(shape)
    rayleigh = np.empty(shape)
    matching = np.empty(shape, dtype=int)
    deviations = np.empty(grid.size)
    for block in _blocks(grid.size, problem.n):
        a = matrix_stack(problem, grid[block], "report grid")
        decomp = eigen_all(a, hermitian=problem.hermitian)
        lam_hat, vec_hat = _eval_paths(pairs, grid[block])
        matching[block], eig_errors[block] = _matched_errors(lam_hat, decomp.values)
        _, rayleigh[block] = _matched_errors(_rayleigh_quotients(a, vec_hat), decomp.values)
        columns = np.ascontiguousarray(np.swapaxes(vec_hat, -1, -2))
        overlaps = np.abs(np.swapaxes(decomp.vectors.conj(), -1, -2) @ columns)
        deviations[block] = np.max(np.abs(overlaps.max(axis=-2) - 1.0), axis=-1)
        errors = np.column_stack((eig_errors[block], rayleigh[block], deviations[block]))
        check_finite_at(grid[block], errors, "report grid: series value")
    return ErrorReport(
        grid=grid,
        eig_errors=eig_errors,
        vec_deviation=deviations,
        matching=matching,
        rayleigh_errors=rayleigh,
        max_error=float(eig_errors.max()),
    )


def rayleigh_errors(problem, pairs, grid):
    """Absolute errors of Rayleigh-refined eigenvalues on a grid: the
    ``rayleigh_errors`` field of :func:`error_report`."""
    return error_report(problem, pairs, grid).rayleigh_errors


@dataclass(frozen=True)
class SampleSet:
    """Sampled eigenvalue realizations for tracked pairs, with the time
    sampling took.

    Reproducible: :func:`sample_eigenvalues` with the same seed,
    distribution, count and method yields bitwise-identical samples and
    values.
    """

    method: str
    samples: np.ndarray          # shape (count,)
    values: np.ndarray           # shape (count, n_pairs), complex
    sampling_seconds: float


def draw_samples(mean, stddev, count, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(mean, stddev, size=count)


@overflow_reported()
def sample_eigenvalues(problem, pairs, dist, count, seed, method):
    """Sample tracked eigenvalues with the chosen evaluation method.

    ``method``: taylor-eval / cheb-eval evaluate the eigenvalue series
    directly; rayleigh evaluates the eigenvector series and refines through
    the Rayleigh quotient; direct computes the eigenvalues, and no
    eigenvectors, of each sample's dense matrix (one stacked values-only
    solve per block of samples) and matches each tracked pair to the nearest
    direct eigenvalue. Under rayleigh and direct it raises NumericalError,
    naming the method and the first such sample's mu, when A(mu) is not
    finite. Sampled values that are not finite are returned as they are,
    with no numpy warning, for the caller to report.
    """
    if count < 1:
        raise ValueError("sample count must be >= 1")
    if method not in SAMPLE_METHODS:
        raise ValueError(f"unknown sampling method {method!r}")
    mean, stddev = dist
    mus = draw_samples(mean, stddev, count, seed)
    values = np.zeros((count, len(pairs)), dtype=complex)

    start = time.perf_counter()
    if method == "rayleigh":
        for block in _blocks(count, problem.n):
            _, q = _eval_paths(pairs, mus[block])
            a = matrix_stack(problem, mus[block], "method rayleigh")
            values[block] = _rayleigh_quotients(a, q)
    elif method == "direct":
        predicted = _eval_series(pairs, mus, "lam")
        for block in _blocks(count, problem.n):
            a = matrix_stack(problem, mus[block], "method direct")
            direct = eigenvalues(a, hermitian=problem.hermitian)
            assignment = greedy_match(predicted[block], direct)
            values[block] = np.take_along_axis(direct, assignment, axis=-1)
    else:
        expected = TAYLOR if method == "taylor-eval" else CHEBYSHEV_U
        for pair in pairs:
            if pair.basis.kind != expected:
                raise ValueError(f"method {method} requires {expected} series")
        values[:] = _eval_series(pairs, mus, "lam")
    elapsed = time.perf_counter() - start

    return SampleSet(method=method, samples=mus, values=values, sampling_seconds=elapsed)


def histogram_counts(values, lo, hi):
    """Counts over ``HISTOGRAM_BINS`` equal-width bins; values outside
    [lo, hi] clip out."""
    values = np.asarray(values, dtype=float)
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS, range=(lo, hi))
    return edges, counts


@dataclass(frozen=True)
class BenchRow:
    n: int
    p: int
    seconds: float
    ratio: float | None


def bench_complexity(make_problem, n_list, p_list, mu0=0.2, repeats=3):
    """Time taylor_expand_all(make_problem(n), mu0, p) across (n, p)
    combinations.

    Every problem of ``n_list`` is built and every order of ``p_list``
    checked before the first timing, so a bad n or p fails at once. Rows
    iterate p-major with n innermost, matching the doubling-table reading
    order; each ratio is against the previous row. Each cell is the median
    of ``repeats`` runs of the monotonic wall clock.
    """
    if not n_list or not p_list:
        raise ValueError("n_list and p_list must be nonempty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    problems = [make_problem(n) for n in n_list]
    for p in p_list:
        check_order_and_selector(p, "all")
    rows = []
    previous = None
    for p in p_list:
        for n, problem in zip(n_list, problems):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                taylor_expand_all(problem, mu0, p)
                times.append(time.perf_counter() - start)
            seconds = float(np.median(times))
            ratio = None if previous is None else seconds / previous
            rows.append(BenchRow(n=n, p=p, seconds=seconds, ratio=ratio))
            previous = seconds
    return rows


# ---------------------------------------------------------------------------
# CSV export (see the module docstring)
# ---------------------------------------------------------------------------


def _write_csv(path, header, formats, columns):
    """Write the CSV atomically; the whole text is built before any file opens."""
    line = ",".join(formats) + "\r\n"
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    write_atomic(path, ",".join(header) + "\r\n" + "".join(line % row for row in rows))


def _float_or_blank(values):
    """Cells of a "%s" column: 17 significant digits, or "" for None."""
    return ["" if value is None else "%.17g" % value for value in values]


def write_error_report_csv(report, path, rayleigh=False):
    """Columns: mu, pair_index, abs_err_lambda, vec_deviation; rows run over
    the grid, and over the pairs within a grid point.

    With ``rayleigh``, appends the report's Rayleigh errors as an
    abs_err_rayleigh column.
    """
    k = report.n_pairs
    header = ["mu", "pair_index", "abs_err_lambda", "vec_deviation"]
    formats = ["%.17g", "%d", "%.17g", "%.17g"]
    columns = [
        np.repeat(report.grid, k),
        np.tile(np.arange(k), report.grid.size),
        report.eig_errors.ravel(),
        np.repeat(report.vec_deviation, k),
    ]
    if rayleigh:
        header.append("abs_err_rayleigh")
        formats.append("%.17g")
        columns.append(report.rayleigh_errors.ravel())
    _write_csv(path, header, formats, columns)


def write_samples_csv(sample_sets, path):
    """Per-sample eigenvalue realizations, one column pair per method/pair."""
    if not sample_sets:
        raise ValueError("at least one sample set is required")
    header = ["sample_index", "mu"]
    columns = [np.arange(len(sample_sets[0].samples)), sample_sets[0].samples]
    for ss in sample_sets:
        for i in range(ss.values.shape[1]):
            header += [f"re_{ss.method}_pair{i}", f"im_{ss.method}_pair{i}"]
            columns += [ss.values[:, i].real, ss.values[:, i].imag]
    _write_csv(path, header, ["%d"] + ["%.17g"] * (len(columns) - 1), columns)


def write_histogram_csv(sample_sets, path):
    """Columns: pair_index, bin_lo, bin_hi, then one count column per method.

    Bins (``HISTOGRAM_BINS``, 50) span the combined sample range [lo, hi]
    of all methods for each pair, or [lo, lo + 1] when the range is too
    narrow for 50 bins of positive width: hi = lo, or hi - lo a few ulps.
    From |lo| about 2^47 up, where the float spacing ulp(lo) exceeds 1/50,
    [lo, lo + 1] is too narrow as well, and the bins span
    [lo, lo + 200 ulp(lo)], four ulps of lo each.
    """
    if not sample_sets:
        raise ValueError("at least one sample set is required")
    blocks = []
    for i in range(sample_sets[0].values.shape[1]):
        reals = [ss.values[:, i].real for ss in sample_sets]
        lo = min(float(r.min()) for r in reals)
        hi = max(float(r.max()) for r in reals)
        for hi in (hi, lo + 1.0, lo + 4 * HISTOGRAM_BINS * float(np.spacing(abs(lo)))):
            edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
            if not np.any(edges[:-1] >= edges[1:]):   # np.histogram's own test of its edges
                break
        hists = [histogram_counts(r, lo, hi) for r in reals]
        edges = hists[0][0]
        # one float table: "%d" renders its pair indices and counts exactly
        blocks.append(np.column_stack([np.full(HISTOGRAM_BINS, i), edges[:-1], edges[1:],
                                       *(counts for _, counts in hists)]))
    header = ["pair_index", "bin_lo", "bin_hi"] + [f"count_{ss.method}" for ss in sample_sets]
    formats = ["%d", "%.17g", "%.17g"] + ["%d"] * len(sample_sets)
    _write_csv(path, header, formats, np.concatenate(blocks).T)


def write_timing_csv(rows, path):
    """Columns: n, p, seconds, ratio (blank in the first row)."""
    columns = [
        [row.n for row in rows],
        [row.p for row in rows],
        [row.seconds for row in rows],
        _float_or_blank(row.ratio for row in rows),
    ]
    _write_csv(path, ["n", "p", "seconds", "ratio"], ["%d", "%d", "%.17g", "%s"], columns)


def write_sampling_summary_csv(sample_sets, setup_seconds, path):
    """Timing summary per method. Every method but direct, which reads no
    series, is charged ``setup_seconds``, the time of the expansion it
    samples. Speedup columns appear when a direct baseline is present in
    the same run."""
    direct = next((ss for ss in sample_sets if ss.method == "direct"), None)
    setup = [0.0 if ss.method == "direct" else float(setup_seconds) for ss in sample_sets]
    combined = [s + ss.sampling_seconds for s, ss in zip(setup, sample_sets)]
    speedup, combined_speedup = [], []
    for ss, total in zip(sample_sets, combined):
        compared = direct is not None and ss.method != "direct"
        speedup.append(direct.sampling_seconds / ss.sampling_seconds if compared else None)
        combined_speedup.append(direct.sampling_seconds / total if compared else None)
    header = ["method", "setup_seconds", "sampling_seconds", "combined_seconds",
              "speedup_vs_direct", "combined_speedup_vs_direct"]
    columns = [
        [ss.method for ss in sample_sets],
        setup,
        [ss.sampling_seconds for ss in sample_sets],
        combined,
        _float_or_blank(speedup),
        _float_or_blank(combined_speedup),
    ]
    _write_csv(path, header, ["%s", "%.17g", "%.17g", "%.17g", "%s", "%s"], columns)
