"""Pointwise evaluation, matching, Rayleigh refinement, sampling, benches,
and CSV export."""

import csv
import itertools

from pathlib import Path

import numpy as np
import pytest

from conftest import constant_problem

from eigenpath import (
    DegenerateEvaluationError,
    EigenPairSeries,
    SeriesBasis,
    cheb_expand_all,
    eigen_all,
    eigenvalues,
    eigpath_eval,
    error_report,
    eval_cheb_u,
    eval_taylor,
    expansion_series,
    greedy_match,
    problem_from_config,
    rayleigh_refine,
    sample_eigenvalues,
    taylor_expand_all,
)
import eigenpath.analysis as analysis

from eigenpath.analysis import (
    BenchRow,
    bench_complexity,
    histogram_counts,
    rayleigh_errors,
    write_error_report_csv,
    write_histogram_csv,
    write_samples_csv,
    write_sampling_summary_csv,
    write_timing_csv,
)
from eigenpath.linalg import phase_fix, vector_norms


def brute_force_assignment(approx, direct):
    """Optimal assignment by exhaustive search (test oracle, n <= 8)."""
    best, best_cost = None, np.inf
    indices = range(len(direct))
    for perm in itertools.permutations(indices, len(approx)):
        cost = sum(abs(a - direct[j]) for a, j in zip(approx, perm))
        if cost < best_cost:
            best, best_cost = perm, cost
    return np.array(best)


class TestEigpathEval:
    def test_constant_problem(self, taylor_e1_p6):
        basis = SeriesBasis.taylor(0.0)
        pair = EigenPairSeries(basis, [2.5], [[3.0, 4.0]])
        value, v = eigpath_eval(pair, 1.7)
        assert value == 2.5
        np.testing.assert_allclose(v, [0.6, 0.8])  # unit norm, positive phase

    def test_expansion_point_matches_direct(self, taylor_e1_p6, torus8):
        d = eigen_all(torus8.eval_at(0.2), hermitian=True)
        for i, pair in enumerate(taylor_e1_p6):
            lam, v = eigpath_eval(pair, 0.2)
            assert abs(lam - d.values[i]) <= 1e-12
            np.testing.assert_allclose(v, d.vectors[:, i], atol=1e-10)

    def test_chebyshev_interior_accuracy(self, cheb_e1_p20, torus8):
        d = eigen_all(torus8.eval_at(0.6), hermitian=True)
        for pair in cheb_e1_p20:
            lam, _ = eigpath_eval(pair, 0.6)
            assert np.min(np.abs(d.values - lam)) <= 1e-10

    def test_degenerate_vector(self):
        basis = SeriesBasis.taylor(0.0)
        pair = EigenPairSeries(basis, [1.0], [[0.0, 0.0]])
        with pytest.raises(DegenerateEvaluationError):
            eigpath_eval(pair, 0.3)


class TestRayleigh:
    def test_exact_eigenvector_gives_exact_eigenvalue(self, torus8):
        a = torus8.eval_at(0.4)
        d = eigen_all(a, hermitian=True)
        basis = SeriesBasis.taylor(0.4)
        pair = EigenPairSeries(
            basis,
            [d.values[0] + 0.01],  # deliberately off
            [d.vectors[:, 0]],
        )
        refined = rayleigh_refine(torus8, pair, 0.4)
        assert abs(refined - d.values[0]) <= 1e-12

    def test_median_improvement_on_symmetric_problem(self, cheb_e1_p10, torus8):
        grid = np.linspace(0.25, 1.0, 21)
        report = error_report(torus8, cheb_e1_p10, grid)
        rq = rayleigh_errors(torus8, cheb_e1_p10, grid)
        assert np.median(rq) <= np.median(report.eig_errors)

    def test_quadratic_accuracy_bound(self, cheb_e1_p10, torus8):
        # |lam_RQ - lam| <= 4 ||A||_2 * deviation^2 for the symmetric problem
        for mu in (0.3, 0.55, 0.9):
            a = torus8.eval_at(mu)
            norm = np.linalg.norm(a, 2)
            d = eigen_all(a, hermitian=True)
            for pair in cheb_e1_p10:
                refined = rayleigh_refine(torus8, pair, mu)
                j = int(np.argmin(np.abs(d.values - refined)))
                _, q = eigpath_eval(pair, mu)
                deviation = abs(abs(np.conj(d.vectors[:, j]) @ q) - 1.0)
                assert abs(refined - d.values[j]) <= 4 * norm * max(deviation, 1e-16) ** 2 + 1e-13


class TestGreedyMatch:
    def test_bijection(self):
        rng = np.random.default_rng(1)
        direct = rng.normal(size=8) + 1j * rng.normal(size=8)
        approx = direct[[3, 1, 6]] + 1e-9
        m = greedy_match(approx, direct)
        assert sorted(m.tolist()) == sorted(set(m.tolist()))
        np.testing.assert_array_equal(m, [3, 1, 6])

    def test_equals_optimal_when_separated(self):
        # separation > 10x the approximation error implies greedy is optimal
        rng = np.random.default_rng(2)
        for _ in range(25):
            direct = np.sort(rng.normal(size=6) * 10)
            while np.min(np.diff(direct)) < 1.0:
                direct = np.sort(rng.normal(size=6) * 10)
            noise = rng.normal(size=6) * 0.01
            approx = rng.permutation(direct) + noise
            greedy = greedy_match(approx, direct)
            optimal = brute_force_assignment(approx, direct)
            np.testing.assert_array_equal(greedy, optimal)


class TestErrorReport:
    def test_trivial_scalar_problem(self):
        from conftest import linear_problem
        problem = linear_problem()
        pair = taylor_expand_all(problem, 0.3, 1, selector=0)[0]
        report = error_report(problem, [pair], np.linspace(0.0, 1.0, 11))
        assert report.max_error <= 1e-13
        np.testing.assert_allclose(report.vec_deviation, 0.0, atol=1e-13)

    def test_example1_taylor_window(self, taylor_e1_p20, torus8):
        report = error_report(torus8, taylor_e1_p20, np.linspace(0.1, 0.3, 51))
        assert report.max_error <= 1e-11
        assert report.matching.shape == (51, 8)
        for row in report.matching:
            assert sorted(row.tolist()) == list(range(8))

    def test_empty_grid_rejected(self, taylor_e1_p6, torus8):
        with pytest.raises(ValueError):
            error_report(torus8, taylor_e1_p6, [])


class TestSampling:
    def test_single_sample_zero_spread(self, taylor_e1_p6, torus8):
        ss = sample_eigenvalues(torus8, taylor_e1_p6[:2], (0.2, 0.0), 1, 7, "taylor-eval")
        assert ss.samples.shape == (1,)
        assert ss.samples[0] == pytest.approx(0.2)
        lam0 = eval_taylor(taylor_e1_p6[0].basis, taylor_e1_p6[0].lam, 0.2)
        assert ss.values[0, 0] == pytest.approx(lam0)

    def test_determinism_bitwise(self, taylor_e1_p6, torus8):
        a = sample_eigenvalues(torus8, taylor_e1_p6[:2], (0.2, 0.1), 500, 42, "taylor-eval")
        b = sample_eigenvalues(torus8, taylor_e1_p6[:2], (0.2, 0.1), 500, 42, "taylor-eval")
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.values.tobytes() == b.values.tobytes()

    def test_methods_agree_on_tracked_pair(self, taylor_e1_p6, torus8):
        tracked = taylor_e1_p6[1:3]
        t = sample_eigenvalues(torus8, tracked, (0.2, 0.01), 300, 5, "taylor-eval")
        d = sample_eigenvalues(torus8, tracked, (0.2, 0.01), 300, 5, "direct")
        r = sample_eigenvalues(torus8, tracked, (0.2, 0.01), 300, 5, "rayleigh")
        # near the expansion point all three track the same eigenvalue path
        assert np.max(np.abs(t.values - d.values)) <= 1e-6
        assert np.max(np.abs(r.values - d.values)) <= 1e-6

    def test_histogram_agreement(self, taylor_e1_p6, torus8):
        order = np.argsort([-eval_taylor(s.basis, s.lam, 0.2).real for s in taylor_e1_p6])
        tracked = [taylor_e1_p6[order[1]], taylor_e1_p6[order[2]]]
        count = 4000
        t = sample_eigenvalues(torus8, tracked, (0.2, 0.1), count, 42, "taylor-eval")
        d = sample_eigenvalues(torus8, tracked, (0.2, 0.1), count, 42, "direct")
        for i in range(2):
            lo = min(t.values[:, i].real.min(), d.values[:, i].real.min())
            hi = max(t.values[:, i].real.max(), d.values[:, i].real.max())
            _, ct = histogram_counts(t.values[:, i].real, lo, hi)
            _, cd = histogram_counts(d.values[:, i].real, lo, hi)
            assert np.max(np.abs(ct - cd)) <= 0.05 * count

    def test_validation(self, taylor_e1_p6, torus8):
        with pytest.raises(ValueError):
            sample_eigenvalues(torus8, taylor_e1_p6, (0.2, 0.1), 0, 1, "taylor-eval")
        with pytest.raises(ValueError):
            sample_eigenvalues(torus8, taylor_e1_p6, (0.2, 0.1), 5, 1, "bogus")
        with pytest.raises(ValueError):
            sample_eigenvalues(torus8, taylor_e1_p6, (0.2, 0.1), 5, 1, "cheb-eval")


@pytest.mark.parametrize("call, message", [
    (lambda problem, pairs, path: error_report(problem, [], [0.1, 0.2]),
     "pairs must be nonempty"),
    (lambda problem, pairs, path: sample_eigenvalues(problem, [], (0.2, 0.1), 5, 1, "direct"),
     "pairs must be nonempty"),
    (lambda problem, pairs, path: write_histogram_csv([], path),
     "at least one sample set is required"),
    (lambda problem, pairs, path: bench_complexity(lambda n: problem, [8], [2], repeats=0),
     "repeats must be >= 1"),
    (lambda problem, pairs, path: error_report(problem, pairs, [[0.1, 0.2], [0.3, 0.4]]),
     r"grid must be one-dimensional, got shape \(2, 2\)"),
], ids=["report-no-pairs", "sample-no-pairs", "histogram-no-sample-sets", "bench-no-repeats",
        "report-2d-grid"])
def test_library_input_without_work_fails_by_name(tmp_path, taylor_e1_p6, torus8, call,
                                                   message):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(torus8, taylor_e1_p6, path)
    assert not path.exists()


class TestBench:
    def test_repeat_stability_smoke(self, torus8):
        from eigenpath import make_torus_kernel

        rows = bench_complexity(make_torus_kernel, [8], [2, 2], mu0=0.2, repeats=3)
        assert len(rows) == 2
        assert rows[0].ratio is None
        assert rows[1].ratio is not None
        assert 1 / 3 <= rows[1].ratio <= 3.0

    def test_row_layout(self):
        from eigenpath import make_torus_kernel

        rows = bench_complexity(make_torus_kernel, [8, 16], [2], mu0=0.2, repeats=1)
        assert [(r.n, r.p) for r in rows] == [(8, 2), (16, 2)]


# ---------------------------------------------------------------------------
# The per-cell CSV writers that the one-pattern-per-row writers replaced, kept
# as byte oracles: each cell formatted on its own, each row through csv.writer.
# ---------------------------------------------------------------------------


def _fmt(value):
    return f"{value:.17g}"


def _per_cell_error_report(report, path, rayleigh=False):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        header = ["mu", "pair_index", "abs_err_lambda", "vec_deviation"]
        if rayleigh:
            header.append("abs_err_rayleigh")
        writer.writerow(header)
        for g, mu in enumerate(report.grid):
            for i in range(report.n_pairs):
                row = [_fmt(mu), str(i), _fmt(report.eig_errors[g, i]),
                       _fmt(report.vec_deviation[g])]
                if rayleigh:
                    row.append(_fmt(report.rayleigh_errors[g, i]))
                writer.writerow(row)


def _per_cell_samples(sample_sets, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        header = ["sample_index", "mu"]
        for ss in sample_sets:
            for i in range(ss.values.shape[1]):
                header += [f"re_{ss.method}_pair{i}", f"im_{ss.method}_pair{i}"]
        writer.writerow(header)
        for s in range(len(sample_sets[0].samples)):
            row = [str(s), _fmt(sample_sets[0].samples[s])]
            for ss in sample_sets:
                for i in range(ss.values.shape[1]):
                    row += [_fmt(ss.values[s, i].real), _fmt(ss.values[s, i].imag)]
            writer.writerow(row)


def _per_cell_histogram(sample_sets, path):
    n_pairs = sample_sets[0].values.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        header = ["pair_index", "bin_lo", "bin_hi"]
        header += [f"count_{ss.method}" for ss in sample_sets]
        writer.writerow(header)
        for i in range(n_pairs):
            reals = [ss.values[:, i].real for ss in sample_sets]
            lo = min(float(r.min()) for r in reals)
            hi = max(float(r.max()) for r in reals)
            if hi <= lo:
                hi = lo + 1.0
            edges = None
            counts = []
            for r in reals:
                edges, c = histogram_counts(r, lo, hi)
                counts.append(c)
            for b in range(analysis.HISTOGRAM_BINS):
                row = [str(i), _fmt(edges[b]), _fmt(edges[b + 1])]
                row += [str(int(c[b])) for c in counts]
                writer.writerow(row)


def _per_cell_timing(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "p", "seconds", "ratio"])
        for row in rows:
            writer.writerow([str(row.n), str(row.p), _fmt(row.seconds),
                             "" if row.ratio is None else _fmt(row.ratio)])


def _per_cell_summary(sample_sets, setup_seconds, path):
    direct = next((ss for ss in sample_sets if ss.method == "direct"), None)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "setup_seconds", "sampling_seconds", "combined_seconds",
                         "speedup_vs_direct", "combined_speedup_vs_direct"])
        for ss in sample_sets:
            setup = 0.0 if ss.method == "direct" else setup_seconds    # direct reads no series
            combined = setup + ss.sampling_seconds
            if direct is None or ss.method == "direct":
                speedup = combined_speedup = ""
            else:
                speedup = _fmt(direct.sampling_seconds / ss.sampling_seconds)
                combined_speedup = _fmt(direct.sampling_seconds / combined)
            writer.writerow([ss.method, _fmt(setup), _fmt(ss.sampling_seconds),
                             _fmt(combined), speedup, combined_speedup])


# NaN, +-inf, -0.0, the smallest subnormal, the largest and the smallest normal
# double, and values whose shortest repr has fewer than 17 digits
SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308,
            -2.2250738585072014e-308, 0.1, 1e16]


def _floats(rng, shape, specials=SPECIALS):
    """Normals scaled by 10^-300..10^300, starting with the given specials."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    values.ravel()[: len(specials)] = specials
    return values


def _complex(re, im):
    """re + i im, set part by part: arithmetic would turn an inf part into NaN."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _sample_set(method, values, mus=None, sampling=0.2):
    mus = np.linspace(0.1, 0.3, values.shape[0]) if mus is None else mus
    return analysis.SampleSet(method, mus, values, sampling)


def _csv_cases():
    """case name -> (writer, per-cell oracle, positional args, keyword args)."""
    rng = np.random.default_rng(21)
    grid, k = _floats(rng, 12), 3
    report = analysis.ErrorReport(
        grid=grid,
        eig_errors=_floats(rng, (grid.size, k), SPECIALS[::-1]),
        vec_deviation=_floats(rng, grid.size),
        matching=np.zeros((grid.size, k), dtype=int),
        rayleigh_errors=_floats(rng, (grid.size, k)),
        max_error=0.0,
    )

    count = 40
    mus = _floats(rng, count)
    samples = [
        _sample_set(method, _complex(_floats(rng, (count, 3)),
                                     _floats(rng, (count, 3), SPECIALS[::-1])), mus)
        for method in ("taylor-eval", "direct")
    ]

    # finite values only, as np.histogram requires: pair 0 holds -0.0 and
    # subnormals among values below 1e-300, pair 1 is constant, pair 2 spans
    # -1e307..1e308
    hist_values = np.stack(
        [
            np.concatenate([[-0.0, 5e-324, -5e-324, 0.0], rng.random(36) * 1e-300]),
            np.full(count, 0.7),
            np.concatenate([[1e308, -1e307], rng.normal(size=38) * 1e300]),
        ],
        axis=1,
    )
    hist = [_sample_set("rayleigh", hist_values + 0.5j),
            _sample_set("direct", hist_values[::-1] * 0.5)]

    timing = [BenchRow(8, 2, value, None if r == 0 else SPECIALS[-1 - r])
              for r, value in enumerate(SPECIALS)]

    # one set per method in SAMPLE_METHODS order, direct last
    seconds = [5e-324, 0.5, 1.7976931348623157e308, 3e-7]
    summary = [_sample_set(method, samples[0].values, sampling=sampling)
               for method, sampling in zip(analysis.SAMPLE_METHODS, seconds)]
    # the expansion's setup time, charged to every method but direct
    summaries = {
        f"summary_direct_setup_{setup!r}": (write_sampling_summary_csv, _per_cell_summary,
                                            (summary, setup), {})
        for setup in (np.inf, np.nan, -0.0)
    }

    return {
        "error_report": (write_error_report_csv, _per_cell_error_report, (report,), {}),
        "error_report_rayleigh": (write_error_report_csv, _per_cell_error_report, (report,),
                                  {"rayleigh": True}),
        "samples": (write_samples_csv, _per_cell_samples, (samples,), {}),
        "histogram": (write_histogram_csv, _per_cell_histogram, (hist,), {}),
        "timing": (write_timing_csv, _per_cell_timing, (timing,), {}),
        "summary": (write_sampling_summary_csv, _per_cell_summary, (summary[:3], 0.25), {}),
        "summary_direct": (write_sampling_summary_csv, _per_cell_summary, (summary, 0.25), {}),
        **summaries,
    }


_CSV_CASES = _csv_cases()


class TestCsvWriters:
    def test_error_report_csv(self, tmp_path, taylor_e1_p6, torus8):
        report = error_report(torus8, taylor_e1_p6[:2], np.linspace(0.15, 0.25, 3))
        path = tmp_path / "report.csv"
        write_error_report_csv(report, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["mu", "pair_index", "abs_err_lambda", "vec_deviation"]
        assert len(rows) == 1 + 3 * 2
        # 17 significant digits survive the round trip
        assert float(rows[1][0]) == 0.15

    def test_histogram_and_summary_csv(self, tmp_path, taylor_e1_p6, torus8):
        tracked = taylor_e1_p6[:2]
        t = sample_eigenvalues(torus8, tracked, (0.2, 0.05), 200, 3, "taylor-eval")
        d = sample_eigenvalues(torus8, tracked, (0.2, 0.05), 200, 3, "direct")
        hist_path = tmp_path / "hist.csv"
        write_histogram_csv([t, d], hist_path)
        with open(hist_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["pair_index", "bin_lo", "bin_hi", "count_taylor-eval", "count_direct"]
        assert len(rows) == 1 + 2 * 50
        counts = sum(int(r[3]) for r in rows[1:] if r[0] == "0")
        assert counts == 200

        summary_path = tmp_path / "summary.csv"
        write_sampling_summary_csv([t, d], 0.5, summary_path)
        with open(summary_path, newline="") as handle:
            rows = list(csv.reader(handle))
        taylor_row = next(r for r in rows if r[0] == "taylor-eval")
        assert float(taylor_row[4]) > 0  # speedup vs direct present

        samples_path = tmp_path / "samples.csv"
        write_samples_csv([t, d], samples_path)
        with open(samples_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 200

    @pytest.mark.parametrize("case", sorted(_CSV_CASES))
    def test_csv_writer_matches_per_cell_writer(self, tmp_path, case):
        writer, oracle, args, kwargs = _CSV_CASES[case]
        writer(*args, tmp_path / "rows.csv", **kwargs)
        oracle(*args, tmp_path / "cells.csv", **kwargs)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_non_finite_histogram_raises_before_opening_a_file(self, tmp_path):
        sets = [_sample_set("taylor-eval", np.array([[0.5], [np.nan], [1.5]]))]
        for writer in (write_histogram_csv, _per_cell_histogram):
            with pytest.raises(ValueError):
                writer(sets, tmp_path / f"{writer.__name__}.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["_per_cell_histogram.csv"]

    @pytest.mark.parametrize("lo", [1e15, 2.0**52, 2.0**53, 1e17, -1e17])
    def test_constant_pair_histogram_at_large_magnitude(self, tmp_path, lo):
        # ulp(lo) is 1/8 or more, so [lo, lo + 1] holds no 50 distinct edges
        path = tmp_path / "hist.csv"
        write_histogram_csv([_sample_set("direct", np.full((5, 1), lo + 0.5j))], path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        edges = [float(rows[0]["bin_lo"])] + [float(row["bin_hi"]) for row in rows]
        assert len(rows) == 50 and edges[0] == lo
        assert all(a < b for a, b in zip(edges, edges[1:]))
        assert [int(row["count_direct"]) for row in rows] == [5] + [0] * 49

    def test_timing_csv(self, tmp_path):
        rows = [BenchRow(8, 2, 0.5, None), BenchRow(16, 2, 1.5, 3.0)]
        path = tmp_path / "bench.csv"
        write_timing_csv(rows, path)
        with open(path, newline="") as handle:
            got = list(csv.reader(handle))
        assert got[0] == ["n", "p", "seconds", "ratio"]
        assert got[1][3] == ""
        assert float(got[2][3]) == 3.0


# ---------------------------------------------------------------------------
# Batched sampling and reports against a loop over the points one at a time
# ---------------------------------------------------------------------------


def scan_greedy(approx, direct):
    """Greedy match of one row by a stable sort of every |difference| (oracle)."""
    diffs = np.abs(np.asarray(approx)[:, None] - np.asarray(direct)[None, :])
    assignment = np.full(len(approx), -1)
    taken = np.zeros(len(direct), dtype=bool)
    for flat in np.argsort(diffs, axis=None, kind="stable"):
        i, j = divmod(int(flat), len(direct))
        if assignment[i] < 0 and not taken[j]:
            assignment[i] = j
            taken[j] = True
    return assignment


def pointwise_eval(pair, mu):
    """One pair at one point: eval_taylor / eval_cheb_u, np.linalg.norm and
    the phase fix of that one vector (oracle)."""
    evaluate = eval_taylor if pair.basis.kind == "taylor" else eval_cheb_u
    vec = evaluate(pair.basis, pair.vec, mu)
    vec = vec / np.linalg.norm(vec)
    pivot = vec[int(np.argmax(np.abs(vec)))]
    return complex(evaluate(pair.basis, pair.lam, mu)), vec * (abs(pivot) / pivot)


def pointwise_rayleigh(a, q):
    return (np.conj(q) @ (a @ q)) / (np.conj(q) @ q)


def pointwise_report(problem, pairs, grid):
    """eig_errors, vec_deviation, matching and Rayleigh errors, point by point."""
    eig, dev, match, ray = [], [], [], []
    for mu in grid:
        a = np.asarray(problem.eval_at(mu))
        d = eigen_all(a, hermitian=problem.hermitian)
        lam, vecs = zip(*(pointwise_eval(pair, mu) for pair in pairs))
        lam = np.array(lam)
        assignment = scan_greedy(lam, d.values)
        match.append(assignment)
        eig.append(np.abs(lam - d.values[assignment]))
        overlaps = np.abs(d.vectors.conj().T @ np.column_stack(vecs))
        dev.append(np.max(np.abs(overlaps.max(axis=0) - 1.0)))
        refined = np.array([pointwise_rayleigh(a, q) for q in vecs])
        ray.append(np.abs(refined - d.values[scan_greedy(refined, d.values)]))
    return np.array(eig), np.array(dev), np.array(match), np.array(ray)


def pointwise_samples(problem, pairs, mus, method):
    out = np.zeros((len(mus), len(pairs)), dtype=complex)
    for s, mu in enumerate(mus):
        a = np.asarray(problem.eval_at(mu))
        evaluated = [pointwise_eval(pair, mu) for pair in pairs]
        if method == "rayleigh":
            out[s] = [pointwise_rayleigh(a, q) for _, q in evaluated]
        else:
            d = eigenvalues(a, hermitian=problem.hermitian)
            out[s] = d[scan_greedy(np.array([lam for lam, _ in evaluated]), d)]
    return out


@pytest.fixture(scope="module")
def spring_taylor(spring8):
    return expansion_series(taylor_expand_all(spring8, 0.8, 6))


@pytest.fixture(scope="module")
def spring_cheb(spring8):
    return expansion_series(cheb_expand_all(spring8, (0.6, 1.0), 8))


def test_direct_sampling_computes_no_eigenvectors(torus8, spring8, taylor_e1_p6, spring_taylor,
                                                  monkeypatch):
    def eigenvector_solve(*args, **kwargs):
        raise AssertionError("direct sampling reads only eigenvalues")

    monkeypatch.setattr(analysis, "eigen_all", eigenvector_solve)
    for problem, pairs, mean in ((torus8, taylor_e1_p6, 0.2), (spring8, spring_taylor, 0.8)):
        direct = sample_eigenvalues(problem, pairs[1:4], (mean, 0.03), 40, 7, "direct")
        assert np.all(np.isfinite(direct.values))


JORDAN_N2 = Path(__file__).resolve().parent.parent / "configs" / "example_jordan_n2.json"

# (problem fixture, series fixture, sample mean, sample stddev, grid)
BATCH_CASES = {
    "torus-taylor": ("torus8", "taylor_e1_p6", 0.2, 0.05, (0.1, 0.3)),
    "torus-cheb": ("torus8", "cheb_e1_p10", 0.6, 0.1, (0.25, 1.0)),
    "spring-taylor": ("spring8", "spring_taylor", 0.8, 0.03, (0.72, 0.88)),
    "spring-cheb": ("spring8", "spring_cheb", 0.8, 0.05, (0.6, 1.0)),
}


@pytest.fixture(params=sorted(BATCH_CASES))
def batch_case(request):
    problem, series, mean, stddev, (lo, hi) = BATCH_CASES[request.param]
    pairs = request.getfixturevalue(series)
    assert len(pairs) == 8
    return request.getfixturevalue(problem), pairs, (mean, stddev), np.linspace(lo, hi, 23)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("tracked", [slice(1, 4), slice(None)])
    def test_samples_match_pointwise_loop(self, batch_case, tracked):
        problem, pairs, dist, _ = batch_case
        pairs = pairs[tracked]
        direct = sample_eigenvalues(problem, pairs, dist, 60, 11, "direct")
        rayleigh = sample_eigenvalues(problem, pairs, dist, 60, 11, "rayleigh")
        oracle_direct = pointwise_samples(problem, pairs, direct.samples, "direct")
        oracle_rayleigh = pointwise_samples(problem, pairs, direct.samples, "rayleigh")
        assert direct.values.tobytes() == oracle_direct.tobytes()
        assert np.max(np.abs(rayleigh.values - oracle_rayleigh)) <= 1e-14

    def test_report_matches_pointwise_loop(self, batch_case):
        problem, pairs, _, grid = batch_case
        report = error_report(problem, pairs, grid)
        eig, dev, match, ray = pointwise_report(problem, pairs, grid)
        assert report.eig_errors.tobytes() == eig.tobytes()
        np.testing.assert_array_equal(report.matching, match)
        assert np.max(np.abs(report.vec_deviation - dev)) <= 1e-14
        assert np.max(np.abs(report.rayleigh_errors - ray)) <= 1e-14
        np.testing.assert_array_equal(rayleigh_errors(problem, pairs, grid), report.rayleigh_errors)

    def test_eigpath_eval_matches_pointwise(self, batch_case):
        _, pairs, _, grid = batch_case
        # a unit phase on the coefficients must come back out as the phase fix
        rotated = [EigenPairSeries(p.basis, p.lam, np.exp(0.7j) * p.vec) for p in pairs[:2]]
        for pair in [*pairs, *rotated]:
            for mu in grid[::4]:
                lam, vec = eigpath_eval(pair, mu)
                expected_lam, expected_vec = pointwise_eval(pair, mu)
                assert lam == expected_lam
                assert vec.tobytes() == expected_vec.tobytes()

    def test_blocks_of_one_point_change_nothing(self, batch_case, monkeypatch):
        problem, pairs, dist, grid = batch_case
        runs = []
        for budget in (analysis.BLOCK_BYTES, 1):
            monkeypatch.setattr(analysis, "BLOCK_BYTES", budget)
            assert len(analysis._blocks(grid.size, problem.n)) == (1 if budget > 1 else grid.size)
            report = error_report(problem, pairs, grid)
            samples = [sample_eigenvalues(problem, pairs[:3], dist, 40, 3, method).values
                       for method in ("direct", "rayleigh")]
            runs.append([report.eig_errors, report.vec_deviation, report.matching,
                         report.rayleigh_errors, *samples])
        for batched, single in zip(*runs):
            assert batched.tobytes() == single.tobytes()

    def test_blocks_crossing_into_a_complex_spectrum_match_pointwise(self, monkeypatch):
        """The Jordan n=2 config's eigenvalues 1 +- sqrt(mu) turn complex
        below mu = 0, so one block holds points with a real spectrum and
        points with a complex pair; each still gets the bits it gets alone."""
        problem = problem_from_config(JORDAN_N2)
        pairs = expansion_series(taylor_expand_all(problem, 0.25, 6))
        grid = np.linspace(-0.08, 0.3, 8)
        spectra = eigenvalues(np.stack([problem.eval_at(mu) for mu in grid]))
        assert np.any(spectra.imag != 0, axis=1).tolist() == [True] * 2 + [False] * 6
        runs = []
        for budget in (analysis.BLOCK_BYTES, 1):
            monkeypatch.setattr(analysis, "BLOCK_BYTES", budget)
            report = error_report(problem, pairs, grid)
            samples = [sample_eigenvalues(problem, pairs, (0.02, 0.05), 40, 3, method).values
                       for method in ("direct", "rayleigh")]
            runs.append([report.eig_errors, report.vec_deviation, report.matching,
                         report.rayleigh_errors, *samples])
        for batched, single in zip(*runs):
            assert batched.tobytes() == single.tobytes()
        eig, dev, match, ray = pointwise_report(problem, pairs, grid)
        assert runs[0][0].tobytes() == eig.tobytes()
        np.testing.assert_array_equal(runs[0][2], match)
        assert np.max(np.abs(runs[0][1] - dev)) <= 1e-14
        assert np.max(np.abs(runs[0][3] - ray)) <= 1e-14
        mus = sample_eigenvalues(problem, pairs, (0.02, 0.05), 40, 3, "direct").samples
        assert np.any(mus < 0) and np.any(mus > 0)
        assert runs[0][4].tobytes() == pointwise_samples(problem, pairs, mus, "direct").tobytes()

    def test_greedy_batch_equals_row_scan_with_ties_and_nan(self):
        rng = np.random.default_rng(7)
        for k, n in ((1, 1), (3, 5), (6, 6), (4, 9)):
            # small integer grids make many |differences| exactly equal
            direct = rng.integers(0, 3, (50, n)) + 1j * rng.integers(0, 2, (50, n))
            approx = rng.integers(0, 3, (50, k)) + 0.5 * rng.integers(0, 2, (50, k))
            approx[::9, 0] = np.nan  # NaN differences come last in the scan
            batched = greedy_match(approx, direct)
            assert batched.shape == (50, k)
            for row in range(50):
                expected = scan_greedy(approx[row], direct[row])
                np.testing.assert_array_equal(batched[row], expected)
                np.testing.assert_array_equal(greedy_match(approx[row], direct[row]), expected)

    def test_degenerate_vector_inside_a_block_names_its_point(self, torus8):
        # v(mu) = [1 - 2 mu, 0]: exactly zero at mu = 0.5, the third grid point
        basis = SeriesBasis.taylor(0.0)
        pair = EigenPairSeries(basis, [1.0, 0.0], [[1.0, 0.0], [-2.0, 0.0]])
        problem = constant_problem(np.diag([1.0, 2.0]), hermitian=True)
        with pytest.raises(DegenerateEvaluationError, match=r"mu=0\.5 "):
            error_report(problem, [pair], np.linspace(0.0, 1.0, 5))
        assert eigpath_eval(pair, 0.25)[0] == 1.0


def per_pair_paths(pairs, mus):
    """lambda (m, k) and phase-fixed unit v (m, k, n) from one evaluation
    per pair and series (oracle for the grouped evaluation)."""
    mus = np.asarray(mus, dtype=float)
    lam = np.stack([pair.basis.evaluate(pair.lam, mus) for pair in pairs], axis=-1)
    vec = np.stack([pair.basis.evaluate(pair.vec, mus) for pair in pairs], axis=-2)
    return lam, phase_fix(vec / vector_norms(vec)[..., None], axis=-1)


@pytest.fixture(scope="module")
def mixed_pairs(torus8, cheb_e1_p10):
    """Eight torus pairs, one per eigen-index, from five (basis, order)
    groups interleaved: Taylor about 0.4 and 0.6 at orders 6 and 8, and one
    Chebyshev pair."""
    taylor = {(mu0, p): expansion_series(taylor_expand_all(torus8, mu0, p))
              for mu0 in (0.4, 0.6) for p in (6, 8)}
    sources = [taylor[0.4, 6], taylor[0.6, 8], cheb_e1_p10, taylor[0.4, 8],
               taylor[0.6, 6], taylor[0.4, 6], taylor[0.6, 8], taylor[0.4, 8]]
    return [pairs[i] for i, pairs in enumerate(sources)]


class TestGroupedEvaluation:
    GRID = np.linspace(0.3, 0.7, 23)

    def test_paths_match_per_pair_loop_with_one_call_per_group(self, mixed_pairs, monkeypatch):
        calls = []
        evaluate = SeriesBasis.evaluate

        def counted(basis, coeffs, mu):
            calls.append(coeffs.shape)
            return evaluate(basis, coeffs, mu)

        monkeypatch.setattr(SeriesBasis, "evaluate", counted)
        lam, vec = analysis._eval_paths(mixed_pairs, self.GRID)
        assert sorted(calls) == sorted([(7, 2), (7, 1), (9, 2), (9, 2), (11, 1),
                                        (7, 2, 8), (7, 1, 8), (9, 2, 8), (9, 2, 8), (11, 1, 8)])
        expected_lam, expected_vec = per_pair_paths(mixed_pairs, self.GRID)
        assert lam.tobytes() == expected_lam.tobytes()
        assert vec.tobytes() == expected_vec.tobytes()
        eigenvalue_values = analysis._eval_series(mixed_pairs, self.GRID, "lam")
        assert eigenvalue_values.tobytes() == expected_lam.tobytes()

    def test_report_and_samples_match_per_pair_loop(self, torus8, mixed_pairs, tmp_path,
                                                    monkeypatch):
        def outputs(tag):
            report = error_report(torus8, mixed_pairs, self.GRID)
            write_error_report_csv(report, tmp_path / f"{tag}.csv", rayleigh=True)
            samples = [sample_eigenvalues(torus8, mixed_pairs, (0.5, 0.05), 40, 5, method)
                       for method in ("direct", "rayleigh")]
            write_samples_csv(samples, tmp_path / f"{tag}-samples.csv")
            return [(tmp_path / name).read_bytes() for name in (f"{tag}.csv",
                                                                f"{tag}-samples.csv")]

        def per_pair_eigenvalues(pairs, mus, field):
            assert field == "lam"    # the replaced _eval_paths evaluates the vectors
            return per_pair_paths(pairs, mus)[0]

        grouped = outputs("grouped")
        monkeypatch.setattr(analysis, "_eval_paths", per_pair_paths)
        monkeypatch.setattr(analysis, "_eval_series", per_pair_eigenvalues)
        assert grouped == outputs("per-pair")

    def test_select_tracked_keeps_its_order(self, mixed_pairs):
        from eigenpath import cli

        mean = 0.47
        lam, _ = per_pair_paths(mixed_pairs, [mean])
        order = np.lexsort((-lam[0].imag, -lam[0].real))
        positions = [4, 1, 8, 2, 7, 3, 6, 5]
        tracked = cli._select_tracked(mixed_pairs, positions, mean)
        assert [id(pair) for pair in tracked] == [id(mixed_pairs[order[pos - 1]])
                                                  for pos in positions]
