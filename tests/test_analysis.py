"""Pointwise evaluation, matching, Rayleigh refinement, sampling, benches,
and CSV export."""

import csv
import itertools

import numpy as np
import pytest

from conftest import constant_problem

from eigenpath import (
    ChebRequest,
    DegenerateEvaluationError,
    EigenPairSeries,
    ScalarSeries,
    SeriesBasis,
    TaylorRequest,
    VectorSeries,
    cheb_expand_all,
    eigen_all,
    eigpath_eval,
    error_report,
    eval_cheb_u,
    eval_taylor,
    expansion_series,
    greedy_match,
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
        lam = ScalarSeries(basis, [2.5])
        vec = VectorSeries(basis, [[3.0, 4.0]])
        pair = EigenPairSeries(lam, vec)
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
        pair = EigenPairSeries(
            ScalarSeries(basis, [1.0]), VectorSeries(basis, [[0.0, 0.0]])
        )
        with pytest.raises(DegenerateEvaluationError):
            eigpath_eval(pair, 0.3)


class TestRayleigh:
    def test_exact_eigenvector_gives_exact_eigenvalue(self, torus8):
        a = torus8.eval_at(0.4)
        d = eigen_all(a, hermitian=True)
        basis = SeriesBasis.taylor(0.4)
        pair = EigenPairSeries(
            ScalarSeries(basis, [d.values[0] + 0.01]),  # deliberately off
            VectorSeries(basis, [d.vectors[:, 0]]),
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
        from eigenpath import taylor_expand_eigenpair

        problem = linear_problem()
        pair = taylor_expand_eigenpair(TaylorRequest(problem, 0.3, 1, selector=0))
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
        lam0 = eval_taylor(taylor_e1_p6[0].lam, 0.2)
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
        order = np.argsort([-eval_taylor(s.lam, 0.2).real for s in taylor_e1_p6])
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
        t = sample_eigenvalues(torus8, tracked, (0.2, 0.05), 200, 3, "taylor-eval", 0.5)
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
        write_sampling_summary_csv([t, d], summary_path)
        with open(summary_path, newline="") as handle:
            rows = list(csv.reader(handle))
        taylor_row = next(r for r in rows if r[0] == "taylor-eval")
        assert float(taylor_row[4]) > 0  # speedup vs direct present

        samples_path = tmp_path / "samples.csv"
        write_samples_csv([t, d], samples_path)
        with open(samples_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 200

    def test_samples_csv_matches_per_cell_writer(self, tmp_path):
        # the per-cell writer the row-at-a-time one replaced, as the oracle
        def per_cell(sample_sets, path):
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                header = ["sample_index", "mu"]
                for ss in sample_sets:
                    for i in range(ss.values.shape[1]):
                        header += [f"re_{ss.method}_pair{i}", f"im_{ss.method}_pair{i}"]
                writer.writerow(header)
                for s in range(sample_sets[0].count):
                    row = [str(s), f"{sample_sets[0].samples[s]:.17g}"]
                    for ss in sample_sets:
                        for i in range(ss.values.shape[1]):
                            row += [f"{ss.values[s, i].real:.17g}", f"{ss.values[s, i].imag:.17g}"]
                    writer.writerow(row)

        rng = np.random.default_rng(21)
        count = 40
        mus = rng.normal(0.2, 0.05, count)
        sets = []
        for method, pairs in (("taylor-eval", 3), ("direct", 3)):
            scale = 10.0 ** rng.integers(-300, 300, size=(count, pairs))
            values = (rng.normal(size=(count, pairs)) + 1j * rng.normal(size=(count, pairs))) * scale
            sets.append(analysis.SampleSet(5, 0.2, 0.05, count, method, mus, values, 0.1, 0.2))
        specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16]
        for s, value in enumerate(specials):
            sets[0].values[s, 1] = complex(value, -value)
        write_samples_csv(sets, tmp_path / "rows.csv")
        per_cell(sets, tmp_path / "cells.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

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
    vec = evaluate(pair.vec, mu)
    vec = vec / np.linalg.norm(vec)
    pivot = vec[int(np.argmax(np.abs(vec)))]
    return complex(evaluate(pair.lam, mu)), vec * (abs(pivot) / pivot)


def pointwise_rayleigh(a, q):
    return (np.conj(q) @ (a @ q)) / (np.conj(q) @ q)


def pointwise_report(problem, pairs, grid):
    """eig_errors, vec_deviation, matching and Rayleigh errors, point by point."""
    eig, dev, match, ray = [], [], [], []
    for mu in grid:
        a = np.asarray(problem.eval_at(mu), dtype=complex)
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
        a = np.asarray(problem.eval_at(mu), dtype=complex)
        evaluated = [pointwise_eval(pair, mu) for pair in pairs]
        if method == "rayleigh":
            out[s] = [pointwise_rayleigh(a, q) for _, q in evaluated]
        else:
            d = eigen_all(a, hermitian=problem.hermitian)
            out[s] = d.values[scan_greedy(np.array([lam for lam, _ in evaluated]), d.values)]
    return out


@pytest.fixture(scope="module")
def spring_taylor(spring8):
    return expansion_series(taylor_expand_all(TaylorRequest(spring8, 0.8, 6)))


@pytest.fixture(scope="module")
def spring_cheb(spring8):
    return expansion_series(cheb_expand_all(ChebRequest(spring8, (0.6, 1.0), 8)))


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
        rotated = [EigenPairSeries(p.lam, VectorSeries(p.basis, np.exp(0.7j) * p.vec.coeffs))
                   for p in pairs[:2]]
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
        pair = EigenPairSeries(
            ScalarSeries(basis, [1.0, 0.0]), VectorSeries(basis, [[1.0, 0.0], [-2.0, 0.0]])
        )
        problem = constant_problem(np.diag([1.0, 2.0]), hermitian=True)
        with pytest.raises(DegenerateEvaluationError, match=r"mu=0\.5 "):
            error_report(problem, [pair], np.linspace(0.0, 1.0, 5))
        assert eigpath_eval(pair, 0.25)[0] == 1.0
