"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines as
they print). Runtime limits and numerical tolerances are asserted exactly
as the criteria state them.
"""

import time

import numpy as np
import pytest

from eigenpath import (
    NonSimpleEigenvalueError,
    cheb_expand_all,
    eigen_all,
    error_report,
    eval_cheb_u,
    eval_taylor,
    expansion_failures,
    expansion_series,
    greedy_match,
    jordan_eigenvalues,
    make_jordan,
    make_spring_chain,
    make_torus_kernel,
    sample_eigenvalues,
    taylor_expand_all,
)
from eigenpath.analysis import bench_complexity, histogram_counts, rayleigh_errors
from eigenpath.chebyshev import gauss_chebyshev_u
from eigenpath.series import u_product_degrees, u_values


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def torus():
    return make_torus_kernel(8)


@pytest.fixture(scope="module")
def cheb20(torus):
    start = time.perf_counter()
    series = expansion_series(cheb_expand_all(torus, (0.25, 1.0), 20))
    return series, time.perf_counter() - start


def test_criterion_01_trace_identity(torus):
    """Sum of the 8 eigenvalue series: order 0 adds to n, orders 1..6 to 0."""
    start = time.perf_counter()
    series = expansion_series(taylor_expand_all(torus, 0.2, 6))
    elapsed = time.perf_counter() - start
    sums = sum(pair.lam for pair in series)
    ok = (
        len(series) == 8
        and abs(sums[0] - 8.0) <= 1e-10
        and all(abs(sums[k]) <= 1e-6 for k in range(1, 7))
        and elapsed < 1.0
    )
    report(
        1, ok,
        f"|sum lam_0 - 8| = {abs(sums[0] - 8):.2e}, "
        f"max_k |sum lam_k| = {max(abs(sums[k]) for k in range(1, 7)):.2e}, "
        f"runtime {elapsed:.3f}s (< 1 s)",
    )


def test_criterion_02_taylor_accuracy_near_expansion(torus):
    start = time.perf_counter()
    series = expansion_series(taylor_expand_all(torus, 0.2, 20))
    rep = error_report(torus, series, np.linspace(0.1, 0.3, 151))
    elapsed = time.perf_counter() - start
    ok = rep.max_error <= 1e-11 and elapsed < 5.0
    report(
        2, ok,
        f"max matched error over 151 points in [0.1, 0.3] = {rep.max_error:.2e} "
        f"(<= 1e-11), runtime {elapsed:.2f}s (< 5 s)",
    )


def test_criterion_03_single_precision_error_floor(torus):
    """Known red: the measured single-precision floor is ~4.6e-8, below the
    criterion's 1e-7 constant; the 100x separation holds. See the README
    section "Install and test" for the cause and why the constant stays."""
    start = time.perf_counter()
    grid = np.linspace(0.1, 0.3, 151)
    floors = {}
    ratios = {}
    for p in (12, 16, 20):
        single = expansion_series(taylor_expand_all(torus, 0.2, p, single_precision_e=True))
        double = expansion_series(taylor_expand_all(torus, 0.2, p))
        e_single = error_report(torus, single, grid).max_error
        e_double = error_report(torus, double, grid).max_error
        floors[p] = e_single
        ratios[p] = e_single / e_double
    elapsed = time.perf_counter() - start
    ok = (
        all(f >= 1e-7 for f in floors.values())
        and all(r >= 100.0 for r in ratios.values())
        and elapsed < 10.0
    )
    floor_text = ", ".join(f"p={p}: {v:.2e}" for p, v in floors.items())
    ratio_text = ", ".join(f"p={p}: {v:.0f}x" for p, v in ratios.items())
    report(
        3, ok,
        f"single-E floors [{floor_text}] (>= 1e-7 required), "
        f"single/double separation [{ratio_text}] (>= 100x required), "
        f"runtime {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_04_chebyshev_interval_accuracy(torus, cheb20):
    series, expand_seconds = cheb20
    start = time.perf_counter()
    full_grid = np.linspace(0.25, 1.0, 151)
    rep = error_report(torus, series, full_grid)
    elapsed = expand_seconds + time.perf_counter() - start
    per_mu = rep.eig_errors.max(axis=1)
    interior = per_mu[1:-1].max()
    endpoint = max(per_mu[0], per_mu[-1])
    midpoint = per_mu[len(per_mu) // 2]
    ok = interior <= 1e-10 and endpoint >= midpoint and elapsed < 30.0
    report(
        4, ok,
        f"max interior error = {interior:.2e} (<= 1e-10), endpoint {endpoint:.2e} "
        f">= midpoint {midpoint:.2e}, runtime incl. Newton on 8 pairs "
        f"{elapsed:.1f}s (< 30 s)",
    )


def test_criterion_05_newton_iteration_budget(cheb20):
    series, _ = cheb20
    iters = [pair.diagnostics["newton_iterations"] for pair in series]
    ok = len(series) == 8 and all(i <= 10 for i in iters)
    report(5, ok, f"Newton iterations per eigenpair = {iters} (all <= 10)")


def test_criterion_06_jordan_analytic_oracle():
    problem = make_jordan(8)
    # Chebyshev on [0.10, 0.50] vs roots of (lambda-1)^8 = mu
    series = expansion_series(cheb_expand_all(problem, (0.10, 0.50), 20))
    worst = 0.0
    for mu in np.linspace(0.10, 0.50, 41)[1:-1]:
        oracle = jordan_eigenvalues(8, mu)
        approx = np.array([eval_cheb_u(pair.basis, pair.lam, mu) for pair in series])
        matched = greedy_match(approx, oracle)
        worst = max(worst, float(np.max(np.abs(approx - oracle[matched]))))
    cheb_ok = len(series) == 8 and worst <= 1e-6

    # Taylor convergence in order: p=8 strictly better than p=2 at mu=0.25
    oracle = jordan_eigenvalues(8, 0.25)
    errs = {}
    for p in (2, 8):
        tseries = expansion_series(taylor_expand_all(problem, 0.2, p))
        approx = np.array([eval_taylor(pair.basis, pair.lam, 0.25) for pair in tseries])
        matched = greedy_match(approx, oracle)
        errs[p] = np.abs(approx - oracle[matched])
    order_ok = np.all(errs[8] < errs[2])

    # expansion at the defective point mu0 = 0 fails with the documented error
    failures = expansion_failures(taylor_expand_all(problem, 0.0, 4))
    fail_ok = len(failures) == 8 and all(
        isinstance(f.error, NonSimpleEigenvalueError) for f in failures
    )
    ok = cheb_ok and order_ok and fail_ok
    report(
        6, ok,
        f"cheb vs analytic roots max err = {worst:.2e} (<= 1e-6); "
        f"p=8 errors all below p=2 errors: {bool(order_ok)}; "
        f"mu0=0 rejected for all 8 eigenpairs: {fail_ok}",
    )


def test_criterion_07_first_order_derivative_oracle():
    h = 1e-5
    worst = 0.0
    for problem, mu0 in ((make_torus_kernel(8), 0.2), (make_spring_chain(8), 0.8)):
        series = expansion_series(taylor_expand_all(problem, mu0, 1))
        plus = eigen_all(problem.eval_at(mu0 + h), hermitian=problem.hermitian)
        minus = eigen_all(problem.eval_at(mu0 - h), hermitian=problem.hermitian)
        for pair in series:
            lam0 = pair.lam[0]
            jp = int(np.argmin(np.abs(plus.values - lam0)))
            jm = int(np.argmin(np.abs(minus.values - lam0)))
            fd = (plus.values[jp] - minus.values[jm]) / (2 * h)
            rel = abs(pair.lam[1] - fd) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
    ok = worst <= 1e-6
    report(7, ok, f"max relative |lam_1 - central FD| on Examples 1-2 = {worst:.2e} (<= 1e-6)")


def test_criterion_08_rayleigh_median_improvement(torus):
    series = expansion_series(cheb_expand_all(torus, (0.25, 1.0), 10))
    grid = np.linspace(0.25, 1.0, 31)
    rep = error_report(torus, series, grid)
    rq = rayleigh_errors(torus, series, grid)
    med_eval, med_rq = float(np.median(rep.eig_errors)), float(np.median(rq))
    ok = med_rq <= med_eval
    report(
        8, ok,
        f"median Rayleigh error {med_rq:.2e} <= median direct-eval error {med_eval:.2e} "
        "(Example 1 only; not asserted for Example 2)",
    )


def test_criterion_09_sampling_speedup(torus):
    start = time.perf_counter()
    series = expansion_series(taylor_expand_all(torus, 0.2, 6))
    order = np.argsort([-eval_taylor(p.basis, p.lam, 0.2).real for p in series])
    tracked = [series[order[1]], series[order[2]]]  # second and third largest
    fast = sample_eigenvalues(torus, tracked, (0.2, 0.1), 10_000, 42, "taylor-eval")
    direct = sample_eigenvalues(torus, tracked, (0.2, 0.1), 10_000, 42, "direct")
    elapsed = time.perf_counter() - start
    ratio = direct.sampling_seconds / fast.sampling_seconds
    ok = ratio > 1.0 and elapsed < 60.0
    report(
        9, ok,
        f"expansion sampling {fast.sampling_seconds:.4f}s vs direct "
        f"{direct.sampling_seconds:.2f}s, ratio {ratio:.1f}x (absolute speedup "
        f"is machine-dependent; only > 1 is asserted), "
        f"runtime {elapsed:.1f}s (< 60 s)",
    )


def test_criterion_10_complexity_trends():
    rows_p = bench_complexity(make_torus_kernel, [8], [4, 8, 16, 32], mu0=0.2, repeats=3)
    p_ratios = [r.ratio for r in rows_p[1:]]
    p_ok = all(r <= 4.5 for r in p_ratios)

    rows_n = bench_complexity(make_torus_kernel, [64, 128, 256], [2], mu0=0.2, repeats=3)
    times = [r.seconds for r in rows_n]
    exponent = float(np.polyfit(np.log([64, 128, 256]), np.log(times), 1)[0])
    n_ok = exponent < 4.0
    ok = p_ok and n_ok
    report(
        10, ok,
        f"p-doubling ratios at n=8: {[f'{r:.2f}' for r in p_ratios]} (<= 4.5); "
        f"runtime exponent vs n at p=2: {exponent:.2f} (< 4.0)",
    )


def test_criterion_11_property_suites(torus, cheb20):
    cheb20_series, _ = cheb20
    # (a) U-product rule vs exact polynomial multiplication, i, j <= 12
    def u_poly(k):
        polys = [[1], [0, 2]]
        while len(polys) <= k:
            prev, prev2 = polys[-1], polys[-2]
            nxt = [0] + [2 * c for c in prev]
            for i, c in enumerate(prev2):
                nxt[i] -= c
            polys.append(nxt)
        return polys[k]

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return out

    product_ok = True
    for i in range(13):
        for j in range(13):
            product = poly_mul(u_poly(i), u_poly(j))
            expected = [0] * len(product)
            for k in u_product_degrees(i, j):
                for m, c in enumerate(u_poly(k)):
                    expected[m] += c
            product_ok = product_ok and product == expected

    # (b) quadrature orthonormality
    s, w = gauss_chebyshev_u(64)
    table = u_values(s, 12)
    gram = (2.0 / np.pi) * (table * w) @ table.T
    orth_err = float(np.max(np.abs(gram - np.eye(13))))

    # (c) gamma-scaling equivariance of the bordered solve
    from eigenpath.linalg import build_bordered, solve_bordered

    rng = np.random.default_rng(3)
    a = rng.normal(size=(7, 7))
    a = a + a.T
    d = eigen_all(a, hermitian=True)
    v0, lam0 = d.vectors[:, 2].copy(), complex(d.values[2])
    y = rng.normal(size=7) + 1j * rng.normal(size=7)
    gamma = np.exp(0.9j)
    base = solve_bordered(
        build_bordered(a, v0, lam0), np.concatenate(([0.2 + 0j], y))
    )
    spun = solve_bordered(
        build_bordered(a, gamma * v0, lam0),
        np.concatenate(([0.2 + 0j], gamma * y)),
    )
    gamma_err = max(
        abs(base[0] - spun[0]), float(np.max(np.abs(spun[1] - gamma * base[1])))
    )

    # (d) Jacobian vs finite differences
    from eigenpath.chebyshev import cheb_jacobian, cheb_residual, project_matrix_coeffs

    coeffs = project_matrix_coeffs(torus, (0.25, 1.0), 3)
    rng2 = np.random.default_rng(4)
    x = rng2.normal(size=4 * 9) + 1j * rng2.normal(size=4 * 9)
    jac = cheb_jacobian(x, coeffs)
    h = 1e-7
    fd = np.zeros_like(jac)
    for col in range(x.size):
        step = np.zeros(x.size, dtype=complex)
        step[col] = h
        fd[:, col] = (cheb_residual(x + step, coeffs) - cheb_residual(x - step, coeffs)) / (2 * h)
    jac_err = float(np.max(np.abs(jac - fd)) / (1.0 + np.max(np.abs(jac))))

    # (e) Galerkin residual of accepted Chebyshev solutions
    coeffs20 = project_matrix_coeffs(torus, (0.25, 1.0), 20)
    tol = 1e-12 * (1.0 + max(float(np.linalg.norm(c)) for c in coeffs20))
    galerkin_err = 0.0
    for pair in cheb20_series:
        packed = np.column_stack((pair.lam, pair.vec)).ravel()
        galerkin_err = max(galerkin_err, float(np.max(np.abs(cheb_residual(packed, coeffs20)))))

    # (f) seeded sampling determinism (bitwise)
    series = expansion_series(taylor_expand_all(torus, 0.2, 6))
    sa = sample_eigenvalues(torus, series[:2], (0.2, 0.1), 256, 11, "taylor-eval")
    sb = sample_eigenvalues(torus, series[:2], (0.2, 0.1), 256, 11, "taylor-eval")
    deterministic = (
        sa.samples.tobytes() == sb.samples.tobytes()
        and sa.values.tobytes() == sb.values.tobytes()
    )
    ha = histogram_counts(sa.values[:, 0].real, 0.0, 3.0)[1]
    hb = histogram_counts(sb.values[:, 0].real, 0.0, 3.0)[1]
    deterministic = deterministic and np.array_equal(ha, hb)

    ok = (
        product_ok
        and orth_err <= 1e-12
        and gamma_err <= 1e-12
        and jac_err <= 1e-6
        and galerkin_err <= tol
        and deterministic
    )
    report(
        11, ok,
        f"U-product exact: {product_ok}; orthonormality {orth_err:.1e} (<= 1e-12); "
        f"gamma equivariance {gamma_err:.1e} (<= 1e-12); Jacobian-FD {jac_err:.1e} "
        f"(<= 1e-6); Galerkin residual {galerkin_err:.1e} (<= {tol:.1e}); "
        f"bitwise-deterministic sampling: {deterministic}",
    )
