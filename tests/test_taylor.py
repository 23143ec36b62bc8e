"""Order-by-order Taylor expansion of eigenpaths."""

import math

import numpy as np
import pytest

from conftest import constant_problem, linear_problem, shift_problem

from eigenpath import (
    DerivativeOrderError,
    ExpansionFailure,
    NonSimpleEigenvalueError,
    NumericalError,
    ParametricProblem,
    TaylorRequest,
    eigen_all,
    eval_taylor,
    expansion_failures,
    expansion_series,
    make_spring_chain,
    make_torus_kernel,
    taylor_expand_all,
    taylor_rhs,
)
from eigenpath.linalg import assemble_bordered, border_row, build_bordered, solve_bordered
from eigenpath.problems import builtin_problem
from eigenpath.taylor import _bordered_residuals, binomial_table, expand_schur


class TestTaylorRhs:
    def test_order_one(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4, 4))
        v0 = rng.normal(size=4)
        z, y = taylor_rhs(1, a, [v0], [2.0])
        assert z == 0.0
        np.testing.assert_allclose(y, a[1] @ v0, rtol=1e-15)

    def test_order_two(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 4, 4))
        v0, v1 = rng.normal(size=4), rng.normal(size=4)
        lam1 = 0.7
        z, y = taylor_rhs(2, a, [v0, v1], [2.0, lam1])
        np.testing.assert_allclose(z, -(v1 @ v1), rtol=1e-14)
        np.testing.assert_allclose(y, a[2] @ v0 + 2 * a[1] @ v1 - 2 * v1 * lam1, rtol=1e-14)

    def test_order_three_against_direct_loop(self):
        rng = np.random.default_rng(3)
        k = 3
        a = rng.normal(size=(k + 1, 5, 5)) + 1j * rng.normal(size=(k + 1, 5, 5))
        vs = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(k)]
        lams = [rng.normal() + 1j * rng.normal() for _ in range(k)]
        z, y = taylor_rhs(k, a, vs, lams)
        y_ref = np.zeros(5, dtype=complex)
        z_ref = 0.0
        for l in range(k):
            y_ref += math.comb(k, l) * (a[k - l] @ vs[l])
            if l >= 1:
                y_ref -= math.comb(k, l) * vs[k - l] * lams[l]
                z_ref -= 0.5 * math.comb(k, l) * (vs[k - l] @ vs[l])
        np.testing.assert_allclose(y, y_ref, rtol=1e-13)
        np.testing.assert_allclose(z, z_ref, rtol=1e-13)

    def test_binomial_table_exact(self):
        c = binomial_table(30)
        for k in (5, 17, 30):
            for l in range(k + 1):
                assert c[k, l] == math.comb(k, l)


class TestExpandEigenpair:
    def test_scalar_linear_problem(self):
        pair = taylor_expand_all(TaylorRequest(linear_problem(), 0.3, 4, selector=0))[0]
        np.testing.assert_allclose(pair.lam.coeffs, [0.3, 1.0, 0.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(pair.vec.coeffs[0], [1.0], atol=1e-14)
        np.testing.assert_allclose(pair.vec.coeffs[1:], 0.0, atol=1e-14)

    def test_uniform_shift(self):
        rng = np.random.default_rng(4)
        a0 = rng.normal(size=(5, 5))
        problem = shift_problem(a0, mu0=0.4)
        pair = taylor_expand_all(TaylorRequest(problem, 0.4, 3, selector=2))[0]
        assert pair.lam.coeffs[1] == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(pair.lam.coeffs[2:], 0.0, atol=1e-9)
        np.testing.assert_allclose(pair.vec.coeffs[1:], 0.0, atol=1e-9)

    def test_jordan_derivative(self):
        # largest eigenvalue path 1 + sqrt(mu): d/dmu at 0.2 is 1/(2 sqrt(0.2))
        from eigenpath import make_jordan

        pair = taylor_expand_all(TaylorRequest(make_jordan(2), 0.2, 2, selector=0))[0]
        assert pair.lam.coeffs[0] == pytest.approx(1 + math.sqrt(0.2), abs=1e-12)
        assert pair.lam.coeffs[1] == pytest.approx(1 / (2 * math.sqrt(0.2)), abs=1e-8)

    def test_p_zero_returns_phase_fixed_eigenpair(self, torus8):
        pair = taylor_expand_all(TaylorRequest(torus8, 0.2, 0, selector=1))[0]
        d = eigen_all(torus8.eval_at(0.2), hermitian=True)
        assert pair.lam.coeffs[0] == pytest.approx(complex(d.values[1]), abs=1e-13)
        np.testing.assert_allclose(pair.vec.coeffs[0], d.vectors[:, 1], atol=1e-13)

    def test_missing_derivative_orders(self):
        problem = ParametricProblem(
            name="broken",
            n=2,
            eval_at=lambda mu: np.eye(2) * (1 + mu),
            derivs_at=lambda mu0, p: np.zeros((1, 2, 2)) + np.eye(2),
        )
        with pytest.raises(DerivativeOrderError):
            taylor_expand_all(TaylorRequest(problem, 0.0, 3, selector=0))


class TestExpandAll:
    def test_constant_problem_zero_tails(self):
        rng = np.random.default_rng(6)
        a0 = rng.normal(size=(4, 4))
        a0 = a0 + a0.T
        results = taylor_expand_all(TaylorRequest(constant_problem(a0, hermitian=True), 0.0, 5))
        series = expansion_series(results)
        assert len(series) == 4
        for pair in series:
            np.testing.assert_allclose(pair.lam.coeffs[1:], 0.0, atol=1e-11)
            np.testing.assert_allclose(pair.vec.coeffs[1:], 0.0, atol=1e-11)

    def test_example2_at_expansion_point(self, spring8):
        series = expansion_series(taylor_expand_all(TaylorRequest(spring8, 0.8, 6)))
        assert len(series) == 8
        direct = eigen_all(spring8.eval_at(0.8))
        approx = sorted((eval_taylor(s.lam, 0.8).real for s in series), reverse=True)
        np.testing.assert_allclose(approx, direct.values.real, atol=1e-10)

    def test_defective_reported_per_eigenpair(self):
        from eigenpath import make_jordan

        results = taylor_expand_all(TaylorRequest(make_jordan(8), 0.0, 4))
        failures = expansion_failures(results)
        assert len(failures) == 8
        assert all(isinstance(f.error, NonSimpleEigenvalueError) for f in failures)

    @pytest.mark.parametrize("single_precision_e", [False, True])
    def test_overflowing_pairs_fail_at_their_first_non_finite_order(self, single_precision_e):
        # near the branch point of the 2 x 2 Jordan family the coefficients
        # grow like k! / mu0^k and overflow in the twenties
        problem = builtin_problem("example3", 2)

        def expand(order):
            request = TaylorRequest(problem, 1e-12, order, single_precision_e=single_precision_e)
            return taylor_expand_all(request)

        assert len(expansion_series(expand(20))) == 2
        failures = expand(40)
        assert [f.index for f in expansion_failures(failures)] == [0, 1]
        for failure in failures:
            assert type(failure.error) is NumericalError
            message = str(failure.error)
            assert message.startswith("series coefficient at order ") and message.endswith(
                " is not finite"
            )
            order = int(message.split()[4])
            # the same pair one order short is still finite
            before = expand(order - 1)[failure.index]
            assert not isinstance(before, ExpansionFailure)
            assert np.all(np.isfinite(before.vec.coeffs)) and np.all(np.isfinite(before.lam.coeffs))
            assert isinstance(expand(order)[failure.index], ExpansionFailure)
        (failure,) = taylor_expand_all(
            TaylorRequest(problem, 1e-12, 40, selector=0, single_precision_e=single_precision_e)
        )
        assert isinstance(failure.error, NumericalError) and "is not finite" in str(failure.error)

    def test_order_residuals_recorded(self, taylor_e1_p6):
        for pair in taylor_e1_p6:
            residuals = pair.diagnostics["order_residuals"]
            assert len(residuals) == 6
            assert all(np.isfinite(residuals))

    def test_residual_invariant_normalized(self, torus8):
        # order-k residual <= 1e-11 (1 + ||rhs||_inf), checked directly
        derivs = torus8.derivs_at(0.2, 6)
        d = eigen_all(derivs[0], hermitian=True)
        v0, lam0 = d.vectors[:, 0].copy(), complex(d.values[0])
        system = build_bordered(derivs[0], v0, lam0, hermitian=True)
        lams, vs = [lam0], [v0]
        for k in range(1, 7):
            z, y = taylor_rhs(k, derivs, vs, lams, hermitian=True)
            rhs = np.concatenate(([z], y))
            lam_k, v_k = solve_bordered(system, rhs)
            x = np.concatenate(([lam_k], v_k))
            assert np.max(np.abs(system.matrix @ x - rhs)) <= 1e-11 * (
                1.0 + np.max(np.abs(rhs))
            )
            lams.append(lam_k)
            vs.append(v_k)


def _per_pair_oracle(derivs, decomp, index, p, hermitian):
    """One pair's order loop: taylor_rhs plus the dense bordered LU solve."""
    lam0 = complex(decomp.values[index])
    v0 = decomp.vectors[:, index].copy()
    system = build_bordered(derivs[0], v0, lam0, hermitian)
    binomials = binomial_table(max(p, 1))
    lams, vs = [lam0], [v0]
    for k in range(1, p + 1):
        z, y = taylor_rhs(k, derivs, vs, lams, hermitian=hermitian, binomials=binomials)
        lam_k, v_k = solve_bordered(system, np.concatenate(([z], y)))
        lams.append(lam_k)
        vs.append(v_k)
    return np.array(lams), np.array(vs)


def _relative_error(coeffs, reference):
    """Per order: max |difference| over max(1, max |reference_k|)."""
    coeffs = np.asarray(coeffs).reshape(len(coeffs), -1)
    reference = np.asarray(reference).reshape(len(reference), -1)
    scale = np.maximum(1.0, np.max(np.abs(reference), axis=1))
    return np.max(np.abs(coeffs - reference), axis=1) / scale


class TestSchurKernel:
    @pytest.mark.parametrize(
        "name, mu0", [("spring", 0.8), ("torus", 0.2)]
    )
    def test_matches_per_pair_oracle(self, name, mu0):
        problem = make_spring_chain(8) if name == "spring" else make_torus_kernel(8)
        p = 6
        derivs = problem.derivs_at(mu0, p)
        d = eigen_all(derivs[0], hermitian=problem.hermitian)
        results = taylor_expand_all(TaylorRequest(problem, mu0, p))
        assert len(expansion_series(results)) == 8
        for index, pair in enumerate(results):
            lams, vs = _per_pair_oracle(derivs, d, index, p, problem.hermitian)
            assert np.max(_relative_error(pair.lam.coeffs, lams)) <= 1e-12
            if name == "spring":
                assert np.max(_relative_error(pair.vec.coeffs, vs)) <= 1e-11
            # Small gaps (torus: 9.9e-4) amplify rounding by about 1/gap^k in
            # both paths, so torus eigenvectors are checked by each order's
            # bordered residual rather than against the oracle.
            lam0 = complex(d.values[index])
            e = assemble_bordered(derivs[0], d.vectors[:, index], lam0, problem.hermitian)
            lam_c, vec_c = list(pair.lam.coeffs), list(pair.vec.coeffs)
            residuals = pair.diagnostics["order_residuals"]
            assert len(residuals) == p
            for k in range(1, p + 1):
                z, y = taylor_rhs(k, derivs, vec_c[:k], lam_c[:k], hermitian=problem.hermitian)
                rhs = np.concatenate(([z], y))
                bound = 1e-11 * (1.0 + np.max(np.abs(rhs)))
                x = np.concatenate(([lam_c[k]], vec_c[k]))
                assert np.max(np.abs(e @ x - rhs)) <= bound
                assert residuals[k - 1] <= bound
            others = np.delete(d.values, index)
            assert pair.diagnostics["gap"] == pytest.approx(
                min(abs(lam0 - other) for other in others), rel=1e-15
            )

    def test_nearly_defective_pair_leaves_others_exact(self):
        # A0 = S T S^{-1}: a Jordan-like block at 1 with gap 1e-6 and eight
        # well-separated eigenvalues 3..10; cond(S) = 3.
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        s = q @ np.diag(np.linspace(1.0, 3.0, 10))
        t = np.diag([1.0, 1.0 + 1e-6] + [float(j) for j in range(3, 11)])
        t[0, 1] = 1.0
        a0 = s @ t @ np.linalg.inv(s)
        a1 = 0.1 * rng.normal(size=(10, 10))

        def derivs_at(mu0, p):
            derivs = np.zeros((p + 1, 10, 10))
            derivs[0] = a0 + mu0 * a1
            if p >= 1:
                derivs[1] = a1
            return derivs

        problem = ParametricProblem(
            name="nearly-defective", n=10, eval_at=lambda mu: a0 + mu * a1,
            derivs_at=derivs_at, hermitian=False,
        )
        p = 6
        derivs = np.asarray(derivs_at(0.0, p), dtype=complex)
        d = eigen_all(derivs[0])
        results = taylor_expand_all(TaylorRequest(problem, 0.0, p))
        separated = [i for i, pair in enumerate(results) if pair.diagnostics["gap"] > 0.5]
        assert len(separated) == 8
        for index in separated:
            lams, vs = _per_pair_oracle(derivs, d, index, p, False)
            assert np.max(_relative_error(results[index].lam.coeffs, lams)) <= 1e-12
            assert np.max(_relative_error(results[index].vec.coeffs, vs)) <= 1e-12

    @pytest.mark.parametrize(
        "a0, hermitian, failing, reason",
        [
            # repeated eigenvalue: the gap test
            (np.diag([3.0, 2.0, 1.0, 1.0]), True, [2, 3], "gap 0 below"),
            # gap 4.5e-12 passes the gap test (4e-12) but not the Schur-pivot
            # test (5e-12)
            (np.diag([3.0, 2.0, 1.0, 1.0 + 4.5e-12]), True, [2, 3], "Schur diagonal"),
            # gap 1e-10 but eigenvalue condition number ~1e13 for both
            (np.array([[1.0, 1e3, 0.0], [0.0, 1.0 + 1e-10, 0.0], [0.0, 0.0, 3.0]]),
             False, [1, 2], "eliminated pivot"),
        ],
    )
    def test_non_simple_pairs_fail_alone(self, a0, hermitian, failing, reason):
        results = taylor_expand_all(TaylorRequest(constant_problem(a0, hermitian), 0.0, 4))
        failures = expansion_failures(results)
        assert [f.index for f in failures] == failing
        assert all(isinstance(f.error, NonSimpleEigenvalueError) for f in failures)
        assert all(reason in str(f.error) for f in failures)
        expanded = [pair for pair in results if not isinstance(pair, ExpansionFailure)]
        assert len(expanded) == len(results) - len(failing)
        for pair in expanded:
            np.testing.assert_allclose(pair.lam.coeffs[1:], 0.0, atol=1e-14)
            np.testing.assert_allclose(pair.vec.coeffs[1:], 0.0, atol=1e-14)
            dist = np.sort(np.abs(np.diagonal(a0) - pair.lam.coeffs[0]))
            assert dist[0] <= 1e-14
            assert pair.diagnostics["gap"] == pytest.approx(dist[1])

    @pytest.mark.parametrize("name", ["torus", "complex-hermitian", "spring"])
    def test_order_identities(self, name):
        # Independent of taylor_rhs: order k of A(mu) v(mu) = lam(mu) v(mu)
        # and of the normalization b^T v(mu) = 1 (b = conj(v0) if Hermitian),
        # as Cauchy products of the coefficients.
        if name == "complex-hermitian":
            rng = np.random.default_rng(7)
            h0, h1 = (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) for _ in range(2))
            h0, h1 = h0 + h0.conj().T, h1 + h1.conj().T

            def derivs_at(mu0, p):
                derivs = np.zeros((p + 1, 6, 6), dtype=complex)
                derivs[0] = h0 + mu0 * h1
                derivs[1] = h1
                return derivs

            problem = ParametricProblem(
                name=name, n=6, eval_at=lambda mu: h0 + mu * h1, derivs_at=derivs_at,
                hermitian=True,
            )
            mu0 = 0.0
        elif name == "torus":
            problem, mu0 = make_torus_kernel(8), 0.2
        else:
            problem, mu0 = make_spring_chain(8), 0.8
        p = 6
        a = np.asarray(problem.derivs_at(mu0, p), dtype=complex)
        a_size = np.linalg.norm(a, axis=(1, 2))
        dot = np.vdot if problem.hermitian else np.dot
        for pair in taylor_expand_all(TaylorRequest(problem, mu0, p)):
            lam, v = pair.lam.coeffs, pair.vec.coeffs
            v_size = np.linalg.norm(v, axis=1)
            for k in range(1, p + 1):
                w = [math.comb(k, l) for l in range(k + 1)]
                eigen = sum(w[l] * (a[k - l] @ v[l] - lam[k - l] * v[l]) for l in range(k + 1))
                size = sum(
                    w[l] * (a_size[k - l] + abs(lam[k - l])) * v_size[l] for l in range(k + 1)
                )
                assert np.linalg.norm(eigen) <= 1e-13 * size
                norm = sum(w[l] * dot(v[k - l], v[l]) for l in range(k + 1))
                size = sum(w[l] * v_size[k - l] * v_size[l] for l in range(k + 1))
                assert abs(norm) <= 1e-13 * size

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_bordered_residuals_match_assembled_matrix(self, hermitian):
        rng = np.random.default_rng(12)
        n, m = 5, 3
        cplx = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a0, v0, v_k, y = cplx(n, n), cplx(n, m), cplx(n, m), cplx(n, m)
        lam0, lam_k, z = cplx(m), cplx(m), cplx(m)
        border = border_row(v0, hermitian)
        got = _bordered_residuals(a0, lam0, v0, border, lam_k, v_k, z, y)
        for i in range(m):
            e = assemble_bordered(a0, v0[:, i], lam0[i], hermitian)
            x = np.concatenate(([lam_k[i]], v_k[:, i]))
            rhs = np.concatenate(([z[i]], y[:, i]))
            assert got[i] == pytest.approx(np.max(np.abs(e @ x - rhs)), rel=1e-12)

    def test_single_pair_matches_its_column(self, spring8):
        column = taylor_expand_all(TaylorRequest(spring8, 0.8, 6))[3]
        single = taylor_expand_all(TaylorRequest(spring8, 0.8, 6, selector=3))[0]
        assert np.max(_relative_error(single.lam.coeffs, column.lam.coeffs)) <= 1e-12
        assert np.max(_relative_error(single.vec.coeffs, column.vec.coeffs)) <= 1e-12

    def test_single_non_simple_pair_raises(self):
        problem = constant_problem(np.diag([3.0, 2.0, 1.0, 1.0]), hermitian=True)
        (failure,) = taylor_expand_all(TaylorRequest(problem, 0.0, 4, selector=3))
        assert isinstance(failure.error, NonSimpleEigenvalueError)


class TestNormalizationRows:
    def test_first_and_second_order(self, taylor_e1_p6):
        for pair in taylor_e1_p6:
            v = pair.vec.coeffs
            assert abs(np.conj(v[0]) @ v[1]) <= 1e-12
            assert abs(np.conj(v[0]) @ v[2] + np.conj(v[1]) @ v[1]) <= 1e-11


def _schur_expansion(derivs, decomp, index, v0, p):
    """One Hermitian pair through the Schur kernel from the starting column v0."""
    errors, lams, vs, _, _ = expand_schur(
        derivs, binomial_table(p), decomp, [index], v0[:, None], hermitian=True
    )
    assert errors == [None]
    return lams[:, 0], vs[:, :, 0]


class TestGammaInvariance:
    @pytest.mark.parametrize("gamma", [-1.0 + 0j, np.exp(1.3j)])
    def test_eigenvalue_coefficients_unchanged(self, torus8, gamma):
        derivs = np.asarray(torus8.derivs_at(0.2, 4), dtype=complex)
        d = eigen_all(derivs[0], hermitian=True)
        # index 0 is well separated (gap ~1.5), so no small gap amplifies
        # roundoff; still its coefficients grow to |lam_4| ~ 5e3 and
        # |v_4| ~ 8, where an absolute 1e-12 is below the rounding error of
        # one run, and rotating v0 by a generic phase rounds v0 itself. So
        # each order is compared to 1e-12 relative to its own size.
        v0 = d.vectors[:, 0]
        base_lam, base_vec = _schur_expansion(derivs, d, 0, v0, 4)
        spun_lam, spun_vec = _schur_expansion(derivs, d, 0, gamma * v0, 4)
        lam_scale = np.maximum(1.0, np.abs(base_lam))
        vec_scale = np.maximum(1.0, np.max(np.abs(base_vec), axis=1))[:, None]
        np.testing.assert_allclose((spun_lam - base_lam) / lam_scale, 0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            (spun_vec - gamma * base_vec) / vec_scale, 0, rtol=0, atol=1e-12
        )

    def test_mid_spectrum_amplification_stays_bounded(self, torus8):
        # sequential orders amplify roundoff by the eigenvalue-gap condition
        # number; a mid-spectrum pair (gap ~4.6e-2) still agrees to 1e-9
        derivs = np.asarray(torus8.derivs_at(0.2, 4), dtype=complex)
        d = eigen_all(derivs[0], hermitian=True)
        gamma = np.exp(1.3j)
        v0 = d.vectors[:, 2]
        base_lam, base_vec = _schur_expansion(derivs, d, 2, v0, 4)
        spun_lam, spun_vec = _schur_expansion(derivs, d, 2, gamma * v0, 4)
        np.testing.assert_allclose(spun_lam, base_lam, rtol=0, atol=1e-9)
        np.testing.assert_allclose(spun_vec, gamma * base_vec, rtol=0, atol=1e-9)


class TestTruncatedSeriesResidual:
    def test_example1_interval_residual(self, taylor_e1_p6, torus8):
        worst = 0.0
        for mu in np.linspace(0.15, 0.25, 11):
            a = torus8.eval_at(mu)
            for pair in taylor_e1_p6:
                lam = eval_taylor(pair.lam, mu)
                v = eval_taylor(pair.vec, mu)
                worst = max(worst, np.linalg.norm(a @ v - lam * v))
        assert worst <= 1e-6


def test_single_precision_flag_changes_results(torus8):
    exact = expansion_series(taylor_expand_all(TaylorRequest(torus8, 0.2, 10)))
    rounded = expansion_series(
        taylor_expand_all(TaylorRequest(torus8, 0.2, 10, single_precision_e=True))
    )
    diff = max(
        np.max(np.abs(a.lam.coeffs - b.lam.coeffs)) for a, b in zip(exact, rounded)
    )
    assert diff > 1e-8  # single rounding must actually perturb the recursion


def test_single_precision_residuals_measure_the_exact_system(torus8):
    # Each order solves with the rounded E, while its recorded residual is
    # taken against the exact E, so it shows the single-precision rounding.
    p = 6
    derivs = torus8.derivs_at(0.2, p)
    d = eigen_all(derivs[0], hermitian=True)
    results = taylor_expand_all(TaylorRequest(torus8, 0.2, p, single_precision_e=True))
    assert len(expansion_series(results)) == 8
    for index, pair in enumerate(results):
        e = assemble_bordered(derivs[0], d.vectors[:, index], complex(d.values[index]), True)
        lam_c, vec_c = list(pair.lam.coeffs), list(pair.vec.coeffs)
        residuals = pair.diagnostics["order_residuals"]
        assert len(residuals) == p
        for k in range(1, p + 1):
            z, y = taylor_rhs(k, derivs, vec_c[:k], lam_c[:k], hermitian=True)
            rhs = np.concatenate(([z], y))
            x = np.concatenate(([lam_c[k]], vec_c[k]))
            size = 1.0 + np.max(np.abs(rhs))
            assert abs(residuals[k - 1] - np.max(np.abs(e @ x - rhs))) <= 1e-13 * size
            # index 0 (~3e-8 relative at every order) shows the rounding of E;
            # a double-precision solve leaves ~1e-16
            if index == 0:
                assert residuals[k - 1] > 1e-12 * size
        assert 0 < pair.diagnostics["condition_estimate"] <= 1
        assert pair.diagnostics["gap"] > 0
