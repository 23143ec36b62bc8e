"""Chebyshev projection, warm start, coupled residual/Jacobian, and Newton."""

import dataclasses

import numpy as np
import pytest

from conftest import constant_problem, linear_problem

from eigenpath import (
    ChebRequest,
    EigenPairSeries,
    ParametricProblem,
    cheb_expand_all,
    eigen_all,
    eval_cheb_u,
    expansion_series,
    jordan_eigenvalues,
    make_jordan,
    make_spring_chain,
    make_torus_kernel,
)
import eigenpath.chebyshev as chebyshev

from eigenpath.chebyshev import (
    _CoupledSystem,
    _detect_collisions,
    _newton,
    _reject_collisions,
    _warm_starts,
    cheb_jacobian,
    cheb_residual,
    degree_pairs,
    gauss_chebyshev_u,
    newton_refine,
    pack_unknowns,
    project_matrix_coeffs,
    unpack_unknowns,
    warm_start,
)
from eigenpath.errors import JacobianSingularError, NewtonDivergenceError, NumericalError
from eigenpath.linalg import build_bordered, solve_bordered
from eigenpath.series import u_product_degrees, u_values
from eigenpath.taylor import ExpansionFailure, taylor_rhs


def galerkin_coefficients(lams, vs, a_list, p):
    """Symbolic product oracle: U-coefficients 0..p of A v - lam v and of
    v^T v - 1, built from the full product rule and then truncated."""
    n = vs.shape[1]
    vec = [np.zeros(n, dtype=complex) for _ in range(p + 1)]
    nrm = [(-1.0 + 0j) if k == 0 else 0j for k in range(p + 1)]
    for i in range(p + 1):
        for j in range(p + 1):
            for k in u_product_degrees(i, j):
                if k <= p:
                    vec[k] += a_list[i] @ vs[j] - lams[i] * vs[j]
                    nrm[k] += vs[i] @ vs[j]
    return nrm, vec


class TestQuadrature:
    def test_orthonormality(self):
        s, w = gauss_chebyshev_u(64)
        table = u_values(s, 12)
        gram = (2.0 / np.pi) * (table * w) @ table.T
        assert np.max(np.abs(gram - np.eye(13))) <= 1e-12

    def test_weights_integrate_weight_function(self):
        # integral of sqrt(1-s^2) over [-1,1] is pi/2
        _, w = gauss_chebyshev_u(32)
        assert np.sum(w) == pytest.approx(np.pi / 2, abs=1e-13)


class TestProjection:
    def test_identity_map_on_reference_interval(self):
        ms = project_matrix_coeffs(linear_problem(), (-1.0, 1.0), 3)
        got = [ms.coeffs[k][0, 0].real for k in range(4)]
        np.testing.assert_allclose(got, [0.0, 0.5, 0.0, 0.0], atol=1e-14)

    def test_identity_map_affine_interval(self):
        mu1, mu2 = 0.3, 0.9
        ms = project_matrix_coeffs(linear_problem(), (mu1, mu2), 3, m=128)
        assert ms.coeffs[0][0, 0].real == pytest.approx((mu1 + mu2) / 2, abs=1e-14)
        assert ms.coeffs[1][0, 0].real == pytest.approx((mu2 - mu1) / 4, abs=1e-14)

    def test_basis_function_reproduction(self):
        from eigenpath import ParametricProblem
        from eigenpath.series import SeriesBasis

        basis = SeriesBasis.chebyshev(0.2, 1.4)
        problem = ParametricProblem(
            name="u2",
            n=1,
            eval_at=lambda mu: np.array([[u_values(basis.affine(mu), 2)[2]]]),
            derivs_at=lambda mu0, p: None,
        )
        ms = project_matrix_coeffs(problem, (0.2, 1.4), 4, m=256)
        coeffs = np.array([ms.coeffs[k][0, 0].real for k in range(5)])
        assert coeffs[2] == pytest.approx(1.0, abs=1e-13)
        others = np.delete(coeffs, 2)
        np.testing.assert_allclose(others, 0.0, atol=1e-14)

    def test_quadrature_convergence(self):
        for problem in (make_torus_kernel(8), make_spring_chain(8)):
            interval = (0.25, 1.0) if problem.hermitian else (0.5, 1.0)
            a = project_matrix_coeffs(problem, interval, 20, m=96)
            b = project_matrix_coeffs(problem, interval, 20, m=192)
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12

    def test_quadrature_margin_enforced(self):
        with pytest.raises(ValueError):
            project_matrix_coeffs(linear_problem(), (0.0, 1.0), 8, m=16)

    def test_nonfinite_sample_reported(self):
        from eigenpath import NumericalError, ParametricProblem

        problem = ParametricProblem(
            name="bad", n=1,
            eval_at=lambda mu: np.array([[np.nan if mu > 0.5 else 1.0]]),
            derivs_at=lambda mu0, p: None,
        )
        with pytest.raises(NumericalError) as err:
            project_matrix_coeffs(problem, (0.0, 1.0), 2, m=65)
        assert "node" in str(err.value)


class TestDegreePairs:
    def test_matches_product_rule(self):
        p = 6
        for k in range(p + 1):
            expected = [
                (i, j)
                for i in range(p + 1)
                for j in range(p + 1)
                if k in u_product_degrees(i, j)
            ]
            assert degree_pairs(k, p) == expected


class TestWarmStart:
    def test_constant_problem(self):
        rng = np.random.default_rng(2)
        a0 = rng.normal(size=(4, 4))
        a0 = a0 + a0.T
        coeffs = project_matrix_coeffs(constant_problem(a0), (0.0, 1.0), 3, m=64)
        x0 = warm_start(coeffs, 1)
        lams, vs = unpack_unknowns(x0, 4)
        d = eigen_all(a0 + 0j)
        assert lams[0] == pytest.approx(complex(d.values[1]), abs=1e-10)
        np.testing.assert_allclose(lams[1:], 0.0, atol=1e-10)
        np.testing.assert_allclose(vs[1:], 0.0, atol=1e-10)
        assert vs[0] @ vs[0] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_linear_hand_elimination(self):
        coeffs = project_matrix_coeffs(linear_problem(), (-1.0, 1.0), 2)
        x0 = warm_start(coeffs, 0)
        # blocks solve exactly: lam = (0, 1/2, 0), v = ([1], [0], [0])
        np.testing.assert_allclose(
            x0.real, [0.0, 1.0, 0.5, 0.0, 0.0, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(x0.imag, 0.0, atol=1e-14)

    def test_seed_quality_example1(self, torus8):
        coeffs = project_matrix_coeffs(torus8, (0.25, 1.0), 6)
        grid = np.linspace(0.25, 1.0, 16)
        direct = [eigen_all(torus8.eval_at(mu), hermitian=True).values for mu in grid]
        for index in range(8):
            lams, _ = unpack_unknowns(warm_start(coeffs, index), 8)
            from eigenpath.series import ScalarSeries

            lam_series = ScalarSeries(coeffs.basis, lams)
            for mu, dvals in zip(grid, direct):
                err = np.min(np.abs(eval_cheb_u(lam_series, mu) - dvals))
                assert err <= 0.5


class TestResidual:
    def test_zero_at_exact_constant_solution(self):
        rng = np.random.default_rng(3)
        a0 = rng.normal(size=(5, 5))
        a0 = a0 + a0.T
        coeffs = project_matrix_coeffs(constant_problem(a0), (0.0, 1.0), 3, m=64)
        d = eigen_all(a0 + 0j)
        v0 = d.vectors[:, 2].copy()
        v0 = v0 / np.sqrt(v0 @ v0)
        lams = np.zeros(4, dtype=complex)
        vs = np.zeros((4, 5), dtype=complex)
        lams[0] = d.values[2]
        vs[0] = v0
        r = cheb_residual(pack_unknowns(lams, vs), coeffs)
        assert np.max(np.abs(r)) <= 1e-13 * (1 + np.abs(d.values[2]))

    @pytest.mark.parametrize("p", [5, 0, 9])
    def test_matches_symbolic_product_oracle(self, torus8, p):
        coeffs = project_matrix_coeffs(torus8, (0.25, 1.0), p)
        rng = np.random.default_rng(4)
        size = (p + 1) * 9
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        lams, vs = unpack_unknowns(x, 8)
        nrm, vec = galerkin_coefficients(lams, vs, coeffs.coeffs, p)
        r = cheb_residual(x, coeffs)
        for k in range(p + 1):
            base = k * 9
            assert abs(r[base] - nrm[k]) <= 1e-12 * max(1.0, abs(nrm[k]))
            np.testing.assert_allclose(r[base + 1 : base + 9], vec[k], rtol=1e-12, atol=1e-12)


class TestJacobian:
    @pytest.mark.parametrize("p", [3, 0])
    def test_against_finite_differences(self, p):
        rng = np.random.default_rng(7)

        from eigenpath import ParametricProblem

        a_fixed = rng.normal(size=(4, 4))
        b_fixed = rng.normal(size=(4, 4))
        problem = ParametricProblem(
            name="rnd", n=4,
            eval_at=lambda mu: a_fixed + mu * b_fixed + 0.3 * np.sin(mu) * np.eye(4),
            derivs_at=lambda mu0, p: None,
        )
        coeffs = project_matrix_coeffs(problem, (0.0, 1.0), p)
        size = (p + 1) * 5
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        jac = cheb_jacobian(x, coeffs)
        h = 1e-7
        fd = np.zeros_like(jac)
        for col in range(size):
            step = np.zeros(size, dtype=complex)
            step[col] = h
            fd[:, col] = (cheb_residual(x + step, coeffs) - cheb_residual(x - step, coeffs)) / (
                2 * h
            )
        scale = 1.0 + np.max(np.abs(jac))
        assert np.max(np.abs(jac - fd)) <= 1e-6 * scale

    def test_dimension(self, torus8):
        coeffs = project_matrix_coeffs(torus8, (0.25, 1.0), 3)
        x = np.zeros(4 * 9, dtype=complex)
        assert cheb_jacobian(x, coeffs).shape == (36, 36)

    def test_block_structure_constant_problem(self):
        # at the exact solution of a constant problem, off-diagonal blocks of
        # even block distance vanish and block (0,0) is bordered-shaped
        rng = np.random.default_rng(8)
        a0 = rng.normal(size=(3, 3))
        a0 = a0 + a0.T
        coeffs = project_matrix_coeffs(constant_problem(a0), (0.0, 1.0), 2, m=64)
        d = eigen_all(a0 + 0j)
        v0 = d.vectors[:, 0].copy()
        v0 = v0 / np.sqrt(v0 @ v0)
        lams = np.zeros(3, dtype=complex)
        vs = np.zeros((3, 3), dtype=complex)
        lams[0], vs[0] = d.values[0], v0
        jac = cheb_jacobian(pack_unknowns(lams, vs), coeffs)
        # scalar row: 2 v0^T; lambda column: -v0; core: A0 - lam0 I
        block = jac[:4, :4]
        np.testing.assert_allclose(block[0, 1:], 2 * v0, atol=1e-10)
        np.testing.assert_allclose(block[1:, 0], -v0, atol=1e-10)
        np.testing.assert_allclose(
            block[1:, 1:], coeffs.coeffs[0] - lams[0] * np.eye(3), atol=1e-10
        )
        assert block[0, 0] == 0.0

    def test_printed_system_coupling(self, torus8):
        # block row 0 couples to (lam_1, v_1) through A_1 and v_1 terms
        coeffs = project_matrix_coeffs(torus8, (0.25, 1.0), 3)
        rng = np.random.default_rng(9)
        x = rng.normal(size=4 * 9) + 1j * rng.normal(size=4 * 9)
        lams, vs = unpack_unknowns(x, 8)
        jac = cheb_jacobian(x, coeffs)
        block01 = jac[0:9, 9:18]
        np.testing.assert_allclose(block01[0, 1:], 2 * vs[1], rtol=1e-13)
        np.testing.assert_allclose(block01[1:, 0], -vs[1], rtol=1e-13)
        np.testing.assert_allclose(
            block01[1:, 1:], coeffs.coeffs[1] - lams[1] * np.eye(8), rtol=1e-13
        )


class TestNewton:
    def test_exact_start_converges_immediately(self):
        rng = np.random.default_rng(11)
        a0 = rng.normal(size=(4, 4))
        a0 = a0 + a0.T
        coeffs = project_matrix_coeffs(constant_problem(a0), (0.0, 1.0), 2, m=64)
        d = eigen_all(a0 + 0j)
        v0 = d.vectors[:, 1].copy()
        v0 = v0 / np.sqrt(v0 @ v0)
        lams = np.zeros(3, dtype=complex)
        vs = np.zeros((3, 4), dtype=complex)
        lams[0], vs[0] = d.values[1], v0
        pair = newton_refine(pack_unknowns(lams, vs), coeffs)
        assert pair.diagnostics["newton_iterations"] <= 1

    def test_scalar_linear_unique_solution(self):
        coeffs = project_matrix_coeffs(linear_problem(), (-1.0, 1.0), 2)
        pair = newton_refine(warm_start(coeffs, 0), coeffs)
        lam = pair.lam.coeffs.real
        vec = pair.vec.coeffs.real
        sign = np.sign(vec[0, 0])
        np.testing.assert_allclose(lam, [0.0, 0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(sign * vec[:, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_example1_iteration_budget(self, cheb_e1_p10):
        assert len(cheb_e1_p10) == 8
        for pair in cheb_e1_p10:
            assert pair.diagnostics["newton_iterations"] <= 10

    def test_quadratic_tail(self, torus8):
        # when >= 3 iterations happen, the last two residuals contract
        # quadratically: r_k <= C r_{k-1}^2 with C <= 1e6
        request = ChebRequest(torus8, (0.25, 1.0), 16)
        series = expansion_series(cheb_expand_all(request))
        checked = 0
        for pair in series:
            history = pair.diagnostics["residual_history"]
            if len(history) >= 4:  # initial residual + >= 3 iterations
                checked += 1
                assert history[-1] <= 1e6 * history[-2] ** 2
        if checked == 0:
            pytest.skip("all Example 1 pairs converged in fewer than 3 iterations")

    def test_divergence_carries_best_iterate(self):
        coeffs = project_matrix_coeffs(linear_problem(), (-1.0, 1.0), 2)
        bad = np.full(6, 40.0, dtype=complex)
        with pytest.raises(NewtonDivergenceError) as err:
            newton_refine(bad, coeffs, tol=1e-16, max_iter=2)
        assert err.value.best_x is not None
        assert err.value.best_residual > 0


class TestGalerkinConsistency:
    def test_accepted_solutions_satisfy_truncated_system(self, cheb_e1_p20, torus8):
        coeffs = project_matrix_coeffs(torus8, (0.25, 1.0), 20)
        tol = 1e-12 * (1.0 + max(np.linalg.norm(a) for a in coeffs.coeffs))
        for pair in cheb_e1_p20:
            nrm, vec = galerkin_coefficients(
                pair.lam.coeffs, pair.vec.coeffs, coeffs.coeffs, 20
            )
            assert max(abs(v) for v in nrm) <= tol
            assert max(np.max(np.abs(v)) for v in vec) <= tol

    def test_truncated_normalization(self, cheb_e1_p20):
        for pair in cheb_e1_p20:
            vs = pair.vec.coeffs
            p = pair.order
            norm_coeffs = np.zeros(p + 1, dtype=complex)
            for i in range(p + 1):
                for j in range(p + 1):
                    for k in u_product_degrees(i, j):
                        if k <= p:
                            norm_coeffs[k] += vs[i] @ vs[j]
            assert abs(norm_coeffs[0] - 1.0) <= 1e-10
            assert np.max(np.abs(norm_coeffs[1:])) <= 1e-10


class TestExpandAll:
    def test_constant_problem_exact(self):
        rng = np.random.default_rng(13)
        a0 = rng.normal(size=(4, 4))
        a0 = a0 + a0.T
        results = cheb_expand_all(ChebRequest(constant_problem(a0), (0.0, 1.0), 3, quad_m=64))
        series = expansion_series(results)
        assert len(series) == 4
        d = eigen_all(a0 + 0j)
        got = sorted(pair.lam.coeffs[0].real for pair in series)
        np.testing.assert_allclose(got, sorted(d.values.real), atol=1e-10)
        for pair in series:
            np.testing.assert_allclose(pair.lam.coeffs[1:], 0.0, atol=1e-10)
            np.testing.assert_allclose(pair.vec.coeffs[1:], 0.0, atol=1e-10)

    def test_jordan_matches_analytic_roots(self, jordan8):
        series = expansion_series(cheb_expand_all(ChebRequest(jordan8, (0.10, 0.50), 20)))
        assert len(series) == 8
        for mu in np.linspace(0.10, 0.50, 21)[1:-1]:
            oracle = jordan_eigenvalues(8, mu)
            for pair in series:
                lam = eval_cheb_u(pair.lam, mu)
                assert np.min(np.abs(oracle - lam)) <= 1e-6

    def test_collision_detection_flags_duplicates(self, cheb_e1_p10):
        pairs = [cheb_e1_p10[0], cheb_e1_p10[0], cheb_e1_p10[1]]
        assert _detect_collisions(pairs, pairs[0].basis) == [(0, 1)]
        values = np.array([0.9, 0.7, 0.5, 0.3])
        out = _reject_collisions(pairs, [3, 1, 2], values, pairs[0].basis)
        for failure, index, partner in ((out[0], 3, 2), (out[1], 1, 4)):
            assert isinstance(failure, ExpansionFailure)
            assert failure.index == index and failure.eigenvalue == values[index]
            assert type(failure.error) is NumericalError
            assert str(failure.error) == f"eigenvalue path coincides with that of eigenpair {partner}"
        assert out[2] is pairs[2]

    def test_no_collisions_on_example1(self, cheb_e1_p10):
        assert len(cheb_e1_p10) == 8    # no pair of the n=8 torus fails, by collision or else
        assert _detect_collisions(cheb_e1_p10, cheb_e1_p10[0].basis) == []


class TestRequestValidation:
    def test_interval_and_order(self, torus8):
        with pytest.raises(ValueError):
            ChebRequest(torus8, (1.0, 0.5), 4)
        with pytest.raises(ValueError):
            ChebRequest(torus8, (0.0, 1.0), -1)
        with pytest.raises(ValueError):
            ChebRequest(torus8, (0.0, 1.0), 8, quad_m=16)


# ---------------------------------------------------------------------------
# The all-pairs kernel: batched warm starts and blocked Newton
# ---------------------------------------------------------------------------


def bordered_warm_start(coeffs, index):
    """One pair's warm start as a dense bordered LU computes it: A_0's
    eigenpair normalized to v0^T v0 = 1, the bordered matrix with border
    v0^T factored once, and every order solved against it with unit
    weights. Returns the (p+1, n+1) unknowns."""
    a_list = coeffs.coeffs
    p = coeffs.order
    decomp = eigen_all(np.asarray(a_list[0]))
    lam0 = complex(decomp.values[index])
    v0 = decomp.vectors[:, index].copy()
    v0 = v0 / np.sqrt(v0 @ v0)
    system = build_bordered(a_list[0], v0, lam0, hermitian=False, unit_norm_check=False)
    lams, vs = [lam0], [v0]
    for k in range(1, p + 1):
        z, y = taylor_rhs(k, a_list, vs, lams, binomials=np.ones((p + 1, p + 1)))
        lam_k, v_k = solve_bordered(system, np.concatenate(([z], y)))
        lams.append(lam_k)
        vs.append(v_k)
    return np.column_stack((lams, vs))


# Every eigenvalue of A_0 at least 1e-3 from the next, so rounding is not
# amplified by a small gap; the spring chain's and Jordan's A_0 are not
# symmetric, and Jordan's is far from normal.
SEPARATED = {
    "torus8": (make_torus_kernel, 8, (0.25, 1.0), 10),
    "spring8": (make_spring_chain, 8, (0.5, 1.0), 7),
    "spring16": (make_spring_chain, 16, (0.8, 1.2), 12),
    "jordan8": (make_jordan, 8, (0.10, 0.50), 12),
}


def separated_request(name):
    make, n, interval, p = SEPARATED[name]
    return ChebRequest(make(n), interval, p)


def isotropic_problem():
    """A constant A with eigenpairs (2, [1, 0]) and (1, [1, i]); the
    second eigenvector is isotropic, v^T v = 0."""
    vectors = np.array([[1.0, 1.0], [0.0, 1j]])
    a = vectors @ np.diag([2.0, 1.0]) @ np.linalg.inv(vectors)
    return ParametricProblem(
        name="isotropic", n=2, eval_at=lambda mu: a.copy(), derivs_at=lambda mu0, p: None
    )


def assert_same_pair(a, b):
    assert np.array_equal(a.lam.coeffs, b.lam.coeffs)
    assert np.array_equal(a.vec.coeffs, b.vec.coeffs)
    assert a.diagnostics == b.diagnostics


class TestAllPairsKernel:
    @pytest.mark.parametrize("name", list(SEPARATED))
    def test_warm_starts_match_bordered_oracle(self, name):
        request = separated_request(name)
        problem = request.problem
        coeffs = project_matrix_coeffs(problem, request.interval, request.order)
        errors, x = _warm_starts(coeffs, eigen_all(coeffs.coeffs[0]), range(problem.n))
        assert errors == [None] * problem.n
        for index in range(problem.n):
            oracle = bordered_warm_start(coeffs, index)
            # each order relative to its own size, as orders grow with k
            scale = np.maximum(1.0, np.abs(oracle).max(axis=1, keepdims=True))
            assert np.max(np.abs(x[index] - oracle) / scale) <= 1e-12
            single = warm_start(coeffs, index).reshape(oracle.shape)
            assert np.max(np.abs(single - oracle) / scale) <= 1e-12

    def test_isotropic_pair_fails_alone(self):
        problem = isotropic_problem()
        results = cheb_expand_all(ChebRequest(problem, (0.0, 1.0), 3, quad_m=64))
        ok, failed = results
        assert isinstance(ok, EigenPairSeries)
        assert ok.lam.coeffs[0] == pytest.approx(2.0, abs=1e-12)
        assert isinstance(failed, ExpansionFailure) and failed.index == 1
        assert isinstance(failed.error, NumericalError)
        assert "isotropic" in str(failed.error)
        coeffs = project_matrix_coeffs(problem, (0.0, 1.0), 3, m=64)
        with pytest.raises(NumericalError, match="isotropic"):
            warm_start(coeffs, 1)
        (failure,) = cheb_expand_all(ChebRequest(problem, (0.0, 1.0), 3, quad_m=64, selector=1))
        assert isinstance(failure.error, NumericalError) and "isotropic" in str(failure.error)

    @pytest.mark.parametrize("name", list(SEPARATED))
    def test_eigenpair_is_its_column_of_expand_all(self, name):
        request = separated_request(name)
        columns = cheb_expand_all(request)
        for index, column in enumerate(columns):
            single = cheb_expand_all(dataclasses.replace(request, selector=index))[0]
            # the warm start of one column rounds like a one-column product
            for got, want in ((single.lam.coeffs, column.lam.coeffs),
                              (single.vec.coeffs, column.vec.coeffs)):
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            assert single.diagnostics["newton_iterations"] == column.diagnostics["newton_iterations"]
            assert single.diagnostics.keys() == column.diagnostics.keys()

    def test_blocks_of_one_pair_change_nothing(self, monkeypatch):
        request = separated_request("torus8")
        block_sizes = []

        def spy(system, x, tol, max_iter):
            block_sizes.append(x.shape[0])
            return _newton(system, x, tol, max_iter)

        monkeypatch.setattr(chebyshev, "_newton", spy)
        whole = cheb_expand_all(request)
        assert block_sizes == [8]
        monkeypatch.setattr(chebyshev, "BLOCK_BYTES", 1)
        split = cheb_expand_all(request)
        assert block_sizes == [8] + [1] * 8
        for a, b in zip(whole, split):
            assert_same_pair(a, b)

    def test_failing_pairs_leave_their_block_neighbours_unchanged(self):
        coeffs = project_matrix_coeffs(make_torus_kernel(8), (0.25, 1.0), 6)
        _, starts = _warm_starts(coeffs, eigen_all(coeffs.coeffs[0]), range(8))
        system = _CoupledSystem(coeffs)
        block = starts.copy()
        # a random start that Newton does not bring home in 30 iterations,
        # and all zeros, whose Jacobian has a zero lambda column
        block[2] = np.random.default_rng(5).normal(size=starts.shape[1:])
        block[5] = 0.0
        start_residual = np.max(np.abs(cheb_residual(block[2], coeffs)))
        outcomes = _newton(system, block, 1e-12, 30)
        assert isinstance(outcomes[2], NewtonDivergenceError)
        assert outcomes[2].iterations == 30
        # the best iterate is a later one than the start, and it is the one
        # whose residual is reported
        best = outcomes[2].best_residual
        assert best < start_residual
        assert np.max(np.abs(cheb_residual(outcomes[2].best_x, coeffs))) == pytest.approx(best, rel=1e-12)
        assert isinstance(outcomes[5], JacobianSingularError)
        assert np.array_equal(block[5], np.zeros_like(block[5]))
        for pair in (0, 1, 3, 4, 6, 7):
            alone = starts[pair:pair + 1].copy()
            (outcome,) = _newton(system, alone, 1e-12, 30)
            assert outcomes[pair] == outcome
            assert np.array_equal(block[pair], alone[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pair_fails_alone_naming_its_order(self, monkeypatch, bad):
        request = separated_request("torus8")
        clean = cheb_expand_all(request)

        def poisoned(coeffs, decomp, indices):
            errors, x = _warm_starts(coeffs, decomp, indices)
            x[list(indices).index(3), 4, 2] = bad     # pair 3, order 4, a vector entry
            return errors, x

        monkeypatch.setattr(chebyshev, "_warm_starts", poisoned)
        results = cheb_expand_all(request)
        failure = results[3]
        assert isinstance(failure, ExpansionFailure) and failure.index == 3
        assert type(failure.error) is NumericalError
        assert str(failure.error) == "series coefficient at order 4 is not finite"
        (failure,) = cheb_expand_all(dataclasses.replace(request, selector=3))
        assert isinstance(failure.error, NumericalError)
        assert "order 4 is not finite" in str(failure.error)
        for pair in (0, 1, 2, 4, 5, 6, 7):
            assert_same_pair(results[pair], clean[pair])

    def test_collisions_match_pairwise_scan(self, cheb_e1_p10):
        def pairwise_scan(pairs, basis):
            probes = np.linspace(*basis.interval, 5)
            values = [
                np.array([eval_cheb_u(pair.lam, mu) for mu in probes])
                if isinstance(pair, EigenPairSeries) else None
                for pair in pairs
            ]
            return [
                (a, b)
                for a in range(len(pairs))
                for b in range(a + 1, len(pairs))
                if values[a] is not None and values[b] is not None
                and np.max(np.abs(values[a] - values[b])) < 1e-8
            ]

        p0, p1, p2 = cheb_e1_p10[:3]
        failure = ExpansionFailure(9, 0j, NumericalError("failed"))
        pairs = [p0, failure, p1, p0, p2, p1, failure, p0]
        expected = pairwise_scan(pairs, p0.basis)
        assert _detect_collisions(pairs, p0.basis) == expected
        assert expected == [(0, 3), (0, 7), (2, 5), (3, 7)]
        out = _reject_collisions(pairs, range(8), np.zeros(8), p0.basis)
        partners = {0: "4 and eigenpair 8", 2: "6", 3: "1 and eigenpair 8",
                    5: "3", 7: "1 and eigenpair 4"}
        for a, names in partners.items():
            assert isinstance(out[a], ExpansionFailure) and out[a].index == a
            assert str(out[a].error) == f"eigenvalue path coincides with that of eigenpair {names}"
        assert out[1] is out[6] is failure
        assert out[4] is p2
