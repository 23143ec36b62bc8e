"""Chebyshev projection, warm start, coupled residual/Jacobian, and Newton."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    CROSSING,
    asymmetric_flagged_hermitian,
    constant_problem,
    isotropic_problem,
    linear_problem,
)

from eigenpath import (
    EigenPairSeries,
    ParametricProblem,
    cheb_expand_all,
    eigen_all,
    error_report,
    eval_cheb_u,
    expansion_series,
    jordan_eigenvalues,
    make_jordan,
    make_spring_chain,
    make_torus_kernel,
    pointwise,
    problem_from_config,
    taylor_expand_all,
)
import eigenpath.chebyshev as chebyshev

from eigenpath.chebyshev import (
    _assignments,
    _collisions,
    _CoupledSystem,
    _newton,
    _node_starts,
    _projected,
    cheb_jacobian,
    cheb_residual,
    coupling_tensor,
    gauss_chebyshev_u,
    newton_refine,
    project_matrix_coeffs,
    quadrature_size,
    warm_start,
)
from eigenpath.errors import JacobianSingularError, NewtonDivergenceError, NumericalError
from eigenpath.series import SeriesBasis, u_product_degrees, u_values
from eigenpath.taylor import ExpansionFailure


def stacked_unknowns(pairs):
    """The unknowns (k, p+1, n+1) of series ``pairs``, row k of each (lam_k, v_k)."""
    return np.stack([np.column_stack((pair.lam, pair.vec)) for pair in pairs])


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
        a = project_matrix_coeffs(linear_problem(), (-1.0, 1.0), 3)
        got = [a[k][0, 0].real for k in range(4)]
        np.testing.assert_allclose(got, [0.0, 0.5, 0.0, 0.0], atol=1e-14)

    def test_identity_map_affine_interval(self):
        mu1, mu2 = 0.3, 0.9
        a = project_matrix_coeffs(linear_problem(), (mu1, mu2), 3)
        assert a[0][0, 0].real == pytest.approx((mu1 + mu2) / 2, abs=1e-14)
        assert a[1][0, 0].real == pytest.approx((mu2 - mu1) / 4, abs=1e-14)

    def test_basis_function_reproduction(self):
        from eigenpath import ParametricProblem
        from eigenpath.series import SeriesBasis

        basis = SeriesBasis.chebyshev(0.2, 1.4)
        problem = ParametricProblem(
            n=1,
            eval_at=pointwise(lambda mu: np.array([[u_values(basis.affine(mu), 2)[2]]])),
            derivs_at=lambda mu0, p: None,
        )
        a = project_matrix_coeffs(problem, (0.2, 1.4), 4)
        coeffs = np.array([a[k][0, 0].real for k in range(5)])
        assert coeffs[2] == pytest.approx(1.0, abs=1e-13)
        others = np.delete(coeffs, 2)
        np.testing.assert_allclose(others, 0.0, atol=1e-14)

    def test_quadrature_size_is_even_and_exceeds_2p(self):
        # even: no node on the midpoint s = 0; above 2p: exact for the
        # retained degrees
        for p in range(201):
            m = quadrature_size(p)
            assert m % 2 == 0 and m > 2 * p, p

    def test_quadrature_convergence(self):
        # the default node count against a projection on 4x the nodes; the
        # worst measured gap is 1.7e-15 of the largest coefficient
        for problem in (make_torus_kernel(8), make_spring_chain(8)):
            interval = (0.25, 1.0) if problem.hermitian else (0.5, 1.0)
            for p in range(7, 31):
                s, w = gauss_chebyshev_u(4 * quadrature_size(p))
                samples = np.array([problem.eval_at(mu)
                                    for mu in SeriesBasis.chebyshev(*interval).from_affine(s)])
                fine = (2.0 / np.pi) * np.einsum("j,ij,jab->iab", w, u_values(s, p), samples)
                coeffs = project_matrix_coeffs(problem, interval, p)
                assert np.max(np.abs(coeffs - fine)) <= 2e-15 * np.max(np.abs(fine))

    def test_nonfinite_sample_reported(self):
        from eigenpath import NumericalError, ParametricProblem

        problem = ParametricProblem(
            n=1,
            eval_at=pointwise(lambda mu: np.array([[np.nan if mu > 0.5 else 1.0]])),
            derivs_at=lambda mu0, p: None,
        )
        with pytest.raises(NumericalError) as err:
            project_matrix_coeffs(problem, (0.0, 1.0), 2)
        assert "node" in str(err.value)


class TestDegreePairs:
    @pytest.mark.parametrize("p", range(41))
    def test_matches_product_rule(self, p):
        for k in range(p + 1):
            expected = [
                (i, j)
                for i in range(p + 1)
                for j in range(p + 1)
                if k in u_product_degrees(i, j)
            ]
            assert [tuple(ij) for ij in np.argwhere(coupling_tensor(p)[k]).tolist()] == expected


class TestWarmStart:
    def test_constant_problem(self):
        rng = np.random.default_rng(2)
        a0 = rng.normal(size=(4, 4))
        a0 = a0 + a0.T
        x0 = warm_start(constant_problem(a0), (0.0, 1.0), 3, 1)
        blocks = x0.reshape(-1, 5)
        lams, vs = blocks[:, 0], blocks[:, 1:]
        d = eigen_all(a0 + 0j)
        assert lams[0] == pytest.approx(complex(d.values[1]), abs=1e-10)
        np.testing.assert_allclose(lams[1:], 0.0, atol=1e-10)
        np.testing.assert_allclose(vs[1:], 0.0, atol=1e-10)
        assert vs[0] @ vs[0] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_linear_hand_elimination(self):
        x0 = warm_start(linear_problem(), (-1.0, 1.0), 2, 0)
        # the projection of lam(mu) = mu, v = [1]: lam = (0, 1/2, 0), v = ([1], [0], [0])
        np.testing.assert_allclose(
            x0.real, [0.0, 1.0, 0.5, 0.0, 0.0, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(x0.imag, 0.0, atol=1e-14)

    def test_seed_quality_example1(self, torus8):
        request = (torus8, (0.25, 1.0), 6)
        coeffs = project_matrix_coeffs(torus8, (0.25, 1.0), 6)
        grid = np.linspace(0.25, 1.0, 16)
        direct = [eigen_all(torus8.eval_at(mu), hermitian=True).values for mu in grid]
        for index in range(8):
            lams = warm_start(*request, index).reshape(-1, 9)[:, 0]
            for mu, dvals in zip(grid, direct):
                err = np.min(np.abs(eval_cheb_u(SeriesBasis.chebyshev(0.25, 1.0), lams, mu) - dvals))
                assert err <= 0.5


class TestResidual:
    def test_zero_at_exact_constant_solution(self):
        rng = np.random.default_rng(3)
        a0 = rng.normal(size=(5, 5))
        a0 = a0 + a0.T
        coeffs = project_matrix_coeffs(constant_problem(a0), (0.0, 1.0), 3)
        d = eigen_all(a0 + 0j)
        v0 = d.vectors[:, 2].copy()
        v0 = v0 / np.sqrt(v0 @ v0)
        lams = np.zeros(4, dtype=complex)
        vs = np.zeros((4, 5), dtype=complex)
        lams[0] = d.values[2]
        vs[0] = v0
        r = cheb_residual(np.column_stack((lams, vs)).ravel(), coeffs)
        assert np.max(np.abs(r)) <= 1e-13 * (1 + np.abs(d.values[2]))

    @pytest.mark.parametrize("p", [5, 0, 9])
    def test_matches_symbolic_product_oracle(self, torus8, p):
        coeffs = project_matrix_coeffs(torus8, (0.25, 1.0), p)
        rng = np.random.default_rng(4)
        size = (p + 1) * 9
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        blocks = x.reshape(-1, 9)
        lams, vs = blocks[:, 0], blocks[:, 1:]
        nrm, vec = galerkin_coefficients(lams, vs, coeffs, p)
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
            n=4,
            eval_at=pointwise(lambda mu: a_fixed + mu * b_fixed + 0.3 * np.sin(mu) * np.eye(4)),
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
        coeffs = project_matrix_coeffs(constant_problem(a0), (0.0, 1.0), 2)
        d = eigen_all(a0 + 0j)
        v0 = d.vectors[:, 0].copy()
        v0 = v0 / np.sqrt(v0 @ v0)
        lams = np.zeros(3, dtype=complex)
        vs = np.zeros((3, 3), dtype=complex)
        lams[0], vs[0] = d.values[0], v0
        jac = cheb_jacobian(np.column_stack((lams, vs)).ravel(), coeffs)
        # scalar row: 2 v0^T; lambda column: -v0; core: A0 - lam0 I
        block = jac[:4, :4]
        np.testing.assert_allclose(block[0, 1:], 2 * v0, atol=1e-10)
        np.testing.assert_allclose(block[1:, 0], -v0, atol=1e-10)
        np.testing.assert_allclose(
            block[1:, 1:], coeffs[0] - lams[0] * np.eye(3), atol=1e-10
        )
        assert block[0, 0] == 0.0

    def test_printed_system_coupling(self, torus8):
        # block row 0 couples to (lam_1, v_1) through A_1 and v_1 terms
        coeffs = project_matrix_coeffs(torus8, (0.25, 1.0), 3)
        rng = np.random.default_rng(9)
        x = rng.normal(size=4 * 9) + 1j * rng.normal(size=4 * 9)
        blocks = x.reshape(-1, 9)
        lams, vs = blocks[:, 0], blocks[:, 1:]
        jac = cheb_jacobian(x, coeffs)
        block01 = jac[0:9, 9:18]
        np.testing.assert_allclose(block01[0, 1:], 2 * vs[1], rtol=1e-13)
        np.testing.assert_allclose(block01[1:, 0], -vs[1], rtol=1e-13)
        np.testing.assert_allclose(
            block01[1:, 1:], coeffs[1] - lams[1] * np.eye(8), rtol=1e-13
        )


class TestNewton:
    def test_exact_start_converges_immediately(self):
        rng = np.random.default_rng(11)
        a0 = rng.normal(size=(4, 4))
        a0 = a0 + a0.T
        coeffs = project_matrix_coeffs(constant_problem(a0), (0.0, 1.0), 2)
        d = eigen_all(a0 + 0j)
        v0 = d.vectors[:, 1].copy()
        v0 = v0 / np.sqrt(v0 @ v0)
        lams = np.zeros(3, dtype=complex)
        vs = np.zeros((3, 4), dtype=complex)
        lams[0], vs[0] = d.values[1], v0
        pair = newton_refine(np.column_stack((lams, vs)).ravel(), coeffs,
                             SeriesBasis.chebyshev(0.0, 1.0))
        assert pair.diagnostics["newton_iterations"] <= 1

    def test_scalar_linear_unique_solution(self):
        coeffs = project_matrix_coeffs(linear_problem(), (-1.0, 1.0), 2)
        pair = newton_refine(warm_start(linear_problem(), (-1.0, 1.0), 2, 0), coeffs,
                             SeriesBasis.chebyshev(-1.0, 1.0))
        lam = pair.lam.real
        vec = pair.vec.real
        sign = np.sign(vec[0, 0])
        np.testing.assert_allclose(lam, [0.0, 0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(sign * vec[:, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_example1_iteration_budget(self, cheb_e1_p10):
        assert len(cheb_e1_p10) == 8
        for pair in cheb_e1_p10:
            assert pair.diagnostics["newton_iterations"] <= 10

    def test_quadratic_tail(self, torus8):
        # The node start converges in fewer than 3 iterations here, so
        # Newton starts from it cut after order 2. When >= 3 iterations
        # happen, the last two residuals contract quadratically:
        # r_k <= C r_{k-1}^2 with C <= 1e6
        _, coeffs, decomp, nodes = _projected(torus8, (0.25, 1.0), 16)
        _, x = _node_starts(coeffs, decomp, nodes, range(8))
        x[:, 3:] = 0.0
        checked = 0
        for outcome in _newton(_CoupledSystem(coeffs, x.dtype), x):
            history = outcome["residual_history"]
            if len(history) >= 4:  # initial residual + >= 3 iterations
                checked += 1
                assert history[-1] <= 1e6 * history[-2] ** 2
        assert checked >= 1

    def test_divergence_carries_best_iterate(self, monkeypatch):
        # this start converges in 12 iterations; a budget of 2 runs out
        monkeypatch.setattr(chebyshev, "NEWTON_MAX_ITER", 2)
        coeffs = project_matrix_coeffs(linear_problem(), (-1.0, 1.0), 2)
        bad = np.full(6, 40.0, dtype=complex)
        with pytest.raises(NewtonDivergenceError) as err:
            newton_refine(bad, coeffs, SeriesBasis.chebyshev(-1.0, 1.0))
        assert err.value.best_x is not None
        assert err.value.best_residual > 0


class TestGalerkinConsistency:
    def test_accepted_solutions_satisfy_truncated_system(self, cheb_e1_p20, torus8):
        coeffs = project_matrix_coeffs(torus8, (0.25, 1.0), 20)
        tol = 1e-12 * (1.0 + max(np.linalg.norm(a) for a in coeffs))
        for pair in cheb_e1_p20:
            nrm, vec = galerkin_coefficients(
                pair.lam, pair.vec, coeffs, 20
            )
            assert max(abs(v) for v in nrm) <= tol
            assert max(np.max(np.abs(v)) for v in vec) <= tol

    def test_truncated_normalization(self, cheb_e1_p20):
        for pair in cheb_e1_p20:
            vs = pair.vec
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
        results = cheb_expand_all(constant_problem(a0), (0.0, 1.0), 3)
        series = expansion_series(results)
        assert len(series) == 4
        d = eigen_all(a0 + 0j)
        got = sorted(pair.lam[0].real for pair in series)
        np.testing.assert_allclose(got, sorted(d.values.real), atol=1e-10)
        for pair in series:
            np.testing.assert_allclose(pair.lam[1:], 0.0, atol=1e-10)
            np.testing.assert_allclose(pair.vec[1:], 0.0, atol=1e-10)

    def test_jordan_matches_analytic_roots(self, jordan8):
        series = expansion_series(cheb_expand_all(jordan8, (0.10, 0.50), 20))
        assert len(series) == 8
        for mu in np.linspace(0.10, 0.50, 21)[1:-1]:
            oracle = jordan_eigenvalues(8, mu)
            for pair in series:
                lam = eval_cheb_u(pair.basis, pair.lam, mu)
                assert np.min(np.abs(oracle - lam)) <= 1e-6

    @pytest.mark.xfail(strict=True, reason="D23: the six complex pairs cross v^T v = 0 at mu = 1 "
                                           "and are off by 4.1e-4, exit 0")
    def test_jordan_pairs_across_an_isotropic_eigenvector(self, jordan8):
        # at mu = 1 the six complex eigenvectors of I + cyclic shift have
        # v^T v = 0; each such pair must fail, or stay accurate across it
        results = cheb_expand_all(jordan8, (0.9, 1.1), 12)
        lam0 = [r.eigenvalue if isinstance(r, ExpansionFailure) else r.lam[0] for r in results]
        assert sum(lam.imag != 0 for lam in lam0) == 6
        for result in results:
            if isinstance(result, ExpansionFailure):
                assert result.eigenvalue.imag != 0
                continue
            for mu in np.linspace(0.9, 1.1, 41)[1:-1]:
                lam = eval_cheb_u(result.basis, result.lam, mu)
                assert np.min(np.abs(jordan_eigenvalues(8, mu) - lam)) <= 1e-10

    def test_collision_detection_flags_duplicates(self, cheb_e1_p10):
        pairs = [cheb_e1_p10[0], cheb_e1_p10[0], cheb_e1_p10[1]]
        assert _collisions(pairs[0].basis, stacked_unknowns(pairs)) == [(0, 1)]

    def test_equal_eigenvalues_with_orthogonal_eigenvectors_do_not_collide(self, cheb_e1_p10):
        # the near-double eigenvalues of the n=64 torus: equal eigenvalue
        # paths, distinct (here orthogonal) eigenvector paths
        p0, p1 = cheb_e1_p10[:2]
        twin = dataclasses.replace(p0, vec=p1.vec)
        assert _collisions(p0.basis, stacked_unknowns([p0, twin])) == []
        # an eigenvector path with the opposite sign is the same path
        flipped = dataclasses.replace(p0, vec=-p0.vec)
        assert _collisions(p0.basis, stacked_unknowns([p0, twin, flipped])) == [(0, 2)]

    def test_no_collisions_on_example1(self, cheb_e1_p10):
        assert len(cheb_e1_p10) == 8    # no pair of the n=8 torus fails, by collision or else
        assert _collisions(cheb_e1_p10[0].basis, stacked_unknowns(cheb_e1_p10)) == []

    def test_hermitian_flag_of_an_asymmetric_problem_is_rejected(self):
        with pytest.raises(ValueError, match=r"^hermitian=True, but \|A - A\^H\| is "):
            cheb_expand_all(asymmetric_flagged_hermitian(), (0.25, 0.75), 6)


def crossing_problem():
    """Q diag(mu, 0.6 - mu, 2) Q^T for a fixed orthogonal Q: the first two
    eigenvalues cross at mu = 0.3, where their sort order swaps, while the
    eigenvectors (the columns of Q) stay put."""
    q, _ = np.linalg.qr(np.random.default_rng(21).normal(size=(3, 3)))
    return ParametricProblem(
        n=3,
        eval_at=pointwise(lambda mu: q @ np.diag([mu, 0.6 - mu, 2.0]) @ q.T),
        derivs_at=lambda mu0, p: None, hermitian=True,
    )


class TestNodeStart:
    def test_assignment_is_one_to_one(self):
        overlaps = np.array([[[0.9, 0.8, 0.1], [0.85, 0.1, 0.3], [0.2, 0.3, 0.95]],
                             [[0.1, 0.9, 0.2], [0.8, 0.2, 0.1], [0.3, 0.1, 0.7]]])
        # the first matrix's row-wise argmax takes column 0 twice, and the
        # best one-to-one choice swaps rows 0 and 1 (0.8 + 0.85 > 0.9 + 0.1);
        # the second's argmax is one to one
        np.testing.assert_array_equal(_assignments(overlaps), [[1, 0, 2], [1, 0, 2]])

    def test_paths_follow_eigenvectors_through_a_crossing(self):
        # over [0, 1], mu = 0.5 + 0.25 U_1: A_0's eigenpair 1 (0.5) is the
        # path mu and eigenpair 2 (0.1) the path 0.6 - mu, though the sort
        # order of the nodes' eigenvalues swaps at mu = 0.3
        request = (crossing_problem(), (0.0, 1.0), 4)
        paths = {1: [0.5, 0.25, 0.0, 0.0, 0.0], 2: [0.1, -0.25, 0.0, 0.0, 0.0]}
        for index, lam in paths.items():
            lams = warm_start(*request, index).reshape(-1, 4)[:, 0]
            np.testing.assert_allclose(lams, lam, rtol=0, atol=1e-14)
        results = cheb_expand_all(*request)
        for index, lam in paths.items():
            np.testing.assert_allclose(results[index].lam, lam, rtol=0, atol=1e-14)
            assert results[index].diagnostics["newton_iterations"] == 0

    @pytest.mark.parametrize("p", [12, 20])
    def test_spring_chain_expands_every_pair_over_a_wide_interval(self, p):
        results = cheb_expand_all(make_spring_chain(16), (0.5, 2.0), p)
        assert len(expansion_series(results)) == 16

    def test_torus_paths_hold_through_its_crossings(self):
        # the grid passes through the torus's genuine crossings near
        # mu ~ 0.382, 0.859 and 0.980
        problem = make_torus_kernel(16)
        series = expansion_series(cheb_expand_all(problem, (0.25, 1.0), 20))
        assert len(series) == 16
        assert error_report(problem, series, np.linspace(0.25, 1.0, 3001)).max_error <= 1.6e-13


class TestIntersection:
    """The paper's claim that eigenpaths are tracked through intersection
    points, for Chebyshev series on the crossing config: paths mu and
    1 - mu with eigenvectors R(mu) e_1 and R(mu) e_2, crossing at 0.5."""

    @staticmethod
    def followed_path(pair, interval):
        """The path, "mu" or "1-mu", that ``pair`` follows over 201 points of
        ``interval`` to 1e-13 in lambda and in 1 - |cos| to its eigenvector."""
        grid = np.linspace(*interval, 201)
        lam = pair.basis.evaluate(pair.lam, grid)
        vec = pair.basis.evaluate(pair.vec, grid)
        c, s = np.cos(grid), np.sin(grid)
        paths = {"mu": (grid, np.stack([c, s], axis=-1)),
                 "1-mu": (1.0 - grid, np.stack([-s, c], axis=-1))}
        # the paths are at least 0.2 apart at each interval's left end
        path = min(paths, key=lambda name: abs(lam[0] - paths[name][0][0]))
        exact_lam, exact_vec = paths[path]
        assert np.max(np.abs(lam - exact_lam)) <= 1e-13
        cos = np.abs(np.vecdot(exact_vec, vec)) / np.linalg.norm(vec, axis=-1)
        assert np.max(1.0 - cos) <= 1e-13
        return path

    @pytest.mark.parametrize("interval, p", [
        *(((0.0, 0.8), p) for p in (10, 12, 16, 20, 24)),
        *(((0.2, 0.9), p) for p in (10, 12, 16, 20, 24)),
        *(((0.0, 1.0), p) for p in (12, 16, 20, 24)),
    ])
    def test_chebyshev_tracks_both_paths_through_the_crossing(self, interval, p):
        results = cheb_expand_all(problem_from_config(CROSSING), interval, p)
        assert len(expansion_series(results)) == 2
        assert sorted(self.followed_path(pair, interval) for pair in results) == ["1-mu", "mu"]

    @pytest.mark.parametrize("p", [6, 8, 10])
    def test_low_orders_centred_on_the_crossing_follow_a_path_or_fail_singular(self, p):
        # the crossing at the interval's midpoint makes the Galerkin Jacobian
        # singular at these orders today; a pair that expands must still hold
        results = cheb_expand_all(problem_from_config(CROSSING), (0.0, 1.0), p)
        paths = []
        for result in results:
            if isinstance(result, ExpansionFailure):
                assert isinstance(result.error, JacobianSingularError)
            else:
                paths.append(self.followed_path(result, (0.0, 1.0)))
        assert len(set(paths)) == len(paths)


class TestChebInputValidation:
    def test_interval_and_order(self, torus8):
        with pytest.raises(ValueError):
            cheb_expand_all(torus8, (1.0, 0.5), 4)
        with pytest.raises(ValueError):
            cheb_expand_all(torus8, (0.0, 1.0), -1)


class TestSharedInputRules:
    """Both kernels check order and selector by one rule, and their point or
    interval by SeriesBasis, before they touch A(mu)."""

    KERNELS = [
        pytest.param(lambda problem, order, **kw: taylor_expand_all(problem, 0.2, order, **kw),
                     id="taylor"),
        pytest.param(lambda problem, order, **kw: cheb_expand_all(problem, (0.25, 1.0), order,
                                                                  **kw),
                     id="chebyshev"),
    ]

    @pytest.mark.parametrize("expand", KERNELS)
    @pytest.mark.parametrize("selector", [2.5, "1"])
    def test_selector_neither_all_nor_an_integer_is_rejected(self, torus8, expand, selector):
        with pytest.raises(ValueError, match=r"^selector must be 'all' or an integer index$"):
            expand(torus8, 3, selector=selector)

    @pytest.mark.parametrize("expand", KERNELS + [
        pytest.param(lambda problem, order: project_matrix_coeffs(problem, (0.25, 1.0), order),
                     id="project_matrix_coeffs"),
    ])
    @pytest.mark.parametrize("order", [2.5, -1, True])
    def test_order_that_is_not_a_nonnegative_integer_is_rejected(self, torus8, expand, order):
        with pytest.raises(ValueError, match=r"^order must be a nonnegative integer$"):
            expand(torus8, order)

    @pytest.mark.parametrize("expand", KERNELS + [
        pytest.param(lambda problem, order, selector:
                     warm_start(problem, (0.25, 1.0), order, selector), id="warm_start"),
    ])
    @pytest.mark.parametrize("order, selector, message", [
        (True, 0, r"^order must be a nonnegative integer$"),
        (False, 0, r"^order must be a nonnegative integer$"),
        (3, True, r"^selector must be 'all' or an integer index$"),
        (3, False, r"^selector must be 'all' or an integer index$"),
    ])
    def test_bool_order_or_selector_is_rejected(self, torus8, expand, order, selector, message):
        with pytest.raises(ValueError, match=message):
            expand(torus8, order, selector=selector)

    def test_numpy_integer_selector_expands_the_pair_of_its_int(self, torus8):
        (numpy_pair,) = taylor_expand_all(torus8, 0.2, 2, selector=np.int64(1))
        (int_pair,) = taylor_expand_all(torus8, 0.2, 2, selector=1)
        np.testing.assert_array_equal(numpy_pair.lam, int_pair.lam)
        np.testing.assert_array_equal(numpy_pair.vec, int_pair.vec)

    def test_infinite_point_or_interval_is_rejected_before_any_eigensolve(self):
        # no problem at all: a kernel that raises on it has solved nothing
        with pytest.raises(ValueError, match=r"^Taylor basis requires a finite expansion point"):
            taylor_expand_all(None, np.inf, 3)
        with pytest.raises(ValueError, match=r"^Chebyshev interval must be finite with mu2 > mu1$"):
            cheb_expand_all(None, (0.0, np.inf), 3)
        with pytest.raises(ValueError, match=r"^Chebyshev interval must be finite with mu2 > mu1$"):
            cheb_expand_all(None, (-1e308, 1e308), 3)     # the width overflows


# ---------------------------------------------------------------------------
# The all-pairs kernel: node starts and blocked Newton
# ---------------------------------------------------------------------------


def node_loop_start(request, index):
    """One pair's node start for ``request`` = (problem, interval, order),
    computed node by node: one eigensolve per quadrature node, the path
    assigned at the middle node to A_0's eigenvector and carried outward
    node by node with scipy's assignment on the overlaps of the path's
    vectors with the next node's, each vector scaled to v^T v = 1 with its
    sign continuous along the path, and the quadrature sum written as a
    loop. Returns the (p+1, n+1) unknowns."""
    from scipy.optimize import linear_sum_assignment

    problem, interval, p = request
    s, w = gauss_chebyshev_u(quadrature_size(p))
    mus = SeriesBasis.chebyshev(*interval).from_affine(s)
    decomps = [eigen_all(problem.eval_at(mu), hermitian=problem.hermitian) for mu in mus]
    a0 = project_matrix_coeffs(problem, interval, p)[0]
    v0 = eigen_all(a0).vectors
    m, mid = len(s), len(s) // 2

    def follow(prev, j):
        """The columns of node j's eigenpairs that continue the vectors ``prev``."""
        vectors = decomps[j].vectors
        return linear_sum_assignment(np.abs(prev.conj().T @ vectors), maximize=True)[1]

    cols = [None] * m
    cols[mid] = follow(v0, mid)
    for j in list(range(mid + 1, m)) + list(range(mid - 1, -1, -1)):
        neighbour = j - 1 if j > mid else j + 1
        cols[j] = follow(decomps[neighbour].vectors[:, cols[neighbour]], j)
    lams, vs = np.empty(m, dtype=complex), np.empty((m, problem.n), dtype=complex)
    for j in list(range(mid, m)) + list(range(mid - 1, -1, -1)):
        v = decomps[j].vectors[:, cols[j][index]]
        v = v / np.sqrt(v @ v)
        reference = v0[:, index] if j == mid else vs[j - 1 if j > mid else j + 1]
        vs[j] = v if np.vdot(reference, v).real >= 0 else -v
        lams[j] = decomps[j].values[cols[j][index]]
    table = u_values(s, p)
    out = np.zeros((p + 1, problem.n + 1), dtype=complex)
    for i in range(p + 1):
        for j in range(m):
            weight = (2.0 / np.pi) * w[j] * table[i, j]
            out[i, 0] += weight * lams[j]
            out[i, 1:] += weight * vs[j]
    return out


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
    return make(n), interval, p


def assert_same_pair(a, b):
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.vec, b.vec)
    assert a.diagnostics == b.diagnostics


class TestAllPairsKernel:
    @pytest.mark.parametrize("name", list(SEPARATED))
    def test_warm_starts_match_bordered_oracle(self, name):
        # the oracle is node_loop_start, one eigensolve per node
        request = separated_request(name)
        problem = request[0]
        _, coeffs, decomp, nodes = _projected(*request)
        errors, x = _node_starts(coeffs, decomp, nodes, range(problem.n))
        assert errors == [None] * problem.n
        for index in range(problem.n):
            oracle = node_loop_start(request, index)
            # each order relative to its own size
            scale = np.maximum(1.0, np.abs(oracle).max(axis=1, keepdims=True))
            assert np.max(np.abs(x[index] - oracle) / scale) <= 1e-12
            single = warm_start(*request, index).reshape(oracle.shape)
            assert np.max(np.abs(single - oracle) / scale) <= 1e-12

    def test_isotropic_pair_fails_alone(self):
        problem = isotropic_problem()
        results = cheb_expand_all(problem, (0.0, 1.0), 3)
        ok, failed = results
        assert isinstance(ok, EigenPairSeries)
        assert ok.lam[0] == pytest.approx(2.0, abs=1e-12)
        assert isinstance(failed, ExpansionFailure) and failed.index == 1
        assert isinstance(failed.error, NumericalError)
        assert "isotropic" in str(failed.error)
        # every node vector is isotropic; the first node, s_1 = cos(pi/65), names it
        node = np.cos(np.pi / 65)
        with pytest.raises(NumericalError, match=rf"isotropic, \|v\^T v\| = 0 below 1e-08 "
                                                 rf"at mu={(1 + node) / 2:.17g}$"):
            warm_start(problem, (0.0, 1.0), 3, 1)
        (failure,) = cheb_expand_all(problem, (0.0, 1.0), 3, selector=1)
        assert isinstance(failure.error, NumericalError) and "isotropic" in str(failure.error)

    @pytest.mark.parametrize("name", list(SEPARATED))
    def test_eigenpair_is_its_column_of_expand_all(self, name):
        request = separated_request(name)
        columns = cheb_expand_all(*request)
        for index, column in enumerate(columns):
            single = cheb_expand_all(*request, selector=index)[0]
            # the warm start of one column rounds like a one-column product
            for got, want in ((single.lam, column.lam),
                              (single.vec, column.vec)):
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            assert single.diagnostics["newton_iterations"] == column.diagnostics["newton_iterations"]
            assert single.diagnostics.keys() == column.diagnostics.keys()

    def test_blocks_of_one_pair_change_nothing(self, monkeypatch):
        request = separated_request("torus8")
        block_sizes = []

        def spy(system, x):
            block_sizes.append(x.shape[0])
            return _newton(system, x)

        monkeypatch.setattr(chebyshev, "_newton", spy)
        whole = cheb_expand_all(*request)
        assert block_sizes == [8]
        monkeypatch.setattr(chebyshev, "BLOCK_BYTES", 1)
        split = cheb_expand_all(*request)
        assert block_sizes == [8] + [1] * 8
        for a, b in zip(whole, split):
            assert_same_pair(a, b)

    def test_failing_pairs_leave_their_block_neighbours_unchanged(self):
        _, coeffs, decomp, nodes = _projected(make_torus_kernel(8), (0.25, 1.0), 6)
        _, starts = _node_starts(coeffs, decomp, nodes, range(8))
        system = _CoupledSystem(coeffs)
        block = starts.copy()
        # a random start that Newton does not bring home in 30 iterations,
        # and all zeros, whose Jacobian has a zero lambda column
        block[2] = np.random.default_rng(5).normal(size=starts.shape[1:])
        block[5] = 0.0
        start_residual = np.max(np.abs(cheb_residual(block[2], coeffs)))
        outcomes = _newton(system, block)
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
            (outcome,) = _newton(system, alone)
            assert outcomes[pair] == outcome
            assert np.array_equal(block[pair], alone[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pair_fails_alone_naming_its_order(self, monkeypatch, bad):
        request = separated_request("torus8")
        clean = cheb_expand_all(*request)

        def poisoned(coeffs, decomp, nodes, indices):
            errors, x = _node_starts(coeffs, decomp, nodes, indices)
            x[list(indices).index(3), 4, 2] = bad     # pair 3, order 4, a vector entry
            return errors, x

        monkeypatch.setattr(chebyshev, "_node_starts", poisoned)
        results = cheb_expand_all(*request)
        failure = results[3]
        assert isinstance(failure, ExpansionFailure) and failure.index == 3
        assert type(failure.error) is NumericalError
        assert str(failure.error) == "series coefficient at order 4 is not finite"
        (failure,) = cheb_expand_all(*request, selector=3)
        assert isinstance(failure.error, NumericalError)
        assert "order 4 is not finite" in str(failure.error)
        for pair in (0, 1, 2, 4, 5, 6, 7):
            assert_same_pair(results[pair], clean[pair])

    def test_collisions_match_pairwise_scan(self, cheb_e1_p10):
        def pairwise_scan(pairs, basis):
            probes = np.linspace(*basis.interval, 5)
            values = [
                np.array([eval_cheb_u(pair.basis, pair.lam, mu) for mu in probes])
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
        # only converged pairs are probed, at their positions among them
        converged = [a for a, pair in enumerate(pairs) if isinstance(pair, EigenPairSeries)]
        found = _collisions(p0.basis, stacked_unknowns([pairs[a] for a in converged]))
        assert [(converged[i], converged[j]) for i, j in found] == expected
        assert expected == [(0, 3), (0, 7), (2, 5), (3, 7)]

    def test_colliding_paths_fail_through_the_one_assembly(self, monkeypatch):
        # the pairs of the pairwise scan above: pair 0's start copied into
        # pairs 3 and 7 and pair 2's into 5; pair 1 fails its start and
        # pair 6 fails in Newton
        request = separated_request("torus8")
        clean = cheb_expand_all(*request)
        values = _projected(*request)[2].values

        def forced(coeffs, decomp, nodes, indices):
            errors, x = _node_starts(coeffs, decomp, nodes, indices)
            errors[1] = NumericalError("no start")
            x = np.delete(x, 1, axis=0)        # rows: pairs 0 and 2..7
            x[[2, 6]], x[4] = x[0], x[1]
            x[5, 4, 2] = np.nan
            return errors, x

        monkeypatch.setattr(chebyshev, "_node_starts", forced)
        results = cheb_expand_all(*request)
        partners = {0: "4 and eigenpair 8", 2: "6", 3: "1 and eigenpair 8",
                    5: "3", 7: "1 and eigenpair 4"}
        for a, names in partners.items():
            failure = results[a]
            assert isinstance(failure, ExpansionFailure) and failure.index == a
            assert failure.eigenvalue == complex(values[a])
            assert type(failure.error) is NumericalError
            assert str(failure.error) == f"eigenvalue path coincides with that of eigenpair {names}"
        for a, message in ((1, "no start"), (6, "series coefficient at order 4 is not finite")):
            assert isinstance(results[a], ExpansionFailure) and results[a].index == a
            assert str(results[a].error) == message
        assert_same_pair(results[4], clean[4])
