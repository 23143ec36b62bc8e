"""Dense eigendecomposition contract, bordered systems, and the reduced
O(n^2) solve."""

import ast
import re
import time
import tokenize

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from eigenpath import linalg
from eigenpath.analysis import draw_samples
from eigenpath.errors import NonSimpleEigenvalueError
from eigenpath.linalg import (
    assemble_bordered,
    build_bordered,
    eigen_all,
    eigenvalues,
    phase_fix,
    solve_bordered,
    solve_bordered_reduced,
)
from eigenpath.problems import builtin_problem


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


class TestEigenAll:
    def test_ones_matrix(self):
        d = eigen_all(np.ones((8, 8)), hermitian=True)
        np.testing.assert_allclose(d.values[0], 8.0, atol=1e-12)
        np.testing.assert_allclose(d.values[1:], 0.0, atol=1e-12)

    def test_identity(self):
        d = eigen_all(np.eye(5))
        np.testing.assert_allclose(d.values, 1.0, atol=1e-12)
        # vectors are the standard basis up to phase: one unit entry each
        for i in range(5):
            col = np.abs(d.vectors[:, i])
            assert col.max() == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two(self):
        # characteristic polynomial (lambda-1)^2 = 0.25
        d = eigen_all(np.array([[1.0, 1.0], [0.25, 1.0]]))
        np.testing.assert_allclose(sorted(d.values.real, reverse=True), [1.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_contract_invariants(self, hermitian):
        rng = np.random.default_rng(23)
        n = 9
        a = random_hermitian(n, rng) if hermitian else rng.normal(size=(n, n))
        a = np.asarray(a, dtype=complex)
        d = eigen_all(a, hermitian=hermitian)
        fro = np.linalg.norm(a)
        for i in range(n):
            res = np.linalg.norm(a @ d.vectors[:, i] - d.values[i] * d.vectors[:, i])
            assert res <= 1e-12 * n * fro
            assert np.linalg.norm(d.vectors[:, i]) == pytest.approx(1.0, abs=1e-12)
            pivot = d.vectors[np.argmax(np.abs(d.vectors[:, i])), i]
            assert abs(pivot.imag) <= 1e-12 and pivot.real > 0
        assert np.linalg.norm(d.schur_q.conj().T @ d.schur_q - np.eye(n)) <= 1e-12 * n
        assert (
            np.linalg.norm(a - d.schur_q @ d.schur_t @ d.schur_q.conj().T)
            <= 1e-12 * n * fro
        )
        # sorted by descending real part
        assert np.all(np.diff(d.values.real) <= 1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eigen_all(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            eigen_all(np.ones((2, 3, 3, 3)))

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_stack_bit_identical_to_per_matrix_loop(self, hermitian):
        """Each matrix of a stack gets the bits of a per-column loop over
        that matrix alone: LAPACK's pairs, sorted, then each column divided
        by np.linalg.norm and rotated by its own largest entry."""
        rng = np.random.default_rng(31)
        make = random_hermitian if hermitian else (
            lambda n, r: r.normal(size=(n, n)) + 1j * r.normal(size=(n, n)))
        for n in (1, 2, 7, 12):
            stack = np.stack([make(n, rng) for _ in range(6)])
            d = eigen_all(stack, hermitian=hermitian)
            assert d.values.shape == (6, n) and d.vectors.shape == (6, n, n)
            for a, values, vectors in zip(stack, d.values, d.vectors):
                if hermitian:
                    w, v = np.linalg.eigh(a)
                    w = w.astype(complex)
                else:
                    w, v = scipy.linalg.eig(a)
                order = np.lexsort((-w.imag, -w.real))
                expected = v[:, order].astype(complex)
                for i in range(n):
                    col = expected[:, i] / np.linalg.norm(expected[:, i])
                    pivot = col[int(np.argmax(np.abs(col)))]
                    expected[:, i] = col * (abs(pivot) / pivot)
                assert values.tobytes() == w[order].tobytes()
                assert vectors.tobytes() == expected.tobytes()
                single = eigen_all(a, hermitian=hermitian)
                assert single.values.tobytes() == values.tobytes()
                assert single.vectors.tobytes() == vectors.tobytes()

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_schur_factors_of_a_stack(self, hermitian):
        rng = np.random.default_rng(5)
        stack = np.stack([random_hermitian(5, rng) for _ in range(3)])
        d = eigen_all(stack, hermitian=hermitian)
        assert "_schur" not in vars(d)  # computed on first access only
        q, t = d.schur_q, d.schur_t
        assert q.shape == t.shape == stack.shape
        for a, q_i, t_i in zip(stack, q, t):
            assert np.linalg.norm(a - q_i @ t_i @ q_i.conj().T) <= 1e-12 * np.linalg.norm(a)
            np.testing.assert_array_equal(np.tril(t_i, -1), 0.0)
        assert not (q.flags.writeable or t.flags.writeable or d.vectors.flags.writeable)


def assert_schur_form(d, c):
    """d's Schur factors: Q has orthonormal columns, T is exactly upper
    triangular, both in the eigenvectors' dtype, and
    ||A Q - Q T|| <= c eps ||A|| (Frobenius norms)."""
    q, t, eps = d.schur_q, d.schur_t, np.finfo(float).eps
    assert q.dtype == t.dtype == d.vectors.dtype
    np.testing.assert_array_equal(np.tril(t, -1), 0.0)
    assert np.linalg.norm(q.conj().T @ q - np.eye(d.n)) <= c * eps
    assert np.linalg.norm(d.matrix @ q - q @ t) <= c * eps * np.linalg.norm(d.matrix)


class TestSchurForm:
    @pytest.mark.parametrize("problem, n, mu0, c", [
        ("example2", 256, 1.0, 256),
        ("example2", 256, 0.6, 256),
        # near the Jordan point cond(V) is 6.5e5 and A Q - Q T is 2.4e3 eps ||A||
        ("example3", 32, 1e-6, 1e4),
    ])
    def test_built_in_schur_form_from_the_eigenvectors(self, problem, n, mu0, c):
        assert_schur_form(eigen_all(builtin_problem(problem, n).eval_at(mu0)), c)


class TestRealArithmetic:
    def test_real_spectrum_gives_real_triangular_schur_form(self):
        # Q T Q^T with T upper triangular (distinct real diagonal, dense
        # strict upper part): real, non-normal, with a real spectrum
        rng = np.random.default_rng(41)
        n = 9
        q0, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = q0 @ (np.diag(np.arange(1.0, n + 1)) + np.triu(rng.normal(size=(n, n)), 1)) @ q0.T
        d = eigen_all(a)
        q, t = d.schur_q, d.schur_t
        assert q.dtype == t.dtype == d.vectors.dtype == d.matrix.dtype == np.float64
        assert d.values.dtype == complex and np.all(d.values.imag == 0)
        np.testing.assert_array_equal(np.tril(t, -1), 0.0)
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-14 * n
        assert np.linalg.norm(a - q @ t @ q.T) <= 1e-14 * np.linalg.norm(a)
        np.testing.assert_allclose(d.values.real, np.arange(n, 0.0, -1), rtol=1e-12)

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_real_symmetric_input_is_real(self, hermitian):
        a = random_hermitian(6, np.random.default_rng(43)).real
        d = eigen_all(a, hermitian=hermitian)
        assert d.matrix.dtype == d.vectors.dtype == d.schur_t.dtype == np.float64
        assert np.linalg.norm(a - d.schur_q @ d.schur_t @ d.schur_q.T) <= 1e-13 * np.linalg.norm(a)

    def test_complex_pair_keeps_the_real_solvers_pairs_and_complex_schur_factors(self):
        """A real matrix whose real Schur form has a 2x2 block (a complex
        pair) gets the eigenpairs of the real solver, as complex128, and
        complex Schur factors built from them."""
        rng = np.random.default_rng(47)
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        a = np.kron(np.eye(3), rotation) + 0.1 * rng.normal(size=(6, 6))
        _, t_real = scipy.linalg.schur(a, output="real")
        assert np.any(np.diagonal(t_real, -1))
        d = eigen_all(a)
        values, vectors = np.linalg.eig(a)
        order = np.lexsort((-values.imag, -values.real))
        assert d.matrix.dtype == np.float64 and d.vectors.dtype == complex
        assert d.values.tobytes() == values[order].tobytes()
        for k in np.flatnonzero(d.values.imag > 0):   # conjugate partners tie: +i first
            assert d.values[k + 1] == np.conj(d.values[k])
        expected = vectors[:, order] / np.linalg.norm(vectors[:, order], axis=0)
        np.testing.assert_allclose(d.vectors, phase_fix(expected), rtol=0, atol=1e-15)
        assert_schur_form(d, 16)
        only = np.linalg.eigvals(a)
        assert eigenvalues(a).tobytes() == only[np.lexsort((-only.imag, -only.real))].tobytes()

    def test_stack_mixing_real_and_complex_spectra_solves_each_matrix_alone(self):
        rng = np.random.default_rng(53)
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        complex_pair = np.kron(np.eye(3), rotation) + 0.1 * rng.normal(size=(6, 6))
        q0, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        real = q0 @ (np.diag(np.arange(1.0, 7.0)) + np.triu(rng.normal(size=(6, 6)), 1)) @ q0.T
        stack = np.stack([real, complex_pair, real])
        d = eigen_all(stack)
        assert d.vectors.dtype == complex   # numpy's one dtype for the stack
        for k, matrix in enumerate(stack):
            alone = eigen_all(matrix)
            assert d.values[k].tobytes() == alone.values.tobytes()
            assert np.asarray(d.vectors[k], dtype=complex).tobytes() == \
                np.asarray(alone.vectors, dtype=complex).tobytes()
        looped = np.stack([eigenvalues(matrix) for matrix in stack])
        assert eigenvalues(stack).tobytes() == looped.tobytes()

    def test_real_pair_beside_a_2x2_schur_block_takes_a_real_schur_form(self):
        # a nearly defective quadruple eigenvalue 1 (off by ~5e-10 in exact
        # arithmetic): eig rounds it to four real values, while the real
        # Schur form keeps a 2x2 block; the Schur factors follow eig's
        # real vectors
        a = np.array([[1.0, 100.0, 0.0, 0.0], [0.0, 1.0, 4.0, 0.0],
                      [0.0, 0.0, 1.0, 0.1], [1e-38, 0.0, 0.0, 1.0]])
        _, t_real = scipy.linalg.schur(a, output="real")
        assert not np.iscomplexobj(np.linalg.eigvals(a)) and np.any(np.diagonal(t_real, -1))
        d = eigen_all(a)
        assert d.vectors.dtype == np.float64
        assert_schur_form(d, 16)

    def test_complex_input_with_zero_imaginary_parts_stays_complex(self):
        d = eigen_all(np.diag([1.0, 2.0]).astype(complex))
        assert d.matrix.dtype == d.vectors.dtype == d.schur_t.dtype == complex


def random_general(n, rng):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


# (built-in, n, sample mean, sample stddev): the sampled points of each
# built-in's A(mu) that the values-only solve is checked on
BUILTIN_STACKS = [
    ("example1", 12, 0.2, 0.05),
    ("example1", 48, 0.2, 0.05),
    ("example2", 12, 0.8, 0.05),
    ("example2", 64, 0.8, 0.05),
]


class TestEigenvalues:
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_stack_bit_identical_to_per_matrix_loop(self, hermitian):
        rng = np.random.default_rng(37)
        make = random_hermitian if hermitian else random_general
        for n in (1, 2, 7, 12):
            stack = np.stack([make(n, rng) for _ in range(6)])
            values = eigenvalues(stack, hermitian=hermitian)
            assert values.shape == (6, n) and values.dtype == complex
            assert not values.flags.writeable
            looped = np.stack([eigenvalues(a, hermitian=hermitian) for a in stack])
            assert values.tobytes() == looped.tobytes()

    @pytest.mark.parametrize("case", BUILTIN_STACKS, ids=lambda c: f"{c[0]}-n{c[1]}")
    def test_matches_eigen_all_on_the_builtins(self, case):
        name, n, mean, stddev = case
        problem = builtin_problem(name, n)
        stack = np.stack([problem.eval_at(mu) for mu in draw_samples(mean, stddev, 20, 3)])
        # the Hermitian built-in also goes through the general solver
        for hermitian in {problem.hermitian, False}:
            values = eigenvalues(stack, hermitian=hermitian)
            reference = eigen_all(stack, hermitian=hermitian).values
            scale = 1.0 + np.max(np.abs(reference), axis=-1, keepdims=True)
            # same order: entry by entry, every value sits next to its
            # counterpart from the solve with eigenvectors
            assert np.max(np.abs(values - reference) / scale) <= 1e-14

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_rejects_what_eigen_all_rejects(self, hermitian):
        for bad in (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones((2, 3, 3, 3))):
            for solve in (eigen_all, eigenvalues):
                with pytest.raises(ValueError):
                    solve(bad, hermitian=hermitian)


class TestHermitianFlag:
    def test_asymmetric_matrix_is_rejected_naming_its_largest_asymmetry(self):
        a = np.array([[2.0, 0.5], [0.0, 3.0]])
        stack = np.stack([np.eye(2), a])
        for solve in (eigen_all, eigenvalues):
            with pytest.raises(ValueError,
                               match=r"^hermitian=True, but \|A - A\^H\| is 0.5 at entry \(0, 1\)$"):
                solve(a, hermitian=True)
            with pytest.raises(ValueError, match=r" at entry \(1, 0, 1\)$"):
                solve(stack, hermitian=True)
            solve(a)   # the general solver takes it

    def test_matrix_symmetric_to_rounding_passes(self):
        rng = np.random.default_rng(59)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        a = q @ np.diag(np.arange(1.0, 9.0)) @ q.T
        assert np.any(a != a.T)
        expected = np.arange(8.0, 0.0, -1)
        np.testing.assert_allclose(eigen_all(a, hermitian=True).values.real, expected, rtol=1e-13)
        np.testing.assert_allclose(eigenvalues(a, hermitian=True).real, expected, rtol=1e-13)


class TestBuildBordered:
    def test_diag_example(self):
        sys_ = build_bordered(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), 1.0)
        expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1.0]])
        np.testing.assert_allclose(sys_.matrix, expected, atol=1e-15)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_for_defective(self):
        # lam0 = 1 is a triple eigenvalue of I; border cannot restore rank
        with pytest.raises(NonSimpleEigenvalueError):
            build_bordered(np.eye(3), np.array([1.0, 0.0, 0.0]), 1.0)

    def test_condition_estimate_for_simple_eigenpair(self, torus8):
        a0 = torus8.eval_at(0.2)
        d = eigen_all(a0, hermitian=True)
        sys_ = build_bordered(a0, d.vectors[:, 0].copy(), complex(d.values[0]))
        assert sys_.condition_estimate > 1e-8

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            build_bordered(np.diag([1.0, 2.0]), np.array([2.0, 0.0]), 1.0)


class TestSolveBordered:
    def test_uniform_shift(self):
        # A(mu) = A0 + (mu-mu0) I shifts eigenvalues, leaves vectors fixed
        sys_ = build_bordered(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), 1.0)
        lam1, v1 = solve_bordered(sys_, np.array([0.0, 1.0, 0.0]))
        assert lam1 == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(v1, 0.0, atol=1e-14)

    def test_homogeneous(self):
        sys_ = build_bordered(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), 1.0)
        lam, v = solve_bordered(sys_, np.zeros(3))
        assert lam == 0.0
        np.testing.assert_allclose(v, 0.0)

    def test_residual_on_example1(self, torus8):
        rng = np.random.default_rng(31)
        a0 = torus8.eval_at(0.2)
        d = eigen_all(a0, hermitian=True)
        sys_ = build_bordered(a0, d.vectors[:, 2].copy(), complex(d.values[2]))
        rhs = rng.normal(size=9) + 1j * rng.normal(size=9)
        lam, v = solve_bordered(sys_, rhs)
        x = np.concatenate(([lam], v))
        res = np.max(np.abs(sys_.matrix @ x - rhs))
        assert res <= 1e-12 * np.max(np.abs(rhs))


class TestSolveBorderedReduced:
    @pytest.mark.parametrize("case", range(20))
    def test_matches_dense_on_hermitian(self, case):
        rng = np.random.default_rng(100 + case)
        a = random_hermitian(8, rng)
        d = eigen_all(a, hermitian=True)
        idx = int(rng.integers(0, 8))
        v0 = d.vectors[:, idx].copy()
        lam0 = complex(d.values[idx])
        rhs = rng.normal(size=9) + 1j * rng.normal(size=9)
        dense = solve_bordered(build_bordered(a, v0, lam0), rhs)
        fast = solve_bordered_reduced(d.schur_q, d.schur_t, v0, lam0, rhs)
        scale = max(1.0, abs(dense[0]), float(np.max(np.abs(dense[1]))))
        assert abs(dense[0] - fast[0]) <= 1e-10 * scale
        np.testing.assert_allclose(fast[1], dense[1], atol=1e-10 * scale)

    @pytest.mark.parametrize("n", [5, 16, 32])
    def test_matches_dense_nonhermitian(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        d = eigen_all(a)
        idx = 1
        v0 = d.vectors[:, idx].copy()
        lam0 = complex(d.values[idx])
        rhs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        dense = solve_bordered(build_bordered(a, v0, lam0), rhs)
        fast = solve_bordered_reduced(d.schur_q, d.schur_t, v0, lam0, rhs)
        scale = max(1.0, abs(dense[0]), float(np.max(np.abs(dense[1]))))
        assert abs(dense[0] - fast[0]) <= 1e-10 * scale
        np.testing.assert_allclose(fast[1], dense[1], atol=1e-10 * scale)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_diagonal_t_skips_the_row_loops_with_their_values(self, dtype):
        # a Hermitian problem's T is diagonal: every row loop term is 0
        rng = np.random.default_rng(78)
        n, pivots = 7, np.array([1, 3, 4, 6])
        t = np.diag(rng.normal(size=n)).astype(dtype)
        shifts = np.diagonal(t)[pivots][None, :] - np.diagonal(t)[:, None]
        shifts[pivots, np.arange(pivots.size)] = np.inf
        g = rng.normal(size=(n, pivots.size)).astype(dtype)
        if dtype is complex:
            g += 1j * rng.normal(size=g.shape)
        for helper, args in ((linalg._left_null_rows, (pivots,)), (linalg._back_substitute, (g,))):
            np.testing.assert_array_equal(helper(t, shifts, *args, True),
                                          helper(t, shifts, *args, False))

    def test_arrowhead_closed_form(self):
        # diagonal T with lam0 = T_11: the eigenvalue part of the solution is
        # the first component of the transformed rhs vector.
        rng = np.random.default_rng(77)
        a = random_hermitian(6, rng)
        d = eigen_all(a, hermitian=True)
        v0 = d.vectors[:, 0].copy()
        lam0 = complex(d.values[0])
        a1 = random_hermitian(6, rng)
        y = d.schur_q.conj().T @ (a1 @ v0)
        rhs = np.concatenate(([0.0], d.schur_q @ y))
        lam, _ = solve_bordered_reduced(d.schur_q, d.schur_t, v0, lam0, rhs)
        assert abs(lam - y[0]) <= 1e-10 * max(1.0, abs(y[0]))

    def test_homogeneous(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(4, rng)
        d = eigen_all(a, hermitian=True)
        lam, v = solve_bordered_reduced(
            d.schur_q, d.schur_t, d.vectors[:, 1].copy(), complex(d.values[1]),
            np.zeros(5),
        )
        assert abs(lam) <= 1e-14
        np.testing.assert_allclose(v, 0.0, atol=1e-14)

    def test_detects_repeated_eigenvalue(self):
        d = eigen_all(np.eye(4), hermitian=True)
        with pytest.raises(NonSimpleEigenvalueError):
            solve_bordered_reduced(
                d.schur_q, d.schur_t, d.vectors[:, 0].copy(), 1.0 + 0j,
                np.ones(5),
            )

    @pytest.mark.parametrize("index", [0, 1])
    def test_ill_conditioned_pair_fails_the_eliminated_pivot_test(self, index):
        # gap 1e-9 passes the Schur-pivot test, but the reciprocal eigenvalue
        # condition 1e-9 / 1e8 does not: both pairs fail, as in taylor_expand_all
        d = eigen_all(np.array([[1.0, 1e8], [0.0, 1.0 + 1e-9]]))
        condition = r"eigenvalue condition \|l c\| / \(\|\|l\|\| \|\|c\|\|\) = 1e-17 below 1e-12"
        with pytest.raises(NonSimpleEigenvalueError, match=rf"\(eliminated pivot: {condition}\)$"):
            solve_bordered_reduced(
                d.schur_q, d.schur_t, d.vectors[:, index].copy(), complex(d.values[index]),
                np.ones(3),
            )

    def test_assembled_residual(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(12, 12))
        d = eigen_all(a)
        v0 = d.vectors[:, 4].copy()
        lam0 = complex(d.values[4])
        rhs = rng.normal(size=13)
        lam, v = solve_bordered_reduced(d.schur_q, d.schur_t, v0, lam0, rhs)
        e = assemble_bordered(a, v0, lam0)
        x = np.concatenate(([lam], v))
        assert np.max(np.abs(e @ x - rhs)) <= 1e-11 * (1.0 + np.max(np.abs(rhs)))


class TestGammaEquivariance:
    """Rotating v0 by gamma (|gamma| = 1) and y with it rotates v_k alike and
    leaves lam_k: the border row conj(v0) of every pair absorbs the phase."""

    @pytest.mark.parametrize("gamma", [np.exp(0.7j), -1.0 + 0j, np.exp(-2.1j)])
    def test_scaling_border_and_rhs(self, gamma):
        rng = np.random.default_rng(13)
        a = random_hermitian(7, rng)
        self._check_scaling(eigen_all(a, hermitian=True), 3, gamma, rng)

    @pytest.mark.parametrize("gamma", [np.exp(0.7j), np.exp(-2.1j)])
    def test_scaling_border_and_rhs_complex_non_hermitian(self, gamma):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        self._check_scaling(eigen_all(a), 3, gamma, rng)

    @staticmethod
    def _check_scaling(d, index, gamma, rng):
        a, n = d.matrix, d.n
        v0 = d.vectors[:, index].copy()
        lam0 = complex(d.values[index])
        z = 0.3 + 0.1j
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        base = solve_bordered(
            build_bordered(a, v0, lam0), np.concatenate(([z], y))
        )
        scaled = solve_bordered(
            build_bordered(a, gamma * v0, lam0),
            np.concatenate(([z], gamma * y)),
        )
        assert abs(base[0] - scaled[0]) <= 1e-12 * max(1.0, abs(base[0]))
        np.testing.assert_allclose(scaled[1], gamma * base[1], atol=1e-12)
        fast = solve_bordered_reduced(d.schur_q, d.schur_t, gamma * v0, lam0,
                                      np.concatenate(([z], gamma * y)))
        assert abs(base[0] - fast[0]) <= 1e-12 * max(1.0, abs(base[0]))
        np.testing.assert_allclose(fast[1], gamma * base[1], atol=1e-12)


def test_reduced_solve_scales_quadratically():
    """Fitted runtime exponent over n in {64, 128, 256, 512} stays below 2.6."""
    rng = np.random.default_rng(1)
    sizes = [64, 128, 256, 512]
    times = []
    for n in sizes:
        a = random_hermitian(n, rng)
        d = eigen_all(a, hermitian=True)
        v0 = d.vectors[:, n // 2].copy()
        lam0 = complex(d.values[n // 2])
        rhs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        solve_bordered_reduced(d.schur_q, d.schur_t, v0, lam0, rhs)
        reps = max(3, 2048 // n)
        best = np.inf
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(reps):
                solve_bordered_reduced(d.schur_q, d.schur_t, v0, lam0, rhs)
            best = min(best, (time.perf_counter() - start) / reps)
        times.append(best)
    exponent = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert exponent < 2.6, (times, exponent)


class TestThresholdTable:
    """Every number that decides whether a result is kept is defined once,
    in ``linalg``'s threshold table, and read by name everywhere else."""

    SOURCES = sorted(Path(linalg.__file__).parent.glob("*.py"))
    NAMES = {"SINGULARITY_RCOND", "UNIT_NORM_TOL", "ORDER_RESIDUAL_BOUND", "NEWTON_TOL",
             "NEWTON_MAX_ITER", "NEWTON_PIVOT_TOL", "ISOTROPIC_TOL", "COLLISION_TOL",
             "COLLISION_PROBES", "DEGENERATE_NORM_TOL"}

    @staticmethod
    def table_lines():
        """The line numbers of linalg's table: from its heading comment to the
        first blank line (none when there is no heading)."""
        lines = Path(linalg.__file__).read_text().splitlines()
        start = next((i for i, line in enumerate(lines) if line.startswith("# The threshold table")),
                     None)
        if start is None:
            return range(0)
        end = lines.index("", start)
        return range(start + 1, end + 1)

    def test_no_e_notation_number_outside_the_table(self):
        table = self.table_lines()
        found = []
        for path in self.SOURCES:
            with open(path, "rb") as f:
                for token in tokenize.tokenize(f.readline):
                    if (token.type == tokenize.NUMBER
                            and re.fullmatch(r"[\d_.]*[eE][+-]?[\d_]+[jJ]?", token.string)
                            and not (path.name == "linalg.py" and token.start[0] in table)):
                        found.append(f"{path.name}:{token.start[0]} {token.string}")
        assert not found

    def test_the_table_defines_each_threshold_and_no_module_rebinds_one(self):
        lines = Path(linalg.__file__).read_text().splitlines()
        lines_of_table = self.table_lines()
        table = [lines[i - 1] for i in lines_of_table]
        assert {line.split(" = ")[0] for line in table if not line.startswith("#")} == self.NAMES
        rebound = []
        for path in self.SOURCES:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    name = node.id              # a table name bound anew
                elif isinstance(node, ast.alias) and node.asname:
                    name = node.name            # imported under another name
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                    name = node.value.id        # copied to another name
                else:
                    continue
                if name in self.NAMES and not (path.name == "linalg.py" and node.lineno in lines_of_table):
                    rebound.append(f"{path.name}:{node.lineno} {name}")
        assert not rebound
