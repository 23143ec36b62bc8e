"""Built-in problems (torus kernel, spring chain, Jordan block) and
config-defined problems."""

import json

import numpy as np
import pytest

from eigenpath import (
    ConfigError,
    DomainError,
    eigen_all,
    jordan_eigenvalues,
    make_jordan,
    make_spring_chain,
    make_torus_kernel,
    problem_from_config,
)


class TestTorusKernel:
    def test_at_zero_is_all_ones(self):
        problem = make_torus_kernel(8)
        np.testing.assert_allclose(problem.eval_at(0.0), 1.0)
        d = eigen_all(problem.eval_at(0.0), hermitian=True)
        assert d.values[0].real == pytest.approx(8.0, abs=1e-12)
        np.testing.assert_allclose(d.values[1:].real, 0.0, atol=1e-12)

    def test_unit_diagonal_for_all_mu(self):
        problem = make_torus_kernel(6)
        for mu in (-0.5, 0.2, 1.0):
            np.testing.assert_allclose(np.diag(problem.eval_at(mu)), 1.0)

    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
    def test_trace_identity(self, mu):
        problem = make_torus_kernel(8)
        d = eigen_all(problem.eval_at(mu), hermitian=True)
        assert np.sum(d.values.real) == pytest.approx(8.0, abs=1e-10)

    def test_symmetric_with_entries_in_unit_interval(self):
        problem = make_torus_kernel(10)
        for mu in (0.3, 1.2):
            a = problem.eval_at(mu)
            np.testing.assert_allclose(a, a.T)
            assert np.all(a > 0) and np.all(a <= 1.0)

    def test_derivative_self_test(self):
        assert make_torus_kernel(8).check_derivatives(0.2) <= 1e-5


class TestSpringChain:
    def test_at_one_equals_stiffness_matrix(self):
        problem = make_spring_chain(8)
        a = problem.eval_at(1.0)
        k = np.arange(1, 9)
        expected = 4 * np.sin(k * np.pi / (2 * 9)) ** 2
        d = eigen_all(a)
        np.testing.assert_allclose(
            np.sort(d.values.real), np.sort(expected), atol=1e-12
        )

    def test_first_derivative_row_scaling(self):
        problem = make_spring_chain(8)
        derivs = problem.derivs_at(0.8, 1)
        k_rows = problem.eval_at(1.0)[[3, 4], :]
        np.testing.assert_allclose(derivs[1][[3, 4], :], -1.5625 * k_rows, rtol=1e-13)
        others = [i for i in range(8) if i not in (3, 4)]
        np.testing.assert_allclose(derivs[1][others, :], 0.0)

    def test_mu_independent_rows(self):
        problem = make_spring_chain(8)
        a, b = problem.eval_at(0.5), problem.eval_at(1.0)
        others = [i for i in range(8) if i not in (3, 4)]
        np.testing.assert_array_equal(a[others, :], b[others, :])

    def test_zero_mass_rejected(self):
        problem = make_spring_chain(8)
        with pytest.raises(DomainError):
            problem.eval_at(0.0)
        with pytest.raises(DomainError):
            problem.derivs_at(0.0, 3)

    def test_odd_or_small_n_rejected(self):
        with pytest.raises(ValueError):
            make_spring_chain(7)
        with pytest.raises(ValueError):
            make_spring_chain(2)

    def test_derivative_self_test(self):
        assert make_spring_chain(8).check_derivatives(0.8) <= 1e-5


class TestJordan:
    def test_two_by_two_oracle(self):
        oracle = np.sort_complex(jordan_eigenvalues(2, 0.25))
        np.testing.assert_allclose(oracle, [0.5, 1.5], atol=1e-14)
        d = eigen_all(make_jordan(2).eval_at(0.25))
        np.testing.assert_allclose(
            np.sort_complex(d.values), oracle, atol=1e-12
        )

    def test_defective_at_zero(self):
        d = eigen_all(make_jordan(5).eval_at(0.0))
        np.testing.assert_allclose(d.values, 1.0, atol=1e-3)  # Jordan: ill-conditioned
        np.testing.assert_allclose(jordan_eigenvalues(5, 0.0), 1.0)

    def test_circle_of_roots(self):
        oracle = jordan_eigenvalues(8, 0.2)
        radius = 0.2 ** (1 / 8)
        np.testing.assert_allclose(np.abs(oracle - 1.0), radius, rtol=1e-14)
        d = eigen_all(make_jordan(8).eval_at(0.2))
        # match each direct eigenvalue to its nearest oracle root
        for lam in d.values:
            assert np.min(np.abs(oracle - lam)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_oracle_roots_annihilate_determinant(self, n):
        problem = make_jordan(n)
        for mu in (0.2, -0.3):
            a = problem.eval_at(mu)
            for lam in jordan_eigenvalues(n, mu):
                det = np.linalg.det(lam * np.eye(n) - a)
                assert abs(det) <= 1e-8

    def test_derivative_matrices(self):
        problem = make_jordan(4)
        derivs = problem.derivs_at(0.7, 3)
        expected = np.zeros((4, 4))
        expected[3, 0] = 1.0
        np.testing.assert_array_equal(derivs[1], expected)
        np.testing.assert_array_equal(derivs[2], 0.0)
        assert problem.check_derivatives(0.5) <= 1e-5


class TestConfigProblems:
    def _write(self, tmp_path, doc):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        return path

    def test_dense_jordan_equivalence(self, tmp_path):
        doc = {
            "name": "jordan2",
            "n": 2,
            "entries": {"dense": ["1", "1", "mu", "1"]},
        }
        problem = problem_from_config(self._write(tmp_path, doc))
        builtin = make_jordan(2)
        np.testing.assert_array_equal(problem.eval_at(0.25), builtin.eval_at(0.25))
        np.testing.assert_allclose(
            problem.derivs_at(0.25, 3), builtin.derivs_at(0.25, 3), atol=1e-15
        )

    def test_reciprocal_domain_error(self, tmp_path):
        doc = {"n": 1, "entries": {"dense": ["1/mu"]}}
        problem = problem_from_config(self._write(tmp_path, doc))
        with pytest.raises(DomainError):
            problem.derivs_at(0.0, 2)

    def test_sparse_single_entry(self, tmp_path):
        doc = {"n": 2, "entries": {"sparse": [[1, 1, "mu"]]}}
        problem = problem_from_config(self._write(tmp_path, doc))
        np.testing.assert_array_equal(problem.eval_at(0.7), [[0.7, 0.0], [0.0, 0.0]])

    def test_expression_problem_self_test(self, tmp_path):
        doc = {
            "n": 2,
            "hermitian": True,
            "entries": {"dense": ["exp(-mu)", "sin(mu)/(mu+2)", "sin(mu)/(mu+2)", "cos(mu)^2"]},
        }
        problem = problem_from_config(self._write(tmp_path, doc))
        assert problem.check_derivatives(0.4) <= 1e-5

    def test_schema_violations(self, tmp_path):
        bad = [
            {"entries": {"dense": ["mu"]}},                      # missing n
            {"n": 2, "entries": {"dense": ["mu"]}},              # wrong count
            {"n": 2},                                            # missing entries
            {"n": 2, "entries": {"dense": ["mu"] * 4, "sparse": []}},
            {"n": 2, "entries": {"sparse": [[0, 1, "mu"]]}},     # 0-based index
            {"n": 2, "entries": {"sparse": [[1, 1, "mu"], [1, 1, "1"]]}},
        ]
        for doc in bad:
            with pytest.raises(ConfigError):
                problem_from_config(self._write(tmp_path, doc))

    @pytest.mark.parametrize("field, value", [
        ("n", True),
        ("hermitian", "false"),
        ("hermitian", 1),
        ("mu_domain", 3),
        ("mu_domain", [0.0, "1"]),
        ("mu_domain", [True, None]),
    ])
    def test_field_of_the_wrong_type_rejected(self, tmp_path, field, value):
        doc = {"n": 2, field: value, "entries": {"sparse": [[1, 1, "mu"]]}}
        with pytest.raises(ConfigError, match=rf"\b{field}\b"):
            problem_from_config(self._write(tmp_path, doc))

    def test_null_mu_domain_is_unbounded(self, tmp_path):
        doc = {"n": 1, "mu_domain": None, "entries": {"dense": ["mu"]}}
        assert problem_from_config(self._write(tmp_path, doc)).domain == (None, None)

    def test_parse_error_names_entry(self, tmp_path):
        doc = {"n": 2, "entries": {"sparse": [[2, 1, "exp(-mu"]]}}
        with pytest.raises(ConfigError) as err:
            problem_from_config(self._write(tmp_path, doc))
        assert "(2, 1)" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            problem_from_config(tmp_path / "nope.json")
