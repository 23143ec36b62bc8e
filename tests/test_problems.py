"""Built-in problems (torus kernel, spring chain, Jordan block) and
config-defined problems."""

import dataclasses
import json
import re

from pathlib import Path

import numpy as np
import pytest

from conftest import derivative_mismatch

from eigenpath import (
    ConfigError,
    DomainError,
    NumericalError,
    eigen_all,
    eigpath_eval,
    expansion_series,
    jordan_eigenvalues,
    make_jordan,
    make_spring_chain,
    make_torus_kernel,
    problem_from_config,
    taylor_expand_all,
)
from eigenpath.problems import matrix_stack

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DOCS = Path(__file__).resolve().parents[1] / "docs"


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
        assert derivative_mismatch(make_torus_kernel(8), 0.2) <= 1e-5

    def test_running_product_matches_float_powers(self):
        # d^k/dmu^k exp(-mu U) = (-U)^k exp(-mu U), with U the pairwise
        # distances of the documented points, by float power (the oracle)
        n, mu0, p = 16, 0.3, 30
        theta = np.arange(1, n + 1) / n
        ring = 5 + np.cos(4 * np.pi * theta)
        pts = np.column_stack((np.cos(2 * np.pi * theta) * ring,
                               np.sin(2 * np.pi * theta) * ring, np.sin(4 * np.pi * theta)))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        base = np.exp(-mu0 * dist)
        problem = make_torus_kernel(n)
        derivs = problem.derivs_at(mu0, p)
        assert derivs.shape == (p + 1, n, n) and derivs.dtype == np.float64
        for k in range(p + 1):
            expected = (-dist) ** k * base
            assert np.all(np.abs(derivs[k] - expected) <= 1e-13 * np.abs(expected))
        assert derivative_mismatch(problem, mu0) <= 1e-5


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
        assert derivative_mismatch(make_spring_chain(8), 0.8) <= 1e-5


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
        assert derivative_mismatch(problem, 0.5) <= 1e-5


class TestMatrixStack:
    def test_real_stack_in_float64_with_one_call_per_stack(self):
        problem = make_spring_chain(4)
        calls = []

        def eval_at(mu):
            calls.append(mu)
            return problem.eval_at(mu)

        mus = [0.5, 1.0, 2.0]
        a = matrix_stack(dataclasses.replace(problem, eval_at=eval_at), mus, "grid")
        assert a.dtype == np.float64 and a.shape == (3, 4, 4)
        assert len(calls) == 1
        assert isinstance(calls[0], np.ndarray) and calls[0].dtype == np.float64
        np.testing.assert_array_equal(calls[0], mus)
        for stacked, mu in zip(a, mus):
            assert stacked.tobytes() == problem.eval_at(mu).tobytes()

    def test_names_the_first_point_where_a_is_not_finite(self):
        # exp(-mu * dist) overflows at both negative points, silently
        mus = np.array([0.5, -1e200, -1e300])
        message = f"grid: A(mu) is not finite at mu={-1e200:.17g}"
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            matrix_stack(make_torus_kernel(4), mus, "grid")


class TestStackedEvaluation:
    """eval_at over an array of points gives the stack of eval_at at each
    point, bit for bit."""

    MUS = np.array([0.25, -0.7, 1.3, 0.5, 2.0, -1e-3])

    @pytest.mark.parametrize("make", [make_torus_kernel, make_spring_chain, make_jordan])
    @pytest.mark.parametrize("n", [4, 12])
    def test_array_equals_scalar_calls(self, make, n):
        problem = make(n)
        for mus in (self.MUS, self.MUS.reshape(2, 3), self.MUS[:1]):
            a = problem.eval_at(mus)
            assert a.shape == mus.shape + (n, n) and a.dtype == np.float64
            expected = np.stack([problem.eval_at(mu) for mu in mus.ravel()])
            assert a.tobytes() == expected.tobytes()
        for mu in (0.25, np.float64(-0.7), 2):
            assert problem.eval_at(mu).shape == (n, n)

    def test_spring_chain_array_with_zero_raises(self):
        with pytest.raises(DomainError, match="^spring chain is undefined at mu = 0$"):
            make_spring_chain(4).eval_at(np.array([0.5, 0.0, -1.0]))

    def test_config_names_the_first_failing_point_of_an_array(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"n": 2, "entries": {"sparse": [[2, 1, "1/mu"]]}}))
        problem = problem_from_config(path)
        operation = re.escape("division by zero in '/'")
        with pytest.raises(DomainError, match=rf"^entry \(2, 1\) at mu=0.0: {operation}$"):
            problem.eval_at(np.array([0.5, 0.0, -1.0]))
        with pytest.raises(DomainError, match=rf"^entry \(2, 1\) at mu=-0.0: {operation}$"):
            problem.eval_at(np.array([0.5, -0.0, 0.0]))
        stack = problem.eval_at(np.array([[0.5], [-4.0]]))
        assert stack.shape == (2, 1, 2, 2)
        np.testing.assert_array_equal(stack[:, 0, 1, 0], [2.0, -0.25])


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
        doc = {"n": 2, "entries": {"sparse": [[2, 1, "1/mu"]]}}
        problem = problem_from_config(self._write(tmp_path, doc))
        operation = re.escape("division by zero in '/'")
        with pytest.raises(DomainError, match=rf"^entry \(2, 1\) at mu0=0.0: {operation}$"):
            problem.derivs_at(0.0, 2)
        with pytest.raises(DomainError, match=rf"^entry \(2, 1\) at mu=0.0: {operation}$"):
            problem.eval_at(0.0)

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
        assert derivative_mismatch(problem, 0.4) <= 1e-5

    def test_schema_violations(self, tmp_path):
        entries = "config needs an 'entries' object with 'dense' or 'sparse'"
        # (document, or the file's text when it is a string; the message's start)
        bad = [
            ({"entries": {"dense": ["mu"]}}, "config needs a positive integer 'n'"),
            ({"n": 2, "entries": {"dense": ["mu"]}}, "dense entry list must have n*n = 4 expressions"),
            ({"n": 2}, entries),
            ({"n": 2, "entries": {"dense": ["mu"] * 4, "sparse": []}}, entries),
            ({"n": 2, "entries": {"sparse": [[0, 1, "mu"]]}},     # 0-based index
             "entry (0, 1): indices must be 1-based in 1..2"),
            ({"n": 2, "entries": {"sparse": [[1, 1, "mu"], [1, 1, "1"]]}}, "entry (1, 1): duplicate"),
            ({"n": 2, "entries": {"sparse": [[True, 1, "mu"]]}},  # a bool is no index
             "entry (True, 1): indices must be 1-based in 1..2"),
            ({"n": 2, "entries": {"sparse": [[1, 2, 5]]}}, "entry (1, 2): expression must be a string"),
            ({"n": 2, "entries": {"sparse": {"1": "mu"}}},
             "sparse entries must be a list of [row, col, expr]"),
            ({"n": 2, "entries": {"sparse": [[1, 1]]}},
             "sparse entries must be [row, col, expr] triplets"),
            ({"n": 2, "entries": {"diagonal": ["mu", "mu"]}},
             "entries must contain exactly one of 'dense' or 'sparse'"),
            ('{"n": 2,', "config is not valid JSON: "),
            ('{"n": 2, "name": ' + "[" * 100000 + "]" * 100000 + "}",
             "config JSON is nested too deeply"),
            ([{"n": 2}], "config root must be an object"),
        ]
        for doc, message in bad:
            if isinstance(doc, str):
                path = tmp_path / "problem.json"
                path.write_text(doc)
            else:
                path = self._write(tmp_path, doc)
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
                problem_from_config(path)

    @pytest.mark.parametrize("field, value", [
        ("n", True),
        ("mu_domain", 3),
        ("mu_domain", [0.0, "1"]),
        ("mu_domain", [True, None]),
    ])
    def test_field_of_the_wrong_type_rejected(self, tmp_path, field, value):
        doc = {"n": 2, field: value, "entries": {"sparse": [[1, 1, "mu"]]}}
        with pytest.raises(ConfigError, match=rf"\b{field}\b"):
            problem_from_config(self._write(tmp_path, doc))

    @pytest.mark.parametrize("domain", [[float("nan"), None], [0.0, float("inf")],
                                        [float("nan"), -float("inf")]])
    def test_non_finite_mu_domain_rejected(self, tmp_path, domain):
        # stdlib json writes and reads these as the tokens NaN and Infinity
        doc = {"n": 1, "mu_domain": domain, "entries": {"dense": ["mu"]}}
        with pytest.raises(ConfigError, match=r"\bmu_domain\b"):
            problem_from_config(self._write(tmp_path, doc))

    def test_null_mu_domain_is_unbounded(self, tmp_path):
        doc = {"n": 1, "mu_domain": None, "entries": {"dense": ["mu"]}}
        assert problem_from_config(self._write(tmp_path, doc)).n == 1

    def test_parse_error_names_entry(self, tmp_path):
        doc = {"n": 2, "entries": {"sparse": [[2, 1, "exp(-mu"]]}}
        with pytest.raises(ConfigError) as err:
            problem_from_config(self._write(tmp_path, doc))
        assert "(2, 1)" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            problem_from_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("upper, lower, hermitian", [
        ("2*mu", "2 * mu", True),
        ("2*mu", " 2*mu\t", True),
        ("2*mu", "mu*2", False),     # equal values, but not equal text
        ("mu", None, False),         # the mirror is not listed
        ("mu", "-mu", False),
    ])
    def test_hermitian_when_the_entries_mirror_each_other(self, tmp_path, upper, lower,
                                                           hermitian):
        sparse = [[1, 1, "1"], [1, 2, upper], [2, 2, "3"]]
        if lower is not None:
            sparse.append([2, 1, lower])
        # the key is ignored: the entries decide
        doc = {"n": 2, "hermitian": not hermitian, "entries": {"sparse": sparse}}
        problem = problem_from_config(self._write(tmp_path, doc))
        assert problem.hermitian is hermitian
        assert problem_from_config(
            self._write(tmp_path, {"n": 2, "entries": {"sparse": sparse}})).hermitian is hermitian

    def test_unrecognised_mirror_still_expands_its_matrix(self, tmp_path):
        doc = {"n": 2, "entries": {"dense": ["1", "2*mu", "mu*2", "3"]}}
        problem = problem_from_config(self._write(tmp_path, doc))
        assert not problem.hermitian
        pairs = expansion_series(taylor_expand_all(problem, 0.3, 16))
        for mu in (0.25, 0.3, 0.35):
            values = np.sort_complex(np.array([eigpath_eval(pair, mu)[0] for pair in pairs]))
            direct = np.sort_complex(np.linalg.eigvals(problem.eval_at(mu)).astype(complex))
            np.testing.assert_allclose(values, direct, rtol=0, atol=1e-10)

    def test_shipped_configs_load(self):
        hermitian = {"crossing_rotating_n2.json": True, "example_jordan_n2.json": False}
        paths = sorted(CONFIGS.glob("*.json"))
        assert [path.name for path in paths] == sorted(hermitian)
        for path in paths:
            assert problem_from_config(path).hermitian is hermitian[path.name]

    def test_mirrored_long_sum_loads(self, tmp_path):
        # long enough that == on the parsed trees would exceed the recursion limit
        text = "+".join(["mu"] * 400)
        doc = {"n": 2, "entries": {"sparse": [[1, 2, text], [2, 1, text]]}}
        problem = problem_from_config(self._write(tmp_path, doc))
        assert problem.hermitian
        np.testing.assert_array_equal(problem.eval_at(0.5), [[0.0, 200.0], [200.0, 0.0]])


def test_schema_doc_examples_load(tmp_path):
    # every JSON block of the schema doc is a config the loader accepts, and
    # its Jordan example is the shipped file
    blocks = re.findall(r"```json\n(.*?)```", (DOCS / "problem-config.md").read_text(), re.S)
    assert len(blocks) >= 2
    for index, block in enumerate(blocks):
        path = tmp_path / f"example{index}.json"
        path.write_text(block)
        assert problem_from_config(path).n >= 1
    shipped = json.loads((CONFIGS / "example_jordan_n2.json").read_text())
    assert shipped in [json.loads(block) for block in blocks]
