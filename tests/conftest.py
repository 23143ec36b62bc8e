"""Shared fixtures. Expensive expansions are session-scoped and reused."""

from pathlib import Path

import numpy as np
import pytest

from eigenpath import (
    ParametricProblem,
    cheb_expand_all,
    expansion_series,
    make_jordan,
    make_spring_chain,
    make_torus_kernel,
    pointwise,
    taylor_expand_all,
)

# A(mu) = R(mu) diag(mu, 1 - mu) R(mu)^T with R(mu) the rotation by mu: its
# eigenvalue paths mu and 1 - mu, with eigenvectors R(mu) e_1 and R(mu) e_2,
# cross at mu = 0.5
CROSSING = Path(__file__).resolve().parent.parent / "configs" / "crossing_rotating_n2.json"


# Central finite-difference step per derivative order, balancing truncation
# against roundoff for the 1e-5 relative self-test tolerance.
_FD_STEPS = {1: 1e-5, 2: 1e-4, 3: 5e-4}


def derivative_mismatch(problem, mu0, max_order=3):
    """Max relative mismatch of ``problem.derivs_at``, orders 1..max_order,
    against central finite differences of its ``eval_at``."""
    derivs = problem.derivs_at(mu0, max_order)
    a = problem.eval_at
    worst = 0.0
    for k in range(1, max_order + 1):
        h = _FD_STEPS[k]
        if k == 1:
            fd = (a(mu0 + h) - a(mu0 - h)) / (2 * h)
        elif k == 2:
            fd = (a(mu0 + h) - 2 * a(mu0) + a(mu0 - h)) / h**2
        else:
            fd = (a(mu0 + 2 * h) - 2 * a(mu0 + h) + 2 * a(mu0 - h) - a(mu0 - 2 * h)) / (2 * h**3)
        scale = max(1.0, float(np.linalg.norm(derivs[k])))
        worst = max(worst, float(np.linalg.norm(derivs[k] - fd)) / scale)
    return worst


def linear_problem():
    """The 1x1 problem A(mu) = [mu]."""

    def eval_at(mu):
        return np.array([[mu]])

    def derivs_at(mu0, p):
        derivs = np.zeros((p + 1, 1, 1))
        derivs[0, 0, 0] = mu0
        if p >= 1:
            derivs[1, 0, 0] = 1.0
        return derivs

    return ParametricProblem(
        n=1, eval_at=pointwise(eval_at), derivs_at=derivs_at, hermitian=True
    )


def constant_problem(a0, hermitian=False):
    """A(mu) = A0 for all mu, float64 or (for complex A0) complex128."""
    a0 = np.asarray(a0)
    a0 = a0.astype(np.result_type(float, a0))
    n = a0.shape[0]

    def eval_at(mu):
        return a0.copy()

    def derivs_at(mu0, p):
        derivs = np.zeros((p + 1, n, n), dtype=a0.dtype)
        derivs[0] = a0
        return derivs

    return ParametricProblem(
        n=n, eval_at=pointwise(eval_at), derivs_at=derivs_at, hermitian=hermitian
    )


def isotropic_problem():
    """A constant A with eigenpairs (2, [1, 0]) and (1, [1, i]); the
    second eigenvector is isotropic, v^T v = 0."""
    vectors = np.array([[1.0, 1.0], [0.0, 1j]])
    return constant_problem(vectors @ np.diag([2.0, 1.0]) @ np.linalg.inv(vectors))


def asymmetric_flagged_hermitian():
    """A(mu) = [[2, mu], [0, 3]], flagged Hermitian although it is not."""

    def eval_at(mu):
        return np.array([[2.0, mu], [0.0, 3.0]])

    def derivs_at(mu0, p):
        derivs = np.zeros((p + 1, 2, 2))
        derivs[0] = eval_at(mu0)
        if p >= 1:
            derivs[1, 0, 1] = 1.0
        return derivs

    return ParametricProblem(n=2, eval_at=pointwise(eval_at), derivs_at=derivs_at, hermitian=True)


def shift_problem(a0, mu0):
    """A(mu) = A0 + (mu - mu0) I: uniform spectral shift."""
    a0 = np.asarray(a0, dtype=float)
    n = a0.shape[0]

    def eval_at(mu):
        return a0 + (mu - mu0) * np.eye(n)

    def derivs_at(point, p):
        derivs = np.zeros((p + 1, n, n))
        derivs[0] = eval_at(point)
        if p >= 1:
            derivs[1] = np.eye(n)
        return derivs

    return ParametricProblem(
        n=n, eval_at=pointwise(eval_at), derivs_at=derivs_at, hermitian=False
    )


@pytest.fixture(scope="session")
def torus8():
    return make_torus_kernel(8)


@pytest.fixture(scope="session")
def spring8():
    return make_spring_chain(8)


@pytest.fixture(scope="session")
def jordan8():
    return make_jordan(8)


@pytest.fixture(scope="session")
def taylor_e1_p6(torus8):
    return expansion_series(taylor_expand_all(torus8, 0.2, 6))


@pytest.fixture(scope="session")
def taylor_e1_p20(torus8):
    return expansion_series(taylor_expand_all(torus8, 0.2, 20))


@pytest.fixture(scope="session")
def cheb_e1_p10(torus8):
    return expansion_series(cheb_expand_all(torus8, (0.25, 1.0), 10))


@pytest.fixture(scope="session")
def cheb_e1_p20(torus8):
    return expansion_series(cheb_expand_all(torus8, (0.25, 1.0), 20))
