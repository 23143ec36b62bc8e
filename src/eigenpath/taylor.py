"""Order-by-order computation of Taylor coefficients (lam_k, v_k) of one or
all eigenpaths of a parametric matrix.

Order 0 is the standard eigenproblem at mu0 with a normalized, phase-fixed
eigenvector. Every later order k solves the same bordered system

    E [lam_k; v_k] = [ -(1/2) sum_{l=1}^{k-1} C(k,l) v_{k-l}^T v_l ;
                        sum_{l=0}^{k-1} C(k,l) A_{k-l} v_l
                      - sum_{l=1}^{k-1} C(k,l) v_{k-l} lam_l ]

so the factorization (or, for all eigenpairs, one shared Schur form with
O(n^2) reduced solves) is reused across orders. Errors accumulate with
growing order by construction; no mitigation is applied.
"""

import numpy as np

from dataclasses import dataclass

from .errors import DerivativeOrderError, NonSimpleEigenvalueError
from .linalg import (
    assemble_bordered,
    build_bordered,
    eigen_all,
    solve_bordered,
    solve_bordered_reduced,
)
from .series import EigenPairSeries, ScalarSeries, SeriesBasis, VectorSeries


@dataclass(frozen=True)
class TaylorRequest:
    """Expansion request: problem, expansion point, order, and eigenpair selector.

    ``selector`` is either the string "all" or a 0-based index into the
    descending-sorted spectrum of A(mu0); indices permute across different
    expansion points. ``single_precision_e`` rounds the bordered matrix to
    single precision before factorization (reproduces the error floor).
    """

    problem: object
    mu0: float
    order: int
    selector: object = "all"
    single_precision_e: bool = False

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if self.selector != "all" and not isinstance(self.selector, int):
            raise ValueError("selector must be 'all' or an integer index")


@dataclass(frozen=True)
class ExpansionFailure:
    """Per-eigenpair failure record returned by the expand-all drivers."""

    index: int
    eigenvalue: complex
    error: Exception


def binomial_table(p):
    """Pascal-recurrence binomial coefficients C[k, l]; exact for k <= 56."""
    c = np.zeros((p + 1, p + 1))
    c[:, 0] = 1.0
    for k in range(1, p + 1):
        for l in range(1, k + 1):
            c[k, l] = c[k - 1, l - 1] + c[k - 1, l]
    return c


def taylor_rhs(k, a_derivs, vs, lams, hermitian=False, binomials=None):
    """Right-hand side (z, y) of the order-k bordered system.

    Term l is weighted by ``binomials[k, l]``; the Chebyshev warm start
    passes all ones, its forward-substitution step.
    """
    if k < 1:
        raise ValueError("rhs is defined for k >= 1")
    if binomials is None:
        binomials = binomial_table(k)
    dot = (lambda x, y: np.conj(x) @ y) if hermitian else (lambda x, y: x @ y)
    weights = binomials[k]

    y = np.zeros_like(vs[0])
    z = 0.0 + 0.0j
    for l in range(k):
        y = y + weights[l] * (a_derivs[k - l] @ vs[l])
        if l >= 1:
            y = y - weights[l] * vs[k - l] * lams[l]
            z = z - 0.5 * weights[l] * dot(vs[k - l], vs[l])
    return z, y


def _check_derivatives(problem, mu0, order):
    derivs = np.asarray(problem.derivs_at(mu0, order), dtype=complex)
    if derivs.shape[0] < order + 1:
        raise DerivativeOrderError(derivs.shape[0])
    return derivs


def _series_from_orders(basis, lams, vs, diagnostics):
    lam = ScalarSeries(basis, np.asarray(lams, dtype=complex))
    vec = VectorSeries(basis, np.asarray(vs, dtype=complex))
    return EigenPairSeries(lam, vec, diagnostics)


def _residual(e, lam_k, v_k, z, y):
    x = np.concatenate(([lam_k], v_k))
    rhs = np.concatenate(([z], y))
    return float(np.max(np.abs(e @ x - rhs)))


def taylor_expand_eigenpair(request):
    """Taylor coefficients for one selected eigenpath.

    The selected eigenvalue of A(mu0) must be simple; this is checked via
    the reciprocal condition estimate of the bordered matrix.
    """
    if request.selector == "all":
        raise ValueError("selector must be an index for taylor_expand_eigenpair")
    problem = request.problem
    p = request.order
    derivs = _check_derivatives(problem, request.mu0, p)
    decomp = eigen_all(derivs[0], hermitian=problem.hermitian)
    index = int(request.selector)
    if not 0 <= index < decomp.n:
        raise ValueError(f"eigenpair index {index} out of range for n={decomp.n}")
    lam0 = complex(decomp.values[index])
    v0 = decomp.vectors[:, index].copy()
    return _expand_single_dense(
        derivs, v0, lam0, p, problem.hermitian, request.single_precision_e, request.mu0
    )


def _expand_single_dense(derivs, v0, lam0, p, hermitian, single_precision, mu0):
    basis = SeriesBasis.taylor(mu0)
    system = build_bordered(
        derivs[0], v0, lam0, hermitian=hermitian, single_precision=single_precision
    )
    binomials = binomial_table(max(p, 1))
    lams = [lam0]
    vs = [v0]
    residuals = []
    for k in range(1, p + 1):
        z, y = taylor_rhs(k, derivs, vs, lams, hermitian=hermitian, binomials=binomials)
        lam_k, v_k = solve_bordered(system, np.concatenate(([z], y)))
        residuals.append(_residual(system.matrix, lam_k, v_k, z, y))
        lams.append(lam_k)
        vs.append(v_k)
    diagnostics = {
        "method": "taylor",
        "order_residuals": residuals,
        "condition_estimate": system.condition_estimate,
    }
    return _series_from_orders(basis, lams, vs, diagnostics)


def _expand_single_reduced(derivs, decomp, index, p, hermitian, binomials, mu0):
    lam0 = complex(decomp.values[index])
    v0 = decomp.vectors[:, index].copy()
    others = np.delete(decomp.values, index)
    scale = 1.0 + float(np.max(np.abs(decomp.values)))
    if others.size and np.min(np.abs(lam0 - others)) < 1e-12 * scale:
        raise NonSimpleEigenvalueError(
            f"non-simple eigenvalue at expansion point (index {index})"
        )
    basis = SeriesBasis.taylor(mu0)
    e = assemble_bordered(derivs[0], v0, lam0, hermitian)
    lams = [lam0]
    vs = [v0]
    residuals = []
    for k in range(1, p + 1):
        z, y = taylor_rhs(k, derivs, vs, lams, hermitian=hermitian, binomials=binomials)
        lam_k, v_k = solve_bordered_reduced(
            decomp.schur_q, decomp.schur_t, v0, lam0, np.concatenate(([z], y)), hermitian
        )
        residuals.append(_residual(e, lam_k, v_k, z, y))
        lams.append(lam_k)
        vs.append(v_k)
    diagnostics = {"method": "taylor", "order_residuals": residuals}
    return _series_from_orders(basis, lams, vs, diagnostics)


def taylor_expand_all(request):
    """Taylor series for every eigenpath of A(mu0), sharing one Schur form.

    Returns a list with one entry per eigenvalue (sorted order): an
    EigenPairSeries on success, or an ExpansionFailure carrying the error
    when that particular eigenvalue is not simple. The per-eigenvalue inner
    loops use the O(n^2) reduced solve, for O((25 + p^2) n^3) total work;
    the single-precision variant exercises the dense rounded factorization
    instead, since the experiment is about the stored matrix E.
    """
    problem = request.problem
    p = request.order
    derivs = _check_derivatives(problem, request.mu0, p)
    decomp = eigen_all(derivs[0], hermitian=problem.hermitian)
    binomials = binomial_table(max(p, 1))
    out = []
    for index in range(decomp.n):
        try:
            if request.single_precision_e:
                lam0 = complex(decomp.values[index])
                v0 = decomp.vectors[:, index].copy()
                pair = _expand_single_dense(
                    derivs, v0, lam0, p, problem.hermitian, True, request.mu0
                )
            else:
                pair = _expand_single_reduced(
                    derivs, decomp, index, p, problem.hermitian, binomials, request.mu0
                )
            out.append(pair)
        except NonSimpleEigenvalueError as exc:
            out.append(ExpansionFailure(index, complex(decomp.values[index]), exc))
    return out


def expansion_series(results):
    """Filter an expand-all result list down to the successful series."""
    return [r for r in results if isinstance(r, EigenPairSeries)]


def expansion_failures(results):
    return [r for r in results if isinstance(r, ExpansionFailure)]
