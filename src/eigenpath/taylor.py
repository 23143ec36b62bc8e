"""Order-by-order computation of Taylor coefficients (lam_k, v_k) of one or
all eigenpaths of a parametric matrix.

Order 0 is the standard eigenproblem at mu0 with a normalized, phase-fixed
eigenvector. Every later order k solves the same bordered system

    E [lam_k; v_k] = [ -(1/2) sum_{l=1}^{k-1} C(k,l) v_{k-l}^T v_l ;
                        sum_{l=0}^{k-1} C(k,l) A_{k-l} v_l
                      - sum_{l=1}^{k-1} C(k,l) v_{k-l} lam_l ]

All selected eigenpairs advance together, one order at a time, in the
Schur basis A0 = Q T Q^H of one decomposition (T is diagonal when the
problem is Hermitian). With the pairs' coefficients as the columns of
V_l, the right-hand sides of order k are k products A_{k-l} V_l. In the
Schur basis the system of pair i reads

    c_i lam_k + (lam0_i I - T) w = Q^H y_i,      c_i = Q^H v0_i,

whose triangular matrix is singular at the pair's pivot row j, where
T_jj = lam0_i. The left null row l_i of lam0_i I - T gives
lam_k = l_i Q^H y_i / (l_i c_i). Back-substitution with w_j pinned to 0,
plus the multiple of c_i that satisfies the normalization row, gives
v_k = Q w. One row loop over T serves every pair, so order k costs k + 3
products of n x n by n x m matrices and O(n^2 m) triangular work for m
pairs: O(p^2 n^3) for all n pairs up to order p. That solve, with its
pivot tests, is ``linalg.schur_bordered_solver``.

The kernel computes in the arithmetic of its inputs: float64 when the
derivative stack, the Schur factors and the starting vectors are real,
which ``linalg.eigen_all`` gives for real A0 with a real spectrum (the
torus, the spring chain), and complex128 otherwise (a complex pair, as for
the Jordan problem, where the Schur factors are complex, or complex
input). A real kernel runs every product, solve and
residual in real BLAS, at a third or less of the complex cost.

The kernel (:func:`expand_schur`) takes the order weights and the starting
vectors from its caller. Taylor passes the binomials C(k, l) and the
unit-norm eigenvectors; the Chebyshev warm start passes all ones and the
eigenvectors of its averaged matrix scaled to v0^T v0 = 1, with the
bilinear border v0^T.

The kernel stays in the Schur basis rather than the eigenvector basis,
where V^{-1} A_k V would make every solve diagonal: Q is unitary and
amplifies no rounding, while V^{-1} carries cond(V), which one nearly
defective pair makes large for all the others.

A pair is expanded only when its eigenvalue is simple: its gap to the
nearest other eigenvalue, its Schur pivot, l_i c_i and b_i^T v0_i must all
stay clear of zero (``linalg.SINGULARITY_RCOND``). Each failing pair yields
its own ExpansionFailure and takes no part in the others' computation. So
does a pair whose coefficients overflow: its error names the first order
that is not finite, and numpy's overflow warnings are silenced over the
order loop, where they would only repeat it.

``single_precision_e``, an experiment on the stored matrix E itself, swaps
only the per-order solve: each pair's E is rounded to single precision and
factorized once (``linalg.build_bordered``), and every order solves with
those LU factors. The rounded E's condition estimate is one more per-pair
test, and the order residuals stay measured against the exact E, so they
show the rounding. Errors accumulate with growing order by construction;
no mitigation is applied.
"""

import numpy as np

from dataclasses import dataclass

from .errors import DerivativeOrderError, NumericalError
from .linalg import (
    SINGULARITY_RCOND,
    border_row,
    build_bordered,
    column_dot,
    eigen_all,
    in_dtype,
    non_simple_error,
    overflow_reported,
    schur_bordered_solver,
    solve_bordered,
    solve_bordered_reduced,  # noqa: F401  (looked up here by benchmarks/tracing.py)
    working_dtype,
)
from .series import (
    EigenPairSeries,
    ScalarSeries,
    SeriesBasis,
    VectorSeries,
    binomial_table,
    non_finite_order,
)


@dataclass(frozen=True)
class TaylorRequest:
    """Expansion request: problem, expansion point, order, and eigenpair selector.

    ``selector`` is either the string "all" or a 0-based index into the
    descending-sorted spectrum of A(mu0); indices permute across different
    expansion points (see :func:`selected_indices`). ``single_precision_e``
    solves every order with each pair's bordered matrix rounded to single
    precision (reproduces the error floor; see the module docstring).
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


def taylor_rhs(k, a_derivs, vs, lams, hermitian=False, binomials=None):
    """Right-hand side (z, y) of the order-k bordered system.

    ``vs[l]`` is one coefficient vector, or an (n, m) array whose columns
    are m eigenpairs' coefficients, with ``lams[l]`` of length m; z then
    holds one value per column. Term l is weighted by ``binomials[k, l]``;
    the Chebyshev warm start passes all ones, its forward-substitution step.
    """
    if k < 1:
        raise ValueError("rhs is defined for k >= 1")
    if binomials is None:
        binomials = binomial_table(k)
    weights = binomials[k]

    y = np.zeros_like(vs[0])
    z = 0.0
    for l in range(k):
        y = y + weights[l] * (a_derivs[k - l] @ vs[l])
        if l >= 1:
            y = y - weights[l] * vs[k - l] * lams[l]
            z = z - 0.5 * weights[l] * column_dot(vs[k - l], vs[l], hermitian)
    return z, y


def non_finite_error(lams, vs):
    """The NumericalError of one pair's coefficients lams (p+1,) and
    vs (p+1, n) naming their first order that is not finite, or None."""
    order = non_finite_order(lams, vs)
    if order is not None:
        return NumericalError(f"series coefficient at order {order} is not finite")


def selected_indices(selector, n):
    """The eigenpair indices a request's ``selector`` picks among n: all of
    them for "all", else the one index, which must lie in 0..n-1."""
    if selector == "all":
        return range(n)
    index = int(selector)
    if not 0 <= index < n:
        raise ValueError(f"eigenpair index {index} out of range for n={n}")
    return [index]


def _check_derivatives(problem, mu0, order):
    """A_0..A_order at mu0, or NumericalError naming the first order that is
    not finite (with no numpy warning before it)."""
    with overflow_reported():
        derivs = np.asarray(problem.derivs_at(mu0, order))
    derivs = np.asarray(derivs, dtype=working_dtype(derivs))
    if derivs.shape[0] < order + 1:
        raise DerivativeOrderError(derivs.shape[0])
    finite = np.isfinite(derivs).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(f"derivative of A(mu) at order {np.argmin(finite)} is not finite "
                             f"at mu0={mu0:.17g}")
    return derivs


def _eigenvalue_gaps(values):
    """Distance from each eigenvalue to the nearest other one (inf if n = 1)."""
    dist = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def _bordered_residuals(a0, lam0, v0, border, lam_k, v_k, z, y):
    """max |E x - rhs| per column: each pair's order-k bordered system."""
    row = column_dot(border, v_k) - z
    body = v0 * lam_k + v_k * lam0 - a0 @ v_k - y
    return np.maximum(np.abs(row), np.abs(body).max(axis=0))


def expand_schur(derivs, weights, decomp, indices, v0, hermitian, single_precision=False):
    """Advance the eigenpairs ``indices`` of ``decomp``, starting from the
    columns of ``v0``, together one order at a time in its Schur basis (see
    the module docstring), up to order p = len(weights) - 1.

    Order k weights its term l by ``weights[k, l]``: the binomials for
    Taylor, all ones for the Chebyshev warm start. The normalization row is
    v0^H v_k for Hermitian problems and v0^T v_k otherwise. With
    ``single_precision`` every order solves with the LU factors of each
    pair's bordered matrix rounded to single precision, and a pair whose
    rounded matrix fails ``build_bordered``'s condition test fails too.

    The loop computes in ``linalg.working_dtype`` of ``derivs``, the Schur
    factors and ``v0``: float64 when all are real.

    Returns the per-index errors (None, or the NumericalError, mostly a
    NonSimpleEigenvalueError, that rejects the pair) and, for the pairs
    that passed every test and in their order, lams (p+1, m),
    vs (p+1, n, m), the per-order residuals (p, m) of the exact bordered
    systems, and a dict of the pairs' other diagnostics, each array's last
    axis running over the pairs: ``order_residual_scales`` (p, m), each
    order's 1 + max(|z|, max |y|) of its rhs, ``gaps`` (m,), each
    eigenvalue's distance to the nearest other one (inf when n = 1), and
    with ``single_precision`` the rounded matrices' ``condition_estimate``
    (m,). Only those pairs enter the order loop.
    """
    q, t = decomp.schur_q, decomp.schur_t
    dtype = working_dtype(derivs, t, v0)
    derivs = np.asarray(derivs, dtype=dtype)
    lam0 = in_dtype(decomp.values[indices], dtype)
    gaps = _eigenvalue_gaps(decomp.values)[indices]
    gap_tol = SINGULARITY_RCOND * (1.0 + float(np.max(np.abs(decomp.values))))
    errors = [non_simple_error(f"eigenvalue gap {gap:.3g} below {gap_tol:.3g}")
              if gap < gap_tol else None for gap in gaps]
    cols = np.flatnonzero([err is None for err in errors])
    solver_errors, schur_solve = schur_bordered_solver(q, t, lam0[cols], v0[:, cols], hermitian)
    for col, err in zip(cols, solver_errors):
        errors[col] = err
    cols = np.flatnonzero([err is None for err in errors])
    systems = []
    if single_precision:
        for col in cols:
            try:
                systems.append(
                    build_bordered(derivs[0], v0[:, col], lam0[col], hermitian, single_precision=True)
                )
            except NumericalError as exc:
                errors[col] = exc
        cols = np.flatnonzero([err is None for err in errors])
    lam0, v0, gaps = lam0[cols], v0[:, cols], gaps[cols]
    border = border_row(v0, hermitian)

    def rounded_solve(z, y):
        x = np.empty_like(y, shape=(y.shape[0] + 1, len(systems)))
        # z is the scalar 0 at order 1
        for i, (system, z_i) in enumerate(zip(systems, np.broadcast_to(z, len(systems)))):
            x[0, i], x[1:, i] = solve_bordered(system, np.append(z_i, y[:, i]))
        return x[0], x[1:]

    solve = rounded_solve if single_precision else schur_solve
    lams, vs, residuals, scales = [lam0], [v0], [], []
    with overflow_reported():
        for k in range(1, weights.shape[0]):
            z, y = taylor_rhs(k, derivs, vs, lams, hermitian=hermitian, binomials=weights)
            lam_k, v_k = solve(z, y)
            residuals.append(_bordered_residuals(derivs[0], lam0, v0, border, lam_k, v_k, z, y))
            scales.append(1.0 + np.maximum(np.abs(z), np.abs(y).max(axis=0)))
            lams.append(lam_k)
            vs.append(v_k)
    shape = (len(residuals), lam0.size)
    extras = {"order_residual_scales": np.reshape(scales, shape), "gaps": gaps}
    if single_precision:
        extras["condition_estimate"] = np.array([s.condition_estimate for s in systems])
    return errors, np.array(lams), np.array(vs), np.reshape(residuals, shape), extras


def taylor_expand_all(request):
    """Taylor series for every eigenpath of A(mu0) the request's selector
    picks (all of them by default), sharing one Schur form.

    Returns a list with one entry per selected eigenvalue (sorted order): an
    EigenPairSeries on success, or an ExpansionFailure carrying the error
    when that particular eigenvalue is not simple or its coefficients are
    not all finite. All simple pairs advance together through
    :func:`expand_schur` in O(p^2 n^3) work; each pair's diagnostics hold
    its per-order bordered residuals, and beside them the scale
    1 + max(|z|, max |y|) of each order's rhs (a residual over its scale
    reads as a relative error), its eigenvalue gap and, under
    ``single_precision_e``, the rounded bordered matrix's condition estimate.
    """
    problem, p = request.problem, request.order
    derivs = _check_derivatives(problem, request.mu0, p)
    decomp = eigen_all(derivs[0], hermitian=problem.hermitian)
    indices = [int(index) for index in selected_indices(request.selector, decomp.n)]
    errors, lams, vs, residuals, extras = expand_schur(
        derivs, binomial_table(p), decomp, indices, decomp.vectors[:, indices],
        problem.hermitian, request.single_precision_e,
    )
    basis = SeriesBasis.taylor(request.mu0)
    columns = iter(range(lams.shape[1]))
    out = []
    for index, err in zip(indices, errors):
        if err is None:
            col = next(columns)
            lam, vec = lams[:, col], vs[:, :, col]
            err = non_finite_error(lam, vec)
        if err is not None:
            out.append(ExpansionFailure(index, complex(decomp.values[index]), err))
            continue
        gap = float(extras["gaps"][col])
        diagnostics = {
            "method": "taylor",
            "order_residuals": [float(r) for r in residuals[:, col]],
            "order_residual_scales": [float(s) for s in extras["order_residual_scales"][:, col]],
            "gap": gap if np.isfinite(gap) else None,
        }
        if "condition_estimate" in extras:
            diagnostics["condition_estimate"] = float(extras["condition_estimate"][col])
        out.append(EigenPairSeries(ScalarSeries(basis, lam), VectorSeries(basis, vec), diagnostics))
    return out


def expansion_series(results):
    """Filter an expand-all result list down to the successful series."""
    return [r for r in results if isinstance(r, EigenPairSeries)]


def expansion_failures(results):
    return [r for r in results if isinstance(r, ExpansionFailure)]
