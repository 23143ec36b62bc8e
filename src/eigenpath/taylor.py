"""Order-by-order computation of Taylor coefficients (lam_k, v_k) of one or
all eigenpaths of a parametric matrix.

Order 0 is the standard eigenproblem at mu0 with a normalized, phase-fixed
eigenvector. Every later order k solves the same bordered system

    E [lam_k; v_k] = [ -(1/2) sum_{l=1}^{k-1} C(k,l) v_{k-l}^H v_l ;
                        sum_{l=0}^{k-1} C(k,l) A_{k-l} v_l
                      - sum_{l=1}^{k-1} C(k,l) v_{k-l} lam_l ]

for every pair. Its first row, v0^H v_k = z_k with z_k real, is order k of
the normalization ||v(mu)|| = 1 with v0^H v(mu) real: it rotates with v0 and,
unlike the bilinear v^T v = 1, never divides by an isotropic v0^T v0 = 0.
For a real eigenvector v^H = v^T, and ``v.conj()`` is the array itself.

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
pairs: O(p^2 n^3) for all n pairs up to order p. A diagonal T (a Hermitian
problem) needs no loop: l_i is the unit vector at the pivot and w is
Q^H y_i - c_i lam_k divided by the diagonal shifts, O(n m) per order. That
solve, with its pivot tests, is ``linalg.schur_bordered_solver``.

The kernel computes in the arithmetic of its inputs: float64 when the
derivative stack, the Schur factors and the starting vectors are real,
which ``linalg.eigen_all`` gives for real A0 with a real spectrum (the
torus, the spring chain), and complex128 otherwise (a complex pair, as for
the Jordan problem, where the Schur factors are complex, or complex
input). A real kernel runs every product, solve and
residual in real BLAS, at a third or less of the complex cost.

The kernel (:func:`expand_schur`) takes the starting vectors from its
caller, which passes the unit-norm, phase-fixed eigenvectors of A0, and
returns the results, built by :func:`pair_results` as both expansions do.

The kernel stays in the Schur basis rather than the eigenvector basis,
where V^{-1} A_k V would make every solve diagonal: Q is unitary and
amplifies no rounding, while V^{-1} carries cond(V), which one nearly
defective pair makes large for all the others.

A pair is expanded only when its eigenvalue is simple: its gap to the
nearest other eigenvalue, its Schur pivot and its eigenvalue condition
|l_i c_i| / (||l_i|| ||c_i||) must all stay clear of zero
(``linalg.SINGULARITY_RCOND``). Each failing pair yields its own
ExpansionFailure and takes no part in the others' computation. So does a
pair whose coefficients overflow: its error names the first order that is
not finite, and numpy's overflow warnings are silenced over the order loop,
where they would only repeat it. So, last, does a pair whose order-k solve,
checked against A0 itself, leaves a normwise backward error |E x - rhs| /
(|rhs| + |E| |x|) above ``linalg.ORDER_RESIDUAL_BOUND``; a nearly defective
pair's ill-conditioned E, solved stably, stays below it.

``single_precision_e``, an experiment on the stored data of the solve,
builds the same solver, in double precision, from Q, T and the pairs' lam0
and v0 rounded once to float32 (complex64 for complex factors); its pivot
tests judge the rounded factors. The right-hand sides and order residuals
use the exact A_k, lam0 and v0, so the residuals show the rounding; they
are not held to ``ORDER_RESIDUAL_BOUND``. Errors accumulate with growing
order by construction; no mitigation is applied.
"""

import numpy as np

import numbers
from dataclasses import dataclass

from .errors import DerivativeOrderError, NumericalError
from .linalg import (  # noqa: F401  (build_bordered, solve_bordered*: looked up here by benchmarks/tracing.py)
    ORDER_RESIDUAL_BOUND,
    build_bordered,
    column_dot,
    eigen_all,
    gap_errors,
    in_dtype,
    overflow_reported,
    schur_bordered_solver,
    solve_bordered,
    solve_bordered_reduced,
    working_dtype,
)
from .series import (
    EigenPairSeries,
    SeriesBasis,
    binomial_table,
    non_finite_order,
)


def check_order_and_selector(order, selector):
    """Both expansions' rules: order is an integer >= 0; selector is "all" or
    an integer. A bool is not an integer here."""
    if isinstance(order, bool) or not (isinstance(order, numbers.Integral) and order >= 0):
        raise ValueError("order must be a nonnegative integer")
    if isinstance(selector, bool) or not (isinstance(selector, numbers.Integral)
                                          or selector == "all"):
        raise ValueError("selector must be 'all' or an integer index")


@dataclass(frozen=True)
class ExpansionFailure:
    """Per-eigenpair failure record returned by the expand-all drivers."""

    index: int
    eigenvalue: complex
    error: Exception


def pair_results(indices, values, errors, outcomes):
    """One result per index of ``indices`` into the spectrum ``values``: an
    ExpansionFailure carrying the index's error, or where it is None the
    next of ``outcomes`` (the surviving pairs' results), which becomes one
    too if it is an exception and is passed through otherwise."""
    outcomes = iter(outcomes)
    out = []
    for index, error in zip(indices, errors):
        if error is None:
            error = next(outcomes)
            if not isinstance(error, Exception):
                out.append(error)
                continue
        out.append(ExpansionFailure(index, complex(values[index]), error))
    return out


def taylor_rhs(k, a_derivs, vs, lams, binomials=None):
    """Right-hand side (z, y) of the order-k bordered system.

    ``vs[l]`` is one coefficient vector, or an (n, m) array whose columns
    are m eigenpairs' coefficients, with ``lams[l]`` of length m; z then
    holds one value per column. Term l is weighted by the binomial
    ``binomials[k, l]`` (``series.binomial_table``, built here when None).
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
            z = z - 0.5 * weights[l] * column_dot(vs[k - l].conj(), vs[l])
    return z, y


def non_finite_error(lams, vs):
    """The NumericalError of one pair's coefficients lams (p+1,) and
    vs (p+1, n) naming their first order that is not finite, or None."""
    order = non_finite_order(lams, vs)
    if order is not None:
        return NumericalError(f"series coefficient at order {order} is not finite")


def residual_error(backward):
    """The NumericalError naming the first of orders 1..p whose backward
    error in ``backward`` (p,) exceeds ORDER_RESIDUAL_BOUND, or None."""
    above = np.flatnonzero(backward > ORDER_RESIDUAL_BOUND)
    if above.size:
        k = above[0]
        return NumericalError(f"order {k + 1} backward error {backward[k]:.3g} "
                              f"above {ORDER_RESIDUAL_BOUND:g}")


def selected_indices(selector, n):
    """The eigenpair indices an expansion's ``selector`` picks among n: all of
    them for "all", else the one index, which must lie in 0..n-1."""
    if selector == "all":
        return range(n)
    if not 0 <= selector < n:
        raise ValueError(f"eigenpair index {selector} out of range for n={n}")
    return [int(selector)]


def _check_derivatives(problem, mu0, order):
    """A_0..A_order at mu0, the first order + 1 of the stack that
    ``derivs_at`` returns, or NumericalError naming the first order that is
    not finite (with no numpy warning before it)."""
    with overflow_reported():
        derivs = np.asarray(problem.derivs_at(mu0, order))[:order + 1]
    derivs = np.asarray(derivs, dtype=working_dtype(derivs))
    if derivs.shape[0] < order + 1:
        raise DerivativeOrderError(derivs.shape[0])
    finite = np.isfinite(derivs).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(f"derivative of A(mu) at order {np.argmin(finite)} is not finite "
                             f"at mu0={mu0:.17g}")
    return derivs


def _bordered_residuals(a0, lam0, v0, lam_k, v_k, z, y):
    """max |E x - rhs| per column: each pair's order-k bordered system."""
    row = column_dot(v0.conj(), v_k) - z
    body = v0 * lam_k + v_k * lam0 - a0 @ v_k - y
    return np.maximum(np.abs(row), np.abs(body).max(axis=0))


def expand_schur(derivs, decomp, indices, v0, basis, single_precision=False):
    """Advance the eigenpairs ``indices`` of ``decomp``, starting from the
    columns of ``v0``, together one order at a time in its Schur basis (see
    the module docstring), up to order p = len(derivs) - 1.

    Order k weights its term l by the binomial C(k, l). The normalization
    row is v0^H v_k for every pair, whatever ``decomp.hermitian``. With
    ``single_precision`` the solver is built from Q, T, lam0 and v0 rounded
    once to single precision (see the module docstring).

    The loop computes in ``linalg.working_dtype`` of ``derivs``, the Schur
    factors and ``v0``: float64 when all are real.

    Returns per index (:func:`pair_results`) the pair's EigenPairSeries in
    ``basis``, or an ExpansionFailure carrying the NumericalError (mostly a
    NonSimpleEigenvalueError) that rejects it before the order loop or names
    its first order that is not finite or (without ``single_precision``) over
    ``ORDER_RESIDUAL_BOUND``. A series' diagnostics hold the exact
    bordered systems' ``order_residuals``, each order's rhs scale
    1 + max(|z|, max |y|), and its ``gap`` to the nearest other eigenvalue
    (None when n = 1).
    """
    q, t = decomp.schur_q, decomp.schur_t
    dtype = working_dtype(derivs, t, v0)
    derivs = np.asarray(derivs, dtype=dtype)
    lam0 = in_dtype(decomp.values[indices], dtype)
    gaps, errors = gap_errors(decomp.values, indices)
    cols = np.flatnonzero([err is None for err in errors])
    factors = (q, t, lam0[cols], v0[:, cols])
    if single_precision:
        factors = [a.astype(np.complex64 if np.iscomplexobj(a) else np.float32).astype(a.dtype)
                   for a in factors]
    solver_errors, solve = schur_bordered_solver(*factors)
    for col, err in zip(cols, solver_errors):
        errors[col] = err
    cols = np.flatnonzero([err is None for err in errors])
    lam0, v0, gaps = lam0[cols], v0[:, cols], gaps[cols]
    p = derivs.shape[0] - 1
    binomials = binomial_table(p)
    lams, vs, residuals, scales = [lam0], [v0], [], []
    with overflow_reported():
        for k in range(1, p + 1):
            z, y = taylor_rhs(k, derivs, vs, lams, binomials=binomials)
            lam_k, v_k = solve(z, y)
            residuals.append(_bordered_residuals(derivs[0], lam0, v0, lam_k, v_k, z, y))
            scales.append(1.0 + np.maximum(np.abs(z), np.abs(y).max(axis=0)))
            lams.append(lam_k)
            vs.append(v_k)
    lams, vs = np.array(lams), np.array(vs)
    # (pairs, p), also when no pair is left
    residuals, scales = (np.reshape(r, (p, lam0.size)).T for r in (residuals, scales))
    # |E x - rhs| / (|rhs| + |E| |x|) in max-abs sizes
    backward = residuals / (scales + (1.0 + np.abs(lam0) + np.abs(derivs[0]).max())[:, None]
                            * np.maximum(np.abs(lams[1:]), np.abs(vs[1:]).max(axis=1)).T)
    series = []
    for col, gap in enumerate(gaps):
        lam, vec = lams[:, col], vs[:, :, col]
        diagnostics = {"method": "taylor", "order_residuals": residuals[col].tolist(),
                       "order_residual_scales": scales[col].tolist(),
                       "gap": float(gap) if np.isfinite(gap) else None}
        # the rounded solve's residuals measure its deliberate rounding
        series.append(non_finite_error(lam, vec)
                      or (not single_precision and residual_error(backward[col]))
                      or EigenPairSeries(basis, lam, vec, diagnostics))
    return pair_results(indices, decomp.values, errors, series)


def taylor_expand_all(problem, mu0, order, selector="all", single_precision_e=False):
    """Taylor series to ``order`` about ``mu0`` for every eigenpath of
    A(mu0) that ``selector`` picks, sharing one Schur form. Order, selector
    and mu0 are checked before A(mu) is evaluated.

    ``selector`` is "all" or a 0-based index into the descending-sorted
    spectrum of A(mu0); indices permute across different expansion points
    (see :func:`selected_indices`). ``single_precision_e`` solves every
    order with the Schur factors, lam0 and v0 rounded to single precision
    (reproduces the error floor; see the module docstring).

    Returns a list with one entry per selected eigenvalue (sorted order): an
    EigenPairSeries on success, or an ExpansionFailure carrying the error
    when that particular eigenvalue is not simple or its coefficients are
    not all finite. All simple pairs advance together through
    :func:`expand_schur` in O(p^2 n^3) work.
    """
    check_order_and_selector(order, selector)
    basis = SeriesBasis.taylor(mu0)
    derivs = _check_derivatives(problem, mu0, order)
    decomp = eigen_all(derivs[0], hermitian=problem.hermitian)
    indices = selected_indices(selector, decomp.n)
    return expand_schur(derivs, decomp, indices, decomp.vectors[:, indices], basis,
                        single_precision_e)


def expansion_series(results):
    """Filter an expand-all result list down to the successful series."""
    return [r for r in results if isinstance(r, EigenPairSeries)]


def expansion_failures(results):
    return [r for r in results if isinstance(r, ExpansionFailure)]
