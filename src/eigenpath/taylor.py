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
pairs: O(p^2 n^3) for all n pairs up to order p.

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

The dense bordered LU, factorized once and reused across orders, remains
for ``single_precision_e``, an experiment on the stored matrix E itself.
Errors accumulate with growing order by construction; no mitigation is
applied.
"""

import numpy as np

from dataclasses import dataclass

from .errors import DerivativeOrderError, NonSimpleEigenvalueError, NumericalError
from .linalg import (
    SINGULARITY_RCOND,
    border_row,
    build_bordered,
    eigen_all,
    solve_bordered,
    solve_bordered_reduced,  # noqa: F401  (looked up here by benchmarks/tracing.py)
    vector_norms,
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
    rounds the bordered matrix to single precision before factorization
    (reproduces the error floor).
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


def _column_dot(x, y, hermitian=False):
    """x^T y (x^H y when Hermitian); one value per column for 2-D x and y."""
    if hermitian:
        x = np.conj(x)
    return x @ y if x.ndim == 1 else np.einsum("ij,ij->j", x, y)


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
    z = 0.0 + 0.0j
    for l in range(k):
        y = y + weights[l] * (a_derivs[k - l] @ vs[l])
        if l >= 1:
            y = y - weights[l] * vs[k - l] * lams[l]
            z = z - 0.5 * weights[l] * _column_dot(vs[k - l], vs[l], hermitian)
    return z, y


def _non_finite_at(order):
    return NumericalError(f"series coefficient at order {order} is not finite")


def non_finite_error(lams, vs):
    """The NumericalError of one pair's coefficients lams (p+1,) and
    vs (p+1, n) naming their first order that is not finite, or None."""
    order = non_finite_order(lams, vs)
    return None if order is None else _non_finite_at(order)


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
    derivs = np.asarray(problem.derivs_at(mu0, order), dtype=complex)
    if derivs.shape[0] < order + 1:
        raise DerivativeOrderError(derivs.shape[0])
    return derivs


def _overflow_reported():
    """Silence numpy's floating-point warnings over an order loop: a pair
    whose coefficients overflow fails with an error naming its first
    non-finite order, so the warnings would only repeat that, as noise."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _series_from_orders(basis, lams, vs, diagnostics):
    lam = ScalarSeries(basis, np.array(lams, dtype=complex))
    vec = VectorSeries(basis, np.array(vs, dtype=complex))
    return EigenPairSeries(lam, vec, diagnostics)


def _residual(e, lam_k, v_k, z, y):
    x = np.concatenate(([lam_k], v_k))
    rhs = np.concatenate(([z], y))
    return float(np.max(np.abs(e @ x - rhs)))


def taylor_expand_eigenpair(request):
    """Taylor coefficients for one selected eigenpath: the one entry of
    :func:`taylor_expand_all` for the request's index, raising its error.

    The selected eigenvalue of A(mu0) must be simple, else
    NonSimpleEigenvalueError is raised; coefficients that are not all
    finite raise NumericalError.
    """
    if request.selector == "all":
        raise ValueError("selector must be an index for taylor_expand_eigenpair")
    (result,) = taylor_expand_all(request)
    if isinstance(result, ExpansionFailure):
        raise result.error
    return result


def _expand_single_dense(derivs, v0, lam0, p, hermitian, single_precision, mu0):
    basis = SeriesBasis.taylor(mu0)
    system = build_bordered(
        derivs[0], v0, lam0, hermitian=hermitian, single_precision=single_precision
    )
    binomials = binomial_table(max(p, 1))
    lams = [lam0]
    vs = [v0]
    residuals = []
    with _overflow_reported():
        for k in range(1, p + 1):
            z, y = taylor_rhs(k, derivs, vs, lams, hermitian=hermitian, binomials=binomials)
            rhs = np.concatenate(([z], y))
            finite = np.isfinite(rhs).all()
            if finite:
                lam_k, v_k = solve_bordered(system, rhs)
                finite = np.isfinite(lam_k) and np.isfinite(v_k).all()
            if not finite:
                raise _non_finite_at(k)
            residuals.append(_residual(system.matrix, lam_k, v_k, z, y))
            lams.append(lam_k)
            vs.append(v_k)
    diagnostics = {
        "method": "taylor",
        "order_residuals": residuals,
        "condition_estimate": system.condition_estimate,
    }
    return _series_from_orders(basis, lams, vs, diagnostics)


def _eigenvalue_gaps(values):
    """Distance from each eigenvalue to the nearest other one (inf if n = 1)."""
    dist = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def _simplicity_failures(decomp, indices, gaps):
    """Each pair's pivot row of T, and per pair None if its eigenvalue passes
    the gap and Schur-pivot tests, else the NonSimpleEigenvalueError."""
    values = decomp.values
    diag = np.diagonal(decomp.schur_t)
    lam0 = values[indices]
    dist = np.abs(lam0[None, :] - diag[:, None])
    pivots = np.argmin(dist, axis=0)
    dist[pivots, np.arange(len(indices))] = np.inf
    runner_up = dist.min(axis=0)
    gap_tol = SINGULARITY_RCOND * (1.0 + float(np.max(np.abs(values))))
    pivot_tol = SINGULARITY_RCOND * (1.0 + np.abs(lam0) + float(np.max(np.abs(diag))))
    errors = []
    for col, index in enumerate(indices):
        reason = None
        if gaps[col] < gap_tol:
            reason = f"index {index}"
        elif runner_up[col] < pivot_tol[col]:
            reason = "repeated Schur diagonal entry"
        message = f"non-simple eigenvalue at expansion point ({reason})"
        errors.append(reason and NonSimpleEigenvalueError(message))
    return pivots, errors


def _left_null_rows(t, shifts, pivots):
    """Columns l_i with l_i^T (lam0_i I - T) = 0: 0 before pivot row i, 1 at it.

    ``shifts[r, i]`` is lam0_i - T_rr with inf at the pivot row, so row r
    adds (sum_{s<r} l_s T_sr) / shifts[r] to each column at once.
    """
    ell = np.zeros_like(shifts)
    ell[pivots, np.arange(len(pivots))] = 1.0
    for r in range(1, t.shape[0]):
        ell[r] += (t[:r, r] @ ell[:r]) / shifts[r]
    return ell


def _back_substitute(t, shifts, g):
    """Solve (lam0_i I - T) w_i = g_i for every column i, w_i = 0 at pivot i.

    The pivot row is the one equation g_i's consistency makes redundant;
    its inf shift pins the pivot entry to 0.
    """
    w = np.empty_like(g)
    for r in range(t.shape[0] - 1, -1, -1):
        w[r] = (g[r] + t[r, r + 1:] @ w[r + 1:]) / shifts[r]
    return w


def _bordered_residuals(a0, lam0, v0, border, lam_k, v_k, z, y):
    """max |E x - rhs| per column: each pair's order-k bordered system."""
    row = _column_dot(border, v_k) - z
    body = v0 * lam_k + v_k * lam0 - a0 @ v_k - y
    return np.maximum(np.abs(row), np.abs(body).max(axis=0))


def expand_schur(derivs, weights, decomp, indices, v0, hermitian):
    """Advance the eigenpairs ``indices`` of ``decomp``, starting from the
    columns of ``v0``, together one order at a time in its Schur basis (see
    the module docstring), up to order p = len(weights) - 1.

    Order k weights its term l by ``weights[k, l]``: the binomials for
    Taylor, all ones for the Chebyshev warm start. The normalization row is
    v0^H v_k for Hermitian problems and v0^T v_k otherwise. Returns the
    per-index errors (None, or the pair's NonSimpleEigenvalueError) and,
    for the pairs that passed every simplicity test and in their order,
    lams (p+1, m), vs (p+1, n, m) and the per-order bordered residuals
    (p, m). Only those pairs enter the order loop.
    """
    gaps = _eigenvalue_gaps(decomp.values)[indices]
    pivots, errors = _simplicity_failures(decomp, indices, gaps)
    cols = np.array([col for col, err in enumerate(errors) if err is None], dtype=int)

    q, t = decomp.schur_q, decomp.schur_t
    qh = q.conj().T
    lam0 = decomp.values[np.asarray(indices, dtype=int)[cols]]
    v0 = v0[:, cols]
    border = border_row(v0, hermitian)
    shifts = lam0[None, :] - np.diagonal(t)[:, None]
    shifts[pivots[cols], np.arange(cols.size)] = np.inf
    c = qh @ v0
    ell = _left_null_rows(t, shifts, pivots[cols])
    ell_c = _column_dot(ell, c)
    border_v0 = _column_dot(border, v0)
    # The two pivots the bordered system's elimination divides by: l_i c_i,
    # the reciprocal eigenvalue condition number up to ||l_i|| ||c_i||, and
    # b_i^T v0_i relative to ||v0_i||^2. Each vanishes when the eigenvalue
    # is not simple, and neither depends on the scale of v0_i.
    v0_norms = vector_norms(v0, axis=0)
    ok = (np.abs(ell_c) >= SINGULARITY_RCOND * np.linalg.norm(ell, axis=0) * v0_norms) & (
        np.abs(border_v0) >= SINGULARITY_RCOND * v0_norms**2
    )
    for col in cols[~ok]:
        errors[col] = NonSimpleEigenvalueError(
            "non-simple eigenvalue at expansion point (eliminated pivot below 1e-12)"
        )
    lam0, v0, border, shifts, c, ell, ell_c, border_v0 = (
        a[..., ok] for a in (lam0, v0, border, shifts, c, ell, ell_c, border_v0)
    )

    lams, vs, residuals = [lam0], [v0], []
    with _overflow_reported():
        for k in range(1, weights.shape[0]):
            z, y = taylor_rhs(k, derivs, vs, lams, hermitian=hermitian, binomials=weights)
            yhat = qh @ y
            lam_k = _column_dot(ell, yhat) / ell_c
            v_k = q @ _back_substitute(t, shifts, yhat - c * lam_k)
            v_k = v_k + v0 * ((z - _column_dot(border, v_k)) / border_v0)
            residuals.append(_bordered_residuals(derivs[0], lam0, v0, border, lam_k, v_k, z, y))
            lams.append(lam_k)
            vs.append(v_k)
    return errors, np.array(lams), np.array(vs), np.reshape(residuals, (len(residuals), lam0.size))


def _taylor_schur(derivs, decomp, indices, p, hermitian, mu0):
    """Taylor series of the eigenpairs ``indices`` of ``decomp`` through
    :func:`expand_schur`: one EigenPairSeries or ExpansionFailure per
    index, in order."""
    indices = [int(index) for index in indices]
    errors, lams, vs, residuals = expand_schur(
        derivs, binomial_table(p), decomp, indices, decomp.vectors[:, indices], hermitian
    )
    gaps = _eigenvalue_gaps(decomp.values)[indices]
    basis = SeriesBasis.taylor(mu0)
    out = []
    passed = 0
    for index, err, gap in zip(indices, errors, gaps):
        if err is None:
            lam, vec, res = lams[:, passed], vs[:, :, passed], residuals[:, passed]
            passed += 1
            err = non_finite_error(lam, vec)
        if err is not None:
            out.append(ExpansionFailure(index, complex(decomp.values[index]), err))
            continue
        diagnostics = {
            "method": "taylor",
            "order_residuals": [float(r) for r in res],
            "gap": float(gap) if np.isfinite(gap) else None,
        }
        out.append(_series_from_orders(basis, lam, vec, diagnostics))
    return out


def taylor_expand_all(request):
    """Taylor series for every eigenpath of A(mu0) the request's selector
    picks (all of them by default), sharing one Schur form.

    Returns a list with one entry per selected eigenvalue (sorted order): an
    EigenPairSeries on success, or an ExpansionFailure carrying the error
    when that particular eigenvalue is not simple or its coefficients are
    not all finite. All simple pairs advance together through the
    Schur-basis kernel in O(p^2 n^3) work; each pair's diagnostics hold its
    per-order bordered residuals and its eigenvalue gap. The
    single-precision variant runs the dense rounded factorization per pair
    instead, since the experiment is about the stored matrix E.
    """
    problem = request.problem
    p = request.order
    derivs = _check_derivatives(problem, request.mu0, p)
    decomp = eigen_all(derivs[0], hermitian=problem.hermitian)
    indices = selected_indices(request.selector, decomp.n)
    if not request.single_precision_e:
        return _taylor_schur(derivs, decomp, indices, p, problem.hermitian, request.mu0)
    out = []
    for index in indices:
        lam0 = complex(decomp.values[index])
        v0 = decomp.vectors[:, index].copy()
        try:
            out.append(
                _expand_single_dense(derivs, v0, lam0, p, problem.hermitian, True, request.mu0)
            )
        except NumericalError as exc:
            out.append(ExpansionFailure(index, lam0, exc))
    return out


def expansion_series(results):
    """Filter an expand-all result list down to the successful series."""
    return [r for r in results if isinstance(r, EigenPairSeries)]


def expansion_failures(results):
    return [r for r in results if isinstance(r, ExpansionFailure)]
