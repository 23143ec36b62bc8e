"""Chebyshev-U expansion of eigenpaths over an interval: matrix-coefficient
projection by Gauss-Chebyshev quadrature, a warm start from the simplified
block-lower-triangular system, and Newton refinement of the full coupled
system.

The coupled system collects, for each retained degree k, the U_k coefficient
of A(mu) v(mu) - lambda(mu) v(mu) (vector rows) and of v(mu)^T v(mu) - 1
(scalar rows), where products expand through
U_i U_j = U_{i+j} + U_{i+j-2} + ... + U_{|i-j|} and terms of degree above
the truncation order are discarded (Galerkin projection onto span U_0..U_p).
That projection is the 0/1 coupling tensor G[k, i, j] (1 exactly when
U_i U_j contains U_k, for i, j, k <= p), symmetric in i and j. With
W[k, i] = sum_j G[k, i, j] v_j the residual rows are
sum_i (A_i - lam_i I) W[k, i] and sum_i v_i^T W[k, i] - delta_k0, and
Jacobian block (k, m) is sum_i G[k, i, m] (A_i - lam_i I) with lambda column
-W[k, m] and scalar row 2 W[k, m]^T.

The unknowns form a (p+1, n+1) array whose row k is (lam_k, v_k); the packed
vector is its row-major flattening, one scalar row and n vector rows per
block, giving a dense Jacobian of size (p+1)(n+1).

Every eigenpair of the averaged matrix A_0 is expanded by one kernel, with
no loop over pairs outside Newton's LU step:

* the warm starts of all pairs are one call of the Taylor Schur kernel
  (``taylor.expand_schur``) on the one eigendecomposition of A_0, with unit
  weights and the bilinear border v0^T;
* Newton runs on blocks of pairs, an array (pairs, p+1, n+1) whose stacked
  Jacobians fit ``linalg.BLOCK_BYTES``. Each iteration builds the residuals
  and the Jacobians of the block's active pairs in one batched call each,
  O(p^3 n^2) per pair, and factors one LU per active pair,
  O(((p+1)(n+1))^3), so the LUs dominate as n grows. A pair leaves the
  active set when it converges or fails, and keeps its own iteration
  count, history and error.

The arithmetic is chosen once per expansion: the projected stack A_i is
real for every real A(mu), and when A_0's spectrum is real too its
decomposition is real (``linalg.eigen_all``), so the warm starts, the
residuals, the Jacobians and their LUs all run in float64. A complex pair
of A_0 (complex eigenvectors and Schur factors) or complex input makes
every step complex128. Newton solves each Jacobian system with one raw
LAPACK ``gesv`` call, which scans nothing for finiteness: a Jacobian that
is not finite gives a step that is not finite, after which the pair's
iterates and residuals are not finite either, and the pair fails.

The single-pair functions (:func:`warm_start`, :func:`newton_refine`,
:func:`cheb_residual`, :func:`cheb_jacobian`) run the same code on one
pair.

On accuracy: a degree-p best approximation interpolates the target at p+1
unknown points, so its error is governed by the (p+1)-st derivative at an
unknown intermediate point. That bound is informative for eigenvalue paths
(whose derivatives stay moderate away from crossings) but can blow up for
eigenvector paths near close eigenvalues. Because the intermediate points
are unknowable, no certified bound is computed here; accuracy is assessed
empirically against direct eigensolves (see the analysis module), and the
computed coefficients additionally carry the Newton residual perturbation.
"""

import functools
import warnings

import numpy as np
import scipy.linalg

from dataclasses import dataclass

from .errors import JacobianSingularError, NewtonDivergenceError, NumericalError
from .linalg import (  # noqa: F401  (build_bordered, solve_bordered: looked up here by benchmarks/tracing.py)
    BLOCK_BYTES,
    block_slices,
    build_bordered,
    eigen_all,
    overflow_reported,
    solve_bordered,
    working_dtype,
)
from .problems import matrix_stack
from .series import (  # noqa: F401  (eval_cheb_u: looked up here by benchmarks/tracing.py)
    EigenPairSeries,
    MatrixSeries,
    ScalarSeries,
    SeriesBasis,
    VectorSeries,
    clenshaw_u,
    eval_cheb_u,
    u_product_degrees,
    u_values,
)
from .taylor import (  # noqa: F401  (taylor_rhs: looked up here by benchmarks/tracing.py)
    ExpansionFailure,
    expand_schur,
    non_finite_error,
    selected_indices,
    taylor_rhs,
)

DEFAULT_NEWTON_TOL = 1e-12
DEFAULT_NEWTON_MAX_ITER = 30
COLLISION_TOL = 1e-8


def quadrature_size(p, m=None):
    """Quadrature node count for degree p: ``m``, or max(64, 4(p+1)) if None.

    It must exceed 2p so the projection quadrature is exact with margin for
    the retained degrees.
    """
    if m is None:
        m = max(64, 4 * (p + 1))
    if m <= 2 * p:
        raise ValueError("quadrature size must exceed 2p")
    return m


@dataclass(frozen=True)
class ChebRequest:
    """Expansion request over [mu1, mu2] with its quadrature size.

    ``quad_m`` defaults and is checked as in :func:`quadrature_size`.
    """

    problem: object
    interval: tuple
    order: int
    quad_m: int | None = None
    selector: object = "all"

    def __post_init__(self):
        mu1, mu2 = self.interval
        if not mu1 < mu2:
            raise ValueError("interval must satisfy mu1 < mu2")
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        quadrature_size(self.order, self.quad_m)


def gauss_chebyshev_u(m):
    """Gauss-Chebyshev nodes and weights for the weight sqrt(1 - s^2).

    Nodes s_j = cos(j pi / (m+1)) and weights (pi/(m+1)) sin^2(j pi/(m+1)),
    j = 1..m; exact for polynomial integrands of degree <= 2m - 1.
    """
    j = np.arange(1, m + 1)
    angles = j * np.pi / (m + 1)
    return np.cos(angles), (np.pi / (m + 1)) * np.sin(angles) ** 2


def project_matrix_coeffs(problem, interval, p, m=None):
    """Project A(mu) onto U_0..U_p over the interval by quadrature.

    A_i = (2/pi) sum_j w_j A(mu(s_j)) U_i(s_j). Unlike the Taylor case,
    A_0 here is a weighted average of A over the interval, not A at a point.
    The coefficients are real (float64) when every sample is real. A sample
    that is not finite raises NumericalError (``problems.matrix_stack``).
    """
    basis = SeriesBasis.chebyshev(*interval)
    m = quadrature_size(p, m)
    nodes, weights = gauss_chebyshev_u(m)
    samples = matrix_stack(problem, basis.from_affine(nodes), "quadrature node")
    u_table = u_values(nodes, p)
    coeffs = (2.0 / np.pi) * np.einsum("j,ij,jkl->ikl", weights, u_table, samples)
    return MatrixSeries(basis, coeffs)


def pack_unknowns(lams, vs):
    """Row-major flattening of the (p+1, n+1) array with rows (lam_k, v_k),
    real when lams and vs are."""
    x = np.column_stack((lams, vs))
    return x.astype(working_dtype(x)).ravel()


def unpack_unknowns(x, n):
    """Split a packed vector into (lams, vs) arrays."""
    blocks = x.reshape(-1, n + 1)
    return blocks[:, 0].copy(), blocks[:, 1:].copy()


@functools.lru_cache(maxsize=32)
def coupling_tensor(p):
    """0/1 tensor G[k, i, j], 1 exactly when U_i U_j contains U_k (i, j, k <= p).

    Cached per p, so the array is read-only.
    """
    g = np.zeros((p + 1, p + 1, p + 1))
    for i in range(p + 1):
        for j in range(p + 1):
            for k in u_product_degrees(i, j):
                if k <= p:
                    g[k, i, j] = 1.0
    g.flags.writeable = False
    return g


def degree_pairs(k, p):
    """Ordered pairs (i, j) with i, j <= p whose product U_i U_j contains U_k."""
    return [tuple(ij) for ij in np.argwhere(coupling_tensor(p)[k]).tolist()]


def _warm_starts(coeffs, decomp, indices):
    """Warm starts of the eigenpairs ``indices`` of A_0 = ``decomp``.

    Keeping only the leading U_{i+j} term of every product makes the coupled
    system forward-substitutable: block 0 is an eigenpair of A_0 normalized
    to v_0^T v_0 = 1, and block k solves the same bordered system as the
    Taylor recursion but with all binomial weights equal to 1. Every pair
    runs through the Taylor Schur kernel in one call, with the general
    (non-Hermitian) Schur form of A_0 and the bilinear border v0^T.

    Returns the per-index errors (None, a NumericalError for an isotropic
    eigenvector, or a NonSimpleEigenvalueError) and the unknowns
    (m, p+1, n+1) of the pairs without one, in order.
    """
    indices = np.asarray(indices, dtype=int)
    v0 = decomp.vectors[:, indices]
    bilinear = np.einsum("ij,ij->j", v0, v0)
    isotropic = np.abs(bilinear) < 1e-8
    starts = ~isotropic
    p = coeffs.order
    kernel_errors, lams, vs, *_ = expand_schur(
        coeffs.coeffs,
        np.ones((p + 1, p + 1)),
        decomp,
        indices[starts],
        v0[:, starts] / np.sqrt(bilinear[starts]),
        hermitian=False,
    )
    kernel_errors = iter(kernel_errors)
    errors = [
        NumericalError("cannot normalize v0^T v0 = 1: eigenvector is numerically isotropic")
        if iso
        else next(kernel_errors)
        for iso in isotropic
    ]
    x = np.empty((lams.shape[1], p + 1, coeffs.n + 1), dtype=working_dtype(lams, vs))
    x[:, :, 0] = lams.T
    x[:, :, 1:] = vs.transpose(2, 0, 1)
    return errors, x


def warm_start(coeffs, eigindex):
    """Initial packed unknowns of one eigenpair: :func:`_warm_starts` on
    its own, raising the pair's error."""
    decomp = eigen_all(np.asarray(coeffs.coeffs[0]))
    (error,), x = _warm_starts(coeffs, decomp, selected_indices(eigindex, decomp.n))
    if error is not None:
        raise error
    return x[0].ravel()


class _CoupledSystem:
    """Residual and Jacobian of one expansion's coupled system for a block
    of pairs at once.

    A block's unknowns are an array (pairs, p+1, n+1). W for every pair is
    one ``matmul`` of G's (k, i) rows with the pairs' (p+1, n) coefficient
    blocks, and each residual part is a further ``matmul`` on reshaped
    operands. sum_i G[k, i, m] A_i, the part of the Jacobian that does not
    depend on the unknowns, is formed once per expansion.

    Every product is a stack of per-pair products (``matmul`` loops over
    the stack), so a pair's bits do not depend on which or how many pairs
    share its block.

    It computes in ``self.dtype``, the coefficients' dtype promoted with
    ``dtype``, the unknowns' dtype (by default the coefficients' own); the
    unknowns it is given must have it.
    """

    def __init__(self, coeffs, dtype=np.float64):
        p1, n = coeffs.order + 1, coeffs.n
        self.p1, self.n = p1, n
        self.g = coupling_tensor(coeffs.order)
        self.dtype = working_dtype(coeffs.coeffs, dtype)
        self.a = np.asarray(coeffs.coeffs, dtype=self.dtype)
        self.g_rows = self.g.reshape(p1 * p1, p1)                      # (k, i) against j
        self.g_lam = self.g.transpose(1, 0, 2).reshape(p1, p1 * p1)    # i against (k, m)
        self.a_rows = self.a.transpose(0, 2, 1).reshape(p1 * n, n)     # (i, b) against a
        self.scale = 1.0 + max(float(np.linalg.norm(a)) for a in coeffs.coeffs)

    @functools.cached_property
    def _coupled_a(self):
        """sum_i G[k, i, m] A_i, shaped (p+1, n, p+1, n) like the Jacobian's vector blocks."""
        coupled = np.tensordot(self.g, self.a, axes=([1], [0]))
        return np.ascontiguousarray(coupled.transpose(0, 2, 1, 3))

    def _w(self, x):
        """W[P, k, i] = sum_j G[k, i, j] v_j of every pair P of the block."""
        return (self.g_rows @ x[:, :, 1:]).reshape(-1, self.p1, self.p1, self.n)

    def residuals(self, x):
        """Residuals of the pairs' unknowns x, shaped like x."""
        p1, n = self.p1, self.n
        w = self._w(x)
        w_rows = w.reshape(-1, p1, p1 * n)
        residual = np.empty_like(x)
        residual[:, :, 0] = (w_rows @ x[:, :, 1:].reshape(-1, p1 * n, 1))[..., 0]
        residual[:, 0, 0] -= 1.0
        residual[:, :, 1:] = w_rows @ self.a_rows - (x[:, None, None, :, 0] @ w)[:, :, 0]
        return residual

    def jacobians(self, x):
        """Jacobians of the pairs' residuals, (pairs, (p+1)(n+1), (p+1)(n+1))."""
        p1, n1 = self.p1, self.n + 1
        w = self._w(x)
        jac = np.empty((x.shape[0], p1, n1, p1, n1), dtype=self.dtype)
        jac[:, :, 1:, :, 1:] = self._coupled_a
        diag = np.arange(1, n1)
        jac[:, :, diag, :, diag] -= (x[:, None, :, 0] @ self.g_lam).reshape(-1, p1, p1)
        jac[:, :, 1:, :, 0] = -w.transpose(0, 1, 3, 2)
        jac[:, :, 0, :, 1:] = 2.0 * w
        jac[:, :, 0, :, 0] = 0.0
        return jac.reshape(x.shape[0], p1 * n1, p1 * n1)


def _one_pair(x, coeffs):
    """The coupled system of packed x and the coefficients, and x as its
    block of one pair."""
    x = np.asarray(x)
    system = _CoupledSystem(coeffs, x.dtype)
    return system, np.asarray(x, dtype=system.dtype).reshape(1, system.p1, system.n + 1)


def cheb_residual(x, coeffs):
    """Residual of the Galerkin-truncated coupled system at packed x.

    Zero exactly when the truncated series satisfy the projected
    eigenproblem and the truncated normalization v^T v = 1.
    """
    system, x = _one_pair(x, coeffs)
    return system.residuals(x)[0].ravel()


def cheb_jacobian(x, coeffs):
    """Exact Jacobian of :func:`cheb_residual` with respect to packed x.

    Block (k, m) holds sum_i G[k, i, m] (A_i - lam_i I) in the vector rows,
    -W[k, m] in the lambda column, and 2 W[k, m]^T in the scalar row.
    """
    system, x = _one_pair(x, coeffs)
    return system.jacobians(x)[0]


def _series_from_packed(x, coeffs, diagnostics):
    """The series of packed (or (p+1, n+1)) unknowns x, copied out of x."""
    lams, vs = unpack_unknowns(x, coeffs.n)
    lam = ScalarSeries(coeffs.basis, lams)
    vec = VectorSeries(coeffs.basis, vs)
    return EigenPairSeries(lam, vec, diagnostics)


def _newton_steps(system, x, residual, pairs):
    """One Newton step, in place, for each of ``pairs`` of the block x.

    Their Jacobians are built in one call, and each pair's step is one
    LAPACK ``gesv`` call (LU factors and solve). Returns the pairs left as
    they were because their LU has a pivot below 1e-14 of the factor scale.
    """
    singular = []
    jacobians = system.jacobians(x[pairs])
    gesv = scipy.linalg.get_lapack_funcs("gesv", (jacobians,))
    for pair, jac in zip(pairs, jacobians):
        # no finiteness scan: a non-finite step fails the pair (see _newton);
        # an exactly zero pivot (info > 0) fails the pivot test
        lu, _, step, _ = gesv(jac, residual[pair].ravel())
        diag = np.abs(np.diagonal(lu))
        if diag.min() < 1e-14 * max(1.0, diag.max()):
            singular.append(pair)
            continue
        x[pair] -= step.reshape(x.shape[1:])
    return singular


@overflow_reported()
def _newton(system, x, tol, max_iter):
    """Full-step Newton on a block of pairs' unknowns x (pairs, p+1, n+1),
    updated in place; every pair iterates on its own.

    A pair stops when ||R||_inf <= tol * (1 + max_i ||A_i||_F) and leaves
    the block's active set, as does a pair whose residual is not finite.
    Returns per pair its diagnostics, or its error: JacobianSingularError
    (see :func:`_newton_steps`), NewtonDivergenceError, carrying the best
    iterate, when the budget runs out, or a NumericalError naming the first
    order of a final iterate that is not finite.
    """
    threshold = tol * system.scale
    residual = system.residuals(x)
    norms = np.abs(residual).max(axis=(1, 2))
    histories = [[float(norm)] for norm in norms]
    best_x, best_norms = x.copy(), norms.copy()
    outcomes = [None] * x.shape[0]
    active = norms > threshold
    iterations = 0
    while active.any():
        if iterations >= max_iter:
            for pair in np.flatnonzero(active):
                outcomes[pair] = NewtonDivergenceError(
                    f"Newton did not reach {threshold:.2e} in {max_iter} iterations "
                    f"(best residual {best_norms[pair]:.2e})",
                    best_x=best_x[pair].flatten(),
                    best_residual=float(best_norms[pair]),
                    iterations=iterations,
                )
            break
        for pair in _newton_steps(system, x, residual, np.flatnonzero(active)):
            outcomes[pair] = JacobianSingularError(
                f"Jacobian singular at Newton iteration {iterations}"
            )
            active[pair] = False
        stepped = np.flatnonzero(active)
        residual[stepped] = system.residuals(x[stepped])
        norms[stepped] = np.abs(residual[stepped]).max(axis=(1, 2))
        iterations += 1
        for pair in stepped:
            histories[pair].append(float(norms[pair]))
        improved = stepped[norms[stepped] < best_norms[stepped]]
        best_x[improved], best_norms[improved] = x[improved], norms[improved]
        active[stepped] = norms[stepped] > threshold
    for pair, outcome in enumerate(outcomes):
        if outcome is None:
            outcomes[pair] = non_finite_error(x[pair, :, 0], x[pair, :, 1:]) or {
                "method": "chebyshev",
                "newton_iterations": len(histories[pair]) - 1,
                "final_residual": float(norms[pair]),
                "residual_history": histories[pair],
                "residual_scale": system.scale,
            }
    return outcomes


def newton_refine(x0, coeffs, tol=DEFAULT_NEWTON_TOL, max_iter=DEFAULT_NEWTON_MAX_ITER):
    """Full-step Newton iteration on the coupled system from packed x0:
    :func:`_newton` on one pair, raising its error."""
    system, x = _one_pair(x0, coeffs)
    x = x.copy()
    (outcome,) = _newton(system, x, tol, max_iter)
    if isinstance(outcome, NumericalError):
        raise outcome
    return _series_from_packed(x[0], coeffs, outcome)


def _detect_collisions(pairs, basis):
    """Flag result pairs whose eigenvalue paths coincide at 5 probe points."""
    mu1, mu2 = basis.interval
    probes = basis.affine(np.linspace(mu1, mu2, 5))
    series = [a for a, pair in enumerate(pairs) if isinstance(pair, EigenPairSeries)]
    collisions = []
    if series:
        lams = np.stack([pairs[a].lam.coeffs for a in series], axis=-1)
        values = clenshaw_u(lams, probes)
        apart = np.abs(values[:, :, None] - values[:, None, :]).max(axis=0)
        close = np.argwhere(np.triu(apart < COLLISION_TOL, k=1))
        collisions = [(series[i], series[j]) for i, j in close]
    for a, b in collisions:
        pairs[a].diagnostics.setdefault("collisions", []).append(b)
        pairs[b].diagnostics.setdefault("collisions", []).append(a)
    if collisions:
        warnings.warn(
            f"Chebyshev expansion produced coinciding eigenpaths: {collisions}; "
            "Newton offers no guarantee of n distinct eigenpairs",
            stacklevel=2,
        )
    return collisions


def _expand(coeffs, decomp, indices):
    """Warm start plus Newton for the eigenpairs ``indices`` of A_0 =
    ``decomp``: one EigenPairSeries or ExpansionFailure per index.

    Pairs go through Newton in blocks whose stacked Jacobians fit
    BLOCK_BYTES.
    """
    errors, x = _warm_starts(coeffs, decomp, indices)
    system = _CoupledSystem(coeffs, x.dtype)
    size = (coeffs.order + 1) * (coeffs.n + 1)
    outcomes = []
    for block in block_slices(x.shape[0], 16 * size * size, BLOCK_BYTES):
        outcomes += _newton(system, x[block], DEFAULT_NEWTON_TOL, DEFAULT_NEWTON_MAX_ITER)
    refined = iter(zip(outcomes, x))
    out = []
    for index, error in zip(indices, errors):
        if error is None:
            outcome, unknowns = next(refined)
            if not isinstance(outcome, NumericalError):
                out.append(_series_from_packed(unknowns, coeffs, outcome))
                continue
            error = outcome
        out.append(ExpansionFailure(index, complex(decomp.values[index]), error))
    return out


def _projected(request):
    coeffs = project_matrix_coeffs(
        request.problem, request.interval, request.order, request.quad_m
    )
    return coeffs, eigen_all(np.asarray(coeffs.coeffs[0]))


def cheb_expand_all(request):
    """Warm start plus Newton for every eigenvalue of the averaged matrix A_0
    that the request's selector picks (all of them by default; see
    ``taylor.selected_indices``), one entry per selected eigenvalue.

    Per-pair failures are reported individually as ExpansionFailure
    entries; coinciding eigenpaths are flagged in diagnostics and warned
    about, not treated as failures.
    """
    coeffs, decomp = _projected(request)
    out = _expand(coeffs, decomp, selected_indices(request.selector, decomp.n))
    _detect_collisions(out, coeffs.basis)
    return out
