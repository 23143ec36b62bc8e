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
block, giving a dense Jacobian of size (p+1)(n+1). Each Newton iteration
assembles it in O(p^3 n^2) and factors it in O(((p+1)(n+1))^3), so the LU
dominates as n grows.

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
from .linalg import build_bordered, eigen_all, solve_bordered
from .series import (
    EigenPairSeries,
    MatrixSeries,
    ScalarSeries,
    SeriesBasis,
    VectorSeries,
    eval_cheb_u,
    u_product_degrees,
    u_values,
)
from .taylor import ExpansionFailure, taylor_rhs

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
    """Expansion request over [mu1, mu2] with quadrature and Newton controls.

    ``quad_m`` defaults and is checked as in :func:`quadrature_size`.
    """

    problem: object
    interval: tuple
    order: int
    quad_m: int | None = None
    selector: object = "all"
    newton_tol: float = DEFAULT_NEWTON_TOL
    newton_max_iter: int = DEFAULT_NEWTON_MAX_ITER

    def __post_init__(self):
        mu1, mu2 = self.interval
        if not mu1 < mu2:
            raise ValueError("interval must satisfy mu1 < mu2")
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
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
    """
    basis = SeriesBasis.chebyshev(*interval)
    m = quadrature_size(p, m)
    nodes, weights = gauss_chebyshev_u(m)
    mus = basis.from_affine(nodes)
    samples = np.empty((m, problem.n, problem.n), dtype=complex)
    for idx, mu in enumerate(mus):
        sample = np.asarray(problem.eval_at(mu), dtype=complex)
        if not np.all(np.isfinite(sample)):
            raise NumericalError(
                f"A(mu) is not finite at quadrature node {idx + 1} (mu={mu})"
            )
        samples[idx] = sample
    u_table = u_values(nodes, p)
    coeffs = (2.0 / np.pi) * np.einsum("j,ij,jkl->ikl", weights, u_table, samples)
    return MatrixSeries(basis, coeffs)


def pack_unknowns(lams, vs):
    """Row-major flattening of the (p+1, n+1) array with rows (lam_k, v_k)."""
    return np.column_stack((lams, vs)).astype(complex).ravel()


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


def warm_start(coeffs, eigindex):
    """Initial packed unknowns from the block-lower-triangular simplification.

    Keeping only the leading U_{i+j} term of every product makes the coupled
    system forward-substitutable: block 0 is an eigenpair of A_0 normalized
    to v_0^T v_0 = 1, and block k solves the same bordered system as the
    Taylor recursion but with all binomial weights equal to 1.
    """
    a_list = coeffs.coeffs
    p = coeffs.order
    a0 = np.asarray(a_list[0])
    decomp = eigen_all(a0)
    if not 0 <= eigindex < decomp.n:
        raise ValueError(f"eigenpair index {eigindex} out of range for n={decomp.n}")
    lam0 = complex(decomp.values[eigindex])
    v0 = decomp.vectors[:, eigindex].copy()

    bilinear = v0 @ v0
    if abs(bilinear) < 1e-8:
        raise NumericalError(
            "cannot normalize v0^T v0 = 1: eigenvector is numerically isotropic"
        )
    v0 = v0 / np.sqrt(bilinear)

    system = build_bordered(a0, v0, lam0, hermitian=False, unit_norm_check=False)
    unit_weights = np.ones((p + 1, p + 1))
    lams = [lam0]
    vs = [v0]
    for k in range(1, p + 1):
        z, y = taylor_rhs(k, a_list, vs, lams, binomials=unit_weights)
        lam_k, v_k = solve_bordered(system, np.concatenate(([z], y)))
        lams.append(lam_k)
        vs.append(v_k)
    return pack_unknowns(lams, vs)


def _coupled_terms(x, coeffs):
    """G, the shifted coefficients A_i - lam_i I, W[k, i] and the vs of x."""
    lams, vs = unpack_unknowns(np.asarray(x, dtype=complex), coeffs.n)
    g = coupling_tensor(coeffs.order)
    shifted = coeffs.coeffs - lams[:, None, None] * np.eye(coeffs.n)
    return g, shifted, g @ vs, vs


def cheb_residual(x, coeffs):
    """Residual of the Galerkin-truncated coupled system at packed x.

    Zero exactly when the truncated series satisfy the projected
    eigenproblem and the truncated normalization v^T v = 1.
    """
    _, shifted, w, vs = _coupled_terms(x, coeffs)
    residual = np.empty((coeffs.order + 1, coeffs.n + 1), dtype=complex)
    residual[:, 0] = np.tensordot(w, vs, axes=([1, 2], [0, 1]))
    residual[0, 0] -= 1.0
    residual[:, 1:] = np.tensordot(w, shifted, axes=([1, 2], [0, 2]))
    return residual.ravel()


def cheb_jacobian(x, coeffs):
    """Exact Jacobian of :func:`cheb_residual` with respect to packed x.

    Block (k, m) holds sum_i G[k, i, m] (A_i - lam_i I) in the vector rows,
    -W[k, m] in the lambda column, and 2 W[k, m]^T in the scalar row.
    """
    g, shifted, w, _ = _coupled_terms(x, coeffs)
    p1, n1 = coeffs.order + 1, coeffs.n + 1
    jac = np.zeros((p1, n1, p1, n1), dtype=complex)
    jac[:, 1:, :, 1:] = np.tensordot(g, shifted, axes=([1], [0])).transpose(0, 2, 1, 3)
    jac[:, 1:, :, 0] = -w.transpose(0, 2, 1)
    jac[:, 0, :, 1:] = 2.0 * w
    return jac.reshape(p1 * n1, p1 * n1)


def _series_from_packed(x, coeffs, diagnostics):
    lams, vs = unpack_unknowns(x, coeffs.n)
    lam = ScalarSeries(coeffs.basis, lams)
    vec = VectorSeries(coeffs.basis, vs)
    return EigenPairSeries(lam, vec, diagnostics)


def newton_refine(x0, coeffs, tol=DEFAULT_NEWTON_TOL, max_iter=DEFAULT_NEWTON_MAX_ITER):
    """Full-step Newton iteration on the coupled system.

    Stops when ||R||_inf <= tol * (1 + max_i ||A_i||_F). Raises
    JacobianSingularError on a pivot below 1e-14 of the factor scale and
    NewtonDivergenceError (carrying the best iterate) when the budget runs
    out.
    """
    scale = 1.0 + max(float(np.linalg.norm(a)) for a in coeffs.coeffs)
    threshold = tol * scale
    x = np.asarray(x0, dtype=complex).copy()
    residual = cheb_residual(x, coeffs)
    norm = float(np.max(np.abs(residual)))
    history = [norm]
    best_x, best_norm = x.copy(), norm
    iterations = 0
    while norm > threshold:
        if iterations >= max_iter:
            raise NewtonDivergenceError(
                f"Newton did not reach {threshold:.2e} in {max_iter} iterations "
                f"(best residual {best_norm:.2e})",
                best_x=best_x,
                best_residual=best_norm,
                iterations=iterations,
            )
        jac = cheb_jacobian(x, coeffs)
        lu, piv = scipy.linalg.lu_factor(jac)
        diag = np.abs(np.diagonal(lu))
        if diag.min() < 1e-14 * max(1.0, diag.max()):
            raise JacobianSingularError(
                f"Jacobian singular at Newton iteration {iterations}"
            )
        x = x - scipy.linalg.lu_solve((lu, piv), residual)
        residual = cheb_residual(x, coeffs)
        norm = float(np.max(np.abs(residual)))
        history.append(norm)
        iterations += 1
        if norm < best_norm:
            best_x, best_norm = x.copy(), norm
    diagnostics = {
        "method": "chebyshev",
        "newton_iterations": iterations,
        "final_residual": norm,
        "residual_history": history,
        "residual_scale": scale,
    }
    return _series_from_packed(x, coeffs, diagnostics)


def _detect_collisions(pairs, basis):
    """Flag result pairs whose eigenvalue paths coincide at 5 probe points."""
    mu1, mu2 = basis.interval
    probes = np.linspace(mu1, mu2, 5)
    evaluated = []
    for pair in pairs:
        if isinstance(pair, EigenPairSeries):
            evaluated.append(np.array([eval_cheb_u(pair.lam, mu) for mu in probes]))
        else:
            evaluated.append(None)
    collisions = []
    for a in range(len(pairs)):
        if evaluated[a] is None:
            continue
        for b in range(a + 1, len(pairs)):
            if evaluated[b] is None:
                continue
            if np.max(np.abs(evaluated[a] - evaluated[b])) < COLLISION_TOL:
                collisions.append((a, b))
                pairs[a].diagnostics.setdefault("collisions", []).append(b)
                pairs[b].diagnostics.setdefault("collisions", []).append(a)
    if collisions:
        warnings.warn(
            f"Chebyshev expansion produced coinciding eigenpaths: {collisions}; "
            "Newton offers no guarantee of n distinct eigenpairs",
            stacklevel=2,
        )
    return collisions


def cheb_expand_eigenpair(request, eigindex=None):
    """Warm start plus Newton refinement for one eigenpair."""
    if eigindex is None:
        if request.selector == "all":
            raise ValueError("an eigenpair index is required")
        eigindex = int(request.selector)
    coeffs = project_matrix_coeffs(
        request.problem, request.interval, request.order, request.quad_m
    )
    x0 = warm_start(coeffs, eigindex)
    return newton_refine(x0, coeffs, request.newton_tol, request.newton_max_iter)


def cheb_expand_all(request):
    """Warm start plus Newton for every eigenvalue of the averaged matrix A_0.

    Per-pair Newton failures are reported individually as ExpansionFailure
    entries; coinciding eigenpaths are flagged in diagnostics and warned
    about, not treated as failures.
    """
    coeffs = project_matrix_coeffs(
        request.problem, request.interval, request.order, request.quad_m
    )
    decomp = eigen_all(np.asarray(coeffs.coeffs[0]))
    out = []
    for index in range(decomp.n):
        try:
            x0 = warm_start(coeffs, index)
            pair = newton_refine(x0, coeffs, request.newton_tol, request.newton_max_iter)
            out.append(pair)
        except NumericalError as exc:
            out.append(ExpansionFailure(index, complex(decomp.values[index]), exc))
    _detect_collisions(out, coeffs.basis)
    return out
