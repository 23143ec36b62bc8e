"""Chebyshev-U expansion of eigenpaths over an interval: matrix-coefficient
projection by Gauss-Chebyshev quadrature, a start from the eigenpairs at the
quadrature nodes, and Newton refinement of the full coupled system.

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

* the starts of all pairs come from one stacked eigensolve of the m node
  matrices A(mu(s_j)) that the projection of A(mu) evaluates anyway. Each
  eigenpair of A_0 is assigned a node eigenpair at the middle node, and
  its path runs outward node by node, one to one, by the overlaps
  |V_prev^H V_j| of the eigenvectors, so it keeps to its eigenvector where
  sorted eigenvalues swap at a crossing. Each node vector is scaled to
  v^T v = 1, its sign continuous along the path, and lambda(mu_j) and
  v(mu_j) are projected onto U_0..U_p with the projection's own weights
  (2/pi) w_j U_i(s_j): the pseudospectral (non-intrusive) projection of
  stochastic collocation (Xiu & Hesthaven, SIAM J. Sci. Comput. 27, 2005).
  Newton then corrects only the Galerkin truncation, and a pair whose
  start meets the tolerance takes no step. A pair starts when A_0's
  eigenvalue passes the gap test (``linalg.gap_errors``) and no node
  vector on its path is isotropic (|v^T v| < ``linalg.ISOTROPIC_TOL``);
* Newton runs on blocks of pairs, an array (pairs, p+1, n+1) whose stacked
  Jacobians fit ``linalg.BLOCK_BYTES``. Each iteration builds the residuals
  and the Jacobians of the block's active pairs in one batched call each,
  O(p^3 n^2) per pair, and factors one LU per active pair,
  O(((p+1)(n+1))^3), so the LUs dominate as n grows. A pair leaves the
  active set when it converges or fails, and keeps its own iteration
  count, history and error.

Two converged pairs whose paths coincide both fail (:func:`_collisions`):
at ``linalg.COLLISION_PROBES`` points across the interval their eigenvalues
agree and their eigenvectors are parallel, both within ``linalg.COLLISION_TOL``.
Eigenvalues alone would also fail the distinct, orthogonal paths of a
near-double eigenvalue (five pairs of the torus at n=64). Each such pair's
error names its partners, and ``taylor.pair_results`` turns it, like every
other per-pair error, into the pair's ExpansionFailure.

The arithmetic is chosen once per expansion: the projected stack A_i is
real for every real A(mu), and when the spectrum is real at every node
too the node eigenvectors are real (``linalg.eigen_all``), so the starts,
the residuals, the Jacobians and their LUs all run in float64. A complex
pair at any node or complex input makes every step complex128. Newton
solves each Jacobian system with one raw LAPACK ``gesv`` call, which scans
nothing for finiteness: a Jacobian that is not finite gives a step that is
not finite, after which the pair's iterates and residuals are not finite
either, and the pair fails.

Like ``linalg``, this module imports scipy only inside the routines that
call it: ``scipy.linalg`` in :func:`_newton_steps` (Newton's ``gesv``) and
``scipy.optimize`` in :func:`_assignments`. Importing the module loads
numpy alone, so a command that never reaches them starts without scipy.

The single-pair functions (:func:`warm_start`, :func:`newton_refine`,
:func:`cheb_residual`, :func:`cheb_jacobian`) run the same code on one
pair; the start of one pair still tracks every path, so it is that pair's
column of the all-pairs start.

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

import numpy as np

from .errors import JacobianSingularError, NewtonDivergenceError, NumericalError
from .linalg import (  # noqa: F401  (build_bordered, solve_bordered: looked up here by benchmarks/tracing.py)
    BLOCK_BYTES,
    COLLISION_PROBES,
    COLLISION_TOL,
    ISOTROPIC_TOL,
    NEWTON_MAX_ITER,
    NEWTON_PIVOT_TOL,
    NEWTON_TOL,
    block_slices,
    build_bordered,
    eigen_all,
    gap_errors,
    in_dtype,
    overflow_reported,
    solve_bordered,
    working_dtype,
)
from .problems import matrix_stack
from .series import (  # noqa: F401  (eval_cheb_u: looked up here by benchmarks/tracing.py)
    EigenPairSeries,
    MatrixSeries,
    SeriesBasis,
    eval_cheb_u,
    u_values,
)
from .taylor import (  # noqa: F401  (taylor_rhs: looked up here by benchmarks/tracing.py)
    check_order_and_selector,
    non_finite_error,
    pair_results,
    selected_indices,
    taylor_rhs,
)


def quadrature_size(p):
    """Quadrature node count for degree p: max(64, 4(p+1)).

    It is always even and exceeds 2p, so the projection quadrature is exact
    with margin for the retained degrees and no node lands on the interval's
    midpoint s = 0.
    """
    return max(64, 4 * (p + 1))


def gauss_chebyshev_u(m):
    """Gauss-Chebyshev nodes and weights for the weight sqrt(1 - s^2).

    Nodes s_j = cos(j pi / (m+1)) and weights (pi/(m+1)) sin^2(j pi/(m+1)),
    j = 1..m; exact for polynomial integrands of degree <= 2m - 1.
    """
    j = np.arange(1, m + 1)
    angles = j * np.pi / (m + 1)
    return np.cos(angles), (np.pi / (m + 1)) * np.sin(angles) ** 2


def _quadrature(problem, interval, p):
    """The interval's basis, the node points mu_j = mu(s_j) (m,), the
    weighted table w_j U_i(s_j) (p+1, m) of the quadrature's weights w_j and
    nodes s_j, and the samples A(mu_j) (m, n, n)."""
    basis = SeriesBasis.chebyshev(*interval)
    nodes, weights = gauss_chebyshev_u(quadrature_size(p))
    mus = basis.from_affine(nodes)
    samples = matrix_stack(problem, mus, "quadrature node")
    return basis, mus, weights * u_values(nodes, p), samples


def _project(weighted, values):
    """The U coefficients 0..p, (2/pi) sum_j w_j U_i(s_j) values[j], of
    values (m, ...) at the quadrature nodes, from the weighted table of
    :func:`_quadrature`."""
    return (2.0 / np.pi) * np.einsum("ij,j...->i...", weighted, values)


def project_matrix_coeffs(problem, interval, p):
    """Project A(mu) onto U_0..U_p over the interval by quadrature.

    A_i = (2/pi) sum_j w_j A(mu(s_j)) U_i(s_j). Unlike the Taylor case,
    A_0 here is a weighted average of A over the interval, not A at a point.
    The coefficients are real (float64) when every sample is real. A sample
    that is not finite raises NumericalError (``problems.matrix_stack``).
    """
    basis, _, weighted, samples = _quadrature(problem, interval, p)
    return MatrixSeries(basis, _project(weighted, samples))


@functools.lru_cache(maxsize=32)
def coupling_tensor(p):
    """0/1 tensor G[k, i, j], 1 exactly when U_i U_j contains U_k (i, j, k <= p):
    |i - j| <= k <= i + j with i + j - k even (``series.u_product_degrees``).

    Cached per p, so the array is read-only.
    """
    degrees = np.arange(p + 1)
    k, i, j = np.ix_(degrees, degrees, degrees)
    g = ((abs(i - j) <= k) & (k <= i + j) & ((i + j - k) % 2 == 0)).astype(float)
    g.flags.writeable = False
    return g


def _assignments(overlaps):
    """For each (n, n) matrix of a stack, the one-to-one assignment of columns
    to rows with the largest summed overlap, as the column of each row.

    The row-wise argmax, where it is a bijection, is that assignment: every
    row gets its largest entry. Elsewhere scipy's ``linear_sum_assignment``
    decides; it is imported there only, as importing ``scipy.optimize``
    would slow every command's start.
    """
    best = np.argmax(overlaps, axis=-1)
    clashes = np.any(np.sort(best, axis=-1) != np.arange(overlaps.shape[-1]), axis=-1)
    if clashes.any():
        from scipy.optimize import linear_sum_assignment

        for k in np.flatnonzero(clashes):
            best[k] = linear_sum_assignment(overlaps[k], maximize=True)[1]
    return best


def _node_paths(decomp, nodes):
    """The column of each node's eigenpairs on the path of each eigenpair
    of A_0 = ``decomp``, an (m, n) array over the m node decompositions
    ``nodes``.

    A_0's eigenvectors are assigned to those of the middle node, and the
    paths run outward from there, each node's eigenvectors assigned to the
    previous node's (:func:`_assignments` on |V_prev^H V_j|). Following
    eigenvectors rather than sorted positions keeps a path through a
    crossing, where the sort order of its eigenvalues swaps.
    """
    vectors = nodes.vectors
    m, n = nodes.values.shape
    # forward[j, a]: the column of node j+1 that follows column a of node j
    forward = _assignments(np.abs(vectors[:-1].conj().transpose(0, 2, 1) @ vectors[1:]))
    backward = np.argsort(forward, axis=-1)
    mid = m // 2
    cols = np.empty((m, n), dtype=int)
    cols[mid] = _assignments(np.abs(decomp.vectors.conj().T @ vectors[mid])[None])[0]
    for j in range(mid, m - 1):
        cols[j + 1] = forward[j][cols[j]]
    for j in range(mid - 1, -1, -1):
        cols[j] = backward[j][cols[j + 1]]
    return cols


def _path_signs(v0, paths):
    """Signs (m, k) that make the paths' node vectors ``paths`` (m, k, n)
    continuous: each positive against the previous node's, and at the
    middle node against A_0's eigenvectors ``v0`` (k, n)."""
    mid = paths.shape[0] // 2
    flips = np.where(np.vecdot(paths[:-1], paths[1:]).real < 0, -1.0, 1.0)
    signs = np.empty(paths.shape[:2])
    signs[mid] = np.where(np.vecdot(v0, paths[mid]).real < 0, -1.0, 1.0)
    signs[mid + 1:] = signs[mid] * np.cumprod(flips[mid:], axis=0)
    signs[:mid] = signs[mid] * np.cumprod(flips[:mid][::-1], axis=0)[::-1]
    return signs


def _node_starts(coeffs, decomp, nodes, indices):
    """Newton's starts for the eigenpairs ``indices`` of A_0 = ``decomp``:
    the projection onto U_0..U_p of each pair's path through the
    eigenpairs at the quadrature nodes, ``nodes`` = (their stacked
    decomposition, the node points and the weighted table of
    :func:`_quadrature`; see the module docstring).

    Returns the per-index errors (None, a NumericalError for a path with a
    numerically isotropic node eigenvector, or the NonSimpleEigenvalueError
    of A_0's gap test) and the unknowns (k, p+1, n+1) of the pairs without
    one, in order.
    """
    node_decomp, mus, weighted = nodes
    indices = np.asarray(indices, dtype=int)
    cols = _node_paths(decomp, node_decomp)[:, indices]
    at = np.arange(cols.shape[0])[:, None]
    paths = node_decomp.vectors[at, :, cols]                       # (m, k, n)
    bilinear = np.einsum("jka,jka->jk", paths, paths)
    smallest = np.abs(bilinear).min(axis=0)
    at_mu = mus[np.abs(bilinear).argmin(axis=0)]
    _, errors = gap_errors(decomp.values, indices)
    errors = [
        NumericalError(f"cannot normalize v^T v = 1: node eigenvector is numerically isotropic, "
                       f"|v^T v| = {size:.3g} below {ISOTROPIC_TOL:g} at mu={mu:.17g}")
        if size < ISOTROPIC_TOL else error
        for size, mu, error in zip(smallest, at_mu, errors)
    ]
    ok = np.array([error is None for error in errors], dtype=bool)
    lams = in_dtype(node_decomp.values[at, cols[:, ok]], working_dtype(coeffs.coeffs, paths))
    vs = paths[:, ok] / np.sqrt(bilinear[:, ok, None])
    vs *= _path_signs(decomp.vectors[:, indices[ok]].T, vs)[:, :, None]
    unknowns = np.concatenate((lams[:, :, None], vs), axis=2)     # (m, k, n+1)
    return errors, np.ascontiguousarray(_project(weighted, unknowns).transpose(1, 0, 2))


def warm_start(problem, interval, order, eigindex):
    """Newton's packed start for the eigenpair ``eigindex`` of A_0, the
    average of A(mu) over the interval at ``order``: :func:`_node_starts`
    on that pair alone, raising its error."""
    check_order_and_selector(order, eigindex)
    coeffs, decomp, nodes = _projected(problem, interval, order)
    (error,), x = _node_starts(coeffs, decomp, nodes, selected_indices(eigindex, decomp.n))
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


def _newton_steps(system, x, residual, pairs):
    """One Newton step, in place, for each of ``pairs`` of the block x.

    Their Jacobians are built in one call, and each pair's step is one
    LAPACK ``gesv`` call (LU factors and solve). Returns the pairs, left as
    they were, whose LU has a pivot below NEWTON_PIVOT_TOL of its scale.
    """
    import scipy.linalg

    singular = []
    jacobians = system.jacobians(x[pairs])
    gesv = scipy.linalg.get_lapack_funcs("gesv", (jacobians,))
    for pair, jac in zip(pairs, jacobians):
        # no finiteness scan: a non-finite step fails the pair (see _newton);
        # an exactly zero pivot (info > 0) fails the pivot test
        lu, _, step, _ = gesv(jac, residual[pair].ravel())
        diag = np.abs(np.diagonal(lu))
        if diag.min() < NEWTON_PIVOT_TOL * max(1.0, diag.max()):
            singular.append(pair)
            continue
        x[pair] -= step.reshape(x.shape[1:])
    return singular


@overflow_reported()
def _newton(system, x):
    """Full-step Newton on a block of pairs' unknowns x (pairs, p+1, n+1),
    updated in place; every pair iterates on its own.

    A pair stops when ||R||_inf <= NEWTON_TOL (1 + max_i ||A_i||_F) and
    leaves the block's active set, as does a pair whose residual is not
    finite. Returns per pair its diagnostics, or its error: a
    JacobianSingularError (:func:`_newton_steps`), a NewtonDivergenceError
    with the best iterate after NEWTON_MAX_ITER steps, or a NumericalError
    naming the first order of a final iterate that is not finite.
    """
    threshold = NEWTON_TOL * system.scale
    residual = system.residuals(x)
    norms = np.abs(residual).max(axis=(1, 2))
    histories = [[float(norm)] for norm in norms]
    best_x, best_norms = x.copy(), norms.copy()
    outcomes = [None] * x.shape[0]
    active = norms > threshold
    iterations = 0
    while active.any():
        if iterations >= NEWTON_MAX_ITER:
            for pair in np.flatnonzero(active):
                outcomes[pair] = NewtonDivergenceError(
                    f"Newton did not reach {threshold:.2e} in {NEWTON_MAX_ITER} iterations "
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


def newton_refine(x0, coeffs):
    """Full-step Newton iteration on the coupled system from packed x0:
    :func:`_newton` on one pair, raising its error."""
    system, x = _one_pair(x0, coeffs)
    x = x.copy()
    (outcome,) = _newton(system, x)
    if isinstance(outcome, NumericalError):
        raise outcome
    return EigenPairSeries(coeffs.basis, x[0, :, 0], x[0, :, 1:], outcome)


def _collisions(basis, x):
    """The positions (a, b), a < b, of the converged unknowns x
    (k, p+1, n+1) whose paths coincide (see the module docstring). Only
    pairs whose eigenvalues agree evaluate their eigenvectors."""
    x = np.asarray(x, dtype=complex)        # as the pairs' series hold them
    probes = np.linspace(*basis.interval, COLLISION_PROBES)
    values = basis.evaluate(x[:, :, 0].T, probes)
    apart = np.abs(values[:, :, None] - values[:, None, :]).max(axis=0)
    close = np.argwhere(np.triu(apart < COLLISION_TOL, k=1))
    if not len(close):
        return []
    first, second = (  # (probes, n, candidates)
        basis.evaluate(x[side, :, 1:].transpose(1, 2, 0), probes) for side in close.T
    )
    norms = np.linalg.norm(first, axis=1) * np.linalg.norm(second, axis=1)
    cos = np.abs(np.vecdot(first, second, axis=1)) / norms
    parallel = np.all(1.0 - cos < COLLISION_TOL, axis=0)
    return [(i, j) for (i, j), same in zip(close, parallel) if same]


def _projected(problem, interval, order):
    """The coefficients A_0..A_order over the interval, the decomposition of
    A_0, and the nodes that :func:`_node_starts` reads: the stacked
    decomposition of the quadrature's node matrices, the node points and
    the weighted table, all from one :func:`_quadrature`. The interval is
    checked (``SeriesBasis``) before A(mu) is evaluated."""
    basis, mus, weighted, samples = _quadrature(problem, interval, order)
    coeffs = MatrixSeries(basis, _project(weighted, samples))
    nodes = eigen_all(samples, hermitian=problem.hermitian), mus, weighted
    return coeffs, eigen_all(np.asarray(coeffs.coeffs[0])), nodes


def cheb_expand_all(problem, interval, order, selector="all"):
    """Node start plus Newton, to ``order`` on ``interval`` = (mu1, mu2), for
    every eigenvalue of the averaged matrix A_0 that ``selector`` picks
    ("all" or an index; see ``taylor.selected_indices``), one entry per
    selected eigenvalue. Order, selector and interval are checked before
    A(mu) is evaluated.

    Pairs go through Newton in blocks whose stacked Jacobians fit
    BLOCK_BYTES. Per-pair failures are reported individually as
    ExpansionFailure entries (``taylor.pair_results``), among them both
    members of each pair of coinciding eigenvalue paths (:func:`_collisions`).
    """
    check_order_and_selector(order, selector)
    coeffs, decomp, nodes = _projected(problem, interval, order)
    indices = selected_indices(selector, decomp.n)
    errors, x = _node_starts(coeffs, decomp, nodes, indices)
    system = _CoupledSystem(coeffs, x.dtype)
    size = (coeffs.order + 1) * (coeffs.n + 1)
    outcomes = []
    for block in block_slices(x.shape[0], 16 * size * size, BLOCK_BYTES):
        outcomes += _newton(system, x[block])
    started = [index for index, error in zip(indices, errors) if error is None]
    converged = [a for a, outcome in enumerate(outcomes) if not isinstance(outcome, NumericalError)]
    partners = {}
    for i, j in _collisions(coeffs.basis, x[converged]):
        partners.setdefault(converged[i], []).append(converged[j])
        partners.setdefault(converged[j], []).append(converged[i])
    for a, others in partners.items():
        name = " and ".join(f"eigenpair {started[b] + 1}" for b in others)
        outcomes[a] = NumericalError(f"eigenvalue path coincides with that of {name}")
    refined = (
        outcome if isinstance(outcome, NumericalError)
        else EigenPairSeries(coeffs.basis, unknowns[:, 0], unknowns[:, 1:], outcome)
        for outcome, unknowns in zip(outcomes, x)
    )
    return pair_results(indices, decomp.values, errors, refined)
