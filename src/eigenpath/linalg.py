"""Dense eigendecomposition, values-only eigensolves, and bordered linear
systems, solved densely or through the Schur form of A0.

The bordered matrix of every pair, Hermitian or not (its normalization row
is set out in the ``taylor`` module docstring), is

    E = [ 0   v0^H        ]
        [ v0  lam0 I - A0 ]

Each expansion order solves E x = rhs with the same E. A single Schur form
A0 = Q T Q^H reduces every pair's solve to O(n^2) triangular work
(:func:`schur_bordered_solver`, which the Taylor kernel in ``taylor`` calls
for all pairs at once). No command calls the dense LU of one E
(:func:`build_bordered`, :func:`solve_bordered`), the tests' reference.

:func:`eigen_all` also takes a stack of matrices, as the analysis layer
passes it a block of sample or grid points; every matrix of a stack gets
the bits a call on it alone would give. :func:`eigenvalues` is the same
solve for callers that read only the eigenvalues (the ``direct`` sampler):
one values-only LAPACK call, sorted alike, with no eigenvectors computed.
``BLOCK_BYTES`` is the one memory budget of such blocks, and of the blocks
of pairs that Chebyshev Newton iterates together.

Dtype policy: the arithmetic follows the input's dtype and its spectrum,
matrix by matrix. A real matrix is decomposed by the real solver (``eigh``
for Hermitian input, else ``eig``); ``vectors``, and the Schur factors
built from them, are float64 when its spectrum is real and complex128 when
it has a complex pair. Complex input (even with zero imaginary parts) is
decomposed in complex arithmetic. In a real stack with a complex
pair anywhere, numpy returns every matrix's vectors as complex128, but each
matrix's eigenvalues and eigenvectors are the numbers the real solver gives
it alone, so they never depend on the stack's other matrices.
``EigenDecomposition.values`` are complex128 either way; the Taylor kernel
and Chebyshev Newton compute in the dtype of the Schur factors and vectors
(:func:`working_dtype`, :func:`in_dtype`). On a real vector the phase fix
is a sign fix.

Floating-point warning policy: where the program reports a non-finite
result itself, numpy's overflow and invalid-value warnings are silenced
over the computation that produces it (:func:`overflow_reported`), and
nowhere else.

Import policy: ``scipy.linalg`` is imported inside the routines that call
it (the LU of :func:`build_bordered` and :func:`solve_bordered`), not with
the module. Importing it takes most of a fresh command's start-up time,
and only a command that computes a Chebyshev expansion (``expand`` or
``sample`` with --interval, through ``chebyshev``) loads it.
"""

import numpy as np

from dataclasses import dataclass, field
from functools import cached_property

from .errors import EigenSolverError, NonSimpleEigenvalueError

# The threshold table: every number that decides whether a computed result
# is kept. No other module defines one, and no option or argument sets one.
# Whether lam0 is simple: the lower bound on the relative sizes that vanish
# exactly at a repeated or defective eigenvalue of A0 (the gap tests of
# :func:`gap_errors` and :func:`schur_bordered_solver`, its eliminated
# pivots, the condition estimate of :func:`build_bordered`). It is also the
# upper bound on the relative |A - A^H| of input declared Hermitian.
SINGULARITY_RCOND = 1e-12
# | ||v0|| - 1 | of the vector that :func:`build_bordered` borders E with.
UNIT_NORM_TOL = 1e-12
# Taylor: the normwise backward error |E x - rhs| / (|rhs| + |E| |x|) an
# order's solve may leave; the built-ins' pairs leave at most about 1e-13.
ORDER_RESIDUAL_BOUND = 1e-7
# Chebyshev Newton: a pair converges at ||R||_inf <= this (1 + max_i ||A_i||_F).
NEWTON_TOL = 1e-12
# Newton: a pair that has not converged after this many steps diverges.
NEWTON_MAX_ITER = 30
# Newton: a Jacobian is singular at an LU pivot below this max(1, max pivot).
NEWTON_PIVOT_TOL = 1e-14
# Chebyshev start: a node eigenvector with |v^T v| below this is isotropic.
ISOTROPIC_TOL = 1e-8
# Chebyshev: paths coincide when |lam_a - lam_b| and 1 - |cos(v_a, v_b)| stay below
# COLLISION_TOL at each of COLLISION_PROBES evenly spaced points of the interval.
COLLISION_TOL = 1e-8
COLLISION_PROBES = 5
# analysis: an evaluated eigenvector with a norm below this is degenerate.
DEGENERATE_NORM_TOL = 1e-14

# Batched work (blocks of sample or grid points in ``analysis``, blocks of
# pairs' Newton Jacobians in ``chebyshev``) goes in blocks of at most this
# many bytes of its largest stacked arrays.
BLOCK_BYTES = 16 * 2**20


def overflow_reported():
    """Silence numpy's floating-point warnings (usable as a ``with`` block or
    a decorator) over a computation whose non-finite result the program
    reports itself, as a failed pair or an exit-2 message naming the point:
    the warnings, printed before that report, would only repeat it."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def block_slices(count, item_bytes, budget):
    """Consecutive slices of range(count), each holding at most ``budget``
    bytes at ``item_bytes`` per item, and at least one item."""
    size = max(1, budget // item_bytes)
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def working_dtype(*arrays):
    """float64 when every argument is real (or integer), else complex128."""
    return np.result_type(np.float64, *arrays)


def in_dtype(values, dtype):
    """Complex ``values`` in the arithmetic ``dtype``: their real parts when
    it is real (the values of a real spectrum), else the values themselves."""
    return values if np.issubdtype(dtype, np.complexfloating) else values.real


def _check_square(a, stack=False, hermitian=False):
    """a as float64 when it is real, else as complex128, checked square,
    finite and, when ``hermitian``, equal to its conjugate transpose to
    within SINGULARITY_RCOND max(1, max |a|): ``eigh`` and the diagonal
    Schur form would take the flag on trust."""
    a = np.asarray(a)
    a = np.asarray(a, dtype=working_dtype(a))
    ndims = (2, 3) if stack else (2,)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError("expected a square matrix (or a stack of them) with n >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if hermitian:
        asymmetry = np.abs(a - a.swapaxes(-1, -2).conj())
        if asymmetry.max() > SINGULARITY_RCOND * max(1.0, np.abs(a).max()):
            entry = np.unravel_index(np.argmax(asymmetry), a.shape)
            raise ValueError(f"hermitian=True, but |A - A^H| is {asymmetry[entry]:.3g} "
                             f"at entry {tuple(int(i) for i in entry)}")
    return a


def vector_norms(v, axis=-1):
    """2-norms of the vectors along ``axis`` of a real or complex array.

    Each norm is sqrt(re . re + im . im) with BLAS dot products, the sum
    ``np.linalg.norm`` forms for one vector, so a batch gets the same bits
    as a loop of ``np.linalg.norm`` calls.
    """
    re, im = v.real, v.imag
    return np.sqrt(np.vecdot(re, re, axis=axis) + np.vecdot(im, im, axis=axis))


def phase_fix(v, axis=0):
    """Rotate each vector along ``axis`` so its largest-magnitude component
    is real and positive: on real vectors, flip each one's sign so that
    component is positive.

    Removes the unit-modulus gauge freedom deterministically; ties resolve
    to the first maximal component, and a zero vector is left as it is.
    """
    v = np.asarray(v)
    idx = np.expand_dims(np.argmax(np.abs(v), axis=axis), axis)
    pivot = np.take_along_axis(v, idx, axis)
    pivot = np.where(pivot == 0, 1.0, pivot)   # a zero vector is rotated by 1
    # hypot rounds like abs() of one complex number, which np.abs on an
    # array (a SIMD loop) need not do; the rotation of a vector must not
    # depend on how many vectors are fixed together
    return v * (np.hypot(pivot.real, pivot.imag) / pivot)


def sort_order(values):
    """The order that sorts ``values`` along the last axis by descending real
    part, ties broken by descending imaginary part."""
    return np.lexsort((-values.imag, -values.real), axis=-1)


def _readonly(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EigenDecomposition:
    """Full dense eigendecomposition of one matrix (n, n) or of a stack
    (m, n, n), plus Schur factors A = Q T Q^H.

    Eigenvalues are sorted by descending real part (ties by descending
    imaginary part); eigenvectors are unit 2-norm columns with the phase fix
    applied. The Schur factors, computed on first access, come from the
    eigenvector matrix V: Q = V and T diagonal for Hermitian input, else
    V = QR and T = Q^H A Q with its strictly lower part, rounding, set to 0
    (Q^H A Q = R diag(values) R^{-1} is upper triangular). ``matrix`` is the
    checked input, in float64 when it is real; ``vectors`` and the Schur
    factors are float64 when it is real with a real spectrum, else
    complex128 (see the module's dtype policy). Every array computed here
    is read-only.
    """

    matrix: np.ndarray = field(repr=False)
    values: np.ndarray
    vectors: np.ndarray = field(repr=False)
    hermitian: bool

    @property
    def n(self):
        return self.values.shape[-1]

    @cached_property
    def _schur(self):
        if self.hermitian:
            # T is diagonal, so the phase-fixed eigenvector matrix is a valid Q
            # and Q's column j is exactly the returned eigenvector j.
            t = np.zeros_like(self.matrix)
            diag = np.arange(self.n)
            t[..., diag, diag] = in_dtype(self.values, t.dtype)
            return self.vectors, _readonly(t)
        q, _ = np.linalg.qr(self.vectors)
        t = np.triu(np.conj(np.swapaxes(q, -1, -2)) @ self.matrix @ q)
        return _readonly(q), _readonly(t)

    @property
    def schur_q(self):
        return self._schur[0]

    @property
    def schur_t(self):
        return self._schur[1]


def _solver_error(exc):
    return EigenSolverError(f"dense eigensolver failed to converge: {exc}")


def eigen_all(a, hermitian=False):
    """All eigenpairs of a dense matrix (n, n) or of each matrix of a stack
    (m, n, n), with Schur factors for reuse.

    A stack is solved by one batched LAPACK call in the arithmetic of its
    dtype (the module's dtype policy), and each of its matrices gets the
    same numbers as a call on that matrix alone. With ``hermitian`` a matrix
    that is not Hermitian is a ValueError.
    """
    a = _check_square(a, stack=True, hermitian=hermitian)
    try:
        values, vectors = (np.linalg.eigh if hermitian else np.linalg.eig)(a)
    except np.linalg.LinAlgError as exc:
        raise _solver_error(exc) from exc
    values = values.astype(complex)
    order = sort_order(values)
    values = _readonly(np.take_along_axis(values, order, axis=-1))
    vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    norms = vector_norms(vectors, axis=-2)[..., None, :]
    unit = phase_fix(vectors / norms, axis=-2)
    if np.iscomplexobj(vectors) and not np.iscomplexobj(a):
        # numpy's real eig returns a whole stack in complex when one of its
        # matrices has a complex pair; a matrix with a real spectrum is
        # normalized and sign-fixed in float64, as it is when alone
        real = np.all(values.imag == 0, axis=-1)[..., None, None]
        unit = np.where(real, phase_fix(vectors.real / norms, axis=-2), unit)
    return EigenDecomposition(a, values, _readonly(unit), hermitian)


def eigenvalues(a, hermitian=False):
    """The eigenvalues of a dense matrix (n, n) or of each matrix of a stack
    (m, n, n), sorted and checked as :func:`eigen_all` sorts and checks them.

    One values-only LAPACK call (``eigvalsh`` for Hermitian input, else
    ``eigvals``) computes no eigenvectors, so the values may differ from
    ``eigen_all(a).values`` by rounding. A stack's matrices get the bits of
    a call on each matrix alone. With ``hermitian`` a matrix that is not
    Hermitian is a ValueError.
    """
    a = _check_square(a, stack=True, hermitian=hermitian)
    try:
        values = (np.linalg.eigvalsh if hermitian else np.linalg.eigvals)(a)
    except np.linalg.LinAlgError as exc:
        raise _solver_error(exc) from exc
    values = values.astype(complex)
    return _readonly(np.take_along_axis(values, sort_order(values), axis=-1))


def assemble_bordered(a0, v0, lam0):
    """Assemble the (n+1) x (n+1) bordered matrix E, real when a0, v0 and
    lam0 all are."""
    dtype = working_dtype(a0, v0, lam0)
    a0 = np.asarray(a0, dtype=dtype)
    v0 = np.asarray(v0, dtype=dtype)
    n = a0.shape[0]
    e = np.zeros((n + 1, n + 1), dtype=dtype)
    e[0, 1:] = v0.conj()
    e[1:, 0] = v0
    e[1:, 1:] = lam0 * np.eye(n) - a0
    return e


@dataclass(frozen=True)
class BorderedSystem:
    """Bordered matrix with its one-time LU factorization.

    Immutable after construction; concurrent solves against one
    factorization are safe (scipy's lu_solve does not mutate the factors).
    """

    matrix: np.ndarray
    lu: tuple = field(repr=False)
    condition_estimate: float = 0.0


def _rcond_from_lu(e, lu_piv):
    import scipy.linalg

    anorm = np.linalg.norm(e, 1)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (e,))
    rcond, info = gecon(lu_piv[0], anorm, norm="1")
    if info != 0:
        raise EigenSolverError(f"condition estimation failed (info={info})")
    return float(rcond)


def build_bordered(a0, v0, lam0):
    """Build and factorize the bordered system for (lam0, v0) at A0.

    Raises NonSimpleEigenvalueError when the reciprocal condition estimate
    falls below ``SINGULARITY_RCOND``, which happens exactly when lam0 is
    not a simple eigenvalue of A0.
    """
    import scipy.linalg

    a0 = _check_square(a0)
    v0 = np.asarray(v0)
    if abs(np.linalg.norm(v0) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("v0 must have unit 2-norm")
    e = assemble_bordered(a0, v0, lam0)
    lu_piv = scipy.linalg.lu_factor(e)
    rcond = _rcond_from_lu(e, lu_piv)
    if rcond < SINGULARITY_RCOND:
        raise NonSimpleEigenvalueError(
            f"non-simple eigenvalue at expansion point (rcond={rcond:.2e}); "
            "the bordered matrix is singular when lam0 is not simple"
        )
    e.setflags(write=False)
    return BorderedSystem(matrix=e, lu=lu_piv, condition_estimate=rcond)


def solve_bordered(system, rhs):
    """Solve E [lam_k; v_k] = rhs; returns the split (lam_k, v_k), real when
    E and rhs are.

    An rhs that is not finite gives a solution that is not finite, which
    the caller reports (an overflowing Taylor order)."""
    import scipy.linalg

    rhs = np.asarray(rhs)
    if rhs.shape != system.matrix.shape[:1]:
        raise ValueError(f"rhs must have length {system.matrix.shape[0]}")
    x = scipy.linalg.lu_solve(system.lu, rhs, check_finite=False)
    return x[0], x[1:]


def column_dot(x, y):
    """x^T y; one value per column for 2-D x and y."""
    return x @ y if x.ndim == 1 else np.einsum("ij,ij->j", x, y)


def _left_null_rows(t, shifts, pivots, diagonal):
    """Columns l_i with l_i^T (lam0_i I - T) = 0: 0 before pivot row i, 1 at it.

    ``shifts[r, i]`` is lam0_i - T_rr with inf at the pivot row, so row r
    adds (sum_{s<r} l_s T_sr) / shifts[r] to each column at once. For a
    ``diagonal`` T every row adds 0, so l_i is the unit vector at pivot i.
    """
    ell = np.zeros_like(shifts)
    ell[pivots, np.arange(len(pivots))] = 1.0
    if diagonal:
        return ell
    for r in range(1, t.shape[0]):
        ell[r] += (t[:r, r] @ ell[:r]) / shifts[r]
    return ell


def _back_substitute(t, shifts, g, diagonal):
    """Solve (lam0_i I - T) w_i = g_i for every column i, w_i = 0 at pivot i.

    The pivot row is the one equation g_i's consistency makes redundant;
    its inf shift pins the pivot entry to 0. A ``diagonal`` T decouples the
    rows, which are then solved at once.
    """
    if diagonal:
        return g / shifts
    w = np.empty_like(g)
    for r in range(t.shape[0] - 1, -1, -1):
        w[r] = (g[r] + t[r, r + 1:] @ w[r + 1:]) / shifts[r]
    return w


def non_simple_error(reason):
    """The NonSimpleEigenvalueError of a pair that fails the ``reason`` test."""
    return NonSimpleEigenvalueError(f"non-simple eigenvalue at expansion point ({reason})")


def gap_errors(values, indices):
    """The gap test of both expansions, on the eigenvalues ``values[indices]``
    of one spectrum ``values``.

    Returns each one's distance to the nearest other eigenvalue (inf when
    n = 1), and per index its NonSimpleEigenvalueError when that gap is
    below SINGULARITY_RCOND (1 + max |lam|), else None.
    """
    dist = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(dist, np.inf)
    gaps = dist.min(axis=1)[indices]
    gap_tol = SINGULARITY_RCOND * (1.0 + float(np.max(np.abs(values))))
    errors = [non_simple_error(f"eigenvalue gap {gap:.3g} below {gap_tol:.3g}")
              if gap < gap_tol else None for gap in gaps]
    return gaps, errors


def schur_bordered_solver(q, t, lam0, v0):
    """The bordered systems of the pairs (lam0_i, v0_i), lam0 (m,) and the
    columns of v0 (n, m), reduced through the Schur factors A0 = Q T Q^H
    (set out in the ``taylor`` module docstring), in the arithmetic of the
    arguments.

    Returns per pair None or the NonSimpleEigenvalueError of its Schur-pivot
    or eigenvalue-condition test (``SINGULARITY_RCOND``), and
    ``solve(z, y) -> (lam_k, v_k)`` over the pairs that pass, in order:
    z (m',) or a scalar, y (n, m'). A failing pair enters no computation
    after the test it fails.
    """
    diag = np.diagonal(t)
    dist = np.abs(lam0[None, :] - diag[:, None])
    pivots = np.argmin(dist, axis=0)
    dist[pivots, np.arange(lam0.size)] = np.inf
    repeated = dist.min(axis=0) < SINGULARITY_RCOND * (
        1.0 + np.abs(lam0) + float(np.max(np.abs(diag)))
    )
    errors = [non_simple_error("repeated Schur diagonal entry") if r else None for r in repeated]
    cols = np.flatnonzero(~repeated)

    # T is diagonal for a Hermitian problem (EigenDecomposition._schur)
    diagonal = not np.any(np.triu(t, 1))
    qh = q.conj().T
    lam0, v0 = lam0[cols], v0[:, cols]
    border = v0.conj()
    shifts = lam0[None, :] - diag[:, None]
    shifts[pivots[cols], np.arange(cols.size)] = np.inf
    c = qh @ v0
    ell = _left_null_rows(t, shifts, pivots[cols], diagonal)
    ell_c = column_dot(ell, c)
    border_v0 = column_dot(border, v0)                      # ||v0_i||^2
    # The eliminated pivot l_i c_i over ||l_i|| ||c_i|| = ||l_i|| ||v0_i||: the
    # reciprocal eigenvalue condition, which vanishes when it is not simple.
    condition = np.abs(ell_c) / (np.linalg.norm(ell, axis=0) * vector_norms(v0, axis=0))
    ok = condition >= SINGULARITY_RCOND
    for col, cond in zip(cols[~ok], condition[~ok]):
        errors[col] = non_simple_error(f"eliminated pivot: eigenvalue condition |l c| / "
                                       f"(||l|| ||c||) = {cond:.3g} below {SINGULARITY_RCOND:.3g}")
    v0, border, shifts, c, ell, ell_c, border_v0 = (
        a[..., ok] for a in (v0, border, shifts, c, ell, ell_c, border_v0)
    )

    def solve(z, y):
        yhat = qh @ y
        lam_k = column_dot(ell, yhat) / ell_c
        v_k = q @ _back_substitute(t, shifts, yhat - c * lam_k, diagonal)
        return lam_k, v_k + v0 * ((z - column_dot(border, v_k)) / border_v0)

    return errors, solve


def solve_bordered_reduced(q, t, v0, lam0, rhs):
    """Solve the bordered system of the one pair (lam0, v0) by
    :func:`schur_bordered_solver`, raising the pair's error there; returns
    (lam_k, v_k)."""
    rhs = np.asarray(rhs)
    if rhs.shape != (len(q) + 1,):
        raise ValueError(f"rhs must have length {len(q) + 1}")
    (error,), solve = schur_bordered_solver(q, t, np.array([lam0]), v0[:, None])
    if error is not None:
        raise error
    lam_k, v_k = solve(rhs[0], rhs[1:, None])
    return lam_k[0], v_k[:, 0]
