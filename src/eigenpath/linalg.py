"""Dense eigendecomposition, values-only eigensolves, bordered linear
systems, and the Schur-reduced bordered solve of one eigenpair.

The bordered matrix is

    E = [ 0   b^T ]        b = v0 (conjugated when the problem is Hermitian)
        [ v0  lam0 I - A0 ]

Each expansion order solves E x = rhs with the same E, so the LU factors are
computed once. A single Schur form A0 = Q T Q^H reduces one pair's solve to
O(n^2) triangular work (:func:`solve_bordered_reduced`); the Taylor kernel
in ``taylor`` does the same elimination for all pairs at once.

:func:`eigen_all` also takes a stack of matrices, as the analysis layer
passes it a block of sample or grid points; every matrix of a stack gets
the bits a call on it alone would give. :func:`eigenvalues` is the same
solve for callers that read only the eigenvalues (the ``direct`` sampler):
one values-only LAPACK call, sorted alike, with no eigenvectors computed.
``BLOCK_BYTES`` is the one memory budget of such blocks, and of the blocks
of pairs that Chebyshev Newton iterates together.

Singularity policy: one constant, ``SINGULARITY_RCOND`` = 1e-12, decides
when an eigenvalue counts as not simple. It serves three roles, each a
relative quantity that vanishes exactly when lam0 is a repeated or
defective eigenvalue of A0:

* the reciprocal 1-norm condition estimate of the bordered matrix E
  (:func:`build_bordered`);
* the relative eigenvalue gap: lam0 against the other diagonal entries of
  T, relative to 1 + |lam0| + max |T_jj| (:func:`solve_bordered_reduced`,
  and the Schur pivot test of ``taylor._simplicity_failures``), or the gap
  to the nearest other eigenvalue relative to 1 + max |lam| (the same
  function's gap test);
* the eliminated pivot, or reciprocal eigenvalue condition: the 2x2
  determinant of :func:`solve_bordered_reduced` relative to its row sums,
  and in ``taylor.expand_schur`` |l_i c_i| relative to ||l_i|| ||v0_i||
  and |b_i^T v0_i| relative to ||v0_i||^2.

Floating-point warning policy: where the program reports a non-finite
result itself, numpy's overflow and invalid-value warnings are silenced
over the computation that produces it (:func:`overflow_reported`), and
nowhere else.
"""

import numpy as np
import scipy.linalg

from dataclasses import dataclass, field
from functools import cached_property

from .errors import EigenSolverError, NonSimpleEigenvalueError

SINGULARITY_RCOND = 1e-12

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


def _check_square(a, stack=False):
    a = np.asarray(a, dtype=complex)
    ndims = (2, 3) if stack else (2,)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError("expected a square matrix (or a stack of them) with n >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def vector_norms(v, axis=-1):
    """2-norms of the vectors along ``axis`` of a complex array.

    Each norm is sqrt(re . re + im . im) with BLAS dot products, the sum
    ``np.linalg.norm`` forms for one vector, so a batch gets the same bits
    as a loop of ``np.linalg.norm`` calls.
    """
    re, im = v.real, v.imag
    return np.sqrt(np.vecdot(re, re, axis=axis) + np.vecdot(im, im, axis=axis))


def phase_fix(v, axis=0):
    """Rotate each vector along ``axis`` so its largest-magnitude component
    is real and positive.

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


def _sort_order(values):
    # Descending real part, ties broken by descending imaginary part.
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
    applied. The sorted eigenvectors and the Schur factors are computed on
    first access, so a caller that reads only ``values`` pays for neither
    (LAPACK still computes the eigenvectors; :func:`eigenvalues` does not).
    T is diagonal for Hermitian input. ``matrix`` is the input as given;
    every array computed here is read-only.
    """

    matrix: np.ndarray = field(repr=False)
    values: np.ndarray
    hermitian: bool
    solver_vectors: np.ndarray = field(repr=False)   # unsorted, as LAPACK returns them
    order: np.ndarray = field(repr=False)            # sort permutation of the columns

    @property
    def n(self):
        return self.values.shape[-1]

    @cached_property
    def vectors(self):
        vectors = np.take_along_axis(self.solver_vectors, self.order[..., None, :], axis=-1)
        vectors /= vector_norms(vectors, axis=-2)[..., None, :]
        return _readonly(phase_fix(vectors, axis=-2))

    @cached_property
    def _schur(self):
        if self.hermitian:
            # T is diagonal, so the phase-fixed eigenvector matrix is a valid Q
            # and Q's column j is exactly the returned eigenvector j.
            t = np.zeros_like(self.matrix)
            diag = np.arange(self.n)
            t[..., diag, diag] = self.values
            return self.vectors, _readonly(t)
        try:
            factors = [
                scipy.linalg.schur(a, output="complex")
                for a in self.matrix.reshape(-1, self.n, self.n)
            ]
        except scipy.linalg.LinAlgError as exc:
            raise _solver_error(self.n, exc) from exc
        t, q = (_readonly(np.stack(f).reshape(self.matrix.shape)) for f in zip(*factors))
        return q, t

    @property
    def schur_q(self):
        return self._schur[0]

    @property
    def schur_t(self):
        return self._schur[1]


def _solver_error(n, exc):
    return EigenSolverError(
        f"dense eigensolver failed to converge: {exc}",
        diagnostics={"n": n, "reason": str(exc)},
    )


def eigen_all(a, hermitian=False):
    """All eigenpairs of a dense matrix (n, n) or of each matrix of a stack
    (m, n, n), with Schur factors for reuse.

    A stack is solved by one batched LAPACK call, and each of its matrices
    gets the same bits as a call on that matrix alone.
    """
    a = _check_square(a, stack=True)
    try:
        if hermitian:
            values, vectors = np.linalg.eigh(a)
            values = values.astype(complex)
        else:
            values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise _solver_error(a.shape[-1], exc) from exc
    order = _sort_order(values)
    values = _readonly(np.take_along_axis(values, order, axis=-1))
    return EigenDecomposition(a, values, hermitian, vectors, order)


def eigenvalues(a, hermitian=False):
    """The eigenvalues of a dense matrix (n, n) or of each matrix of a stack
    (m, n, n), sorted and checked as :func:`eigen_all` sorts and checks them.

    One values-only LAPACK call (``eigvalsh`` for Hermitian input, else
    ``eigvals``) computes no eigenvectors, so the values may differ from
    ``eigen_all(a).values`` by rounding. A stack's matrices get the bits of
    a call on each matrix alone.
    """
    a = _check_square(a, stack=True)
    try:
        values = np.linalg.eigvalsh(a).astype(complex) if hermitian else np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise _solver_error(a.shape[-1], exc) from exc
    return _readonly(np.take_along_axis(values, _sort_order(values), axis=-1))


def border_row(v0, hermitian):
    """Border row of E: v0^T in general, v0^H for Hermitian problems.

    The unconjugated transpose keeps the system linear over the complex
    field; the conjugate transpose preserves Hermitian structure.
    """
    return np.conj(v0) if hermitian else np.asarray(v0)


def assemble_bordered(a0, v0, lam0, hermitian=False):
    """Assemble the (n+1) x (n+1) bordered matrix E."""
    a0 = np.asarray(a0, dtype=complex)
    v0 = np.asarray(v0, dtype=complex)
    n = a0.shape[0]
    e = np.zeros((n + 1, n + 1), dtype=complex)
    e[0, 1:] = border_row(v0, hermitian)
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
    border: np.ndarray
    lam0: complex
    hermitian: bool
    lu: tuple = field(repr=False)
    condition_estimate: float = 0.0

    @property
    def size(self):
        return self.matrix.shape[0]


def _rcond_from_lu(e, lu_piv):
    anorm = np.linalg.norm(e, 1)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (e,))
    rcond, info = gecon(lu_piv[0], anorm, norm="1")
    if info != 0:
        raise EigenSolverError(f"condition estimation failed (info={info})")
    return float(rcond)


def build_bordered(a0, v0, lam0, hermitian=False, unit_norm_check=True, single_precision=False):
    """Build and factorize the bordered system for (lam0, v0) at A0.

    Raises NonSimpleEigenvalueError when the reciprocal condition estimate
    falls below 1e-12, which happens exactly when lam0 is not a simple
    eigenvalue of A0. ``single_precision`` rounds the assembled matrix to
    single precision before factorization (error-floor experiment).
    """
    a0 = _check_square(a0)
    v0 = np.asarray(v0, dtype=complex)
    if unit_norm_check and abs(np.linalg.norm(v0) - 1.0) > 1e-12:
        raise ValueError("v0 must have unit 2-norm")
    e = assemble_bordered(a0, v0, lam0, hermitian)
    if single_precision:
        e = e.astype(np.complex64).astype(np.complex128)
    lu_piv = scipy.linalg.lu_factor(e)
    rcond = _rcond_from_lu(e, lu_piv)
    if rcond < SINGULARITY_RCOND:
        raise NonSimpleEigenvalueError(
            f"non-simple eigenvalue at expansion point (rcond={rcond:.2e}); "
            "the bordered matrix is singular when lam0 is not simple"
        )
    e.setflags(write=False)
    return BorderedSystem(
        matrix=e,
        border=v0.copy(),
        lam0=complex(lam0),
        hermitian=hermitian,
        lu=lu_piv,
        condition_estimate=rcond,
    )


def solve_bordered(system, rhs):
    """Solve E [lam_k; v_k] = rhs; returns the split (lam_k, v_k)."""
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (system.size,):
        raise ValueError(f"rhs must have length {system.size}")
    x = scipy.linalg.lu_solve(system.lu, rhs)
    return complex(x[0]), x[1:]


def solve_bordered_reduced(q, t, v0, lam0, rhs, hermitian=False):
    """Solve the bordered system through the Schur factors of A0 in O(n^2).

    With A0 = Q T Q^H the bordered matrix factors through a system whose
    core lam0 I - T is upper triangular (diagonal when Hermitian). The rhs
    vector part is transformed by Q^H, the triangular system is solved by
    block elimination around the near-zero pivot at the matched diagonal
    entry, and the result is transformed back by Q.

    The elimination treats (w_j, lam_k) as terminal unknowns: suffix and
    prefix rows are solved with the right sides parameterized affinely in
    those two, and a final 2x2 system determines them. Nothing is dropped,
    so the result agrees with the dense solve to backward-error accuracy.
    """
    q = np.asarray(q, dtype=complex)
    t = np.asarray(t, dtype=complex)
    v0 = np.asarray(v0, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    n = q.shape[0]
    if rhs.shape != (n + 1,):
        raise ValueError(f"rhs must have length {n + 1}")

    z, y = rhs[0], rhs[1:]
    c = q.conj().T @ v0                     # transformed border column
    r = border_row(v0, hermitian) @ q       # transformed border row
    yhat = q.conj().T @ y

    diag = np.diagonal(t)
    j = int(np.argmin(np.abs(lam0 - diag)))
    s = lam0 * np.eye(n) - t

    scale = 1.0 + abs(lam0) + float(np.max(np.abs(diag)))
    off_pivot = np.abs(lam0 - np.delete(diag, j))
    if off_pivot.size and np.min(off_pivot) < SINGULARITY_RCOND * scale:
        raise NonSimpleEigenvalueError(
            "non-simple eigenvalue at expansion point (repeated Schur diagonal entry)"
        )

    lo = slice(0, j)
    hi = slice(j + 1, n)
    n_hi = n - j - 1

    # Suffix rows i > j: w_hi = alpha_hi + beta_hi * lam.
    if n_hi:
        cols = np.column_stack((yhat[hi], -c[hi]))
        sol = scipy.linalg.solve_triangular(s[hi, hi], cols, lower=False)
        alpha_hi, beta_hi = sol[:, 0], sol[:, 1]
    else:
        alpha_hi = beta_hi = np.zeros(0, dtype=complex)

    # Prefix rows i < j: w_lo = alpha_lo + beta_lo * lam + delta_lo * w_j.
    if j:
        s_lo_hi = s[lo, hi]
        cols = np.column_stack(
            (
                yhat[lo] - s_lo_hi @ alpha_hi,
                -c[lo] - s_lo_hi @ beta_hi,
                -s[lo, j],
            )
        )
        sol = scipy.linalg.solve_triangular(s[lo, lo], cols, lower=False)
        alpha_lo, beta_lo, delta_lo = sol[:, 0], sol[:, 1], sol[:, 2]
    else:
        alpha_lo = beta_lo = delta_lo = np.zeros(0, dtype=complex)

    # Remaining equations: Schur row j and the border row, in (w_j, lam).
    s_j_hi = s[j, hi]
    m00 = s[j, j]
    m01 = c[j] + s_j_hi @ beta_hi
    b0 = yhat[j] - s_j_hi @ alpha_hi
    m10 = r[lo] @ delta_lo + r[j]
    m11 = r[lo] @ beta_lo + r[hi] @ beta_hi
    b1 = z - r[lo] @ alpha_lo - r[hi] @ alpha_hi

    det = m00 * m11 - m01 * m10
    pivot_scale = max(abs(m00) + abs(m01), abs(m10) + abs(m11), 1.0)
    if abs(det) < SINGULARITY_RCOND * pivot_scale:
        raise NonSimpleEigenvalueError(
            "non-simple eigenvalue at expansion point (eliminated pivot below 1e-12)"
        )
    w_j = (b0 * m11 - m01 * b1) / det
    lam_k = (m00 * b1 - m10 * b0) / det

    w = np.empty(n, dtype=complex)
    w[lo] = alpha_lo + beta_lo * lam_k + delta_lo * w_j
    w[j] = w_j
    w[hi] = alpha_hi + beta_hi * lam_k
    return complex(lam_k), q @ w
