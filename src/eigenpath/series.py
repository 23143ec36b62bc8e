"""Series bases, the eigenpath record, evaluation recurrences, the product
rule for second-kind Chebyshev polynomials, and the pair file encoder.

Two bases are supported:

* Taylor about mu0. Coefficient k stores the k-th derivative value, so the
  represented function is sum_k coeffs[k] * (mu - mu0)^k / k!.
* Chebyshev-U on [mu1, mu2]. The represented function is
  sum_k coeffs[k] * U_k(s(mu)) with the unnormalized second-kind polynomials
  (U_0 = 1, U_1(s) = 2s, U_{k+1} = 2 s U_k - U_{k-1}) composed with the
  affine map s(mu) = (2 mu - mu2 - mu1) / (mu2 - mu1).

:class:`EigenPairSeries` is the one eigenpath record, its basis stored once.
All containers are immutable after construction and safe to share between
threads; coefficient arrays are marked read-only.

:meth:`SeriesBasis.evaluate` is the one evaluator, from coefficients of any
trailing shape and a point or an array of points to values; every caller,
in this module, :mod:`eigenpath.analysis` and :mod:`eigenpath.chebyshev`, goes through it.

:func:`write_atomic` is the one way files are written: pair series here, and
the manifests and CSV files of :mod:`eigenpath.analysis` and
:mod:`eigenpath.cli`. One encoder, ``_encode``, gives a pair's JSON bytes:
:func:`save_eigenpair` writes them and :func:`eigenpair_to_dict` parses them.
"""

import contextlib
import functools
import math
import os

import numpy as np
import orjson

from dataclasses import dataclass, field
from pathlib import Path

TAYLOR = "taylor"
CHEBYSHEV_U = "chebyshev-u"


@dataclass(frozen=True)
class SeriesBasis:
    """Expansion basis: Taylor about a point or Chebyshev-U on an interval."""

    kind: str
    mu0: float | None = None
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind == TAYLOR:
            if self.mu0 is None or not math.isfinite(self.mu0):
                raise ValueError("Taylor basis requires a finite expansion point mu0")
            if self.interval is not None:
                raise ValueError("Taylor basis takes no interval")
        elif self.kind == CHEBYSHEV_U:
            if self.interval is None:
                raise ValueError("Chebyshev basis requires an interval")
            mu1, mu2 = self.interval
            if not (math.isfinite(mu1) and math.isfinite(mu2) and mu2 - mu1 > 0):
                raise ValueError("Chebyshev interval must be finite with mu2 > mu1")
            if self.mu0 is not None:
                raise ValueError("Chebyshev basis takes no expansion point")
            object.__setattr__(self, "interval", (float(mu1), float(mu2)))
        else:
            raise ValueError(f"unknown basis kind {self.kind!r}")

    @classmethod
    def taylor(cls, mu0):
        return cls(kind=TAYLOR, mu0=float(mu0))

    @classmethod
    def chebyshev(cls, mu1, mu2):
        return cls(kind=CHEBYSHEV_U, interval=(mu1, mu2))

    def affine(self, mu):
        """Map mu to s in [-1, 1]; s(mu1) = -1 and s(mu2) = +1 up to roundoff."""
        mu1, mu2 = self.interval
        return (2.0 * mu - mu2 - mu1) / (mu2 - mu1)

    def from_affine(self, s):
        """Inverse of :meth:`affine`."""
        mu1, mu2 = self.interval
        return 0.5 * (mu2 - mu1) * s + 0.5 * (mu1 + mu2)

    def evaluate(self, coeffs, mu):
        """The series with coefficients ``coeffs`` (shape (p+1, ...)) in this
        basis at mu, a point or an array of points: shape mu's shape + one
        coefficient's shape. Taylor is :func:`horner` on the k!-scaled
        coefficients at mu - mu0; Chebyshev is :func:`clenshaw_u` at s(mu),
        extrapolating outside the interval. Raises ValueError when a point
        is not finite.
        """
        mu = np.asarray(mu, dtype=float) if np.ndim(mu) else float(mu)
        if not np.all(np.isfinite(mu)):
            raise ValueError("evaluation point must be finite")
        if self.kind == TAYLOR:
            return horner(taylor_scaled_coeffs(coeffs), mu - self.mu0)
        return clenshaw_u(coeffs, self.affine(mu))


def _freeze(coeffs, ndim, dtype=complex):
    """coeffs as a read-only contiguous array of ``dtype`` (None: float64 or
    complex128, whichever holds them)."""
    arr = np.asarray(coeffs, dtype=dtype)
    arr = arr.astype(np.result_type(arr, np.float64), copy=False)
    if arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-dimensional coefficient array, got {arr.ndim}")
    if arr.shape[0] == 0:
        raise ValueError("at least the order-0 coefficient is required")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MatrixSeries:
    """n-by-n coefficients, orders 0..p. coeffs has shape (p+1, n, n) and
    keeps its dtype: float64 for a real stack, else complex128."""

    basis: SeriesBasis
    coeffs: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.coeffs, 3, dtype=None)
        if arr.shape[1] != arr.shape[2]:
            raise ValueError("matrix coefficients must be square")
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self):
        return self.coeffs.shape[0] - 1

    @property
    def n(self):
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class EigenPairSeries:
    """One eigenpath in one basis: eigenvalue coefficients ``lam`` (p+1,)
    and eigenvector coefficients ``vec`` (p+1, n), read-only complex128
    arrays, plus diagnostics.

    ``diagnostics`` typically records per-order bordered residuals (Taylor)
    or Newton iteration counts and residual history (Chebyshev).
    """

    basis: SeriesBasis
    lam: np.ndarray
    vec: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "lam", _freeze(self.lam, 1))
        object.__setattr__(self, "vec", _freeze(self.vec, 2))
        if self.lam.shape[0] != self.vec.shape[0]:
            raise ValueError("eigenvalue and eigenvector series must share one order")

    @property
    def order(self):
        return self.lam.shape[0] - 1

    @property
    def n(self):
        return self.vec.shape[1]


def float_factorial(k):
    """k! as a float: inf past 170, where it overflows float64."""
    return float(math.factorial(k)) if k <= 170 else math.inf


def taylor_scaled_coeffs(coeffs):
    """Divide derivative values by k! so Horner's rule applies directly."""
    p = coeffs.shape[0] - 1
    scale = np.array([1.0 / float_factorial(k) for k in range(p + 1)])
    return coeffs * scale.reshape((-1,) + (1,) * (coeffs.ndim - 1))


def _points(x, coeffs):
    """x as a float, or an array of points shaped to broadcast against one
    coefficient, so the result has shape points + coefficient shape."""
    if not np.ndim(x):
        return float(x)
    x = np.asarray(x, dtype=float)
    return x.reshape(x.shape + (1,) * (coeffs.ndim - 1))


def horner(scaled_coeffs, dx):
    """Evaluate sum_k scaled_coeffs[k] * dx^k by Horner's recurrence.

    dx may be a scalar or an array of evaluation points. Coefficients of
    shape (p+1,) or (p+1, n) give results of shape dx.shape or
    dx.shape + (n,); row s is bit-identical to the evaluation at dx[s]
    alone.
    """
    dx = _points(dx, scaled_coeffs)
    acc = scaled_coeffs[-1] + 0.0 * dx
    for k in range(scaled_coeffs.shape[0] - 2, -1, -1):
        acc = scaled_coeffs[k] + dx * acc
    return acc


def eval_taylor(basis, coeffs, mu):
    """Evaluate a Taylor series at mu: sum_k coeffs[k] (mu - mu0)^k / k!."""
    if basis.kind != TAYLOR:
        raise ValueError("eval_taylor requires a Taylor-basis series")
    return basis.evaluate(coeffs, mu)


def clenshaw_u(coeffs, s):
    """Evaluate sum_k coeffs[k] U_k(s) by the backward recurrence
    b_k = coeffs[k] + 2 s b_{k+1} - b_{k+2}; the result is b_0.

    s may be a scalar or an array of points, with coefficients of shape
    (p+1,) or (p+1, n), as in :func:`horner`.
    """
    s = _points(s, coeffs)
    two_s = 2.0 * s
    b1 = b2 = 0.0 * (coeffs[0] + 0.0 * two_s)
    for k in range(coeffs.shape[0] - 1, -1, -1):
        b1, b2 = coeffs[k] + two_s * b1 - b2, b1
    return b1


def eval_cheb_u(basis, coeffs, mu):
    """Evaluate a Chebyshev-U series at mu (extrapolation permitted)."""
    if basis.kind != CHEBYSHEV_U:
        raise ValueError("eval_cheb_u requires a Chebyshev-basis series")
    return basis.evaluate(coeffs, mu)


@functools.lru_cache(maxsize=32)
def binomial_table(p):
    """Pascal-recurrence binomial coefficients C[k, l] (zero for l > k);
    exact for k <= 56. Cached per p, so the array is read-only."""
    c = np.zeros((p + 1, p + 1))
    c[:, :1] = 1.0
    for k in range(1, p + 1):
        c[k, 1:] = c[k - 1, :-1] + c[k - 1, 1:]
    c.flags.writeable = False
    return c


def u_product_degrees(i, j):
    """Degrees appearing in U_i * U_j = U_{i+j} + U_{i+j-2} + ... + U_{|i-j|}.

    All coefficients are 1; the list has min(i, j) + 1 entries.
    """
    if i < 0 or j < 0:
        raise ValueError("degrees must be nonnegative")
    return list(range(i + j, abs(i - j) - 1, -2))


def u_values(s, pmax):
    """Table of U_0(s)..U_pmax(s) via the three-term recurrence.

    Returns an array of shape (pmax + 1,) + shape(s).
    """
    s = np.asarray(s, dtype=float)
    out = np.empty((pmax + 1,) + s.shape)
    out[0] = 1.0
    if pmax >= 1:
        out[1] = 2.0 * s
    for k in range(1, pmax):
        out[k + 1] = 2.0 * s * out[k] - out[k - 1]
    return out


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema: { "basis": {...}, "n": int, "p": int, "lambda": [[re, im], ...],
# "v": [[[re, im], ...], ...], "diagnostics": {...} }, coefficients nested one
# level deeper per tensor dimension. Every float is written as its shortest
# round-trip decimal, so round-trips are lossless.
# ---------------------------------------------------------------------------


def _basis_to_dict(basis):
    if basis.kind == TAYLOR:
        return {"kind": TAYLOR, "mu0": basis.mu0}
    return {"kind": CHEBYSHEV_U, "interval": [basis.interval[0], basis.interval[1]]}


def _basis_from_dict(doc):
    kind = doc.get("kind")
    if kind == TAYLOR:
        return SeriesBasis.taylor(doc["mu0"])
    if kind == CHEBYSHEV_U:
        mu1, mu2 = doc["interval"]
        return SeriesBasis.chebyshev(mu1, mu2)
    raise ValueError(f"unknown basis kind in document: {kind!r}")


def _re_im(arr):
    """The float64 [re, im] pairs of a contiguous complex128 array, shape
    arr.shape + (2,): a view of the array's own memory."""
    return arr.view(np.float64).reshape(arr.shape + (2,))


def _coeffs_from_nested(doc):
    doc = np.asarray(doc, dtype=float)
    if doc.shape[-1] != 2:
        raise ValueError("coefficient leaves must be [re, im] pairs")
    # [re, im] pairs are a complex array's memory layout; reinterpreting them
    # keeps every bit, where re + 1j * im would turn a -0.0 real part into 0.0
    return np.ascontiguousarray(doc).view(complex)[..., 0]


def _json_default(value):
    """orjson's fallback for a complex diagnostic: its [re, im] pair."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def non_finite_order(lam, vec):
    """The first order k at which lam[k] or an entry of vec[k] is not
    finite, or None when every coefficient is finite."""
    finite = np.isfinite(lam) & np.isfinite(vec).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def _encode(pair):
    """The eigenpair document as compact JSON bytes ending in a newline.

    orjson encodes the coefficients straight from their float64 [re, im]
    view, with no Python float or list built, and writes every non-finite
    diagnostic as null. Raises ValueError when a coefficient is not finite,
    since JSON has no such number.
    """
    order = non_finite_order(pair.lam, pair.vec)
    if order is not None:
        raise ValueError(f"cannot write a non-finite series coefficient (order {order})")
    doc = {
        "basis": _basis_to_dict(pair.basis),
        "n": pair.n,
        "p": pair.order,
        "lambda": _re_im(pair.lam),
        "v": _re_im(pair.vec),
        "diagnostics": pair.diagnostics,
    }
    options = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    return orjson.dumps(doc, default=_json_default, option=options)


def eigenpair_to_dict(pair):
    """The document :func:`save_eigenpair` writes for pair, as Python objects;
    a coefficient that is not finite raises the same ValueError."""
    return orjson.loads(_encode(pair))


def eigenpair_from_dict(doc):
    """The EigenPairSeries of an eigenpair document. Raises ValueError when
    the document's ``n`` or ``p`` disagrees with its coefficient arrays."""
    pair = EigenPairSeries(_basis_from_dict(doc["basis"]), _coeffs_from_nested(doc["lambda"]),
                           _coeffs_from_nested(doc["v"]), dict(doc.get("diagnostics", {})))
    if (doc["n"], doc["p"]) != (pair.n, pair.order):
        raise ValueError(f"header n={doc['n']}, p={doc['p']} disagrees with coefficients "
                         f"of n={pair.n}, p={pair.order}")
    return pair


def write_atomic(path, data):
    """Write data (bytes, or text as UTF-8 bytes, with no newline
    translation) to path.

    The bytes go to ``<name>.tmp`` beside path, which is then renamed onto
    path, so readers see the old file or the whole new one. If either step
    fails, the temp file is removed and the error propagates.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def save_eigenpair(pair, path):
    """Write one eigenpair as compact JSON (:func:`_encode`), atomically
    (:func:`write_atomic`). Raises ValueError, writing nothing, when a
    coefficient is not finite."""
    write_atomic(path, _encode(pair))


def load_eigenpair(path):
    """Read an eigenpair file. A file that is not an eigenpair document (bad
    JSON, a missing key, a value of the wrong type) raises ValueError naming
    the file."""
    data = Path(path).read_bytes()
    try:
        return eigenpair_from_dict(orjson.loads(data))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path} is not an eigenpair file: "
                         f"{type(exc).__name__}: {exc}") from exc
