"""Built-in parametric problems and user-defined problems from config files.

A ParametricProblem bundles a matrix evaluator A(mu) with exact per-order
derivative matrices at a point. The three built-ins:

* torus kernel: entrywise exponential of a pairwise-distance matrix for
  points coiled twice around a torus (symmetric positive definite for mu>0);
* spring chain: masses connected with unit springs, the middle two of mass
  mu, folded into the standard form M(mu)^-1 K (not symmetric);
* Jordan block: ones on the diagonal and superdiagonal with mu in the lower
  left corner, whose eigenvalues are the roots of (lambda-1)^n = mu.
"""

import json

import numpy as np

from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, DomainError, ExpressionError, NumericalError
from .expressions import eval_expr, parse_expression, taylor_arith_eval
from .linalg import overflow_reported, working_dtype
from .series import float_factorial

@dataclass(frozen=True)
class ParametricProblem:
    """A parametric matrix A(mu) with exact derivative matrices.

    ``eval_at(mu)`` returns A at a point, (n, n), or at an array of points,
    mu's shape + (n, n), each slice bit-identical to A at its point alone
    (:func:`pointwise` lifts a one-point evaluator to this). ``derivs_at(mu0,
    p)`` returns the stack A_0..A_p of derivative values (not series
    coefficients): A_k[i, j] = d^k A_ij / d mu^k at mu0, so A_0 equals
    eval_at(mu0). The evaluators raise DomainError where A(mu) is
    undefined; no other domain is stored or enforced. The eigensolves reject
    ``hermitian`` on an A that is not Hermitian. A config problem is
    ``hermitian`` when its entries mirror each other; a config file's
    ``name`` and ``hermitian`` keys are ignored like any unknown key, and its
    ``mu_domain`` is validated but not stored (:func:`problem_from_config`).
    """

    n: int
    eval_at: Callable
    derivs_at: Callable
    hermitian: bool = False


def check_finite_at(mus, rows, what):
    """Raise NumericalError naming ``what`` and the first of ``mus`` whose
    row of ``rows`` (one row per point) is not all finite."""
    bad = np.flatnonzero(~np.isfinite(rows.reshape(len(mus), -1)).all(axis=1))
    if bad.size:
        raise NumericalError(f"{what} is not finite at mu={mus[bad[0]]:.17g}")


def pointwise(eval_one):
    """Lift ``eval_one``, A at one point, to the ``eval_at`` contract: an
    array of points is evaluated one point at a time, in order."""

    def eval_at(mu):
        if not np.ndim(mu):
            return eval_one(mu)
        mu = np.asarray(mu)
        a = np.stack([eval_one(point) for point in mu.reshape(-1)])
        return a.reshape(mu.shape + a.shape[1:])

    return eval_at


@overflow_reported()
def matrix_stack(problem, mus, context):
    """The stack A(mu_0), A(mu_1), ... (m, n, n) of one ``problem.eval_at``
    call, float64 when every A(mu) is real (so its eigensolve may run in real
    arithmetic), else complex128. Raises NumericalError naming ``context``
    and the first mu where A(mu) is not finite, with no numpy warning."""
    mus = np.asarray(mus, dtype=float)
    a = np.asarray(problem.eval_at(mus))
    a = np.asarray(a, dtype=working_dtype(a))
    check_finite_at(mus, a, f"{context}: A(mu)")
    return a


def make_torus_kernel(n):
    """Distance-kernel problem: A(mu) = exp(-mu * U) entrywise.

    The n points sit on a line coiled twice around a torus; U holds their
    pairwise distances. A(0) is the all-ones matrix and trace A(mu) = n for
    every mu since the diagonal of U is zero.
    """
    if n < 2:
        raise ValueError("torus kernel needs n >= 2")
    theta = np.arange(1, n + 1) / n
    pts = np.column_stack(
        (
            np.cos(2 * np.pi * theta) * (5 + np.cos(4 * np.pi * theta)),
            np.sin(2 * np.pi * theta) * (5 + np.cos(4 * np.pi * theta)),
            np.sin(4 * np.pi * theta),
        )
    )
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)

    def eval_at(mu):
        return np.exp(-np.asarray(mu, dtype=float)[..., None, None] * dist)

    def derivs_at(mu0, p):
        # d^k/dmu^k exp(-mu U) = (-U)^k exp(-mu U), entrywise, as a running
        # product: one multiply per order rather than a float power
        derivs = np.empty((p + 1, n, n))
        derivs[0] = np.exp(-mu0 * dist)
        for k in range(1, p + 1):
            derivs[k] = derivs[k - 1] * (-dist)
        return derivs

    return ParametricProblem(n=n, eval_at=eval_at, derivs_at=derivs_at, hermitian=True)


def make_spring_chain(n):
    """Mass-spring chain with two middle masses mu: A(mu) = M(mu)^-1 K.

    Only the two middle rows of A depend on mu (scaled by 1/mu); all other
    rows equal the corresponding rows of the stiffness matrix K.
    """
    if n < 4 or n % 2:
        raise ValueError("spring chain needs even n >= 4")
    k_mat = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rows = (n // 2 - 1, n // 2)

    def eval_at(mu):
        mu = np.asarray(mu, dtype=float)
        if np.any(mu == 0.0):
            raise DomainError("spring chain is undefined at mu = 0")
        a = np.broadcast_to(k_mat, mu.shape + (n, n)).copy()
        a[..., rows, :] /= mu[..., None, None]
        return a

    def derivs_at(mu0, p):
        derivs = np.zeros((p + 1, n, n))
        derivs[0] = eval_at(mu0)  # a DomainError at mu0 = 0
        for k in range(1, p + 1):
            # a numpy power or k! past 170 overflows to inf; the caller reports it
            factor = (-1.0) ** k * float_factorial(k) * np.float64(mu0) ** (-(k + 1))
            derivs[k][rows, :] = factor * k_mat[rows, :]
        return derivs

    return ParametricProblem(n=n, eval_at=eval_at, derivs_at=derivs_at)


def make_jordan(n):
    """Jordan block with parameter mu in the lower left corner.

    Defective at mu = 0; the eigenvalue paths follow the n-th roots of mu
    shifted by 1 (see :func:`jordan_eigenvalues`).
    """
    if n < 2:
        raise ValueError("Jordan problem needs n >= 2")
    base = np.eye(n) + np.eye(n, k=1)

    def eval_at(mu):
        mu = np.asarray(mu, dtype=float)
        a = np.broadcast_to(base, mu.shape + (n, n)).copy()
        a[..., n - 1, 0] = mu
        return a

    def derivs_at(mu0, p):
        derivs = np.zeros((p + 1, n, n))
        derivs[0] = eval_at(mu0)
        if p >= 1:
            derivs[1][n - 1, 0] = 1.0
        return derivs

    return ParametricProblem(n=n, eval_at=eval_at, derivs_at=derivs_at)


def jordan_eigenvalues(n, mu):
    """Analytic eigenvalues of the Jordan problem: roots of (lambda-1)^n = mu.

    Uses the principal branch of mu^(1/n) times the n-th roots of unity; for
    mu > 0 this gives points on a circle of radius mu^(1/n) around 1.
    """
    if mu == 0:
        return np.ones(n, dtype=complex)
    radical = complex(mu) ** (1.0 / n)
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    return 1.0 + radical * omega


_BUILTINS = {
    "example1": make_torus_kernel,
    "example2": make_spring_chain,
    "example3": make_jordan,
}


def builtin_problem(name, n):
    if name not in _BUILTINS:
        raise ValueError(f"unknown built-in problem {name!r}")
    return _BUILTINS[name](n)


# ---------------------------------------------------------------------------
# Config-defined problems. Schema (JSON, 1-based indices):
#
#   {
#     "n": 2,
#     "mu_domain": [0.0, null],              optional; validated, not stored
#     "entries": {"dense": ["expr", ... n*n row-major]}
#                or {"sparse": [[row, col, "expr"], ...]}
#   }
#
# Other keys, "name" and "hermitian" among them, are ignored; the problem is
# Hermitian when its entries mirror each other. See docs/problem-config.md
# for the full description.
# ---------------------------------------------------------------------------


def _parse_entry(i, j, text):
    if not isinstance(text, str):
        raise ConfigError(f"entry ({i}, {j}): expression must be a string")
    try:
        return "".join(text.split()), parse_expression(text)
    except ExpressionError as exc:
        raise ConfigError(f"entry ({i}, {j}): {exc}") from exc


def _load_entries(doc, n):
    """The listed entries as {(row, col): (text without whitespace, tree)},
    0-based, in file order."""
    entries = doc.get("entries")
    if not isinstance(entries, dict) or len(entries) != 1:
        raise ConfigError("config needs an 'entries' object with 'dense' or 'sparse'")
    if "dense" in entries:
        flat = entries["dense"]
        if not isinstance(flat, list) or len(flat) != n * n:
            raise ConfigError(f"dense entry list must have n*n = {n * n} expressions")
        return {(i, j): _parse_entry(i + 1, j + 1, flat[i * n + j])
                for i in range(n) for j in range(n)}
    if "sparse" in entries:
        triplets = entries["sparse"]
        if not isinstance(triplets, list):
            raise ConfigError("sparse entries must be a list of [row, col, expr]")
        out = {}
        for item in triplets:
            if not (isinstance(item, list) and len(item) == 3):
                raise ConfigError("sparse entries must be [row, col, expr] triplets")
            i, j, text = item
            if not (type(i) is int and type(j) is int and 1 <= i <= n and 1 <= j <= n):
                raise ConfigError(f"entry ({i}, {j}): indices must be 1-based in 1..{n}")
            if (i - 1, j - 1) in out:
                raise ConfigError(f"entry ({i}, {j}): duplicate")
            out[i - 1, j - 1] = _parse_entry(i, j, text)
        return out
    raise ConfigError("entries must contain exactly one of 'dense' or 'sparse'")


def problem_from_config(path):
    """Build a ParametricProblem from a JSON config file."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError("config JSON is nested too deeply")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    # type(), not isinstance(): a JSON true is a Python bool, which is an int
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise ConfigError("config needs a positive integer 'n'")
    # mu_domain is validated but not kept; stdlib json reads NaN and Infinity
    # as floats, so a bound must be finite too
    domain = doc.get("mu_domain")
    if not (domain is None or (isinstance(domain, list) and len(domain) == 2
            and all(bound is None or type(bound) is int
                    or (type(bound) is float and np.isfinite(bound)) for bound in domain))):
        raise ConfigError("mu_domain must be null or a [lo, hi] pair of finite numbers or nulls")
    parsed = _load_entries(doc, n)
    # Real expressions of equal text have equal values at every mu. Texts, not
    # trees, are compared: == on a tree recurses, past the limit on long sums.
    hermitian = all(parsed.get((j, i), (None,))[0] == text for (i, j), (text, _) in parsed.items())

    def fill(out, evaluate, point, mu):
        """out[i, j] = evaluate(node, mu) for each entry; an error names the entry."""
        for (i, j), (_, node) in parsed.items():
            try:
                out[i, j] = evaluate(node, mu)
            except DomainError as exc:
                raise DomainError(f"entry ({i + 1}, {j + 1}) at {point}={mu}: {exc}") from exc
            except RecursionError:
                raise ConfigError(f"entry ({i + 1}, {j + 1}): expression nested too deeply")
        return out

    def eval_one(mu):
        return fill(np.zeros((n, n)), eval_expr, "mu", mu)

    def derivs_at(mu0, p):
        derivs = np.zeros((p + 1, n, n))
        # a view whose entry (i, j) is the derivative column derivs[:, i, j]
        fill(np.moveaxis(derivs, 0, -1), lambda node, mu: taylor_arith_eval(node, mu, p),
             "mu0", mu0)
        return derivs

    return ParametricProblem(n=n, eval_at=pointwise(eval_one), derivs_at=derivs_at,
                             hermitian=hermitian)
