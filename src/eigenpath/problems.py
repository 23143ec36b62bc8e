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
import math

import numpy as np

from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, DomainError, ExpressionError
from .expressions import eval_expr, parse_expression, taylor_arith_eval

# Central finite-difference step per derivative order, balancing truncation
# against roundoff for the 1e-5 relative self-test tolerance.
_FD_STEPS = {1: 1e-5, 2: 1e-4, 3: 5e-4}


@dataclass(frozen=True)
class ParametricProblem:
    """A parametric matrix A(mu) with exact derivative matrices.

    ``derivs_at(mu0, p)`` returns the stack A_0..A_p of derivative values
    (not series coefficients): A_k[i, j] = d^k A_ij / d mu^k at mu0, so
    A_0 equals eval_at(mu0). ``domain`` is advisory; the evaluators raise
    DomainError where A(mu) is genuinely undefined.
    """

    name: str
    n: int
    eval_at: Callable
    derivs_at: Callable
    hermitian: bool = False
    domain: tuple = (None, None)

    def finite_difference_derivs(self, mu0, max_order=3):
        """Central finite differences of eval_at, orders 1..max_order."""
        out = {}
        for k in range(1, max_order + 1):
            h = _FD_STEPS[k]
            if k == 1:
                fd = (self.eval_at(mu0 + h) - self.eval_at(mu0 - h)) / (2 * h)
            elif k == 2:
                fd = (
                    self.eval_at(mu0 + h) - 2 * self.eval_at(mu0) + self.eval_at(mu0 - h)
                ) / h**2
            else:
                fd = (
                    self.eval_at(mu0 + 2 * h)
                    - 2 * self.eval_at(mu0 + h)
                    + 2 * self.eval_at(mu0 - h)
                    - self.eval_at(mu0 - 2 * h)
                ) / (2 * h**3)
            out[k] = fd
        return out

    def check_derivatives(self, mu0, max_order=3):
        """Self-test hook: max relative mismatch of derivs_at vs differences."""
        derivs = self.derivs_at(mu0, max_order)
        fds = self.finite_difference_derivs(mu0, max_order)
        worst = 0.0
        for k, fd in fds.items():
            scale = max(1.0, float(np.linalg.norm(derivs[k])))
            worst = max(worst, float(np.linalg.norm(derivs[k] - fd)) / scale)
        return worst


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
        return np.exp(-mu * dist)

    def derivs_at(mu0, p):
        base = np.exp(-mu0 * dist)
        return np.stack([(-dist) ** k * base for k in range(p + 1)])

    return ParametricProblem(
        name="example1",
        n=n,
        eval_at=eval_at,
        derivs_at=derivs_at,
        hermitian=True,
        domain=(0.0, None),
    )


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
        if mu == 0.0:
            raise DomainError("spring chain is undefined at mu = 0")
        a = k_mat.copy()
        a[rows, :] /= mu
        return a

    def derivs_at(mu0, p):
        if mu0 == 0.0:
            raise DomainError("spring chain is undefined at mu = 0")
        derivs = np.zeros((p + 1, n, n))
        derivs[0] = eval_at(mu0)
        for k in range(1, p + 1):
            factor = (-1.0) ** k * math.factorial(k) * mu0 ** (-(k + 1))
            derivs[k][rows, :] = factor * k_mat[rows, :]
        return derivs

    return ParametricProblem(
        name="example2",
        n=n,
        eval_at=eval_at,
        derivs_at=derivs_at,
        hermitian=False,
    )


def make_jordan(n):
    """Jordan block with parameter mu in the lower left corner.

    Defective at mu = 0; the eigenvalue paths follow the n-th roots of mu
    shifted by 1 (see :func:`jordan_eigenvalues`).
    """
    if n < 2:
        raise ValueError("Jordan problem needs n >= 2")
    base = np.eye(n) + np.eye(n, k=1)

    def eval_at(mu):
        a = base.copy()
        a[n - 1, 0] = mu
        return a

    def derivs_at(mu0, p):
        derivs = np.zeros((p + 1, n, n))
        derivs[0] = eval_at(mu0)
        if p >= 1:
            derivs[1][n - 1, 0] = 1.0
        return derivs

    return ParametricProblem(
        name="example3",
        n=n,
        eval_at=eval_at,
        derivs_at=derivs_at,
        hermitian=False,
    )


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
#     "name": "short identifier",            optional
#     "n": 2,
#     "hermitian": false,                    optional
#     "mu_domain": [0.0, null],              optional advisory bounds
#     "entries": {"dense": ["expr", ... n*n row-major]}
#                or {"sparse": [[row, col, "expr"], ...]}
#   }
#
# See docs/problem-config.md for the full description.
# ---------------------------------------------------------------------------


def _parse_entry(i, j, text):
    if not isinstance(text, str):
        raise ConfigError(f"entry ({i}, {j}): expression must be a string")
    try:
        return parse_expression(text)
    except ExpressionError as exc:
        raise ConfigError(f"entry ({i}, {j}): {exc}") from exc


def _load_entries(doc, n):
    entries = doc.get("entries")
    if not isinstance(entries, dict) or len(entries) != 1:
        raise ConfigError("config needs an 'entries' object with 'dense' or 'sparse'")
    if "dense" in entries:
        flat = entries["dense"]
        if not isinstance(flat, list) or len(flat) != n * n:
            raise ConfigError(f"dense entry list must have n*n = {n * n} expressions")
        return [
            (i, j, _parse_entry(i + 1, j + 1, flat[i * n + j]))
            for i in range(n)
            for j in range(n)
        ]
    if "sparse" in entries:
        triplets = entries["sparse"]
        if not isinstance(triplets, list):
            raise ConfigError("sparse entries must be a list of [row, col, expr]")
        out = []
        seen = set()
        for item in triplets:
            if not (isinstance(item, list) and len(item) == 3):
                raise ConfigError("sparse entries must be [row, col, expr] triplets")
            i, j, text = item
            if not (isinstance(i, int) and isinstance(j, int) and 1 <= i <= n and 1 <= j <= n):
                raise ConfigError(f"entry ({i}, {j}): indices must be 1-based in 1..{n}")
            if (i, j) in seen:
                raise ConfigError(f"entry ({i}, {j}): duplicate")
            seen.add((i, j))
            out.append((i - 1, j - 1, _parse_entry(i, j, text)))
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
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    # type(), not isinstance(): a JSON true is a Python bool, which is an int
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise ConfigError("config needs a positive integer 'n'")
    name = doc.get("name", "config")
    hermitian = doc.get("hermitian", False)
    if not isinstance(hermitian, bool):
        raise ConfigError("hermitian must be true or false")
    domain = doc.get("mu_domain")
    if domain is None:
        domain = [None, None]
    if not (isinstance(domain, list) and len(domain) == 2
            and all(bound is None or type(bound) in (int, float) for bound in domain)):
        raise ConfigError("mu_domain must be null or a [lo, hi] pair of numbers or nulls")
    parsed = _load_entries(doc, n)

    def eval_at(mu):
        a = np.zeros((n, n))
        for i, j, node in parsed:
            try:
                a[i, j] = eval_expr(node, mu)
            except DomainError as exc:
                raise DomainError(f"entry ({i + 1}, {j + 1}) at mu={mu}: {exc}") from exc
        return a

    def derivs_at(mu0, p):
        derivs = np.zeros((p + 1, n, n))
        for i, j, node in parsed:
            try:
                derivs[:, i, j] = taylor_arith_eval(node, mu0, p)
            except DomainError as exc:
                raise DomainError(f"entry ({i + 1}, {j + 1}) at mu0={mu0}: {exc}") from exc
        return derivs

    return ParametricProblem(
        name=name,
        n=n,
        eval_at=eval_at,
        derivs_at=derivs_at,
        hermitian=hermitian,
        domain=tuple(domain),
    )
