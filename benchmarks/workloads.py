"""The three benchmark workloads: inputs drawn from a seed, one fixed op of
CLI commands, and the correctness check of each op's outputs.

An op is a round of ``eigenpath`` commands run in-process through
``eigenpath.cli.main``, each writing into its own directory. The check reads
what the op wrote and compares it with an oracle computed once per run,
outside the timed region. Expanded pairs must satisfy the eigenproblem
order by order, for every coefficient of lambda and v, and must match a
direct dense solve of A(probe) at a seed-drawn probe, where the truncation
error of the slowest-converging pair, not roundoff, sets the tolerance.
"""

import csv
import json
import math
import random

from dataclasses import dataclass, field

import numpy as np

from eigenpath.problems import builtin_problem

PAIR_FILE = "eigenpair_{:02d}.json"
HISTOGRAM_BINS = 50          # eigenpath.analysis.HISTOGRAM_BINS, restated as expected output
SAMPLE_METHODS = ("taylor-eval", "rayleigh", "direct")


@dataclass(frozen=True)
class Expansion:
    """One ``expand --eig all`` command and how its output is checked.

    At ``probe`` the series must match a direct dense solve of A(probe):
    ``|lam - lam_direct| <= lam_tol * (1 + |lam_direct|)`` and
    ``||A v - lam v|| <= vec_tol * ||v|| * (1 + |lam|)``. Each tolerance sits
    about ten times above the worst truncation error measured at the probe
    over seeds 1-40. The order-by-order identities (see ``order_residuals``)
    are checked for every coefficient, below ``identity_tol``.
    """

    problem: str
    n: int
    order: int
    method: str                  # "taylor" or "chebyshev"
    mu0: float = None
    interval: tuple = None
    probe: float = 0.0
    lam_tol: float = 0.0
    vec_tol: float = 0.0
    identity_tol: float = 0.0

    def argv(self, out):
        argv = ["expand", "--problem", self.problem, "--n", str(self.n),
                "--method", self.method, "--order", str(self.order), "--eig", "all"]
        if self.method == "taylor":
            argv += ["--mu0", repr(self.mu0)]
        else:
            argv += ["--interval", f"{self.interval[0]!r},{self.interval[1]!r}"]
        return argv + ["--out", str(out)]


@dataclass(frozen=True)
class ExpansionOracle:
    """What an expansion's output is checked against, computed once per run.

    ``coeffs`` are the coefficients of A(mu) in the expansion's basis: power
    series coefficients A^(k)(mu0) / k! from the problem's derivatives, or
    Chebyshev-U coefficients on the interval from a quadrature of A(mu)
    with its own node count.
    """

    direct: np.ndarray           # eigenvalues of A(probe)
    matrix: np.ndarray           # A(probe)
    coeffs: np.ndarray           # (p + 1, n, n)
    hermitian: bool


@dataclass
class CheckResult:
    """Outcome of checking one op. ``items`` counts delivered, verified work."""

    ok: bool = True
    pairs_attempted: int = 0
    pairs_failed: int = 0
    items: int = 0
    counts: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)

    def fail(self, message):
        self.ok = False
        self.messages.append(message)


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _signed(rng, lo, hi):
    return _uniform(rng, lo, hi) * (1.0 if rng.random() < 0.5 else -1.0)


def greedy_errors(approx, direct):
    """Match each approximation to a distinct direct value, closest first.

    Returns, per approximation, |approx - matched| / (1 + |matched|).
    """
    approx = np.asarray(approx, dtype=complex)
    direct = np.asarray(direct, dtype=complex)
    diffs = np.abs(approx[:, None] - direct[None, :])
    errors = np.full(approx.shape[0], np.inf)
    taken = np.zeros(direct.shape[0], dtype=bool)
    unmatched = min(approx.shape[0], direct.shape[0])
    for flat in np.argsort(diffs, axis=None, kind="stable"):
        i, j = divmod(int(flat), direct.shape[0])
        if np.isinf(errors[i]) and not taken[j]:
            errors[i] = diffs[i, j] / (1.0 + abs(direct[j]))
            taken[j] = True
            unmatched -= 1
            if not unmatched:
                break
    return errors


def u_values(s, p):
    """U_0(s) .. U_p(s), Chebyshev polynomials of the second kind, along axis 0."""
    s = np.asarray(s, dtype=float)
    values = [np.ones_like(s), 2.0 * s]
    for _ in range(p - 1):
        values.append(2.0 * s * values[-1] - values[-2])
    return np.array(values[: p + 1])


def cheb_u_matrix_coeffs(problem, interval, p, nodes=96):
    """Chebyshev-U coefficients of A(mu) on ``interval`` up to degree p, by
    Gauss-Chebyshev quadrature of the second kind."""
    theta = np.arange(1, nodes + 1) * np.pi / (nodes + 1)
    s = np.cos(theta)
    weights = np.sin(theta) ** 2 * (2.0 / (nodes + 1))
    lo, hi = interval
    samples = np.array([problem.eval_at(lo + (hi - lo) * (x + 1.0) / 2.0) for x in s], dtype=complex)
    return np.einsum("j,kj,jab->kab", weights, u_values(s, p), samples)


def _product_masks(method, p):
    """masks[k, i, j] = 1 where the product of basis terms i and j holds term k:
    i + j = k for powers, the U_i U_j = U_|i-j| + ... + U_(i+j) rule for Chebyshev."""
    k, i, j = np.ogrid[: p + 1, : p + 1, : p + 1]
    if method == "taylor":
        return (i + j == k).astype(float)
    return ((abs(i - j) <= k) & (k <= i + j) & ((i + j - k) % 2 == 0)).astype(float)


def order_residuals(method, a, lam, vec, hermitian):
    """Residuals of the equations every coefficient must satisfy, per pair.

    With ``a`` (p+1, n, n), ``lam`` (pairs, p+1) and ``vec`` (pairs, p+1, n)
    coefficients in one basis, term k of (A - lam) v and of v.v - 1 vanish
    for k = 0..p: exactly for a Taylor series (a Cauchy product), and as the
    Galerkin-truncated system the Chebyshev Newton solves. Dropping or
    corrupting any order of lam or v breaks them.

    Returns (eigen, norm), each (pairs, p+1). Taylor residuals are relative
    to the sizes of the terms summed; Chebyshev residuals are absolute, like
    Newton's own stopping rule, and scaled by 1 + max ||A_i||_F.
    """
    masks = _product_masks(method, a.shape[0] - 1)
    av = np.einsum("iab,qjb->qija", a, vec, optimize=True)
    lv = lam[:, :, None, None] * vec[:, None, :, :]
    eigen = np.linalg.norm(np.einsum("kij,qija->qka", masks, av - lv, optimize=True), axis=2)
    left = vec.conj() if hermitian and method == "taylor" else vec
    dots = np.einsum("qia,qja->qij", left, vec)
    norm = np.abs(np.einsum("kij,qij->qk", masks, dots) - (np.arange(masks.shape[0]) == 0))
    if method == "taylor":
        vsize = np.linalg.norm(vec, axis=2)
        asize = np.linalg.norm(a, axis=(1, 2))[None, :] + np.abs(lam)
        eigen = eigen / np.einsum("kij,qi,qj->qk", masks, asize, vsize)
        norm = norm / np.einsum("kij,qi,qj->qk", masks, vsize, vsize)
    else:
        scale = 1.0 + float(np.max(np.linalg.norm(a, axis=(1, 2))))
        eigen, norm = eigen / scale, norm / scale
    return eigen, norm


def evaluate(method, basis, coeffs, mu):
    """Sum of coefficients (along axis 0) times basis terms at mu: powers of
    mu - mu0 (coefficients already divided by k!) or U_k of the interval."""
    if method == "taylor":
        terms = (mu - basis["mu0"]) ** np.arange(coeffs.shape[0])
    else:
        lo, hi = basis["interval"]
        terms = u_values((2.0 * mu - hi - lo) / (hi - lo), coeffs.shape[0] - 1)
    return np.tensordot(terms, coeffs, axes=(0, 0))


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _complex(nested):
    array = np.asarray(nested, dtype=float)
    return array[..., 0] + 1j * array[..., 1]


class ExpandWorkload:
    """``expand --eig all`` on two problems per op; items are verified pairs."""

    def __init__(self, name, why, expansions):
        self.name = name
        self.why = why
        self._expansions = expansions

    def params(self, seed, tiny=False):
        return self._expansions(random.Random(f"{self.name}:{seed}"), tiny)

    def generate(self, params, inputs):
        """Nothing to write: an expand op's inputs are its command lines."""

    def oracle(self, params):
        out = {}
        for e in params:
            problem = builtin_problem(e.problem, e.n)
            matrix = np.asarray(problem.eval_at(e.probe), dtype=complex)
            if e.method == "taylor":
                derivs = np.asarray(problem.derivs_at(e.mu0, e.order), dtype=complex)
                coeffs = derivs / np.array([math.factorial(k) for k in range(e.order + 1)])[:, None, None]
            else:
                coeffs = cheb_u_matrix_coeffs(problem, e.interval, e.order)
            out[e.problem] = ExpansionOracle(np.linalg.eigvals(matrix), matrix, coeffs, problem.hermitian)
        return out

    def commands(self, params, inputs, opdir):
        return [e.argv(opdir / e.problem) for e in params]

    def check(self, params, oracle, opdir, codes):
        result = CheckResult(counts={"newton_iterations": 0})
        for e, code in zip(params, codes):
            if code != 0:
                result.fail(f"{e.problem}: exit code {code}")
            out = opdir / e.problem
            if not (out / "manifest.txt").is_file():
                result.fail(f"{e.problem}: manifest.txt missing")
            docs = []
            for index in range(1, e.n + 1):
                result.pairs_attempted += 1
                path = out / PAIR_FILE.format(index)
                try:
                    doc = json.loads(path.read_text(encoding="utf-8"))
                    lam, vec = _complex(doc["lambda"]), _complex(doc["v"])
                    if doc["n"] != e.n or doc["p"] != e.order or lam.shape != (e.order + 1,) \
                            or vec.shape != (e.order + 1, e.n):
                        raise ValueError(f"n={doc['n']} p={doc['p']} shapes {lam.shape} {vec.shape}")
                    docs.append((doc["basis"], lam, vec))
                    result.counts["newton_iterations"] += doc["diagnostics"].get("newton_iterations", 0)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    result.pairs_failed += 1
                    result.fail(f"{e.problem}: {path.name} unusable ({exc})")
            if docs:
                result.pairs_failed += self._check_pairs(e, oracle[e.problem], docs, result)
        result.items = result.pairs_attempted - result.pairs_failed
        return result

    @staticmethod
    def _check_pairs(e, oracle, docs, result):
        """Check the loaded pairs of one expansion; returns how many fail."""
        scale = 1.0 / np.array([math.factorial(k) for k in range(e.order + 1)]) \
            if e.method == "taylor" else np.ones(e.order + 1)
        lam = np.array([d[1] for d in docs]) * scale
        vec = np.array([d[2] for d in docs]) * scale[:, None]
        at_probe = [(evaluate(e.method, basis, l, e.probe), evaluate(e.method, basis, v, e.probe))
                    for (basis, _, _), l, v in zip(docs, lam, vec)]
        lam_probe = np.array([l for l, _ in at_probe])
        lam_err = greedy_errors(lam_probe, oracle.direct)
        vec_err = np.array([np.linalg.norm(oracle.matrix @ v - l * v) / (np.linalg.norm(v) * (1.0 + abs(l)))
                            for l, v in at_probe])
        eigen, norm = order_residuals(e.method, oracle.coeffs, lam, vec, oracle.hermitian)
        identity_err = np.maximum(eigen.max(axis=1), norm.max(axis=1))
        bad = ~((lam_err <= e.lam_tol) & (vec_err <= e.vec_tol) & (identity_err <= e.identity_tol))
        for label, errors, tol in (("eigenvalues", lam_err, e.lam_tol), ("eigenvectors", vec_err, e.vec_tol),
                                   ("order identities", identity_err, e.identity_tol)):
            off = int(np.sum(~(errors <= tol)))          # NaN counts as off
            if off:
                result.fail(f"{e.problem}: {off} {label} off by more than {tol:g} "
                            f"(worst {np.nanmax(errors):.2e}) at mu={e.probe!r}")
        return int(np.sum(bad))


# Check tolerances (lam_tol, vec_tol, identity_tol) per expansion, full
# size then tiny. The probe tolerances are about ten times the worst error
# measured over seeds 1-40 (1-10 for tiny), so the truncation error of the
# slowest-converging pair sets them. The identities hold to roundoff for
# Taylor (worst 1.0e-15, relative) and to Newton's stopping rule for
# Chebyshev (worst 9.6e-13 and 1.8e-13); dropping the top order of lam
# raises them to at least 5.0e-3 (Taylor) and 2.1e-7 (Chebyshev).
TOLERANCES = {
    "taylor_expand": (((7e-8, 6e-7, 1e-13), (6e-8, 6e-8, 1e-13)),
                      ((1.5e-8, 4e-8, 1e-13), (4e-4, 4e-4, 1e-13))),
    "cheb_expand": (((2.5e-6, 1.5e-5, 1e-11), (1.6e-4, 1.6e-4, 2e-12)),
                    ((1e-6, 1e-6, 1e-11), (3e-4, 3e-4, 2e-12))),
}


def _tolerances(workload, tiny):
    return [dict(zip(("lam_tol", "vec_tol", "identity_tol"), t)) for t in TOLERANCES[workload][tiny]]


def _taylor_expansions(rng, tiny):
    # Spring chain (non-Hermitian, triangular Schur path) and torus
    # (Hermitian, diagonal Schur path). The torus has near-double
    # eigenvalues from n = 24 up (a gap of 1e-7 at mu = 0.5), which leave
    # its series no radius to converge in; n >= 64 is rejected as non-simple.
    mu_a = _uniform(rng, 0.95, 1.05)
    mu_b = _uniform(rng, 0.45, 0.55)
    off_a = _signed(rng, 0.01, 0.015)
    off_b = _signed(rng, 0.06, 0.08)
    (n_a, p_a), (n_b, p_b) = ((8, 4), (6, 4)) if tiny else ((32, 6), (16, 8))
    tol_a, tol_b = _tolerances("taylor_expand", tiny)
    return (
        Expansion("example2", n_a, p_a, "taylor", mu0=mu_a, probe=mu_a + off_a, **tol_a),
        Expansion("example1", n_b, p_b, "taylor", mu0=mu_b, probe=mu_b + off_b, **tol_b),
    )


def _cheb_probe(rng, interval, p):
    """A point in the middle of the interval where |U_p| = 1 / sin(theta) >= 1."""
    theta = (rng.randrange(2, p - 1) + 0.5) * math.pi / (p + 1)
    lo, hi = interval
    return lo + (hi - lo) * (math.cos(theta) + 1.0) / 2.0


def _cheb_expansions(rng, tiny):
    # Intervals keep every pair simple and convergent without collisions.
    interval_a = (0.8 + _signed(rng, 0.0, 0.03), 1.2 + _signed(rng, 0.0, 0.03))
    shift = _signed(rng, 0.0, 0.03)
    interval_b = (0.25 + shift, 1.0 + shift)
    n, p = (4, 6) if tiny else (8, 7)
    tol_a, tol_b = _tolerances("cheb_expand", tiny)
    return (
        Expansion("example2", n, p, "chebyshev", interval=interval_a,
                  probe=_cheb_probe(rng, interval_a, p), **tol_a),
        Expansion("example1", n, p, "chebyshev", interval=interval_b,
                  probe=_cheb_probe(rng, interval_b, p), **tol_b),
    )


@dataclass(frozen=True)
class SampleParams:
    n: int
    order: int
    mu0: float
    stddev: float
    count: int
    sample_seed: int
    grid: tuple                  # (a, b, count) for report --grid
    report_pairs: int            # series files eigenpair_01.. used by report
    rayleigh_tol: float          # Rayleigh values against direct ones (sample and report)
    sample_tol: float            # taylor-eval samples against direct ones
    report_tol: float            # report's series eigenvalue errors on the grid


class SampleReportWorkload:
    """``sample`` with three methods, then ``report`` on series from set-up.

    Items are Monte-Carlo samples delivered, summed over methods. Pairs are
    the two tracked pairs (Rayleigh against direct, every sample) plus the
    report's pairs (every grid row within tolerance).
    """

    name = "sample_report"
    why = ("eigen_all at n=12 runs 353 times per op (39 % of op time), against twice per op at "
           "n=32 and 16 in taylor_expand; series evaluation 27 %")

    def params(self, seed, tiny=False):
        rng = random.Random(f"{self.name}:{seed}")
        mu0 = _uniform(rng, 0.45, 0.55)
        sample_seed = rng.randrange(2**31)
        if tiny:
            return SampleParams(8, 6, mu0, 0.02, 20, sample_seed, (mu0 - 0.04, mu0 + 0.04, 5), 2,
                                2e-14, 1e-6, 1e-6)
        # Tolerances: about ten times the worst over seeds 1-40 (1.8e-15,
        # 1.2e-8 at the Gaussian's tails, 4.0e-11).
        return SampleParams(12, 8, mu0, 0.02, 250, sample_seed, (mu0 - 0.04, mu0 + 0.04, 51), 3,
                            2e-14, 1.2e-7, 4e-10)

    def _series_argv(self, params, out):
        return ["expand", "--problem", "example1", "--n", str(params.n), "--method", "taylor",
                "--mu0", repr(params.mu0), "--order", str(params.order), "--eig", "all",
                "--out", str(out)]

    def generate(self, params, inputs):
        """Write the series files the report command reads."""
        from eigenpath.cli import main

        code = main(self._series_argv(params, inputs / "series"))
        if code != 0:
            raise RuntimeError(f"set-up expansion failed with exit code {code}")

    def oracle(self, params):
        return None

    def commands(self, params, inputs, opdir):
        a, b, count = params.grid
        series = [str(inputs / "series" / PAIR_FILE.format(i)) for i in range(1, params.report_pairs + 1)]
        return [
            ["sample", "--problem", "example1", "--n", str(params.n),
                        "--mu0", repr(params.mu0), "--order", str(params.order), "--pairs", "2,3",
                        "--dist", f"{params.mu0!r},{params.stddev!r}", "--count", str(params.count),
                        "--seed", str(params.sample_seed), "--method", ",".join(SAMPLE_METHODS),
                        "--out", str(opdir / "sample")],
            ["report", "--problem", "example1", "--n", str(params.n), "--series", *series,
                        "--grid", f"{a!r},{b!r},{count}", "--metrics", "eig-error,vec-deviation,rayleigh",
                        "--out", str(opdir / "report")],
        ]

    def check(self, params, oracle, opdir, codes):
        result = CheckResult()
        for label, code in zip(("sample", "report"), codes):
            if code != 0:
                result.fail(f"{label}: exit code {code}")
        self._check_sample(params, opdir / "sample", result)
        self._check_report(params, opdir / "report", result)
        return result

    def _check_sample(self, params, out, result):
        tracked = 2
        result.pairs_attempted += tracked
        try:
            rows = _csv_rows(out / "samples.csv")
            histogram = _csv_rows(out / "histogram.csv")
            timing = _csv_rows(out / "timing.csv")
        except OSError as exc:
            result.pairs_failed += tracked
            result.fail(f"sample: output missing ({exc})")
            return
        expected = (params.count, tracked * HISTOGRAM_BINS, len(SAMPLE_METHODS))
        if (len(rows), len(histogram), len(timing)) != expected:
            result.pairs_failed += tracked
            result.fail(f"sample: row counts {(len(rows), len(histogram), len(timing))} != {expected}")
            return
        for i in range(tracked):
            value = {method: np.array([complex(float(r[f"re_{method}_pair{i}"]), float(r[f"im_{method}_pair{i}"]))
                                       for r in rows]) for method in SAMPLE_METHODS}
            direct = value["direct"]
            ok = True
            for method, tol in (("rayleigh", params.rayleigh_tol), ("taylor-eval", params.sample_tol)):
                worst = float(np.max(np.abs(value[method] - direct) / (1.0 + np.abs(direct))))
                if not worst <= tol:
                    ok = False
                    result.fail(f"sample: pair {i} {method} vs direct off by {worst:.2e} > {tol:g}")
            result.pairs_failed += not ok
        result.items = params.count * len(SAMPLE_METHODS)

    def _check_report(self, params, out, result):
        result.pairs_attempted += params.report_pairs
        try:
            rows = _csv_rows(out / "report.csv")
        except OSError as exc:
            result.pairs_failed += params.report_pairs
            result.fail(f"report: output missing ({exc})")
            return
        if len(rows) != params.grid[2] * params.report_pairs:
            result.pairs_failed += params.report_pairs
            result.fail(f"report: {len(rows)} rows, expected {params.grid[2] * params.report_pairs}")
            return
        for i in range(params.report_pairs):
            mine = [r for r in rows if int(r["pair_index"]) == i]
            ok = True
            for column, tol in (("abs_err_lambda", params.report_tol), ("abs_err_rayleigh", params.rayleigh_tol)):
                worst = max(float(r[column]) for r in mine)
                if not worst <= tol:
                    ok = False
                    result.fail(f"report: pair {i} {column} {worst:.2e} > {tol:g}")
            result.pairs_failed += not ok


WORKLOADS = {
    w.name: w
    for w in (
        ExpandWorkload(
            "taylor_expand",
            "Taylor order loop at n=32 and 16 (reduced bordered solves 32 % of op time) and JSON "
            "writing of every pair (50 %); Chebyshev and analysis do no work",
            _taylor_expansions,
        ),
        ExpandWorkload(
            "cheb_expand",
            "Chebyshev Newton at n=8, p=7: coupled residual 34 % and Jacobian 32 % of op time, its LU "
            "step 8 %; Taylor warm start 3 %, output 1 %",
            _cheb_expansions,
        ),
        SampleReportWorkload(),
    )
}
