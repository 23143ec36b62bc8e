"""The arithmetic rule: a real problem with a real spectrum (at mu0 for
Taylor, at every quadrature node for Chebyshev) expands in float64 (Schur
factors, the Taylor order loop, Newton's residuals, Jacobians and LUs); a
complex spectrum or complex input runs in complex128. On the same numbers
the two paths agree to rounding."""

import dataclasses
import json

from pathlib import Path

import numpy as np
import pytest

from eigenpath import (
    cheb_expand_all,
    eigen_all,
    eigenvalues,
    expansion_series,
    make_jordan,
    make_spring_chain,
    make_torus_kernel,
    problem_from_config,
    taylor_expand_all,
)
from eigenpath import chebyshev, taylor

JORDAN_N2 = Path(__file__).resolve().parent.parent / "configs" / "example_jordan_n2.json"


@pytest.fixture
def dtypes(monkeypatch):
    """Record the dtypes of the Schur factors the Taylor kernel reads and of
    every block of Newton residuals and Jacobians (a pair whose start meets
    the tolerance takes no step, so no Jacobian)."""
    seen = {"schur": set(), "newton": set()}
    kernel = taylor.expand_schur

    def expand_schur(derivs, decomp, *args, **kwargs):
        seen["schur"] |= {decomp.schur_q.dtype, decomp.schur_t.dtype}
        return kernel(derivs, decomp, *args, **kwargs)

    def recording(method):
        def record(system, x):
            out = method(system, x)
            seen["newton"].add(out.dtype)
            return out
        return record

    monkeypatch.setattr(taylor, "expand_schur", expand_schur)
    for name in ("residuals", "jacobians"):
        method = getattr(chebyshev._CoupledSystem, name)
        monkeypatch.setattr(chebyshev._CoupledSystem, name, recording(method))
    return seen


def rotation_config(tmp_path):
    """A rotation by mu, stretched by s = sqrt(4 + mu) so that its
    eigenvectors [1, -+i s] are not isotropic (v^T v = -3 - mu) and move
    with mu: eigenvalues 2 cos mu +- i s sin mu."""
    path = tmp_path / "rotation.json"
    entries = ["2 * cos(mu)", "-sin(mu)", "(4 + mu) * sin(mu)", "2 * cos(mu)"]
    path.write_text(json.dumps({"name": "rotation", "n": 2, "entries": {"dense": entries}}))
    return problem_from_config(path)


def expand_both(problem, mu0, interval, order):
    taylor_pairs = expansion_series(taylor_expand_all(problem, mu0, order))
    cheb_pairs = expansion_series(cheb_expand_all(problem, interval, order))
    assert taylor_pairs and cheb_pairs
    return taylor_pairs + cheb_pairs


@pytest.mark.parametrize("make, mu0, interval", [
    (make_torus_kernel, 0.2, (0.25, 1.0)),
    (make_spring_chain, 0.8, (0.8, 1.2)),
], ids=["torus", "spring"])
def test_real_problems_with_a_real_spectrum_take_the_real_path(dtypes, make, mu0, interval):
    expand_both(make(8), mu0, interval, 5)
    assert dtypes == {"schur": {np.dtype(np.float64)}, "newton": {np.dtype(np.float64)}}


@pytest.mark.parametrize("case", ["example3", "jordan-n2", "rotation"])
def test_complex_spectra_take_the_complex_path(dtypes, tmp_path, case):
    if case == "example3":
        pairs = expand_both(make_jordan(8), 0.3, (0.1, 0.5), 8)
    elif case == "jordan-n2":
        # eigenvalues 1 +- 0.5i at mu = -0.25
        pairs = expand_both(problem_from_config(JORDAN_N2), -0.25, (-0.3, -0.2), 6)
    else:
        pairs = expand_both(rotation_config(tmp_path), 0.5, (0.4, 0.6), 6)
    assert dtypes == {"schur": {np.dtype(complex)}, "newton": {np.dtype(complex)}}
    assert max(abs(pair.lam[0].imag) for pair in pairs) > 0.1


def test_jordan_n2_config_is_real_where_its_spectrum_is(dtypes):
    # eigenvalues 1 +- 0.5 at mu = 0.25
    expand_both(problem_from_config(JORDAN_N2), 0.25, (0.2, 0.3), 6)
    assert dtypes == {"schur": {np.dtype(np.float64)}, "newton": {np.dtype(np.float64)}}


def as_complex(problem):
    """The same problem with A(mu) and its derivatives handed over as
    complex128, which forces the complex path on the same numbers."""
    return dataclasses.replace(
        problem,
        eval_at=lambda mu: np.asarray(problem.eval_at(mu), dtype=complex),
        derivs_at=lambda mu0, p: np.asarray(problem.derivs_at(mu0, p), dtype=complex),
    )


def coefficient_changes(pairs, reference):
    """Largest change of lambda and of v over all orders, each order's change
    relative to its largest |coefficient| over all pairs; every pair's v is
    first given the sign that matches the reference at order 0."""
    lam = np.array([pair.lam for pair in pairs])
    lam_ref = np.array([pair.lam for pair in reference])
    vec = np.array([pair.vec for pair in pairs])
    vec_ref = np.array([pair.vec for pair in reference])
    signs = np.sign(np.einsum("ia,ia->i", vec_ref[:, 0].conj(), vec[:, 0]).real)
    vec = vec * signs[:, None, None]

    def change(x, ref):
        axes = tuple(a for a in range(x.ndim) if a != 1)
        return float(np.max(np.abs(x - ref).max(axis=axes) / np.abs(ref).max(axis=axes)))

    return change(lam, lam_ref), change(vec, vec_ref)


def test_real_and_complex_taylor_agree_on_the_spring_chain():
    problem = make_spring_chain(12)
    real, cast = (expansion_series(taylor_expand_all(p, 0.8, 8))
                  for p in (problem, as_complex(problem)))
    assert len(real) == len(cast) == 12
    assert real[0].lam.dtype == complex   # series keep their complex layout
    lam_change, vec_change = coefficient_changes(real, cast)
    assert lam_change <= 1e-11 and vec_change <= 1e-11


def test_real_and_complex_chebyshev_agree_on_the_spring_chain():
    problem = make_spring_chain(8)
    real, cast = (expansion_series(cheb_expand_all(p, (0.8, 1.2), 7))
                  for p in (problem, as_complex(problem)))
    assert len(real) == len(cast) == 8
    iterations = [[pair.diagnostics["newton_iterations"] for pair in pairs] for pairs in (real, cast)]
    assert iterations[0] == iterations[1]
    lam_change, vec_change = coefficient_changes(real, cast)
    assert lam_change <= 1e-12 and vec_change <= 1e-12


def test_real_and_complex_taylor_eigenvalues_agree_on_the_torus():
    # The torus's eigenvector coefficients amplify rounding by its small
    # gaps (1.4e-3 here), so only lambda is compared.
    problem = make_torus_kernel(12)
    real, cast = (expansion_series(taylor_expand_all(p, 0.5, 8))
                  for p in (problem, as_complex(problem)))
    assert len(real) == len(cast) == 12
    lam_change, _ = coefficient_changes(real, cast)
    assert lam_change <= 1e-13


@pytest.mark.parametrize("make, mus", [
    (make_torus_kernel, np.linspace(0.3, 0.7, 9)),
    (make_spring_chain, np.linspace(0.7, 0.9, 9)),
], ids=["torus", "spring"])
def test_real_and_complex_eigenvalues_agree(make, mus):
    problem = make(12)
    stack = np.stack([problem.eval_at(mu) for mu in mus])
    for hermitian in {problem.hermitian, False}:
        for values, reference in (
            (eigenvalues(stack, hermitian), eigenvalues(stack.astype(complex), hermitian)),
            (eigen_all(stack, hermitian).values, eigen_all(stack.astype(complex), hermitian).values),
        ):
            scale = np.max(np.abs(reference), axis=-1, keepdims=True)
            assert np.max(np.abs(values - reference) / scale) <= 1e-14
