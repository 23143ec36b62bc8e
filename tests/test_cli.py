"""CLI contract: flags, exit codes, output files, manifests, determinism."""

import argparse
import ast
import csv
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import warnings

from pathlib import Path

import numpy as np
import pytest

import eigenpath

from eigenpath import (
    DegenerateEvaluationError,
    EigenPairSeries,
    SeriesBasis,
    eigpath_eval,
    expansion_series,
    load_eigenpair,
    save_eigenpair,
    taylor_expand_all,
)
from eigenpath import analysis, cli
from eigenpath.analysis import draw_samples
from eigenpath.cli import main

CROSSING_N2 = Path(__file__).resolve().parents[1] / "configs" / "crossing_rotating_n2.json"


def run(args):
    return main(args)


class TestExpand:
    def test_example1_all_pairs(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "expand", "--problem", "example1", "--n", "8", "--method", "taylor",
                "--mu0", "0.2", "--order", "6", "--eig", "all", "--out", str(out),
            ]
        )
        assert code == 0
        files = sorted(p.name for p in out.glob("eigenpair_*.json"))
        assert len(files) == 8
        assert (out / "manifest.txt").exists()
        pair = load_eigenpair(out / files[0])
        assert pair.order == 6 and pair.n == 8
        manifest = (out / "manifest.txt").read_text()
        assert "command: expand" in manifest
        assert "eigenpair_01.json" in manifest

    def test_defective_expansion_point_exit_2(self, tmp_path, capsys):
        code = run(
            [
                "expand", "--problem", "example3", "--n", "8", "--method", "taylor",
                "--mu0", "0.0", "--order", "4", "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        # A_0 is a Jordan block: every pair's reason names the gap, 0, and its tolerance
        assert "eigenpair 1 (lambda0 ~ 1+0j): non-simple eigenvalue at expansion point " \
               "(eigenvalue gap 0 below 2e-12)" in err

    def test_overflowing_coefficients_exit_2_without_pair_files(self, tmp_path, capsys):
        argv = ["expand", "--problem", "example3", "--n", "2", "--method", "taylor",
                "--mu0", "1e-12", "--eig", "all"]
        out = tmp_path / "p40"
        assert run(argv + ["--order", "40", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        for index in (1, 2):
            assert f"eigenpair {index} " in err
        assert err.count("is not finite") == 2
        assert [p.name for p in out.iterdir()] == ["manifest.txt"]
        out = tmp_path / "p20"
        assert run(argv + ["--order", "20", "--out", str(out)]) == 0
        for index in (1, 2):
            pair = load_eigenpair(out / f"eigenpair_{index:02d}.json")
            assert np.all(np.isfinite(pair.vec))

    @pytest.mark.parametrize("flags", [
        ["--method", "taylor", "--mu0", "1e-12", "--order", "40"],
        ["--method", "taylor", "--mu0", "1e-12", "--order", "40", "--single-precision-e"],
        ["--method", "chebyshev", "--interval=-1e-9,1e-9", "--order", "6"],
    ], ids=["taylor", "single-precision-e", "chebyshev"])
    def test_failing_single_pair_leaves_the_directory_of_eig_all(self, tmp_path, capsys, flags):
        argv = ["expand", "--problem", "example3", "--n", "2", *flags]
        runs = {}
        for eig in ("1", "all"):
            out = tmp_path / eig
            assert run(argv + ["--eig", eig, "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            manifest = [line for line in (out / "manifest.txt").read_text().splitlines()
                        if line != f"  eig: {eig}"]
            runs[eig] = sorted(p.name for p in out.iterdir()), err, manifest
        (files_one, err_one, manifest_one), (files_all, err_all, manifest_all) = runs.values()
        assert files_one == files_all == ["manifest.txt"]
        assert manifest_one == manifest_all and manifest_one[-1] == "outputs:"
        assert len(err_one) == 1 and err_one[0].startswith("eigenpair 1 (lambda0 ~ ")
        assert err_all[0] == err_one[0]

    @pytest.mark.parametrize("flags", [[], ["--single-precision-e"]])
    def test_overflow_reported_without_numpy_warnings(self, tmp_path, capsys, flags):
        argv = ["expand", "--problem", "example3", "--n", "2", "--method", "taylor",
                "--mu0", "1e-12", "--order", "40", *flags, "--out", str(tmp_path / "p40")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        err = capsys.readouterr().err
        assert "eigenpair 1 (lambda0 ~ 1+0j): series coefficient at order 25 is not finite" in err
        assert err.count("is not finite") == 2 and "Warning" not in err

    @pytest.mark.parametrize("problem, flags, message", [
        ("config", ["--method", "taylor", "--mu0=800", "--order", "2"],
         "error: entry (1, 1) at mu0=800.0: overflow in exp"),
        ("config", ["--method", "chebyshev", "--interval", "0,800", "--order", "2"],
         ": overflow in exp"),
        ("example1", ["--n", "4", "--method", "taylor", "--mu0=-1000", "--order", "2"],
         "numerical failure: derivative of A(mu) at order 0 is not finite at mu0=-1000"),
        ("example2", ["--n", "4", "--method", "taylor", "--mu0=1e-300", "--order", "3"],
         "numerical failure: derivative of A(mu) at order 1 is not finite at mu0=1e-300"),
        # 171! overflows float64
        ("example2", ["--n", "4", "--method", "taylor", "--mu0", "1", "--order", "171",
                      "--eig", "1"],
         "numerical failure: derivative of A(mu) at order 171 is not finite at mu0=1"),
    ], ids=["config-taylor", "config-chebyshev", "example1-taylor", "example2-taylor",
            "example2-order-171"])
    def test_unusable_a_of_mu_exits_2_with_one_line(self, tmp_path, capsys, problem, flags,
                                                   message):
        if problem == "config":
            config = tmp_path / "exp.json"
            config.write_text(json.dumps({"n": 1, "entries": {"dense": ["exp(mu)"]}}))
            problem = f"config:{config}"
        argv = ["expand", "--problem", problem, *flags, "--out", str(tmp_path / "x")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--method", "chebyshev", "--interval", "0,1,2"],
         "--interval expects 2 comma-separated values"),
        (["--method", "taylor", "--mu0", "0.2", "--eig", "9"], "--eig index must lie in 1..8"),
        (["--method", "taylor"],
         "exactly one of --mu0 (Taylor) or --interval (Chebyshev) is required"),
        (["--method", "taylor", "--mu0", "0.2", "--interval", "0,1"],
         "exactly one of --mu0 (Taylor) or --interval (Chebyshev) is required"),
        (["--method", "chebyshev", "--interval", "0,1", "--single-precision-e"],
         "--single-precision-e applies only with --mu0"),
        (["--method", "taylor", "--mu0", "0.2", "--eig", "two"],
         "--eig must be 'all' or a 1-based index"),
        (["--method", "taylor", "--mu0", "0.2", "--bogus"], "unrecognized arguments: --bogus"),
        (["--method", "taylor", "--mu0", "abc"], "--mu0: could not convert string to float: 'abc'"),
        (["--problem", f"config:{CROSSING_N2}", "--n", "3", "--method", "taylor", "--mu0", "0.2"],
         "--n 3 conflicts with config n=2"),
        (["--problem", "example1", "--method", "taylor", "--mu0", "0.2"],
         "--n is required for built-in problems"),
        (["--problem", "example9", "--n", "8", "--method", "taylor", "--mu0", "0.2"],
         "unknown built-in problem 'example9'"),
        (["--problem", "example1", "--n", "1", "--method", "taylor", "--mu0", "0.2"],
         "torus kernel needs n >= 2"),
        (["--problem", "example3", "--n", "1", "--method", "taylor", "--mu0", "0.2"],
         "Jordan problem needs n >= 2"),
    ], ids=["three-value-interval", "eig-beyond-n", "neither-basis", "both-bases",
            "single-precision-e-with-interval", "eig-not-an-index", "unknown-flag",
            "mu0-not-a-number", "n-conflicts-with-config", "builtin-without-n",
            "unknown-builtin", "torus-n-1", "jordan-n-1"])
    def test_usage_error_leaves_no_output_directory(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x"
        # a case that names its own problem gives its own --n, or none
        problem = [] if "--problem" in flags else ["--problem", "example1", "--n", "8"]
        argv = ["expand", *problem, "--order", "4", *flags]
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_conflicting_flags_exit_1(self, tmp_path):
        code = run(
            [
                "expand", "--problem", "example1", "--n", "8", "--method", "taylor",
                "--interval", "0,1", "--order", "4", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1
        code = run(
            [
                "expand", "--problem", "example1", "--n", "8", "--method", "chebyshev",
                "--mu0", "0.2", "--order", "4", "--out", str(tmp_path / "y"),
            ]
        )
        assert code == 1

    def test_single_eigenpair_chebyshev(self, tmp_path):
        out = tmp_path / "single"
        code = run(
            [
                "expand", "--problem", "example1", "--n", "8", "--method", "chebyshev",
                "--interval", "0.25,1.0", "--order", "6", "--eig", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "eigenpair_02.json").exists()

    def test_near_double_chebyshev_paths_expand(self, tmp_path, capsys):
        # on the n=64 torus the paths of five near-double eigenvalues of A_0
        # agree in value within COLLISION_TOL but have orthogonal
        # eigenvectors: distinct paths, each written to its file; exit 2
        # comes from the twelve pairs A_0's gap test rejects
        out = tmp_path / "c64"
        code = run(
            [
                "expand", "--problem", "example1", "--n", "64", "--method", "chebyshev",
                "--interval", "0.25,1.0", "--order", "6", "--eig", "all", "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "coincides" not in err
        assert len(err.splitlines()) == 12
        assert err.count("): non-simple eigenvalue at expansion point (eigenvalue gap ") == 12
        for index in (22, 23, 24, 25, 36, 37, 38, 39, 61, 62):
            assert (out / f"eigenpair_{index:02d}.json").exists()
        assert len(list(out.glob("eigenpair_*.json"))) == 52

    def test_config_problem(self, tmp_path):
        config = tmp_path / "jordan2.json"
        config.write_text(json.dumps({"n": 2, "entries": {"dense": ["1", "1", "mu", "1"]}}))
        out = tmp_path / "cfg"
        code = run(
            [
                "expand", "--problem", f"config:{config}", "--method", "taylor",
                "--mu0", "0.25", "--order", "3", "--out", str(out),
            ]
        )
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert f"config_sha256: {hashlib.sha256(config.read_bytes()).hexdigest()}\n" in manifest

    def test_bad_config_exit_1(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"n": 2, "entries": {"dense": ["mu"]}}))
        code = run(
            [
                "expand", "--problem", f"config:{config}", "--method", "taylor",
                "--mu0", "0.25", "--order", "3", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1

    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        # the loader names the unreadable file before its digest is taken
        missing = tmp_path / "missing.json"
        out = tmp_path / "out"
        code = run(["expand", "--problem", f"config:{missing}", "--method", "taylor",
                    "--mu0", "0.25", "--order", "3", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file: ") and str(missing) in err
        assert not out.exists()

    @pytest.mark.parametrize("text, flags, message", [
        ("(" * 5000 + "mu" + ")" * 5000, ["--method", "taylor", "--mu0", "0.5"],
         "config error: entry (2, 1): expression nested too deeply (offset "),
        ("exp(" * 1000 + "mu" + ")" * 1000, ["--method", "taylor", "--mu0", "0.5"],
         "config error: entry (2, 1): expression nested too deeply (offset "),
        ("+".join(["mu"] * 5000), ["--method", "taylor", "--mu0", "0.5"],
         "config error: entry (2, 1): expression nested too deeply\n"),
        ("+".join(["mu"] * 5000), ["--method", "chebyshev", "--interval", "0,1"],
         "config error: entry (2, 1): expression nested too deeply\n"),
    ], ids=["parentheses", "exp-calls", "sum-taylor", "sum-chebyshev"])
    def test_too_deep_expression_exits_1_with_one_line(self, tmp_path, capsys, text, flags,
                                                        message):
        # past the interpreter's recursion limit in the parser (nesting) or
        # in the evaluation (a sum's tree is as deep as it has terms)
        config = tmp_path / "deep.json"
        config.write_text(json.dumps({"n": 2, "entries": {"sparse": [[2, 1, text]]}}))
        argv = ["expand", "--problem", f"config:{config}", *flags, "--order", "2",
                "--out", str(tmp_path / "x")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(message)
        assert "Traceback" not in err

    def test_config_expands_the_matrix_its_entries_define(self, tmp_path):
        # A(0.5) = [[2, 0.5], [0, 3]], whatever a "hermitian" key claims: the
        # eigenvector of lambda = 3 is (1, 2)/sqrt(5), not e_2
        config = tmp_path / "upper.json"
        config.write_text(json.dumps({"n": 2, "hermitian": True, "entries": {
            "sparse": [[1, 1, "2"], [1, 2, "mu"], [2, 2, "3"]]}}))
        out = tmp_path / "series"
        assert run(["expand", "--problem", f"config:{config}", "--method", "taylor",
                    "--mu0", "0.5", "--order", "6", "--out", str(out)]) == 0
        pairs = [load_eigenpair(path) for path in sorted(out.glob("eigenpair_*.json"))]
        assert sorted(pair.lam[0].real for pair in pairs) == [2.0, 3.0]
        pair = next(pair for pair in pairs if pair.lam[0] == 3.0)
        exact = np.array([1.0, 2.0]) / np.sqrt(5.0)
        v = pair.vec[0]
        assert np.linalg.norm(v - exact * (exact @ v)) / np.linalg.norm(v) <= 1e-12
        assert max(float(ratios.max()) for ratios in _residuals_over_scales(out)) <= 1e-13
        report = tmp_path / "report"
        assert run(["report", "--problem", f"config:{config}",
                    "--series", *(str(path) for path in sorted(out.glob("eigenpair_*.json"))),
                    "--grid", "0.3,0.7,3", "--out", str(report)]) == 0
        rows = list(csv.DictReader((report / "report.csv").read_text().splitlines()))
        assert max(float(row["vec_deviation"]) for row in rows) <= 1e-11

    @pytest.mark.parametrize("flags", [
        ["--method", "taylor", "--mu0", "0.2", "--order", "24"],
        ["--method", "chebyshev", "--interval", "0,0.8", "--order", "12"],
    ], ids=["taylor", "chebyshev"])
    def test_mirrored_config_is_hermitian_without_the_key(self, tmp_path, flags):
        doc = json.loads(CROSSING_N2.read_text())
        assert "hermitian" not in doc
        keyed = tmp_path / "keyed.json"
        keyed.write_text(json.dumps({**doc, "hermitian": True}))
        outs = [tmp_path / "shipped", tmp_path / "keyed"]
        for config, out in zip((CROSSING_N2, keyed), outs):
            assert run(["expand", "--problem", f"config:{config}", *flags,
                        "--out", str(out)]) == 0
        names = sorted(path.name for path in outs[0].glob("eigenpair_*.json"))
        assert names == ["eigenpair_01.json", "eigenpair_02.json"]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _python_in_subprocess(args, threads=1):
    """Run ``python <args>`` on this source tree with BLAS pinned to ``threads``."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    src = str(Path(eigenpath.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli_in_subprocess(command, args, out, threads):
    """Run ``python -m eigenpath <command>`` with BLAS pinned to ``threads``."""
    _python_in_subprocess(["-m", "eigenpath", command, *args, "--out", str(out)], threads)


def _assert_expand_identical_across_blas_threads(tmp_path, args, count):
    outs = [tmp_path / f"threads{threads}" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        _cli_in_subprocess("expand", args, out, threads)
    names = sorted(p.name for p in outs[0].glob("eigenpair_*.json"))
    assert names == sorted(p.name for p in outs[1].glob("eigenpair_*.json"))
    assert len(names) == count
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("eig", ["all", "1"])
@pytest.mark.parametrize("problem, n, mu0, order, flags", [
    pytest.param("example1", "8", "0.2", "4", [], id="example1-0.2-4"),
    pytest.param("example2", "8", "0.8", "6", [], id="example2-0.8-6"),
    # at n=8 two BLAS threads do not speed up a complex product; at n=64 they do
    pytest.param("example2", "64", "0.8", "10", [], id="example2-64-0.8-10"),
    # complex Schur factors from the QR of complex eigenvectors
    pytest.param("example3", "64", "0.5", "10", [], id="example3-64-0.5-10"),
    # six of the eight eigenvectors are isotropic at mu = 1 (v^T v = 0)
    pytest.param("example3", "8", "1", "8", [], id="example3-8-1-8"),
    pytest.param("example1", "16", "0.2", "10", ["--single-precision-e"],
                 id="example1-16-0.2-10-single-e"),
    pytest.param("example2", "64", "0.8", "10", ["--single-precision-e"],
                 id="example2-64-0.8-10-single-e"),
])
def test_expand_identical_across_blas_threads(tmp_path, problem, n, mu0, order, flags, eig):
    args = [
        "--problem", problem, "--n", n, "--method", "taylor", "--mu0", mu0,
        "--order", order, "--eig", eig, *flags,
    ]
    _assert_expand_identical_across_blas_threads(tmp_path, args, int(n) if eig == "all" else 1)


@pytest.mark.parametrize("eig", ["all", "1"])
@pytest.mark.parametrize("problem, n, interval, order", [
    pytest.param("example1", "8", "0.25,1.0", "6", id="example1-8"),
    pytest.param("example2", "32", "0.5,2.0", "12", id="example2-32"),
])
def test_chebyshev_expand_identical_across_blas_threads(tmp_path, problem, n, interval, order, eig):
    args = [
        "--problem", problem, "--n", n, "--method", "chebyshev", "--interval", interval,
        "--order", order, "--eig", eig,
    ]
    _assert_expand_identical_across_blas_threads(tmp_path, args, int(n) if eig == "all" else 1)


def _scipy_modules_after(*commands):
    """The scipy modules loaded in a fresh process that imports the CLI and
    runs ``main`` on each argv of ``commands``, each of which must exit 0."""
    code = ("import json, sys\n"
            "from eigenpath.cli import main\n"
            f"for argv in {list(commands)!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    return json.loads(_python_in_subprocess(["-c", code]))


def test_cli_import_leaves_out_scipy():
    # importing scipy.linalg alone takes most of a command's start-up time;
    # the routines that call scipy import it when they run
    assert _scipy_modules_after() == []


def test_cli_import_leaves_out_hashlib():
    # only a config's digest needs it, and a config command imports it
    code = "import sys, eigenpath.cli; print('hashlib' in sys.modules)"
    assert _python_in_subprocess(["-c", code]).strip() == "False"


def test_taylor_expand_report_and_bench_leave_out_scipy(tmp_path):
    # a non-Hermitian A0's Schur form comes from its eigenvectors, by numpy's QR
    series = tmp_path / "series"
    expand = ["expand", "--problem", "example1", "--n", "12", "--method", "taylor",
              "--mu0", "0.5", "--order", "8", "--out", str(series)]
    report = ["report", "--problem", "example1", "--n", "12",
              "--series", *(str(series / f"eigenpair_{i:02d}.json") for i in (1, 2, 3)),
              "--grid", "0.4,0.6,11", "--metrics", "eig-error,vec-deviation,rayleigh",
              "--out", str(tmp_path / "report")]
    spring = ["expand", "--problem", "example2", "--n", "8", "--method", "taylor",
              "--mu0", "1", "--order", "6", "--out", str(tmp_path / "spring")]
    bench = ["bench", "--problem", "example2", "--n-list", "8", "--p-list", "4",
             "--repeats", "1", "--out", str(tmp_path / "bench")]
    # the rounded Schur factors go through the same solver
    single_e = ["expand", "--problem", "example1", "--n", "8", "--method", "taylor",
                "--mu0", "0.2", "--order", "6", "--single-precision-e",
                "--out", str(tmp_path / "single-e")]
    assert _scipy_modules_after(expand, report, spring, bench, single_e) == []


@pytest.mark.parametrize("problem, flags", [
    # Newton's LAPACK solve
    pytest.param("example1", ["--method", "chebyshev", "--interval", "0.25,1.0"],
                 id="chebyshev-newton"),
])
def test_commands_that_call_scipy_load_it(tmp_path, problem, flags):
    argv = ["expand", "--problem", problem, "--n", "8", *flags, "--order", "6",
            "--out", str(tmp_path / "out")]
    assert "scipy.linalg" in _scipy_modules_after(argv)


def test_readme_cli_flags_are_declared():
    # every --flag the CLI section names is one the parser declares, so a
    # removed flag cannot linger in the docs ("--flag=value" names the form)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section)) - {"--flag"}
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {flag for command in commands.values() for flag in command._option_string_actions}
    assert named and named <= declared, sorted(named - declared)


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "eigpath_eval" in code
    _python_in_subprocess(["-c", code])


@pytest.mark.parametrize(
    "problem, n, mu0", [("example1", "48", "0.5"), ("example2", "12", "0.8")]
)
def test_sample_and_report_identical_across_blas_threads(tmp_path, problem, n, mu0):
    series = tmp_path / "series"
    assert run(
        [
            "expand", "--problem", problem, "--n", n, "--method", "taylor",
            "--mu0", mu0, "--order", "6", "--eig", "all", "--out", str(series),
        ]
    ) == 0
    files = [str(series / f"eigenpair_{i:02d}.json") for i in (1, 2, 4)]
    sample = [
        "--problem", problem, "--n", n, "--mu0", mu0, "--order", "6", "--pairs", "2,3",
        "--dist", f"{mu0},0.02", "--count", "300", "--seed", "4",
        "--method", "taylor-eval,rayleigh,direct",
    ]
    lo, hi = float(mu0) - 0.05, float(mu0) + 0.05
    report = [
        "--problem", problem, "--n", n, "--series", *files, "--grid", f"{lo},{hi},41",
        "--metrics", "eig-error,vec-deviation,rayleigh",
    ]
    outs = {}
    for threads in (1, 2):
        outs[threads] = tmp_path / f"threads{threads}"
        _cli_in_subprocess("sample", sample, outs[threads] / "sample", threads)
        _cli_in_subprocess("report", report, outs[threads] / "report", threads)
    for name in ("sample/samples.csv", "sample/histogram.csv", "report/report.csv"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


@pytest.mark.parametrize("problem, interval, dist", [
    ("example1", "0.25,1.0", "0.6,0.05"), ("example2", "0.5,2.0", "1.2,0.1")
])
def test_chebyshev_sample_identical_across_blas_threads(tmp_path, problem, interval, dist):
    sample = [
        "--problem", problem, "--n", "12", "--interval", interval, "--order", "8",
        "--pairs", "2,3", "--dist", dist, "--count", "300", "--seed", "4",
        "--method", "cheb-eval,rayleigh,direct",
    ]
    outs = [tmp_path / f"threads{threads}" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        _cli_in_subprocess("sample", sample, out, threads)
    for name in ("samples.csv", "histogram.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _residuals_over_scales(out):
    """Per pair file of ``out``, its order residuals over their scales."""
    ratios = []
    for path in sorted(out.glob("eigenpair_*.json")):
        diagnostics = json.loads(path.read_text())["diagnostics"]
        residuals = np.array(diagnostics["order_residuals"])
        scales = np.array(diagnostics["order_residual_scales"])
        assert residuals.shape == scales.shape and np.all(scales >= 1.0)
        ratios.append(residuals / scales)
    return ratios


def test_order_residuals_read_against_their_scales(tmp_path):
    """The absolute order residuals grow with the coefficients (1.5e-7 at
    order 1, 82 at order 10 on index 0 here); over each order's recorded
    scale they read as the relative error of that order's solve."""
    taylor = ["expand", "--method", "taylor", "--eig", "all"]
    rounded = tmp_path / "rounded"
    assert run(taylor + ["--problem", "example1", "--n", "8", "--mu0", "0.2", "--order", "10",
                         "--single-precision-e", "--out", str(rounded)]) == 0
    index0 = _residuals_over_scales(rounded)[0]
    # the single-precision rounding of the Schur factors, near 3e-8 at every order
    assert index0.shape == (10,) and np.all((index0 >= 1e-9) & (index0 <= 1e-6))
    for problem, n, mu0, order in (("example1", "8", "0.2", "10"), ("example2", "16", "0.8", "12")):
        out = tmp_path / f"{problem}-exact"
        assert run(taylor + ["--problem", problem, "--n", n, "--mu0", mu0, "--order", order,
                             "--out", str(out)]) == 0
        ratios = _residuals_over_scales(out)
        assert len(ratios) == int(n)
        assert max(float(r.max()) for r in ratios) <= 1e-13


def _degenerate_pair(mu_zero):
    """A Taylor pair about 0 whose eigenvector [1 - mu / mu_zero, 0] vanishes at mu_zero."""
    basis = SeriesBasis.taylor(0.0)
    return EigenPairSeries(basis, [1.0, 0.0], [[1.0, 0.0], [-1.0 / mu_zero, 0.0]])


class TestDegenerateEvaluation:
    def test_report_exit_2_names_the_point(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        save_eigenpair(_degenerate_pair(0.5), path)
        code = run(
            [
                "report", "--problem", "example1", "--n", "2", "--series", str(path),
                "--grid", "0.0,1.0,5", "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 2
        assert "mu=0.5 " in capsys.readouterr().err

    def test_sample_rayleigh_exit_2_names_the_sample(self, tmp_path, capsys, monkeypatch):
        first = float(draw_samples(0.3, 0.1, 20, 8)[0])
        pairs = [_degenerate_pair(first)]
        monkeypatch.setattr(cli, "_expand_for_sampling", lambda args, problem: (pairs, 0.0))
        code = run(
            [
                "sample", "--problem", "example1", "--n", "2", "--mu0", "0.0",
                "--order", "1", "--pairs", "1", "--dist", "0.3,0.1", "--count", "20",
                "--seed", "8", "--method", "rayleigh", "--out", str(tmp_path / "s"),
            ]
        )
        assert code == 2
        assert f"mu={first} " in capsys.readouterr().err


class TestSelectTracked:
    def test_order_matches_per_pair_evaluation(self, torus8):
        pairs = expansion_series(taylor_expand_all(torus8, 0.2, 6))
        mean = 0.23
        values = [eigpath_eval(pair, mean)[0] for pair in pairs]
        order = np.lexsort((-np.imag(values), -np.real(values)))
        positions = [3, 1, 8, 5]
        tracked = cli._select_tracked(pairs, positions, mean)
        assert [id(pair) for pair in tracked] == [id(pairs[order[pos - 1]]) for pos in positions]

    def test_degenerate_pair_at_the_mean_names_it(self):
        pairs = [_degenerate_pair(0.7), _degenerate_pair(0.3)]
        with pytest.raises(DegenerateEvaluationError, match="mu=0.3 "):
            cli._select_tracked(pairs, [1], 0.3)


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # benchmarks/tracing.py wraps each (module, attr) of TARGETS where it is
    # looked up; a name the program stops importing would break --trace 1
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_every_import_a_module_never_reads_is_a_tracer_target(monkeypatch):
    # a name a module imports and never reads is dead code, unless
    # benchmarks/tracing.py looks it up in that module to wrap it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    tracing = importlib.import_module("tracing")
    traced = {(module.__name__, attr) for module, attr, _ in tracing.TARGETS}
    unread = []
    for path in sorted(Path(eigenpath.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":    # imports names to export them
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        module = f"eigenpath.{path.stem}"
        unread += [f"{module}.{name}" for name in sorted(imported - read)
                   if (module, name) not in traced]
    assert unread == []


def test_only_pair_results_builds_an_expansion_failure():
    # every per-pair error of either expansion becomes its ExpansionFailure
    # through one assembly, so no failure can be built another way
    builders = set()
    for path in sorted(Path(eigenpath.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "ExpansionFailure":
                    builders.add(f"eigenpath.{path.stem}.{getattr(top, 'name', '<module>')}")
    assert builders == {"eigenpath.taylor.pair_results"}


@pytest.mark.parametrize("kernel, basis", [
    ("taylor_expand_all", ["--mu0", "0.2"]),
    ("cheb_expand_all", ["--interval", "0.25,1.0"]),
])
def test_expand_and_sample_call_the_kernel_the_cli_module_holds_when_they_run(
        tmp_path, monkeypatch, kernel, basis):
    # benchmarks/tracing.py wraps cli.<kernel> after import; every command
    # must call the wrapper, not a kernel bound when the module loaded
    calls = []
    original = getattr(cli, kernel)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, kernel, spy)
    method = "taylor" if kernel == "taylor_expand_all" else "chebyshev"
    problem = ["--problem", "example1", "--n", "4", "--order", "2", *basis]
    assert run(["expand", *problem, "--method", method, "--out", str(tmp_path / "e")]) == 0
    assert run(["sample", *problem, "--dist", "0.5,0.1", "--count", "5", "--seed", "1",
                "--method", "direct", "--pairs", "1", "--out", str(tmp_path / "s")]) == 0
    assert len(calls) == 2


def _refuse(*args, **kwargs):
    raise AssertionError("an expansion ran before every input was checked")


@pytest.mark.parametrize("argv, message", [
    (["sample", "--problem", "example2", "--n", "32", "--interval", "0.5,2.0", "--order", "12",
      "--pairs", "33", "--dist", "1.0,0.1", "--count", "5", "--seed", "1",
      "--method", "cheb-eval"],
     "usage error: --pairs position 33 out of range 1..32"),
    (["bench", "--problem", "example2", "--n-list", "128,5", "--p-list", "10"],
     "invalid argument: spring chain needs even n >= 4"),
    (["bench", "--n-list", "128", "--p-list", "10,-1"],
     "invalid argument: order must be a nonnegative integer"),
], ids=["sample-pair-beyond-n", "bench-bad-n", "bench-bad-p"])
def test_bad_input_is_rejected_before_any_expansion(tmp_path, capsys, monkeypatch, argv, message):
    for module in (cli, analysis):
        monkeypatch.setattr(module, "taylor_expand_all", _refuse)
    monkeypatch.setattr(cli, "cheb_expand_all", _refuse)
    out = tmp_path / "x"
    assert run([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"{message}\n"
    assert not out.exists()


class TestReport:
    @pytest.fixture()
    def series_dir(self, tmp_path):
        out = tmp_path / "series"
        assert run(
            [
                "expand", "--problem", "example1", "--n", "8", "--method", "taylor",
                "--mu0", "0.2", "--order", "20", "--eig", "all", "--out", str(out),
            ]
        ) == 0
        return out

    def test_error_report(self, tmp_path, series_dir):
        out = tmp_path / "report"
        series = sorted(str(p) for p in series_dir.glob("eigenpair_*.json"))
        code = run(
            [
                "report", "--problem", "example1", "--n", "8",
                "--series", *series, "--grid", "0.1,0.3,151",
                "--metrics", "eig-error,vec-deviation", "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "report.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["mu", "pair_index", "abs_err_lambda", "vec_deviation"]
        errs = [float(r[2]) for r in rows[1:]]
        assert max(errs) <= 1e-11

    def test_rayleigh_metric_column(self, tmp_path, series_dir):
        out = tmp_path / "rq"
        series = sorted(str(p) for p in series_dir.glob("eigenpair_*.json"))[:2]
        code = run(
            [
                "report", "--problem", "example1", "--n", "8",
                "--series", *series, "--grid", "0.15,0.25,5",
                "--metrics", "rayleigh", "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "report.csv", newline="") as handle:
            header = next(csv.reader(handle))
        # the eigenvalue and eigenvector columns are always written
        assert header == ["mu", "pair_index", "abs_err_lambda", "vec_deviation", "abs_err_rayleigh"]

    def test_zero_grid_count_exit_1(self, tmp_path, series_dir):
        series = sorted(str(p) for p in series_dir.glob("eigenpair_*.json"))[:1]
        code = run(
            [
                "report", "--problem", "example1", "--n", "8",
                "--series", *series, "--grid", "0.1,0.3,0", "--out", str(tmp_path / "z"),
            ]
        )
        assert code == 1

    def test_non_finite_matrix_on_the_grid_exits_2_before_any_file(self, tmp_path, series_dir,
                                                                   capsys):
        out = tmp_path / "r"
        code = run(
            [
                "report", "--problem", "example1", "--n", "8",
                "--series", str(series_dir / "eigenpair_01.json"),
                "--grid=-1e200,0.2,3", "--out", str(out),
            ]
        )
        assert code == 2
        # exp(-mu * dist) overflows at the first grid point only
        err = capsys.readouterr().err
        assert f"numerical failure: report grid: A(mu) is not finite at mu={-1e200:.17g}\n" in err
        assert not out.exists()

    def test_overflowing_series_on_the_grid_exits_2_before_any_file(self, tmp_path, capsys):
        series = tmp_path / "s"
        assert run(
            [
                "expand", "--problem", "example1", "--n", "4", "--method", "taylor",
                "--mu0", "0.2", "--order", "20", "--eig", "1", "--out", str(series),
            ]
        ) == 0
        out = tmp_path / "r"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                [
                    "report", "--problem", "example1", "--n", "4",
                    "--series", str(series / "eigenpair_01.json"),
                    "--grid", "0.2,1e20,3", "--out", str(out),
                ]
            )
        assert code == 2
        # A(mu) is finite on the whole grid; the degree-20 series overflows
        # at its second point
        err = capsys.readouterr().err
        assert err == f"numerical failure: report grid: series value is not finite at mu={5e19:.17g}\n"
        assert not out.exists()

    def test_series_past_order_170_evaluates(self, tmp_path):
        # 1/k! underflows past order 170 instead of raising
        series = tmp_path / "s"
        flags = ["--problem", "example1", "--n", "2", "--mu0", "0.5", "--order", "171"]
        assert run(["expand", *flags, "--method", "taylor", "--out", str(series)]) == 0
        report = tmp_path / "r"
        assert run(
            [
                "report", "--problem", "example1", "--n", "2",
                "--series", str(series / "eigenpair_01.json"),
                "--grid", "0.45,0.55,3", "--out", str(report),
            ]
        ) == 0
        rows = list(csv.DictReader((report / "report.csv").read_text().splitlines()))
        assert len(rows) == 3 and all(float(row["abs_err_lambda"]) <= 1e-12 for row in rows)
        sample = tmp_path / "x"
        assert run(
            [
                "sample", *flags, "--pairs", "1", "--dist", "0.5,0.01", "--count", "5",
                "--seed", "1", "--method", "taylor-eval,rayleigh", "--out", str(sample),
            ]
        ) == 0
        rows = list(csv.DictReader((sample / "samples.csv").read_text().splitlines()))
        assert len(rows) == 5
        assert all(float(row["re_taylor-eval_pair0"]) == pytest.approx(
            float(row["re_rayleigh_pair0"]), rel=1e-12) for row in rows)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {key: doc[key] for key in doc if key != "lambda"}, "KeyError: 'lambda'"),
        (lambda doc: [doc], "TypeError: "),
        (lambda doc: {key: doc[key] for key in doc if key != "n"}, "KeyError: 'n'"),
        (lambda doc: {key: doc[key] for key in doc if key != "p"}, "KeyError: 'p'"),
        (lambda doc: {**doc, "n": 5, "p": 7},
         "ValueError: header n=5, p=7 disagrees with coefficients of n=2, p=1"),
        (lambda doc: {**doc, "p": 0},
         "ValueError: header n=2, p=0 disagrees with coefficients of n=2, p=1"),
        (lambda doc: {**doc, "lambda": [[float("nan"), 0.0]] + doc["lambda"][1:]},
         "JSONDecodeError: "),
        (lambda doc: {**doc, "lambda": [[*leaf, 0.0] for leaf in doc["lambda"]]},
         "ValueError: coefficient leaves must be [re, im] pairs"),
    ], ids=["without-lambda", "list-root", "without-n", "without-p", "header-n-p", "header-p",
            "nan-coefficient", "leaves-not-pairs"])
    def test_malformed_series_file_exit_1_naming_it(self, tmp_path, capsys, edit, message):
        path = tmp_path / "pair.json"
        save_eigenpair(_degenerate_pair(0.5), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        out = tmp_path / "r"
        code = run(
            [
                "report", "--problem", "example1", "--n", "2", "--series", str(path),
                "--grid", "0.0,1.0,5", "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path} is not an eigenpair file: {message}" in err
        assert not out.exists()

    def test_series_of_another_n_exit_1_naming_both(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        save_eigenpair(_degenerate_pair(0.5), path)
        out = tmp_path / "r"
        code = run(
            [
                "report", "--problem", "example1", "--n", "3", "--series", str(path),
                "--grid", "0.0,1.0,5", "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"usage error: series file {path} has n=2, the problem has n=3\n"
        )
        assert not out.exists()

    def test_missing_series_exit_1(self, tmp_path):
        code = run(
            [
                "report", "--problem", "example1", "--n", "8",
                "--series", str(tmp_path / "missing.json"),
                "--grid", "0.1,0.3,3", "--out", str(tmp_path / "m"),
            ]
        )
        assert code == 1


class TestSample:
    def test_speedup_rows_and_determinism(self, tmp_path):
        args = [
            "sample", "--problem", "example1", "--n", "8", "--mu0", "0.2",
            "--order", "6", "--pairs", "2,3", "--dist", "0.2,0.1",
            "--count", "400", "--seed", "42", "--method", "taylor-eval,direct",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()
        assert (out_a / "histogram.csv").read_bytes() == (out_b / "histogram.csv").read_bytes()
        with open(out_a / "timing.csv", newline="") as handle:
            rows = {r[0]: r for r in csv.reader(handle)}
        assert float(rows["taylor-eval"][4]) > 1.0  # faster than direct

    def test_nonpositive_count_rejected(self, tmp_path):
        code = run(
            [
                "sample", "--problem", "example1", "--n", "8", "--mu0", "0.2",
                "--order", "4", "--dist", "0.2,0.1", "--count", "0",
                "--seed", "1", "--method", "taylor-eval", "--out", str(tmp_path / "s"),
            ]
        )
        assert code == 1

    def test_method_basis_mismatch_rejected(self, tmp_path):
        code = run(
            [
                "sample", "--problem", "example1", "--n", "8", "--mu0", "0.2",
                "--order", "4", "--dist", "0.2,0.1", "--count", "5",
                "--seed", "1", "--method", "cheb-eval", "--out", str(tmp_path / "s"),
            ]
        )
        assert code == 1

    def test_failed_setup_expansions_exit_2_before_any_file(self, tmp_path, capsys):
        # A(0) of the Jordan problem is one Jordan block: no pair expands
        out = tmp_path / "s"
        code = run(
            [
                "sample", "--problem", "example3", "--n", "4", "--mu0", "0", "--order", "4",
                "--dist", "0,0.1", "--count", "5", "--seed", "1", "--method", "direct",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: 4 eigenpair expansions failed during setup\n"
        assert not out.exists()

    def test_equal_draws_histogram_spans_one_past_their_value(self, tmp_path):
        # a zero stddev draws mu = 0.5 every time, so each pair's samples
        # are equal and its bins span [lo, lo + 1]
        out = tmp_path / "s"
        code = run(
            [
                "sample", "--problem", "example1", "--n", "4", "--mu0", "0.5", "--order", "4",
                "--dist", "0.5,0", "--count", "10", "--seed", "1", "--method", "taylor-eval",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "samples.csv", newline="") as handle:
            samples = list(csv.DictReader(handle))
        with open(out / "histogram.csv", newline="") as handle:
            bins = list(csv.DictReader(handle))
        assert {row["mu"] for row in samples} == {"0.5"}
        for pair in (0, 1):
            (value,) = {row[f"re_taylor-eval_pair{pair}"] for row in samples}
            lo = float(value)
            rows = [row for row in bins if row["pair_index"] == str(pair)]
            assert len(rows) == 50
            assert float(rows[0]["bin_lo"]) == lo and float(rows[-1]["bin_hi"]) == lo + 1.0
            for row in rows:
                assert float(row["bin_hi"]) - float(row["bin_lo"]) == pytest.approx(0.02, abs=1e-15)
            assert [int(row["count_taylor-eval"]) for row in rows] == [10] + [0] * 49

    def test_pair_within_ulps_histogram_spans_one_past_its_low(self, tmp_path):
        # pair 2 of the Jordan problem is 1 + i mu^(1/4): its real parts
        # differ by a few ulps across draws and methods, too narrow a range
        # for 50 bins of positive width
        out = tmp_path / "s"
        code = run(
            [
                "sample", "--problem", "example3", "--n", "4", "--mu0", "0.5", "--order", "8",
                "--pairs", "1,2", "--dist", "0.5,0.02", "--count", "200", "--seed", "3",
                "--method", "taylor-eval,rayleigh,direct", "--out", str(out),
            ]
        )
        assert code == 0
        methods = ("taylor-eval", "rayleigh", "direct")
        with open(out / "samples.csv", newline="") as handle:
            samples = list(csv.DictReader(handle))
        with open(out / "histogram.csv", newline="") as handle:
            bins = list(csv.DictReader(handle))
        for pair in ("0", "1"):
            rows = [row for row in bins if row["pair_index"] == pair]
            assert len(rows) == 50
            for method in methods:
                assert sum(int(row[f"count_{method}"]) for row in rows) == 200
        # pair 2's rows, the last ones, span one past its lowest sample
        lo = min(float(row[f"re_{method}_pair1"]) for row in samples for method in methods)
        assert float(bins[-50]["bin_lo"]) == lo and float(bins[-1]["bin_hi"]) == lo + 1.0


class TestBench:
    def test_four_row_table(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            [
                "bench", "--problem", "example1", "--n-list", "8,12,16,24",
                "--p-list", "2", "--repeats", "1", "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "bench.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "p", "seconds", "ratio"]
        assert len(rows) == 5
        assert rows[1][3] == "" and rows[2][3] != ""

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_nonpositive_repeats_rejected(self, tmp_path, capsys, repeats):
        out = tmp_path / "bench"
        code = run(
            [
                "bench", "--problem", "example1", "--n-list", "4", "--p-list", "2",
                "--repeats", repeats, "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "usage error: --repeats must be positive\n"
        assert not out.exists()


class TestOutputFiles:
    @staticmethod
    def _listed_outputs(out):
        lines = (out / "manifest.txt").read_text().splitlines()
        return [line.removeprefix("  - ") for line in lines[lines.index("outputs:") + 1:]]

    def test_each_command_leaves_its_manifest_and_listed_outputs_only(self, tmp_path):
        # a Jordan block (two failing pairs at mu0 = 0) beside one simple pair
        config = tmp_path / "jordan_plus_one.json"
        config.write_text(json.dumps(
            {"name": "jordan-plus-one", "n": 3,
             "entries": {"dense": ["1", "1", "0", "mu", "1", "0", "0", "0", "2"]}}
        ))
        taylor = ["--problem", "example1", "--n", "8", "--mu0", "0.2", "--order", "6"]
        series = tmp_path / "taylor" / "eigenpair_03.json"
        commands = [
            ("taylor", 0, ["expand", "--method", "taylor", *taylor],
             [f"eigenpair_{i:02d}.json" for i in range(1, 9)]),
            ("chebyshev", 0, ["expand", "--problem", "example1", "--n", "8",
                              "--method", "chebyshev", "--interval", "0.1,0.3",
                              "--order", "6", "--eig", "2"], ["eigenpair_02.json"]),
            ("failing", 2, ["expand", "--problem", f"config:{config}", "--method", "taylor",
                            "--mu0", "0.0", "--order", "4"], ["eigenpair_01.json"]),
            ("sample", 0, ["sample", *taylor, "--dist", "0.2,0.05", "--count", "30",
                           "--seed", "4", "--method", "taylor-eval,rayleigh,direct"],
             ["samples.csv", "histogram.csv", "timing.csv"]),
            ("report", 0, ["report", "--problem", "example1", "--n", "8",
                           "--series", str(series), "--grid", "0.1,0.3,5",
                           "--metrics", "eig-error,rayleigh"], ["report.csv"]),
            ("bench", 0, ["bench", "--n-list", "4,8", "--p-list", "2", "--repeats", "1"],
             ["bench.csv"]),
        ]
        for name, code, argv, outputs in commands:
            out = tmp_path / name
            assert run(argv + ["--out", str(out)]) == code, name
            assert self._listed_outputs(out) == outputs
            # exactly these files: no temp file is left beside them
            assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.txt", *outputs])

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "manifest.txt").mkdir(parents=True)
        code = run(
            [
                "expand", "--problem", "example1", "--n", "4", "--method", "taylor",
                "--mu0", "0.2", "--order", "2", "--out", str(out),
            ]
        )
        assert code == 1
        assert "i/o error" in capsys.readouterr().err
        # the pair files written before the failed manifest are removed too
        assert [p.name for p in out.iterdir()] == ["manifest.txt"]
        assert list((out / "manifest.txt").iterdir()) == []

    def test_failed_manifest_removes_the_csv_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "manifest.txt").mkdir(parents=True)
        code = run(
            [
                "sample", "--problem", "example1", "--n", "8", "--mu0", "0.2",
                "--order", "6", "--dist", "0.2,0.05", "--count", "20", "--seed", "4",
                "--method", "taylor-eval,direct", "--out", str(out),
            ]
        )
        assert code == 1
        assert "i/o error" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.txt"]
        assert list((out / "manifest.txt").iterdir()) == []

    def test_non_finite_samples_exit_2_before_any_file(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = run(
            [
                "sample", "--problem", "example1", "--n", "8", "--mu0", "0.2",
                "--order", "8", "--pairs", "2,3", "--dist", "0.2,1e200", "--count", "50",
                "--seed", "1", "--method", "taylor-eval", "--out", str(out),
            ]
        )
        assert code == 2
        # every draw lies near +-1e200, whose 8th power overflows, so the
        # first non-finite sample is the first one drawn
        first = draw_samples(0.2, 1e200, 50, 1)[0]
        err = capsys.readouterr().err
        assert f"method taylor-eval: sampled value is not finite at mu={first:.17g}" in err
        assert not out.exists()


    @pytest.mark.parametrize("method", ["direct", "rayleigh"])
    def test_non_finite_matrices_exit_2_naming_the_method(self, tmp_path, capsys, method):
        out = tmp_path / "s"
        code = run(
            [
                "sample", "--problem", "example1", "--n", "8", "--mu0", "0.2",
                "--order", "8", "--pairs", "2,3", "--dist", "0.2,1e200", "--count", "50",
                "--seed", "1", "--method", method, "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"numerical failure: method {method}: A(mu) is not finite at mu=" in err
        # the named point is the first draw whose A(mu) overflows
        mu = float(err.split("mu=")[1])
        draws = draw_samples(0.2, 1e200, 50, 1)
        problem = eigenpath.builtin_problem("example1", 8)
        with np.errstate(over="ignore"):  # this oracle overflows where the program does
            finite = [np.all(np.isfinite(problem.eval_at(m))) for m in draws]
        assert mu == draws[finite.index(False)]
        assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["expand", "--method", "taylor", "--mu0", "nan"], "--mu0"),
    (["expand", "--method", "taylor", "--mu0", "inf"], "--mu0"),
    (["expand", "--method", "chebyshev", "--interval", "0,inf"], "--interval"),
    (["sample", "--mu0", "0.2", "--dist", "0.2,nan", "--count", "5", "--seed", "1",
      "--method", "taylor-eval"], "--dist"),
    (["report", "--series", "x.json", "--grid", "0,nan,3"], "--grid"),
    (["bench", "--n-list", "4", "--p-list", "2", "--mu0=-inf"], "--mu0"),
], ids=["mu0-nan", "mu0-inf", "interval-inf", "dist-nan", "grid-nan", "bench-mu0-inf"])
def test_non_finite_float_flag_is_a_usage_error(tmp_path, capsys, argv, flag):
    command, *flags = argv
    problem = [] if command == "bench" else ["--problem", "example1", "--n", "4"]
    order = ["--order", "2"] if command in ("expand", "sample") else []
    out = tmp_path / "x"
    assert run([command, *problem, *order, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag}: ") and err.endswith("is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sample", "--mu0", "0.2", "--method", "direct,direct"], "--method lists a method twice"),
    (["sample", "--mu0", "0.2", "--method", "direct", "--pairs", "1,1"],
     "--pairs lists a position twice"),
    (["sample", "--mu0", "0.2", "--method", "bogus"], "unknown sampling method 'bogus'"),
    (["sample", "--interval", "0,1", "--method", "taylor-eval"], "taylor-eval requires --mu0"),
    (["sample", "--mu0", "0.2", "--method", "direct", "--pairs", "9"],
     "--pairs position 9 out of range 1..4"),
    (["report", "--series", "x.json", "--grid", "0,1,3", "--metrics", "bogus"],
     "unknown metric 'bogus'"),
    (["sample", "--mu0", "0.2", "--method", "direct", "--pairs", "1,x"],
     "--pairs: invalid literal for int() with base 10: 'x'"),
    (["report", "--series", "x.json", "--grid", "0,1"], "--grid expects a,b,count"),
    (["report", "--series", "x.json", "--grid", "0,1,x"],
     "--grid: invalid literal for int() with base 10: 'x'"),
    (["sample", "--mu0", "0.2", "--method", "direct", "--dist", "0.2,-0.01"],
     "--dist: stddev must be non-negative"),
    (["sample", "--mu0", "0.2", "--method", "direct", "--seed", "-1"],
     "--seed must be non-negative"),
], ids=["method-twice", "pair-twice", "unknown-method", "taylor-eval-with-interval",
        "pair-beyond-n", "unknown-metric", "pair-not-an-index", "two-value-grid",
        "grid-count-not-an-integer", "negative-stddev", "negative-seed"])
def test_sample_and_report_usage_error_leaves_no_output_directory(tmp_path, capsys, argv,
                                                                 message):
    command, *flags = argv
    # a flag given again in ``flags`` overrides its value here
    draws = ["--order", "2", "--dist", "0.2,0.1", "--count", "5", "--seed", "1"]
    out = tmp_path / "x"
    argv = [command, "--problem", "example1", "--n", "4", *(draws if command == "sample" else []),
            *flags, "--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, line", [
    (["expand", "--method", "taylor", "--mu0", "-1e-3"], "mu0: -0.001"),
    (["expand", "--method", "chebyshev", "--interval", "-1,-0.5"], "interval: -1,-0.5"),
    (["report", "--grid", "-0.1,0.3,5"], "grid: -0.1,0.3,5"),
    (["sample", "--mu0", "0.2", "--dist", "-0.5,0.01", "--count", "5", "--seed", "1",
      "--method", "direct"], "dist: -0.5,0.01"),
], ids=["expand-mu0", "expand-interval", "report-grid", "sample-dist"])
def test_flag_value_beginning_with_a_minus_parses(tmp_path, argv, line):
    command, *flags = argv
    problem = ["--problem", "example1", "--n", "4"]
    if command == "report":
        series = tmp_path / "series"
        assert run(["expand", *problem, "--method", "taylor", "--mu0", "0.2", "--order", "2",
                    "--eig", "1", "--out", str(series)]) == 0
        flags = ["--series", str(series / "eigenpair_01.json"), *flags]
    else:
        flags = ["--order", "2", *flags]
    out = tmp_path / "x"
    assert run([command, *problem, *flags, "--out", str(out)]) == 0
    assert f"\n  {line}\n" in (out / "manifest.txt").read_text()


def test_reversed_interval_exits_1_with_the_basis_message(tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["expand", "--problem", "example1", "--n", "4", "--method", "chebyshev",
                "--interval", "1,0", "--order", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "invalid argument: Chebyshev interval must be finite with mu2 > mu1\n")
    assert not out.exists()


class TestSharedFlags:
    """A flag of several subcommands is declared once and parses alike in each."""

    FLAGS = {
        "expand": ["--problem", "--n", "--mu0", "--interval", "--order", "--out",
                   "--method", "--eig", "--single-precision-e"],
        "report": ["--problem", "--n", "--out", "--series", "--grid", "--metrics"],
        "sample": ["--problem", "--n", "--mu0", "--interval", "--order", "--out",
                   "--pairs", "--dist", "--count", "--seed", "--method"],
        "bench": ["--problem", "--out", "--n-list", "--p-list", "--mu0", "--repeats"],
    }
    BASIS = ["--problem", "config:x.json", "--n", "3", "--mu0", "-1e-3", "--interval", "-1,0",
             "--order", "4", "--out", "o"]

    @staticmethod
    def subparsers():
        parser = cli.build_parser()
        return next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_exits_0_and_names_each_flag_once(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        usage, options = capsys.readouterr().out.split("\noptions:\n")
        flags = sorted(self.FLAGS[command])
        assert sorted(re.findall(r"(?<![\w-])--[\w-]+", usage)) == flags
        assert sorted(re.findall(r"^  (--[\w-]+)", options, flags=re.M)) == flags

    def test_expand_and_sample_parse_their_shared_flags_alike(self):
        expand = cli.build_parser().parse_args(["expand", "--method", "taylor", *self.BASIS])
        sample = cli.build_parser().parse_args(["sample", "--dist", "0,1", "--count", "1",
                                                "--seed", "0", "--method", "direct", *self.BASIS])
        names = ["problem", "n", "mu0", "interval", "order", "out"]
        assert [getattr(expand, name) for name in names] == [getattr(sample, name) for name in names]
        assert expand.mu0 == -1e-3 and expand.interval == "-1,0"

    def test_each_shared_flag_is_one_declaration(self):
        commands = self.subparsers()
        for flag in self.BASIS[::2]:
            assert commands["expand"]._option_string_actions[flag] is \
                commands["sample"]._option_string_actions[flag]
        for command in ("report", "bench"):
            assert commands[command]._option_string_actions["--out"] is \
                commands["expand"]._option_string_actions["--out"]
        assert commands["report"]._option_string_actions["--problem"] is \
            commands["expand"]._option_string_actions["--problem"]


def test_module_entry_point():
    # exit 0 is asserted by the helper
    assert "expand" in _python_in_subprocess(["-m", "eigenpath", "--help"])
