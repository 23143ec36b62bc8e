"""CLI contract: flags, exit codes, output files, manifests, determinism."""

import csv
import importlib
import json
import os
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
    ScalarSeries,
    SeriesBasis,
    TaylorRequest,
    VectorSeries,
    eigpath_eval,
    expansion_series,
    load_eigenpair,
    save_eigenpair,
    taylor_expand_all,
)
from eigenpath import cli
from eigenpath.analysis import draw_samples
from eigenpath.cli import main


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
            assert np.all(np.isfinite(pair.vec.coeffs))

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

    @pytest.mark.parametrize("flags", [
        ["--method", "chebyshev", "--interval", "0,1,2"],
        ["--method", "taylor", "--mu0", "0.2", "--eig", "9"],
    ], ids=["three-value-interval", "eig-beyond-n"])
    def test_usage_error_leaves_no_output_directory(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        argv = ["expand", "--problem", "example1", "--n", "8", "--order", "4", *flags]
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
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

    def test_coinciding_chebyshev_paths_fail(self, tmp_path, capsys):
        # on the n=64 torus Newton takes the two warm starts of each of five
        # near-double eigenvalues of A_0 to one path; both members fail and
        # write no file
        out = tmp_path / "c64"
        code = run(
            [
                "expand", "--problem", "example1", "--n", "64", "--method", "chebyshev",
                "--interval", "0.25,1.0", "--order", "6", "--eig", "all", "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        pairs = [(22, 23), (24, 25), (36, 37), (38, 39), (61, 62)]
        assert err.count("eigenvalue path coincides with that of eigenpair") == 2 * len(pairs)
        for a, b in pairs:
            assert f"eigenpair {a} (lambda0 ~ " in err
            assert f"): eigenvalue path coincides with that of eigenpair {b}\n" in err
            assert f"): eigenvalue path coincides with that of eigenpair {a}\n" in err
            for index in (a, b):
                assert not (out / f"eigenpair_{index:02d}.json").exists()
        assert len(list(out.glob("eigenpair_*.json"))) == 42
        assert "Warning" not in err

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
        assert "config_sha256: -" not in manifest  # hash recorded

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


def _cli_in_subprocess(command, args, out, threads):
    """Run ``python -m eigenpath <command>`` with BLAS pinned to ``threads``."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    src = str(Path(eigenpath.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "eigenpath", command, *args, "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("eig", ["all", "1"])
@pytest.mark.parametrize("problem, n, mu0, order", [
    pytest.param("example1", "8", "0.2", "4", id="example1-0.2-4"),
    pytest.param("example2", "8", "0.8", "6", id="example2-0.8-6"),
    # at n=8 two BLAS threads do not speed up a complex product; at n=64 they do
    pytest.param("example2", "64", "0.8", "10", id="example2-64-0.8-10"),
])
def test_expand_identical_across_blas_threads(tmp_path, problem, n, mu0, order, eig):
    args = [
        "--problem", problem, "--n", n, "--method", "taylor", "--mu0", mu0,
        "--order", order, "--eig", eig,
    ]
    outs = [tmp_path / f"threads{threads}" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        _cli_in_subprocess("expand", args, out, threads)
    names = sorted(p.name for p in outs[0].glob("eigenpair_*.json"))
    assert names == sorted(p.name for p in outs[1].glob("eigenpair_*.json"))
    assert len(names) == (int(n) if eig == "all" else 1)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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
    # the single-precision rounding of E, near 3e-8 at every order
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
    return EigenPairSeries(
        ScalarSeries(basis, [1.0, 0.0]),
        VectorSeries(basis, [[1.0, 0.0], [-1.0 / mu_zero, 0.0]]),
    )


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
        pairs = expansion_series(taylor_expand_all(TaylorRequest(torus8, 0.2, 6)))
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
        assert header[-1] == "abs_err_rayleigh"

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
    ], ids=["without-lambda", "list-root"])
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

    def test_quad_m_with_mu0_rejected_as_by_expand(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = run(
            [
                "sample", "--problem", "example1", "--n", "8", "--mu0", "0.2",
                "--order", "4", "--quad-m", "40", "--dist", "0.2,0.1", "--count", "5",
                "--seed", "1", "--method", "taylor-eval", "--out", str(out),
            ]
        )
        assert code == 1
        assert "--quad-m applies only with --interval" in capsys.readouterr().err
        assert not out.exists()

    def test_method_basis_mismatch_rejected(self, tmp_path):
        code = run(
            [
                "sample", "--problem", "example1", "--n", "8", "--mu0", "0.2",
                "--order", "4", "--dist", "0.2,0.1", "--count", "5",
                "--seed", "1", "--method", "cheb-eval", "--out", str(tmp_path / "s"),
            ]
        )
        assert code == 1


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eigenpath", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "expand" in proc.stdout
