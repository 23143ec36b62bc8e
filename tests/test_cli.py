"""CLI contract: flags, exit codes, output files, manifests, determinism."""

import csv
import importlib
import json
import os
import subprocess
import sys

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
        assert "non-simple" in capsys.readouterr().err

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
@pytest.mark.parametrize(
    "problem, mu0, order", [("example1", "0.2", "4"), ("example2", "0.8", "6")]
)
def test_expand_identical_across_blas_threads(tmp_path, problem, mu0, order, eig):
    args = [
        "--problem", problem, "--n", "8", "--method", "taylor", "--mu0", mu0,
        "--order", order, "--eig", eig,
    ]
    outs = [tmp_path / f"threads{threads}" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        _cli_in_subprocess("expand", args, out, threads)
    names = sorted(p.name for p in outs[0].glob("eigenpair_*.json"))
    assert names == sorted(p.name for p in outs[1].glob("eigenpair_*.json"))
    assert len(names) == (8 if eig == "all" else 1)
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eigenpath", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "expand" in proc.stdout
