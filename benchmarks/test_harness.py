"""Smoke check of the benchmark harness itself, at tiny sizes.

    python3 -m pytest benchmarks/test_harness.py -q
"""

import json
import os
import shutil
import subprocess
import sys

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 120


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def _run_harness(*extra):
    argv = [sys.executable, str(HERE / "run.py"), *extra]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def test_metric_tables_match_benchmark_json():
    assert _units(SPEC["end_to_end"]) == run.END_TO_END
    assert _units(SPEC["per_layer"]) == tracing.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == ["taylor_expand", "cheb_expand", "sample_report"]


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_on_synthetic_span_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),          # 0
        _span("taylor.a", 1.0, 4.0, 0),             # 1
        _span("linalg.b", 2.0, 3.0, 1),             # 2
        _span("taylor.a", 2.5, 2.75, 2),            # 3: nested in a span of its own name
        _span("linalg.b", 5.0, 6.5, 0),             # 4
        _span("series.c", 6.0, 8.0, 0),             # 5: overlaps 4 by 0.5
    ]
    times = tracing.span_times(spans)
    assert [t[0] for t in times] == [10.0, 3.0, 1.0, 0.25, 1.5, 2.0]
    # Root: children cover [1, 4] and [5, 8] (union, overlap counted once).
    assert times[0][1] == pytest.approx(10.0 - 3.0 - 3.0)
    assert times[1][1] == pytest.approx(2.0)
    assert times[2][1] == pytest.approx(0.75)
    assert [t[2] for t in times] == [True, True, True, False, True, True]

    metrics = tracing.layer_metrics(
        spans, {}, ops=2, op_counts={"bytes_written": 10, "files_written": 4, "newton_iterations": 0})
    assert metrics["cli.self_s"] == pytest.approx(4.0 / 2)
    assert metrics["cli.bytes_written"] == 5.0
    assert metrics["cli.files_written"] == 2.0
    assert metrics["linalg.eigen_all.calls"] == 0.0
    assert metrics["chebyshev.newton_iters_per_pair"] == 0.0


def test_tracer_wraps_and_restores_every_target():
    originals = [getattr(module, attr) for module, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install(op=0)
    try:
        for (module, attr, _), original in zip(tracing.TARGETS, originals):
            assert getattr(module, attr) is not original
        with pytest.raises(RuntimeError):
            tracer.install(op=1)
    finally:
        tracer.uninstall()
    for (module, attr, _), original in zip(tracing.TARGETS, originals):
        assert getattr(module, attr) is original


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    done = _run_harness("--workload", workload, "--seed", "3", "--seconds", "0.5",
                        "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units(SPEC["per_layer"] if trace else SPEC["end_to_end"])
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _mutate_top_order(opdir, key, factor):
    for path in opdir.rglob("eigenpair_*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        top = doc[key][-1]
        doc[key][-1] = [v * factor for v in top] if key == "lambda" else [[x * factor for x in v] for v in top]
        path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("workload", ["taylor_expand", "cheb_expand"])
@pytest.mark.parametrize("key", ["lambda", "v"])
@pytest.mark.parametrize("factor", [0.0, 1.1])
def test_expand_check_catches_a_wrong_top_order(tmp_path, workload, key, factor):
    from eigenpath.cli import main

    w = workloads.WORKLOADS[workload]
    params = w.params(1, tiny=True)
    oracle = w.oracle(params)
    codes = [main(argv) for argv in w.commands(params, None, tmp_path)]
    assert w.check(params, oracle, tmp_path, codes).ok
    _mutate_top_order(tmp_path, key, factor)
    check = w.check(params, oracle, tmp_path, codes)
    assert not check.ok
    for e in params:
        assert any(m.startswith(f"{e.problem}: ") for m in check.messages), check.messages


def test_refuses_when_numpy_was_imported_before_pinning():
    env = {k: v for k, v in os.environ.items() if k not in run.envinfo.PIN_VARIABLES}
    code = (
        "import sys, numpy; sys.path.insert(0, {here!r}); import run; "
        "sys.exit(run.main(['--workload', 'taylor_expand', '--seed', '1', '--seconds', '1', '--tiny']))"
    ).format(here=str(HERE))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S, env=env, check=False)
    assert done.returncode == 3
    assert "before the BLAS thread variables were set" in done.stderr
    assert done.stdout == ""


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "taylor_expand",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=TIMEOUT_S, check=False)
    assert done.returncode != 0
    assert done.stdout == ""
