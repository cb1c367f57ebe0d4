"""Smoke test of the benchmark harness at tiny sizes (3x3 arrays, rings of
N=2, 16 trajectories): the untraced path, the traced path and the checks
for every workload.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=1, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 2
    return result


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = bench(workload, trace=0)
    metrics = result_of(proc)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    for name in ("wall_s", "setup_s", "peak_rss_mb", "fail_frac", "nproc"):
        assert name in proc.stdout


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_reports_every_layer_metric(workload):
    metrics = result_of(bench(workload, trace=1))["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert 0.0 < metrics["trace.coverage"]["value"] <= 1.0


@pytest.mark.parametrize("workload", workloads.SEEDED)
def test_seeded_workloads_pass_at_the_reference_seed(workload):
    result_of(bench(workload, trace=0, seed=workloads.DEFAULT_SEED))


def execute(workload, out, seed=workloads.DEFAULT_SEED):
    from atomarray import cli
    cfg = workloads.config("tiny", workload)
    cli.run(cfg, out_dir=out, seed=seed)
    obs = workloads.observe(workload, out)
    return cfg, obs, workloads.load_reference("tiny", workload, seed)


@pytest.mark.parametrize("workload, key, index, value", [
    ("transmit", "R", 0, 0.999),          # R + T > 1
    ("transmit", "Re_t", 2, 0.5),         # differs from the reference
    ("disorder", "T", 1, 1.5),
    ("eigen", "linewidth", 0, 0.5),       # breaks sum = tr H
    ("traj", "trace_distance", 2, 0.9),
    ("qme", "total_excited", 0, 0.1),     # population at t=0
    ("qme", "steady_population", 0, 0.2),
])
def test_checks_reject_wrong_outputs(workload, key, index, value, tmp_path):
    cfg, obs, ref = execute(workload, tmp_path)
    workloads.check(workload, cfg, obs, ref)
    obs[key][index] = value
    with pytest.raises(workloads.CheckError):
        workloads.check(workload, cfg, obs, ref)


def test_removed_function_is_absent_not_zero(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "lli",
                        tracing.LAYERS["lli"] + ("no_such_function",))
    tracer = tracing.Tracer()
    installed = tracer.install()
    assert "lli.no_such_function" not in installed
    assert "lli.assemble" in installed
    metrics = tracer.execution_metrics(0)
    assert "lli.no_such_function.self_s" not in metrics
    assert metrics["lli.assemble.calls"] == 0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("transmit", trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
