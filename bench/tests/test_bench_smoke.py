"""Tiny-size runs emit every named metric; the contract file matches them."""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import tracing
import workloads
from conftest import BENCH, ROOT

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload, trace):
    return harness.run(workload, seed=3, seconds=0.0, trace=trace, root=ROOT,
                       sizes=workloads.TINY, min_passes=2, setup_repeats=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = _tiny(workload, trace=False)
    assert result.correct and result.failed == 0 and result.attempted > 0
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result.metrics.items()} == expected
    assert all(v["value"] > 0 for v in result.metrics.values())
    named = ["setup_s", "wall_s", harness.THROUGHPUT[workload][0], "wall_rel",
             "work_rel", "yardstick_s", "peak_rss_mb", "error_rate"]
    lines = [line for line in result.report if line.startswith("metric ")]
    assert [line.split()[1] for line in lines] == named
    env = json.loads(result.report[0].removeprefix("env "))
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc"} <= set(env)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _tiny(workload, trace=True)
    assert result.correct and result.failed == 0
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result.metrics.items()} == expected
    for span in tracing.LAYER_SPANS:
        for suffix in ("calls", "self_s", "p50_us", "tail_us", "errors"):
            assert f"{span}.{suffix}" in result.metrics
    assert any(line.startswith("metric error_rate") for line in result.report)


def test_workload_specific_layers_are_exercised():
    layers = {w: {k: v["value"] for k, v in _tiny(w, trace=True).metrics.items()}
              for w in workloads.WORKLOADS}
    assert layers["sweep"]["passivity.uncertainty_sweep.calls"] == 2
    assert layers["sweep"]["passivity.mode_count_sweep.calls"] == 2
    # cmd_bode evaluates the nominal response once more than passivity_check.
    assert layers["sweep"]["passivity.redundant_responses"] == 4
    assert layers["sweep"]["sim.run_simulation.calls"] == 0
    assert layers["closed_loop"]["sim.rk4_steps"] == 5 * workloads.TINY.sim_steps()
    assert layers["closed_loop"]["control.evals_per_step"] >= 4
    assert layers["closed_loop"]["passivity.frequency_response.calls"] == 0
    assert layers["equilibrium_map"]["equilibrium.solves_per_inversion"] > 2
    assert layers["equilibrium_map"]["cli.bytes_written"] > 0
    assert layers["equilibrium_map"]["passivity.frequency_response.calls"] == 0


def test_contract_file_shape():
    assert CONTRACT["command"] == ["python3", "bench/run.py"]
    assert CONTRACT["paths"] == ["bench"]
    assert {w["name"] for w in CONTRACT["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert len(CONTRACT["per_layer"]) <= 128


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
