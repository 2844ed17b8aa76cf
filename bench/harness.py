"""Runs one workload for a fixed time and gathers its metrics.

A run builds the seed's inputs and references, makes one untimed warm-up
pass, then repeats timed passes until ``seconds`` have elapsed (at least
``min_passes``).  The yardstick is timed before the first pass and after
every pass; each pass is also reported relative to the mean of the two
yardstick timings around it.  Every pass's outputs are checked against the
reference after its timing ends.  End-to-end metrics are medians over
untraced passes.  A traced run alternates untraced and traced passes, so
that ``trace_overhead`` compares passes made under the same conditions; its
per-layer metrics come from the traced passes only.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import reference
import tracing
import workloads
from yardstick import Yardstick

SETUP_REPEATS = 7
MIN_PASSES = 4

# The workload's own name for its throughput; the contract line carries it as
# work_rel, relative to the yardstick.
THROUGHPUT = {
    "sweep": ("sweep_samples_per_s", "samples/s"),
    "closed_loop": ("sim_steps_per_s", "steps/s"),
    "equilibrium_map": ("equilibria_per_s", "equilibria/s"),
}
END_TO_END_UNITS = {"setup_s": "s", "wall_rel": "yardstick",
                    "work_rel": "1/yardstick", "peak_rss_mb": "MB"}

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import flexboom.cli
from flexboom.model import BasisSet, BoomParams, assemble_matrices
assemble_matrices(BoomParams(**{boom!r}), BasisSet.with_mode_count({modes}))
print(repr(time.perf_counter() - t0))
"""


def measure_setup(src: Path, repeats: int) -> list[float]:
    """Seconds from a fresh interpreter to ``import flexboom.cli`` plus the
    first nominal ``assemble_matrices``, once per fresh interpreter."""
    code = _SETUP_CODE.format(boom=workloads.NOMINAL_BOOM, modes=workloads.MODE_COUNT)
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=120,
                              cwd=src.parent)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def environment() -> dict:
    """Versions, BLAS build and thread settings, and core count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy without the dict form of show_config
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


@dataclass
class PassRecord:
    traced: bool
    wall: float
    ops: int
    check: reference.PassCheck
    yardstick: float = 0.0      # mean yardstick time around the pass (s)

    @property
    def wall_rel(self) -> float:
        return self.wall / self.yardstick


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def contract_line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def _one_pass(inputs, files, out: Path, ref, tracer) -> PassRecord:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    if tracer is None:
        tracing.assert_unwrapped()
        start = perf_counter()
        ops = workloads.run_pass(inputs, files, out)
        wall = perf_counter() - start
    else:
        with tracing.instrumented(tracer):
            start = perf_counter()
            with tracer.span(tracing.PASS_SPAN):
                ops = workloads.run_pass(inputs, files, out)
            wall = perf_counter() - start
    return PassRecord(tracer is not None, wall, len(ops), reference.check_pass(ops, ref))


def _median_tail(values: list[float]) -> str:
    pct, value = tracing.tail(np.asarray(values))
    return f"median of {len(values)} passes; p{pct:.4g} {value:.6g}"


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        sizes: workloads.Sizes = workloads.FULL, min_passes: int = MIN_PASSES,
        setup_repeats: int = SETUP_REPEATS) -> RunResult:
    """Run one workload and return its contract metrics and report."""
    solver = reference.nominal_solver()
    inputs = workloads.make_inputs(workload, seed, sizes, solver.tip_at)
    ref = reference.build_reference(inputs, solver)
    work = root / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer() if trace else None
    yardstick = Yardstick()
    try:
        files = workloads.prepare(inputs, work / "inputs", solver)
        yardstick.measure()                                             # warm-up
        records = [_one_pass(inputs, files, work / "out", ref, None)]   # warm-up
        start = perf_counter()
        before = yardstick.measure()
        k = 0
        while k < min_passes or perf_counter() - start < seconds:
            pass_tracer = tracer if k % 2 == 1 else None
            record = _one_pass(inputs, files, work / "out", ref, pass_tracer)
            after = yardstick.measure()
            record.yardstick = 0.5 * (before + after)
            before = after
            records.append(record)
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    timed = records[1:]
    plain = [r for r in timed if not r.traced]
    walls = [r.wall for r in plain]
    attempted = sum(r.ops for r in records)
    failed = sum(r.check.failed_ops for r in records)
    failures = [f for r in records for f in r.check.failures]
    name, unit = THROUGHPUT[workload]
    rates = [r.check.work / r.wall for r in plain]
    rel = [r.wall_rel for r in plain]
    yard = [r.yardstick for r in plain]

    report = [f"env {_json(environment())}",
              f"workload {workload} seed {seed} inputs {_json(inputs.describe())}",
              f"sizes {_json(sizes.__dict__)}"]
    result = RunResult(correct=failed == 0, attempted=attempted, failed=failed,
                       metrics={}, report=report, failures=failures)
    if not trace:
        setup = measure_setup(root / "src", setup_repeats)
        values = {
            "setup_s": statistics.median(setup),
            "wall_rel": statistics.median(rel),
            "work_rel": statistics.median(r.check.work / r.wall_rel for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result.metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                          for k, v in values.items()}
        report += [
            f"metric setup_s = {values['setup_s']:.6g} s (median of {len(setup)} "
            "fresh interpreters)",
            f"metric wall_s = {statistics.median(walls):.6g} s ({_median_tail(walls)})",
            f"metric {name} = {statistics.median(rates):.6g} {unit} "
            f"(median of {len(rates)} passes)",
            f"metric wall_rel = {values['wall_rel']:.6g} yardstick "
            "(pass wall time / yardstick time around it, median)",
            f"metric work_rel = {values['work_rel']:.6g} 1/yardstick "
            f"({name} x yardstick time, median)",
            f"metric yardstick_s = {statistics.median(yard):.6g} s "
            f"(median of {len(yard)} timings)",
            f"metric peak_rss_mb = {values['peak_rss_mb']:.6g} MB",
            f"metric error_rate = {failed / attempted:.6g} "
            f"({failed} of {attempted} operations failed)",
        ]
        return result

    traced = [r for r in timed if r.traced]
    metrics, tails = tracing.layer_metrics(tracer, len(traced))
    metrics["cli.bytes_written"] = statistics.mean(r.check.bytes_written for r in traced)
    metrics["passivity.nudged_points"] = statistics.mean(
        r.check.nudged_points for r in traced)
    metrics["trace_overhead"] = (statistics.median(r.wall_rel for r in traced)
                                 / statistics.median(rel) - 1.0)
    result.metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    report.append(f"traced passes {len(traced)}, untraced passes {len(plain)}; "
                  "counts and self times are per traced pass")
    for key, value in metrics.items():
        line = f"layer {key} = {value:.6g} {layer_unit(key)}"
        span = key.rsplit(".", 1)[0]
        if key.endswith(".tail_us") and span in tails:
            pct, n = tails[span]
            line += f" (p{pct:.4g} of {n} samples)"
        report.append(line)
    report.append(f"metric error_rate = {failed / attempted:.6g} "
                  f"({failed} of {attempted} operations failed)")
    return result


def layer_unit(key: str) -> str:
    if key.endswith(("_us", ".us_per_rhs", ".us_per_grid_point")):
        return "us"
    if key.endswith("_s"):
        return "s"
    if key.endswith("bytes_written"):
        return "bytes"
    if key in ("trace_overhead", "equilibrium.solves_per_inversion",
               "control.evals_per_step"):
        return "ratio"
    return "count"


def _json(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)
