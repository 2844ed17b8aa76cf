#!/usr/bin/env python3
"""Per-layer micro-benchmark of the passivity chain and the RK4 loop.

Times each layer of one passivity certificate on the nominal boom at 0.77 N:
``assemble_matrices``, ``solve_equilibrium``, ``linearize``,
``frequency_response`` and ``passivity_check``, for 3, 4 and 6 assumed
modes, on the default 2000-point grid.  A model builds its arrays and its mass
factorization at construction and derives everything else on first read, so
the ``assemble_matrices`` row holds the closed-form matrices and the mass
factorization only: the eigendecomposition behind ``critical_tension`` is paid
by the model's first solve.  One more row times a
fresh model's ``assemble_matrices`` plus its first ``state_rate``, which builds
the stacked operator that every later ``rate_kernel`` of that model reuses.  Three
rows time the equilibrium map: a 2000-sample ``deflection_curve`` over
[0, 1.8] N, and ``tension_for_deflection`` of the tip deflection at 0.77 N,
once on the warm model and once as a fresh model's ``assemble_matrices``
plus its first inversion, which builds the closed-form map
(``StructuralModel.deflection_map``) that every later inversion reuses.
Each figure is the best of 5 batches of 40 calls, in microseconds per call.
A plant keeps its rate block's factorisation (``StateSpaceModel.rate_schur``)
after its first response, so each ``frequency_response`` and
``passivity_check`` call runs on a fresh copy of the plant
(``dataclasses.replace``) and pays for the factorisation as a new plant does;
the copy, the constructor's copies and checks, adds 22-27 us per call at 3 to 6
modes on a 2-vCPU x86-64 host.
Two rows time a box sample's plant: ``rate_scaled``, which builds the plant of
sample (1.2, 0.8, 1.2) from the nominal plant through the same constructor
(24-29 us per call on that host, its copies and checks included) and hands it
the nominal factorisation, scaled, and that plant's ``passivity_check``, which
factorises nothing.
The last layer row times a whole 125-sample ``uncertainty_sweep`` (+-20 %) at
0.77 N on the default grid, best of 5 sweeps, in microseconds per sample.
In that box only the 15 E*I classes factorise their rate blocks; each rho
plant reads its class's factorisation, scaled (``StateSpaceModel.rate_scaled``),
so the ``uncertainty_sweep/sample`` row is not comparable with runs of trees
in which every certified plant factorised its own.
One row under the table times a whole ``mode_count_sweep`` over 3 to 6 modes
at 0.77 N on the default grid (the bench's ``sweep`` workload runs it as its
second command), best of 5 sweeps, in microseconds per sweep: four models,
solves, plants and factorisations, none shared.
Then times the CLI's CSV writer, ``cli._csv``, on a 2000 x 5 table of
float64 values (a default-grid Bode table's shape), passed once as a 2-d
array and once as a list of tuples of ``np.float64``, in microseconds per table.
Then times the RK4 loop: a whole ``run_simulation`` of 5 s (5000 steps of
1 ms) at 3 modes, for each of the four named scenarios (fig7a, fig7c, fig8,
fig8-clamped), for a map-composed run (fig8's gains, a quintic feedforward
from 0.9 to 1 N over 2 s and the reference read from a quadratic map of it,
as ``flexboom simulate`` builds from a fitted map) and for fig7a unforced,
best of 5 runs, in microseconds per step.  The per-run setup (the initial
equilibrium) and the log derived after the loop are included in that figure;
all runs share one model, so its operator is built once, not per run.
One row under them times a single call of a bound ``rate_kernel`` (the
fig7a law at three modes, at the scenario's initial state, into one output
array), best of 5 batches of 4000 calls, in microseconds per call: the
right-hand-side evaluation each RK4 stage makes, that is the product R x, the
law's call and the weighted product (1, u, u) that forms the rate.
Last, the cold start, each figure the median of 7 fresh interpreters, in
seconds: the benchmark's set-up probe (``import flexboom.cli`` plus the first
nominal three-mode ``assemble_matrices``, timed inside the interpreter, as
``bench/harness.py`` times it), and the wall time of each CLI command on the
default config, from process start to exit: ``equilibrium --tension 1``, the
default ``equilibrium`` curve, ``fit`` of a five-point quadratic data set,
``bode --teq 0.77`` and a 4 s ``simulate --scenario fig7a``.  Building a model
and mapping equilibria run on numpy alone; a plant's first factorisation loads
``scipy.linalg`` and an inversion ``scipy.optimize``, so ``bode`` and
``simulate`` pay for scipy.

    python tools/layer_bench.py

The package is imported from the ``src`` directory next to this script, so a
copy of the script placed in another checkout measures that checkout.  BLAS
is pinned to one thread before numpy loads, as in ``bench/run.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import flexboom as fb  # noqa: E402
from flexboom import cli  # noqa: E402

MODES = (3, 4, 6)
TENSION = 0.77   # N
CURVE_T_MAX = 1.8  # N
CURVE_SAMPLES = 2000
REPEATS = 5
CALLS = 40
KERNEL_CALLS = 4000
SWEEP_SAMPLES = 125
SWEEP_PERTURBATION = 0.2
SWEEP_MODES = (3, 4, 5, 6)
SIM_MODES = 3
SIM_DURATION = 5.0  # s, of the scenarios' 1 ms steps
MAP_FEEDFORWARD = fb.FeedforwardProfile.quintic(0.9, 1.0, 2.0)
MAP_COEFFICIENTS = (0.6, 0.5, 0.1686)  # m per N^2, m per N, m
BOX_SAMPLE = (1.2, 0.8, 1.2)  # (e, rho, i) scales of the rho-plant rows
CSV_SHAPE = (2000, 5)
COLD_RUNS = 7
COLD_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import flexboom.cli
from flexboom.model import BasisSet, BoomParams, assemble_matrices
assemble_matrices(BoomParams(), BasisSet.with_mode_count(3))
print(repr(time.perf_counter() - t0))
"""
COLD_COMMAND = """\
import sys
sys.path.insert(0, sys.argv[1])
from flexboom.cli import main
sys.exit(main(sys.argv[2:]))
"""
COLD_COMMANDS = {
    "equilibrium --tension 1": ["equilibrium", "--tension", "1"],
    "equilibrium (curve)": ["equilibrium"],
    "fit": ["fit", "{data}"],
    "bode --teq 0.77": ["bode", "--teq", "0.77"],
    "simulate fig7a 4 s": ["simulate", "--scenario", "fig7a", "--duration", "4"],
}


def layer_times(modes: int) -> dict[str, float]:
    """Best-of-REPEATS microseconds per call for each layer."""
    params = fb.BoomParams()
    basis = fb.BasisSet.with_mode_count(modes)
    grid = fb.default_grid()
    model = fb.assemble_matrices(params, basis)
    eq = fb.solve_equilibrium(model, TENSION)
    ss = fb.linearize(model, eq)
    x = np.concatenate((eq.modal_coords, np.zeros(modes)))
    layers = {
        "assemble_matrices": lambda: fb.assemble_matrices(params, basis),
        "assemble+state_rate": lambda: fb.state_rate(fb.assemble_matrices(params, basis), x,
                                                     lambda w_tip, w_rate: TENSION),
        "solve_equilibrium": lambda: fb.solve_equilibrium(model, TENSION),
        "deflection_curve": lambda: fb.deflection_curve(model, t_max=CURVE_T_MAX,
                                                        samples=CURVE_SAMPLES),
        "tension_for_deflection": lambda: fb.tension_for_deflection(model, eq.tip_deflection),
        "assemble+tension_for_deflection": lambda: fb.tension_for_deflection(
            fb.assemble_matrices(params, basis), eq.tip_deflection),
        "linearize": lambda: fb.linearize(model, eq),
        "frequency_response": lambda: fb.frequency_response(dataclasses.replace(ss), grid),
        "passivity_check": lambda: fb.passivity_check(dataclasses.replace(ss), grid),
    }
    e, rho, i = BOX_SAMPLE
    rho_plant = functools.partial(ss.rate_scaled, e * i / rho, ss.b / rho, TENSION)
    layers["rate_scaled"] = rho_plant
    layers["passivity_check/rho plant"] = functools.partial(fb.passivity_check, rho_plant(),
                                                            grid)
    times = {name: 1e6 * min(timeit.repeat(call, number=CALLS, repeat=REPEATS)) / CALLS
             for name, call in layers.items()}
    sweep = functools.partial(fb.uncertainty_sweep, params, basis, TENSION,
                              SWEEP_PERTURBATION, SWEEP_SAMPLES, grid)
    times["uncertainty_sweep/sample"] = (
        1e6 * min(timeit.repeat(sweep, number=1, repeat=REPEATS)) / SWEEP_SAMPLES)
    return times


def mode_sweep_time() -> float:
    """Best-of-REPEATS microseconds per ``mode_count_sweep`` over SWEEP_MODES."""
    sweep = functools.partial(fb.mode_count_sweep, fb.BoomParams(), SWEEP_MODES, TENSION,
                              fb.default_grid())
    return 1e6 * min(timeit.repeat(sweep, number=1, repeat=REPEATS))


def csv_times() -> dict[str, float]:
    """Best-of-REPEATS microseconds per ``cli._csv`` call on one float table."""
    table = np.random.default_rng(0).standard_normal(CSV_SHAPE)
    header = [f"c{j}" for j in range(CSV_SHAPE[1])]
    inputs = {"array": table, "tuples": [tuple(row) for row in table]}
    return {name: 1e6 * min(timeit.repeat(functools.partial(cli._csv, header, rows),
                                          number=CALLS, repeat=REPEATS)) / CALLS
            for name, rows in inputs.items()}


def rk4_step_times() -> dict[str, float]:
    """Best-of-REPEATS microseconds per RK4 step of a whole simulation run."""
    runs = {s.name: s for s in fb.scenario_suite(mode_count=SIM_MODES, duration=SIM_DURATION)}
    fig7a, fig8 = runs["fig7a"], runs["fig8"]
    runs["map-composed"] = dataclasses.replace(fig8, name="map-composed", controller=(
        dataclasses.replace(fig8.controller, feedforward=MAP_FEEDFORWARD,
                            reference=fb.ReferenceTrajectory.map_composed(MAP_COEFFICIENTS))))
    runs["unforced"] = dataclasses.replace(fig7a, controller=None, name="unforced")
    steps = round(SIM_DURATION / fig7a.dt)
    return {name: 1e6 * min(timeit.repeat(functools.partial(fb.run_simulation, scenario),
                                          number=1, repeat=REPEATS)) / steps
            for name, scenario in runs.items()}


def kernel_call_time() -> float:
    """Best-of-REPEATS microseconds per call of the fig7a law's bound ``rate_kernel``."""
    fig7a = next(s for s in fb.scenario_suite(mode_count=SIM_MODES) if s.name == "fig7a")
    kernel = fig7a.model.rate_kernel(fb.make_controller(fig7a.controller))
    x = fb.initial_state_from_deflection(fig7a.model, fig7a.w_init).as_vector()
    call = functools.partial(kernel, 0.5, x, np.empty_like(x))
    return 1e6 * min(timeit.repeat(call, number=KERNEL_CALLS, repeat=REPEATS)) / KERNEL_CALLS


def _fresh(code: str, *args: str) -> tuple[float, str]:
    """Wall seconds and stdout of ``code`` run in a fresh interpreter."""
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-c", code, str(SRC), *args],
                         capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if run.returncode != 0:
        raise RuntimeError(f"cold run {args} failed: {run.stderr.strip()}")
    return wall, run.stdout


def cold_start_times() -> dict[str, float]:
    """Median seconds over COLD_RUNS fresh interpreters: the set-up probe, then each command."""
    times = {"probe (import + assemble)": statistics.median(
        float(_fresh(COLD_PROBE)[1]) for _ in range(COLD_RUNS))}
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text("torque_N,deflection_m\n" + "".join(
            f"{t},{1.5 * t + 0.4 * t * t}\n" for t in (0.2, 0.4, 0.6, 0.8, 1.0)))
        for name, args in COLD_COMMANDS.items():
            args = [arg.format(data=data) for arg in args] + ["--out", str(Path(tmp) / "out")]
            times[name] = statistics.median(_fresh(COLD_COMMAND, *args)[0]
                                            for _ in range(COLD_RUNS))
    return times


def main() -> int:
    table = {n: layer_times(n) for n in MODES}
    print(f"us per call, best of {REPEATS} x {CALLS} (sweep: of {REPEATS} sweeps, per sample), "
          f"{fb.default_grid().size}-point grid, {TENSION:g} N")
    print(f"{'layer':<32}" + "".join(f"{f'n={n}':>10}" for n in MODES))
    for name in table[MODES[0]]:
        print(f"{name:<32}" + "".join(f"{table[n][name]:>10.1f}" for n in MODES))
    label = f"mode_count_sweep {SWEEP_MODES[0]}-{SWEEP_MODES[-1]}/sweep"
    print(f"{label:<32}{mode_sweep_time():>10.1f}")
    print(f"\nus per cli._csv call on a {CSV_SHAPE[0]} x {CSV_SHAPE[1]} float table, "
          f"best of {REPEATS} x {CALLS}")
    for name, value in csv_times().items():
        print(f"{'_csv ' + name:<32}{value:>10.1f}")
    print(f"\nus per RK4 step, n={SIM_MODES}, best of {REPEATS} runs of {SIM_DURATION:g} s")
    for name, value in rk4_step_times().items():
        print(f"{'rk4 ' + name:<32}{value:>10.2f}")
    print(f"{'rk4 kernel call (fig7a)':<32}{kernel_call_time():>10.2f}")
    print(f"\ns from a fresh interpreter, median of {COLD_RUNS}; commands on the default config")
    for name, value in cold_start_times().items():
        print(f"{'cold ' + name:<32}{value:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
