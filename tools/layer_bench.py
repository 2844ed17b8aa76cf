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

    python tools/layer_bench.py

The package is imported from the ``src`` directory next to this script, so a
copy of the script placed in another checkout measures that checkout.  BLAS
is pinned to one thread before numpy loads, as in ``bench/run.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import timeit
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import flexboom as fb  # noqa: E402
from flexboom import cli  # noqa: E402

MODES = (3, 4, 6)
TENSION = 0.77   # N
CURVE_T_MAX = 1.8  # N
CURVE_SAMPLES = 2000
REPEATS = 5
CALLS = 40
SWEEP_SAMPLES = 125
SWEEP_PERTURBATION = 0.2
SIM_MODES = 3
SIM_DURATION = 5.0  # s, of the scenarios' 1 ms steps
MAP_FEEDFORWARD = fb.FeedforwardProfile.quintic(0.9, 1.0, 2.0)
MAP_COEFFICIENTS = (0.6, 0.5, 0.1686)  # m per N^2, m per N, m
BOX_SAMPLE = (1.2, 0.8, 1.2)  # (e, rho, i) scales of the rho-plant rows
CSV_SHAPE = (2000, 5)


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


def main() -> int:
    table = {n: layer_times(n) for n in MODES}
    print(f"us per call, best of {REPEATS} x {CALLS} (sweep: of {REPEATS} sweeps, per sample), "
          f"{fb.default_grid().size}-point grid, {TENSION:g} N")
    print(f"{'layer':<32}" + "".join(f"{f'n={n}':>10}" for n in MODES))
    for name in table[MODES[0]]:
        print(f"{name:<32}" + "".join(f"{table[n][name]:>10.1f}" for n in MODES))
    print(f"\nus per cli._csv call on a {CSV_SHAPE[0]} x {CSV_SHAPE[1]} float table, "
          f"best of {REPEATS} x {CALLS}")
    for name, value in csv_times().items():
        print(f"{'_csv ' + name:<32}{value:>10.1f}")
    print(f"\nus per RK4 step, n={SIM_MODES}, best of {REPEATS} runs of {SIM_DURATION:g} s")
    for name, value in rk4_step_times().items():
        print(f"{'rk4 ' + name:<32}{value:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
