"""The three benchmark workloads: seeded inputs, pinned sizes and timed passes.

Every input the program receives is written out here in full: complete
config files, the frequency grid, sample counts, tension ranges, step size,
decimation and mode count.  A later change to a library default therefore
cannot silently change the amount of work a pass does.  The seed draws
only the inputs named in ``make_inputs``.

One pass is one closed-loop job: a single caller issues the workload's
operations one after another and waits for each.  ``run_pass`` is the
timed region; it returns the operations it attempted, and the checks in
``reference.py`` read their outputs afterwards, outside the timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import flexboom.cli as cli
import flexboom.equilibrium as equilibrium
import flexboom.model as model

WORKLOADS = ("sweep", "closed_loop", "equilibrium_map")

NOMINAL_BOOM = {
    "length": 29.4,
    "linear_density": 0.1,
    "elastic_modulus": 228e9,
    "second_moment": 4.99e-10,
    "cable_offset": 0.1,
    "spreader_count": 10,
    "node_spacing": 2.94,
}
MODE_COUNT = 3
SCENARIOS = ("fig7a", "fig7c", "fig8", "fig8-clamped")
GAINS = {"k_p": 10.0, "k_d": 25.0}
TENSION_FINAL = 1.0            # N, target of the custom map-composed run
CHECKED_TENSION_MAX = 2.0      # N, the CLI's verified range for bode/simulate


@dataclass(frozen=True)
class Sizes:
    """Pinned amounts of work; FULL is the benchmark, TINY the smoke tests."""

    grid_points: int = 2000
    omega_min: float = 1e-3
    omega_max: float = 1e3
    eps_tol: float = 1e-9
    sweep_samples: int = 125          # a full cube: 5 levels per axis
    sweep_pct: float = 20.0
    sweep_modes: tuple[int, ...] = (3, 4, 5, 6)
    sim_duration: float = 4.0
    sim_dt: float = 1e-3
    sim_decimation: int = 50
    fit_levels: int = 21
    fit_noise_m: float = 2e-3
    curve_samples: int = 2000
    inversions: int = 50

    def grid(self) -> np.ndarray:
        return np.logspace(np.log10(self.omega_min), np.log10(self.omega_max),
                           self.grid_points)

    def sim_steps(self) -> int:
        return int(round(self.sim_duration / self.sim_dt))


FULL = Sizes()
TINY = replace(FULL, grid_points=60, sweep_samples=8, sweep_modes=(3, 4),
               sim_duration=0.5, sim_decimation=50, fit_levels=8,
               curve_samples=24, inversions=3)


@dataclass(frozen=True)
class Inputs:
    """Everything a workload's passes consume, generated from the seed."""

    workload: str
    seed: int
    sizes: Sizes
    tensions: tuple[float, ...] = ()          # sweep: equilibrium tensions
    w_init: float = 1.0                        # closed_loop: initial tip (m)
    t_max: float = CHECKED_TENSION_MAX         # equilibrium_map: curve range
    targets: tuple[float, ...] = ()            # equilibrium_map: inversions
    noise: tuple[float, ...] = field(default=(), repr=False)

    def describe(self) -> dict:
        return {"tensions_N": list(self.tensions), "w_init_m": self.w_init,
                "t_max_N": self.t_max, "inversion_targets": len(self.targets),
                "noise_samples": len(self.noise)}


def make_inputs(workload: str, seed: int, sizes: Sizes, curve_tip_at) -> Inputs:
    """Draw the seeded inputs.

    ``curve_tip_at(t)`` gives the equilibrium tip deflection at tension t;
    it comes from the reference solver, so drawing inversion targets inside
    the reachable range does not run the program under test.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    rng = np.random.default_rng(seed)
    if workload == "sweep":
        return Inputs(workload, seed, sizes,
                      tensions=tuple(float(t) for t in rng.uniform(0.0, 1.5, 2)))
    if workload == "closed_loop":
        # Above 0.9 m every run completes; at 0.5 m the constant-feedforward
        # runs diverge, which would make the work depend on the seed.
        return Inputs(workload, seed, sizes, w_init=float(rng.uniform(0.9, 1.2)),
                      noise=tuple(rng.normal(0.0, sizes.fit_noise_m, sizes.fit_levels)))
    t_max = float(rng.uniform(1.5, 2.0))
    w_max = curve_tip_at(t_max)
    targets = rng.uniform(0.05, 0.95, sizes.inversions) * w_max
    return Inputs(workload, seed, sizes, t_max=t_max,
                  targets=tuple(float(w) for w in targets),
                  noise=tuple(rng.normal(0.0, sizes.fit_noise_m, sizes.curve_samples)))


def fit_levels(sizes: Sizes) -> np.ndarray:
    """Torque levels of the closed_loop calibration data (N)."""
    return np.linspace(0.0, 1.5, sizes.fit_levels)


def base_config(inputs: Inputs, out_dir: Path) -> dict:
    """A complete CLI config: every key of the schema set explicitly."""
    s = inputs.sizes
    return {
        "boom": dict(NOMINAL_BOOM),
        "modes": MODE_COUNT,
        "unit_profile": "simulation-SI",
        "output_dir": str(out_dir),
        "equilibrium": {"t_max": inputs.t_max, "samples": s.curve_samples},
        "bode": {"omega_min": s.omega_min, "omega_max": s.omega_max,
                 "grid_points": s.grid_points, "eps_tol": s.eps_tol},
        "controller": {
            "gains": dict(GAINS),
            "feedforward": {"mode": "constant", "tension_final": TENSION_FINAL,
                            "tension_initial": 0.0, "duration": s.sim_duration},
            "reference": {"mode": "constant", "w_final": None, "w_initial": None,
                          "duration": s.sim_duration, "map_coefficients": [],
                          "map_units": []},
            "clamp_nonnegative": False,
        },
        "simulation": {"w_init": inputs.w_init, "duration": s.sim_duration,
                       "dt": s.sim_dt, "decimation": s.sim_decimation,
                       "scenario": None},
    }


def custom_config(base: dict, coefficients, tension_initial: float) -> dict:
    """The custom run: quintic feedforward and a map-composed reference."""
    config = json.loads(json.dumps(base))
    ctrl = config["controller"]
    ctrl["feedforward"].update(mode="quintic", tension_initial=tension_initial)
    ctrl["reference"].update(mode="map-composed",
                             map_coefficients=[float(c) for c in coefficients],
                             map_units=["N", "m"])
    return config


def write_fit_csv(path: Path, torques, deflections) -> None:
    lines = ["torque_N,deflection_m"]
    lines.extend(f"{float(t)!r},{float(w)!r}" for t, w in zip(torques, deflections))
    path.write_text("\n".join(lines) + "\n")


@dataclass
class Op:
    """One operation of a pass: a CLI command or a library call."""

    kind: str
    code: int | None            # CLI exit code; 0 for a library call that returned
    out: Path | None = None     # output directory of a CLI command
    arg: float | None = None    # sweep tension, or inversion target
    value: float | None = None  # inversion result
    error: str = ""


def _cli_op(kind: str, argv: list[str], out: Path, arg: float | None = None) -> Op:
    """Run one ``flexboom`` command in-process, as its exit code would report it."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv + ["--out", str(out)])
        except SystemExit as exc:   # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
            return Op(kind, code, out=out, arg=arg, error="usage error")
        except Exception as exc:    # uncaught, it would end the command with code 1
            error = traceback.format_exception_only(exc)[-1].strip()
            return Op(kind, 1, out=out, arg=arg, error=error)
    return Op(kind, code, out=out, arg=arg)


def prepare(inputs: Inputs, work: Path, solver) -> dict:
    """Write the input files (untimed); return them with the inputs passes need."""
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    base = base_config(inputs, work / "default_out")
    config_path.write_text(json.dumps(base, indent=2))
    files = {"config": config_path, "base": base}
    if inputs.workload == "closed_loop":
        torques = fit_levels(inputs.sizes)
        deflections = np.array([solver.tip_at(t) for t in torques]) + inputs.noise
        files["fit_data"] = work / "fit_data.csv"
        write_fit_csv(files["fit_data"], torques, deflections)
        files["tension_initial"] = solver.tension_for(inputs.w_init)
    return files


def run_pass(inputs: Inputs, files: dict, work: Path) -> list[Op]:
    """The timed job: the workload's operations, one at a time."""
    if inputs.workload == "sweep":
        return _sweep_pass(inputs, files, work)
    if inputs.workload == "closed_loop":
        return _closed_loop_pass(inputs, files, work)
    return _equilibrium_map_pass(inputs, files, work)


def _sweep_pass(inputs: Inputs, files: dict, work: Path) -> list[Op]:
    s = inputs.sizes
    ops = []
    for i, t_eq in enumerate(inputs.tensions):
        common = ["bode", "--config", str(files["config"]), "--teq", repr(t_eq)]
        ops.append(_cli_op("bode-uncertainty", common + [
            "--sweep", "uncertainty", "--pct", repr(s.sweep_pct),
            "--samples", str(s.sweep_samples)], work / f"bode{i}_uncertainty", t_eq))
        ops.append(_cli_op("bode-modes", common + [
            "--sweep", "modes", "--modes", ",".join(map(str, s.sweep_modes))],
            work / f"bode{i}_modes", t_eq))
    return ops


def _closed_loop_pass(inputs: Inputs, files: dict, work: Path) -> list[Op]:
    config = str(files["config"])
    ops = [_cli_op(f"simulate-{name}", ["simulate", "--config", config,
                                        "--scenario", name], work / f"sim_{name}")
           for name in SCENARIOS]
    fit = _cli_op("fit", ["fit", str(files["fit_data"]), "--config", config,
                          "--degree", "auto"], work / "fit")
    ops.append(fit)
    try:
        if fit.code != 0:
            raise ValueError(f"fit exited with code {fit.code}")
        fragment = json.loads((fit.out / "fit_map.json").read_text())
        coefficients = fragment["reference"]["map_coefficients"]
    except (OSError, ValueError, KeyError) as exc:
        ops.append(Op("simulate-custom", None, error=f"no fitted map to run: {exc}"))
        return ops
    custom = custom_config(files["base"], coefficients, files["tension_initial"])
    custom_path = work / "custom.json"
    custom_path.write_text(json.dumps(custom))
    ops.append(_cli_op("simulate-custom", ["simulate", "--config", str(custom_path)],
                       work / "sim_custom"))
    return ops


def _equilibrium_map_pass(inputs: Inputs, files: dict, work: Path) -> list[Op]:
    curve = _cli_op("equilibrium", ["equilibrium", "--config", str(files["config"])],
                    work / "curve")
    ops = [curve]
    nominal = model.assemble_matrices(model.BoomParams(**NOMINAL_BOOM),
                                      model.BasisSet.with_mode_count(MODE_COUNT))
    for target in inputs.targets:
        try:
            tension = equilibrium.tension_for_deflection(nominal, target,
                                                         t_max=inputs.t_max)
        except Exception as exc:    # a raising call is a failed operation
            ops.append(Op("inversion", None, arg=target, error=str(exc)))
        else:
            ops.append(Op("inversion", 0, arg=target, value=tension))
    try:
        if curve.code != 0:
            raise ValueError(f"equilibrium exited with code {curve.code}")
        rows = (curve.out / "equilibrium_curve.csv").read_text().splitlines()[1:]
        torques = [float(r.split(",", 2)[0]) for r in rows]
        tips = [float(r.split(",", 2)[1]) + e for r, e in zip(rows, inputs.noise)]
    except (OSError, ValueError, IndexError) as exc:
        ops.append(Op("fit", None, error=f"no curve to fit: {exc}"))
        return ops
    data = work / "curve_fit_data.csv"
    write_fit_csv(data, torques, tips)
    ops.append(_cli_op("fit", ["fit", str(data), "--config", str(files["config"]),
                               "--degree", "auto"], work / "fit"))
    return ops
