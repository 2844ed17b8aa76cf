#!/usr/bin/env python3
"""Fingerprint the flexboom CLI on a fixed command set.

Runs every command of a fixed set in-process through ``flexboom.cli.main``,
inside one work directory, with fixed relative ``--out`` paths and
deterministic input files, and prints each exit code (``exit raised <Type>``
for an exception that escapes ``main``), whether each command's output
directory exists (``dir present|absent  <label>``), and one
``<sha256>  <name>`` line per output file and per captured stdout and
stderr.  Two trees whose printouts match write byte-identical CLI outputs on
this set, and leave the same directories behind.

    python tools/cli_fingerprint.py > a.txt        # in one tree
    python tools/cli_fingerprint.py > b.txt        # in the other
    diff a.txt b.txt

The package is imported from the ``src`` directory next to this script, so
a copy of the script placed in another checkout fingerprints that checkout.
The commands run in a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flexboom.cli import main as flexboom_main  # noqa: E402

# Config files written to ``<name>.json`` in the work directory.
CONFIGS = {
    # A map-composed custom run: quintic feedforward, reference read from a map.
    "map": {
        "controller": {
            "feedforward": {"mode": "quintic", "tension_initial": 0.9,
                            "tension_final": 1.0, "duration": 2.0},
            "reference": {"mode": "map-composed",
                          "map_coefficients": [0.6, 0.5, 0.1686],
                          "map_units": ["N", "m"]},
        },
    },
    # Six assumed modes put grid points near poles: at 1 N the sweep nudges
    # point 624 of sample (0.8, 1.0, 0.8), 1.75e-6 (relative) above its lowest
    # pole; at 0.75 N point 702 of two samples lies 6.9e-5 from a pole and is
    # not nudged.
    "modes6": {"modes": 6},
    # Well-typed configs carrying non-finite numbers (JSON NaN).
    "nan_eps_tol": {"bode": {"eps_tol": float("nan")}},
    "nan_w_final": {"controller": {"reference": {"w_final": float("nan")}}},
    # Ranges the library refuses: a curve over [0, -1] N, a grid from 0 rad/s.
    "t_max_negative": {"equilibrium": {"t_max": -1}},
    "omega_min_zero": {"bode": {"omega_min": 0}},
    # Two modes have no critical tension, but their eigenvalues turn complex
    # (flutter) between 25.85 and 25.86 N.
    "flutter": {"modes": 2, "equilibrium": {"t_max": 40}},
    # JSON ints for float leaves; each must act as the float it stands for.
    "int_leaves": {"equilibrium": {"t_max": 1},
                   "bode": {"omega_min": 1, "omega_max": 100},
                   "simulation": {"w_init": 1, "duration": 1}},
    # A log row for every step, so every row's bytes are compared.
    "every_step": {"simulation": {"decimation": 1}},
    # Cable routes: no spreader, one spreader, and nine nodes at 3 m, which
    # end the route 2.4 m short of the tip (the default's last node sits on it).
    "route_none": {"boom": {"spreader_count": 0}},
    "route_one": {"boom": {"spreader_count": 1}},
    "route_short": {"boom": {"spreader_count": 9, "node_spacing": 3.0}},
    # Mode counts past the basis's reach: from 13 modes the mass matrix is not
    # numerically positive definite; at 150 the closed-form matrices overflow.
    "modes13": {"modes": 13},
    "modes150": {"modes": 150},
    # Refusals at the first critical tension: one mode buckles at 0.924 N, inside
    # the default [0, 2] N curve; three modes at 8.0 N, below a 9 N point.  Ten
    # modes buckle at 11.1 N, so their curve and 1 N plant are answered.
    "modes1": {"modes": 1},
    "t_max10": {"equilibrium": {"t_max": 10}},
    "modes10": {"modes": 10},
}

# Configs for the controller-construction cases, each run through ``simulate``.
SIM_CONFIGS = {
    "map_empty": {"controller": {"reference": {"mode": "map-composed"}}},
    "ref_unknown": {"controller": {"reference": {"mode": "bogus"}}},
    "ff_unknown": {"controller": {"feedforward": {"mode": "bogus"}}},
    "map_units_mismatch": {"controller": {"reference": {
        "mode": "map-composed", "map_coefficients": [0.6, 0.5, 0.1686],
        "map_units": ["Nm", "mm"]}}},
    "map_units_constant": {"controller": {"reference": {
        "mode": "constant", "map_units": ["Nm", "mm"]}}},
    "quintic_null_ends": {"controller": {
        "feedforward": {"mode": "quintic", "tension_initial": 0.9, "duration": 2.0},
        "reference": {"mode": "quintic-deflection", "w_initial": None,
                      "w_final": None, "duration": 2.0}}},
    "int_tension_final": {"controller": {"feedforward": {"tension_final": 1}}},
    "nan_w_init": {"simulation": {"w_init": float("nan")}},
    "nan_w_initial_constant": {"controller": {"reference": {
        "w_initial": float("nan")}}},
    "map_nested_coefficients": {"controller": {"reference": {
        "mode": "map-composed", "map_coefficients": [[1]]}}},
}

# Configs the checker must refuse (exit 2), one per rule it enforces.
BAD_CONFIGS = {
    "unknown_nested_key": {"controller": {"gains": {"k_i": 1.0}}},
    "wrong_leaf_type": {"bode": {"grid_points": "many"}},
    "bool_for_float": {"simulation": {"dt": True}},
    "null_leaf": {"modes": None},
    "non_object_section": {"boom": 3},
}

# (label, argv) in run order; every --out is relative to the work directory.
COMMANDS = [
    ("equilibrium_curve", ["equilibrium", "--out", "eq_curve"]),
    ("equilibrium_point", ["equilibrium", "--tension", "1", "--out", "eq_point"]),
    ("equilibrium_out_of_range", ["equilibrium", "--tension", "5", "--out", "eq_bad"]),
    ("bode_nominal", ["bode", "--teq", "0.5", "--dump-ss", "ss.csv", "--out", "bode"]),
    ("bode_out_of_range", ["bode", "--teq", "5", "--out", "bode_bad"]),
    ("bode_uncertainty", ["bode", "--teq", "0.5", "--sweep", "uncertainty",
                          "--samples", "27", "--out", "sweep_uncertainty"]),
    ("bode_modes", ["bode", "--teq", "0.5", "--sweep", "modes",
                    "--modes", "3,4,5,6", "--out", "sweep_modes"]),
    *[(f"bode_modes6_{label}", ["bode", "--config", "modes6.json", "--teq", teq,
                                "--sweep", "uncertainty", "--samples", "27",
                                "--out", f"sweep_modes6_{label}"])
      for label, teq in (("nudged", "0.75"), ("pole", "1"))],
    *[(f"simulate_{name}", ["simulate", "--scenario", name, "--duration", "3",
                            "--out", f"sim_{name}"])
      for name in ("fig7a", "fig7c", "fig8", "fig8-clamped")],
    ("simulate_default", ["simulate", "--duration", "3", "--out", "sim_default"]),
    ("simulate_map", ["simulate", "--config", "map.json", "--duration", "3",
                      "--out", "sim_map"]),
    ("fit_auto", ["fit", "fit_data.csv", "--out", "fit_auto"]),
    ("fit_degree_2", ["fit", "fit_data.csv", "--degree", "2", "--out", "fit_2"]),
    *[(f"config_{label}", ["equilibrium", "--config", f"{label}.json",
                           "--out", f"config_{label}"])
      for label in BAD_CONFIGS],
    ("bode_nan_eps_tol", ["bode", "--config", "nan_eps_tol.json", "--teq", "0.5",
                          "--out", "bode_nan_eps_tol"]),
    ("simulate_nan_w_final", ["simulate", "--config", "nan_w_final.json",
                              "--duration", "3", "--out", "sim_nan_w_final"]),
    ("fit_nan_deflection", ["fit", "fit_nan.csv", "--out", "fit_nan"]),
    *[(f"simulate_{name}", ["simulate", "--config", f"{name}.json",
                            "--duration", "1", "--out", f"sim_{name}"])
      for name in SIM_CONFIGS],
    # One second is not a whole number of 0.4 s steps.
    ("simulate_partial_step", ["simulate", "--scenario", "fig7a", "--duration", "1",
                               "--dt", "0.4", "--out", "sim_partial_step"]),
    # The nominal Bode CSV is ready before the sweep refuses zero modes.
    ("bode_modes0_partial", ["bode", "--teq", "0.5", "--sweep", "modes", "--modes", "0",
                             "--out", "bode_modes0"]),
    # --dump-ss names that collide with another output or leave the directory.
    *[(f"bode_dump_{label}", ["bode", "--teq", "0.5", "--dump-ss", name,
                              "--out", f"bode_dump_{label}"])
      for label, name in (("summary", "summary.json"), ("bode_csv", "bode_teq_0.5.csv"),
                          ("subdir", "sub/x.csv"), ("staging", "summary.json.tmp"))],
    ("equilibrium_t_max_negative", ["equilibrium", "--config", "t_max_negative.json",
                                    "--out", "eq_t_max_negative"]),
    ("bode_omega_min_zero", ["bode", "--config", "omega_min_zero.json", "--teq", "0.5",
                             "--out", "bode_omega_min_zero"]),
    ("bode_flutter", ["bode", "--config", "flutter.json", "--teq", "26",
                      "--out", "bode_flutter"]),
    ("equilibrium_point_t_max_negative", ["equilibrium", "--config", "t_max_negative.json",
                                          "--tension", "0", "--out", "eq_point_t_max_negative"]),
    ("bode_t_max_negative", ["bode", "--config", "t_max_negative.json", "--teq", "0",
                             "--out", "bode_t_max_negative"]),
    *[(f"int_leaves_{command}", [command, "--config", "int_leaves.json", *extra,
                                 "--out", f"int_leaves_{command}"])
      for command, extra in (("equilibrium", []), ("bode", ["--teq", "0.5"]),
                             ("simulate", []))],
    ("simulate_every_step", ["simulate", "--config", "every_step.json", "--duration", "1",
                             "--out", "sim_every_step"]),
    # 1e308 s of 1 ms steps: a step count that overflows.
    ("simulate_duration_overflow", ["simulate", "--scenario", "fig7a", "--duration",
                                    "1e308", "--out", "sim_duration_overflow"]),
    # 1e60 s steps overflow the state at once: a diverged run, no NaN in the JSON.
    ("simulate_state_overflow", ["simulate", "--scenario", "fig7a", "--dt", "1e60",
                                 "--duration", "1e61", "--out", "sim_state_overflow"]),
    *[(f"{route}_{command}", [command, "--config", f"{route}.json", *extra,
                              "--out", f"{route}_{command}"])
      for route in ("route_none", "route_one", "route_short")
      for command, extra in (("equilibrium", []), ("bode", ["--teq", "0.5"]))],
    *[(f"equilibrium_{name}", ["equilibrium", "--config", f"{name}.json",
                               "--out", f"eq_{name}"])
      for name in ("modes13", "modes150", "modes1", "modes10")],
    ("equilibrium_past_critical", ["equilibrium", "--config", "t_max10.json",
                                   "--tension", "9", "--out", "eq_past_critical"]),
    ("bode_modes10", ["bode", "--config", "modes10.json", "--teq", "1",
                      "--out", "bode_modes10"]),
]


def _write_inputs(workdir: Path) -> None:
    for name, config in {**CONFIGS, **BAD_CONFIGS, **SIM_CONFIGS}.items():
        (workdir / f"{name}.json").write_text(json.dumps(config))
    rows = ["torque_N,deflection_m"]
    for i in range(20):
        t = 0.1 + 0.05 * i
        wobble = 0.002 * ((7 * i) % 5 - 2)  # keeps every fit residual above roundoff
        rows.append(f"{t:.6f},{((0.3 * t + 1.1) * t - 0.2) * t + wobble:.9f}")
    (workdir / "fit_data.csv").write_text("\n".join(rows) + "\n")
    rows[3] = rows[3].split(",")[0] + ",nan"  # one non-finite deflection
    (workdir / "fit_nan.csv").write_text("\n".join(rows) + "\n")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(workdir: Path) -> list[str]:
    """Run the command set in ``workdir``; return the fingerprint lines."""
    _write_inputs(workdir)
    lines = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for label, argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = flexboom_main(argv)
            except Exception as exc:  # an escaping exception is a result too
                code = f"raised {type(exc).__name__}"
            lines.append(f"exit {code}  {label}")
            outdir = Path(argv[argv.index("--out") + 1])
            lines.append(f"dir {'present' if outdir.is_dir() else 'absent'}  {label}")
            lines.append(f"{_digest(out.getvalue().encode())}  {label}:stdout")
            lines.append(f"{_digest(err.getvalue().encode())}  {label}:stderr")
            for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
                lines.append(f"{_digest(path.read_bytes())}  {path.as_posix()}")
    finally:
        os.chdir(cwd)
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(fingerprint(Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
