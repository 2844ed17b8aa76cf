"""Command-line front end: equilibrium curves, Bode/passivity sweeps,
closed-loop simulations, and torque-deflection map fitting.

All commands read one JSON config file plus a few flag overrides.  Every
field is optional: ``_default_config`` is the one defaults tree, and every
default in it and in the flags is read from the library, never restated:
the field defaults of ``BoomParams``, ``PDGains`` (the fig7a gains),
``FeedforwardProfile``, ``ControllerConfig`` and ``SimScenario``, the
parameter defaults of ``default_grid``, ``deflection_curve``,
``uncertainty_sweep`` and ``scenario_suite``, and the scenarios' target
tension and ramp duration.  A config file is checked against the defaults
tree itself, keys and leaf types, and each leaf comes back in its default's
type (an int given for a float is a float).  A command writes nothing until
it finishes.  It then returns its files and ``main`` writes them, each
atomically (write-temp-then-rename) and in order, then a machine-readable
``summary.json`` listing them, and only then prints.  A command that raises
leaves no file or directory behind; a result that is not ok (a failed
passivity check) is still written.  Exit code 0 means every requested check
or run succeeded; a config problem exits with 2, and any library failure (a
RuntimeError or ValueError, or a MemoryError from a size too large to allocate)
is one ``error:`` line and exit 1.  A simulation that ends in divergence is a
recorded outcome, not a failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import os
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .calibration import MeasurementSet, fit_map, select_degree
from .control import (ControllerConfig, ControlSample, FeedforwardProfile, PDGains,
                      ReferenceTrajectory)
from .equilibrium import (DEFAULT_TENSION_MAX, OutOfRange, deflection_curve,
                          solve_equilibrium)
from .linearization import linearize
from .model import BasisSet, BoomParams, assemble_matrices, checked_real
from .passivity import (DEFAULT_EPS_TOL, default_grid, frequency_response,
                        mode_count_sweep, passivity_check, uncertainty_sweep)
from .sim import (RAMP_DURATION, SCENARIO_NAMES, TARGET_TENSION, SimScenario,
                  run_simulation, scenario_suite)

__all__ = ["main", "ConfigError", "load_config"]

ENV_OUTPUT_DIR = "FLEXBOOM_OUT"

PROFILE_UNITS = {
    "simulation-SI": ("N", "m"),
    "prototype-units": ("Nm", "mm"),
}


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


def _default(func, name: str) -> Any:
    """Default value of parameter ``name`` of the library function ``func``."""
    return inspect.signature(func).parameters[name].default


def _default_config() -> dict:
    """The full configuration tree; its leaves also fix the types a file may set."""
    return {
        "boom": dataclasses.asdict(BoomParams()),
        "modes": _default(scenario_suite, "mode_count"),
        "unit_profile": "simulation-SI",
        "output_dir": "out",
        "equilibrium": {"t_max": DEFAULT_TENSION_MAX,
                        "samples": _default(deflection_curve, "samples")},
        "bode": {
            "omega_min": _default(default_grid, "omega_min"),
            "omega_max": _default(default_grid, "omega_max"),
            "grid_points": _default(default_grid, "n_points"),
            "eps_tol": DEFAULT_EPS_TOL,
        },
        "controller": {
            "gains": dataclasses.asdict(PDGains()),
            "feedforward": {
                "mode": "constant",
                "tension_final": TARGET_TENSION,
                "tension_initial": FeedforwardProfile.tension_initial,
                "duration": RAMP_DURATION,
            },
            "reference": {
                "mode": "constant",
                "w_final": None,
                "w_initial": None,
                "duration": RAMP_DURATION,
                "map_coefficients": [],
                "map_units": [],
            },
            "clamp_nonnegative": ControllerConfig.clamp_nonnegative,
        },
        "simulation": {
            "w_init": _default(scenario_suite, "w_init"),
            "duration": SimScenario.duration,
            "dt": SimScenario.dt,
            "decimation": SimScenario.decimation,
            "scenario": None,
        },
    }


# Leaves whose default is null, with the type a user may set instead.
_NULLABLE = {
    "controller.reference.w_final": float,
    "controller.reference.w_initial": float,
    "simulation.scenario": str,
}
# List leaves, with the default each of their items is checked against.
_ITEMS = {
    "controller.reference.map_coefficients": 0.0,
    "controller.reference.map_units": "",
}


def _checked(user: Any, default: Any, path: str = "") -> Any:
    """The defaults (sub)tree ``default`` with ``user`` checked and merged in.

    Every key must exist in the defaults, and an object replaces only the
    keys it sets.  A leaf must have its default's type, or the ``_NULLABLE``
    type where the default is null; each item of a list leaf is checked as a
    leaf with its ``_ITEMS`` default.  An int may stand for a float and comes
    back as one, and a boolean stands only for a boolean.
    """
    if isinstance(default, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"{path or 'config'}: expected an object, got {type(user).__name__}")
        merged = dict(default)
        for key, value in user.items():
            child = f"{path}.{key}" if path else key
            if key not in default:
                raise ConfigError(f"unknown config key '{child}'")
            merged[key] = _checked(value, default[key], child)
        return merged
    allowed = (type(default),) if default is not None else (_NULLABLE[path], type(None))
    if isinstance(user, bool) and bool not in allowed:
        raise ConfigError(f"{path}: boolean not allowed here")
    if float in allowed and isinstance(user, (int, float)):
        try:
            return float(user)
        except OverflowError:
            raise ConfigError(f"{path}: int too large to convert to float") from None
    if isinstance(user, list) and list in allowed:
        return [_checked(item, _ITEMS[path], f"{path}[{i}]") for i, item in enumerate(user)]
    if isinstance(user, allowed):
        return user
    names = "/".join("null" if k is type(None) else k.__name__ for k in allowed)
    raise ConfigError(f"{path}: expected {names}, got {type(user).__name__}")


def load_config(path: str | Path | None) -> dict:
    """Load, validate, and default-fill a JSON run configuration."""
    config = _default_config()
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")  # JSON's encoding
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
        config = _checked(user, config)
    profile = config["unit_profile"]
    if profile not in PROFILE_UNITS:
        raise ConfigError(
            f"unit_profile must be one of {sorted(PROFILE_UNITS)}, got {profile!r}")
    return config


def _boom_params(config: dict) -> BoomParams:
    try:
        return BoomParams(**config["boom"])
    except ValueError as exc:
        raise ConfigError(f"boom: {exc}") from exc


def _build_model(config: dict):
    return assemble_matrices(_boom_params(config),
                             BasisSet.with_mode_count(config["modes"]))


def _csv(header: Sequence[str], rows) -> str:
    """CSV text: a float (np.float64 too) as %.12g, any other value as str;
    a 2-d float64 array is a table of floats, formatted by one template."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
        template = _row_template((float,) * rows.shape[1]) * len(rows)
        return _csv(header, ()) + template % tuple(rows.ravel().tolist())
    lines = (tuple(row) for row in (header, *rows))
    return "".join(_row_template(tuple(map(type, row))) % row for row in lines)


@functools.cache  # one entry per row type signature the commands write: a handful
def _row_template(kinds: tuple[type, ...]) -> str:
    return ",".join("%.12g" if issubclass(kind, float) else "%s" for kind in kinds) + "\n"


# ---------------------------------------------------------------------------
# Commands.  Each returns (summary, files, message): its own summary keys, an
# ordered {file name: text} for ``main`` to write, and its stdout text.

_Outcome = tuple[dict[str, Any], dict[str, str], str]


# ---------------------------------------------------------------------------
# equilibrium


def _verified_tension(label: str, tension: float, t_max: float) -> float:
    """``tension``; OutOfRange unless it lies in [0, t_max] for a valid t_max."""
    if not 0.0 <= tension <= checked_real("t_max", t_max):
        raise OutOfRange(f"{label} {tension} N outside the verified range [0, {t_max}] N")
    return tension


def cmd_equilibrium(config: dict, args: argparse.Namespace, outdir: Path) -> _Outcome:
    model = _build_model(config)
    t_max = config["equilibrium"]["t_max"]

    if args.tension is not None:
        point = solve_equilibrium(model, _verified_tension("tension", args.tension, t_max))
        summary = {"point": {
            "tension_N": point.tension,
            "tip_deflection_m": point.tip_deflection,
            "modal_coords": list(point.modal_coords),
        }}
        return summary, {}, (f"tension {point.tension:.6g} N -> tip deflection "
                             f"{point.tip_deflection:.9g} m")
    samples = config["equilibrium"]["samples"]
    points = deflection_curve(model, t_max=t_max, samples=samples)
    header = ["tension_N", "tip_deflection_m"] + [f"q_{i+1}" for i in range(model.mode_count)]
    rows = np.column_stack(([p.tension for p in points], [p.tip_deflection for p in points],
                            [p.modal_coords for p in points]))
    name = "equilibrium_curve.csv"
    summary = {"curve": {
        "samples": samples,
        "t_max_N": t_max,
        "w_at_t_max_m": points[-1].tip_deflection,
    }}
    return summary, {name: _csv(header, rows)}, f"wrote {outdir / name} ({len(rows)} rows)"


# ---------------------------------------------------------------------------
# bode


def _report_row(report) -> list:
    meta = report.metadata
    return [
        meta.get("e_scale", 1.0), meta.get("rho_scale", 1.0),
        meta.get("i_scale", 1.0), meta["mode_count"], meta["t_eq"], report.verdict,
        report.worst_phase_deg, report.worst_phase_omega,
        report.min_real, report.min_real_omega, meta["nudged_points"],
    ]


_SWEEP_HEADER = [
    "e_scale", "rho_scale", "i_scale", "mode_count", "t_eq_N", "verdict",
    "worst_phase_deg", "worst_phase_omega_rad_s", "min_re",
    "min_re_omega_rad_s", "nudged_points",
]


def cmd_bode(config: dict, args: argparse.Namespace, outdir: Path) -> _Outcome:
    names = [f"bode_teq_{args.teq:g}.csv"] + ([f"sweep_{args.sweep}.csv"] if args.sweep else [])
    dump = args.dump_ss
    if dump is not None and (dump in ("", "..", "summary.json", *names)
                             or dump != Path(dump).name):
        raise ConfigError(f"--dump-ss needs a plain file name other than summary.json "
                          f"and {', '.join(names)}, got {dump!r}")
    if dump and dump.endswith(".tmp"):  # ``main`` stages each output as <name>.tmp
        raise ConfigError(f"--dump-ss may not end in .tmp, the staging suffix, got {dump!r}")
    model = _build_model(config)
    bode_cfg = config["bode"]
    grid = default_grid(bode_cfg["grid_points"], bode_cfg["omega_min"], bode_cfg["omega_max"])
    eps_tol = bode_cfg["eps_tol"]
    t_eq = _verified_tension("t_eq", args.teq, config["equilibrium"]["t_max"])

    eq = solve_equilibrium(model, t_eq)
    ss = linearize(model, eq)
    fr = frequency_response(ss, grid)
    report = passivity_check(ss, grid, eps_tol)

    g = fr.response
    files = {names[0]: _csv(["omega_rad_s", "re", "im", "mag_db", "phase_deg"],
                            np.column_stack((fr.omega, g.real, g.imag,
                                             20.0 * np.log10(np.maximum(np.abs(g), 1e-300)),
                                             np.degrees(np.unwrap(np.angle(g))))))}
    lines = [f"wrote {outdir / names[0]}; nominal plant at {t_eq:g} N is {report.verdict}"]
    summary: dict[str, Any] = {
        "t_eq_N": t_eq, "nominal_verdict": report.verdict,
        "worst_phase_deg": report.worst_phase_deg,
        "min_re": report.min_real, "ok": report.passive,
    }
    if dump:
        matrices = (("A", ss.a), ("B", ss.b.reshape(-1, 1)),
                    ("C", ss.c.reshape(1, -1)), ("D", np.array([[ss.d]])))
        files[dump] = _csv(["matrix", "row", "col", "value"],
                           ([name, i, j, matrix[i, j]] for name, matrix in matrices
                            for i, j in np.ndindex(matrix.shape)))

    if args.sweep is not None:
        if args.sweep == "uncertainty":
            reports = uncertainty_sweep(model.params, model.basis, t_eq, args.pct / 100.0,
                                        args.samples, grid, eps_tol)
            key = "uncertainty_sweep"
            info = {"samples": len(reports), "perturbation_pct": args.pct}
            label = f"uncertainty sweep: {len(reports)} samples, "
        else:
            reports = mode_count_sweep(model.params, args.modes, t_eq, grid, eps_tol)
            key, info = "mode_sweep", {"mode_counts": args.modes}
            label = f"mode-count sweep over {args.modes}: "
        files[names[1]] = _csv(_SWEEP_HEADER, map(_report_row, reports))
        all_passive = all(r.passive for r in reports)
        summary["ok"] = summary["ok"] and all_passive
        summary[key] = {**info, "all_passive": all_passive}
        lines.append(label + ("all passive" if all_passive else "NOT all passive"))
    return summary, files, "\n".join(lines)


# ---------------------------------------------------------------------------
# simulate


def _reference_from_config(ref_cfg: dict, model, ff: FeedforwardProfile,
                           w_init: float, profile: str) -> ReferenceTrajectory:
    mode = ref_cfg["mode"]
    w_final = ref_cfg["w_final"]
    if w_final is None and mode != "map-composed":
        w_final = solve_equilibrium(model, ff.tension_final).tip_deflection
    w_initial = w_init if ref_cfg["w_initial"] is None else ref_cfg["w_initial"]
    if mode == "constant":
        return ReferenceTrajectory.constant(w_final)
    if mode == "quintic-deflection":
        return ReferenceTrajectory.quintic(w_initial, w_final, ref_cfg["duration"])
    # ReferenceTrajectory refuses an unknown mode and an empty map.
    reference = ReferenceTrajectory(mode=mode,
                                    map_coefficients=ref_cfg["map_coefficients"])
    units = ref_cfg["map_units"]
    expected = PROFILE_UNITS[profile]
    if units and tuple(units) != expected:
        raise ConfigError(
            f"map units {units} inconsistent with unit profile "
            f"{profile!r} (expected {list(expected)})")
    return reference


def _controller_from_config(config: dict, model, w_init: float) -> ControllerConfig:
    ctrl = config["controller"]
    try:
        gains = PDGains(**ctrl["gains"])
        ff = FeedforwardProfile(**ctrl["feedforward"])
        reference = _reference_from_config(ctrl["reference"], model, ff, w_init,
                                           config["unit_profile"])
        return ControllerConfig(
            gains=gains, feedforward=ff, reference=reference,
            clamp_nonnegative=ctrl["clamp_nonnegative"],
        )
    except ValueError as exc:
        raise ConfigError(f"controller: {exc}") from exc


def cmd_simulate(config: dict, args: argparse.Namespace, outdir: Path) -> _Outcome:
    sim_cfg = config["simulation"]
    scenario_name = args.scenario or sim_cfg["scenario"]
    w_init = sim_cfg["w_init"]
    timing = {"duration": sim_cfg["duration"] if args.duration is None else args.duration,
              "dt": sim_cfg["dt"] if args.dt is None else args.dt}

    if scenario_name is not None:
        if scenario_name not in SCENARIO_NAMES:
            raise ConfigError(
                f"unknown scenario {scenario_name!r}; pick one of {SCENARIO_NAMES}")
        suite = scenario_suite(params=_boom_params(config),
                               mode_count=config["modes"], w_init=w_init, **timing)
        scenario = next(s for s in suite if s.name == scenario_name)
    else:
        model = _build_model(config)
        controller = _controller_from_config(config, model, w_init)
        scenario = SimScenario(model=model, controller=controller, w_init=w_init, **timing)
    scenario = dataclasses.replace(scenario, decimation=sim_cfg["decimation"])

    result = run_simulation(scenario)
    stem = f"sim_{result.scenario_name}"
    header = (["t_s", "w_tip_m", "wdot_tip_m_s", "u_N", "T_des_N", "w_des_m"]
              + [f"q_{i+1}" for i in range(scenario.model.mode_count)] + ["KE_J", "PE_J"])
    rows = np.column_stack((result.time, result.tip, result.tip_rate, result.u, result.t_des,
                            result.w_des, result.q, result.kinetic, result.potential))
    control_rows = np.column_stack([getattr(result, name) for name in ControlSample._fields])
    meta_lines = [
        f"scenario={result.scenario_name}",
        f"status={result.status}",
        f"divergence_time_s={'' if result.divergence_time is None else result.divergence_time}",
        f"duration_s={scenario.duration}",
        f"dt_s={scenario.dt}",
        f"w_init_m={scenario.w_init}",
        f"rows={result.time.size}",
    ]
    files = {
        f"{stem}.csv": _csv(header, rows),
        f"{stem}_control.csv": _csv(["t_s", "T_des", "w_des", "wdot_des", "u_preclamp", "u"],
                                    control_rows),
        f"{stem}.meta": "\n".join(meta_lines) + "\n",
    }
    summary = {
        "scenario": result.scenario_name, "status": result.status,
        "divergence_time_s": result.divergence_time,
        # JSON has no NaN or inf: a diverged run's non-finite tip is null.
        "final_tip_m": result.tip[-1] if np.isfinite(result.tip[-1]) else None,
    }
    return summary, files, (f"wrote {outdir / f'{stem}.csv'}; status={result.status}"
                            + (f" at t={result.divergence_time:g} s" if result.diverged else ""))


# ---------------------------------------------------------------------------
# fit


def cmd_fit(config: dict, args: argparse.Namespace, outdir: Path) -> _Outcome:
    data = MeasurementSet.from_csv(args.data)
    profile = config["unit_profile"]
    expected = PROFILE_UNITS[profile]
    if (data.torque_unit, data.deflection_unit) != expected:
        raise ConfigError(
            f"data units ({data.torque_unit}, {data.deflection_unit}) do not "
            f"match unit profile {profile!r} (expected {expected})")

    if args.degree == "auto":
        best, residuals = select_degree(data)
        fitted = fit_map(data, best)
    else:
        fitted = fit_map(data, int(args.degree))
        residuals = {fitted.degree: fitted.residual_rms}
    per_degree = {str(k): v for k, v in sorted(residuals.items())}

    fragment = {
        "reference": {
            "mode": "map-composed",
            "map_coefficients": list(fitted.coefficients),
            "map_units": [fitted.torque_unit, fitted.deflection_unit],
        },
        "map": {
            "degree": fitted.degree,
            "residual_rms": fitted.residual_rms,
            "fit_range": list(fitted.fit_range),
            "torque_unit": fitted.torque_unit,
            "deflection_unit": fitted.deflection_unit,
            "per_degree_residual_rms": per_degree,
        },
    }
    summary = {"degree": fitted.degree, "residual_rms": fitted.residual_rms,
               "per_degree_residual_rms": per_degree}
    return summary, {"fit_map.json": json.dumps(fragment, indent=2) + "\n"}, (
        f"wrote {outdir / 'fit_map.json'}; degree {fitted.degree}, "
        f"residual RMS {fitted.residual_rms:.6g} {fitted.deflection_unit}")


# ---------------------------------------------------------------------------


def _mode_counts(text: str) -> list[int]:
    try:  # a malformed list is a usage error that names --modes
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration file")
    common.add_argument("--out", help=f"output directory (overrides config and ${ENV_OUTPUT_DIR})")

    parser = argparse.ArgumentParser(
        prog="flexboom",
        description="Cable-actuated flexible boom analysis and simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibrium", parents=[common],
                          help="tension-deflection equilibrium curve or single point")
    p_eq.add_argument("--tension", type=float,
                      help="report the single equilibrium at this tension (N)")
    p_eq.set_defaults(func=cmd_equilibrium)

    p_bode = sub.add_parser("bode", parents=[common],
                            help="frequency response and passivity certification")
    p_bode.add_argument("--teq", type=float, default=0.0,
                        help="equilibrium tension to linearize about (N)")
    p_bode.add_argument("--sweep", choices=["uncertainty", "modes"],
                        help="run a robustness sweep instead of just the nominal plant")
    p_bode.add_argument("--pct", type=float, default=20.0,
                        help="uncertainty box half-width in percent")
    p_bode.add_argument("--samples", type=int,
                        default=_default(uncertainty_sweep, "samples"),
                        help="uncertainty sweep sample count (rounded to a cube)")
    p_bode.add_argument("--modes", type=_mode_counts, default="3,4,5,6",
                        help="comma-separated mode counts for --sweep modes")
    p_bode.add_argument("--dump-ss", metavar="FILE",
                        help="also dump the state-space matrices to FILE (CSV)")
    p_bode.set_defaults(func=cmd_bode)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="closed-loop simulation (benchmark scenario or custom)")
    p_sim.add_argument("--scenario", choices=list(SCENARIO_NAMES),
                       help="run a named benchmark scenario")
    p_sim.add_argument("--duration", type=float, help="override run duration (s)")
    p_sim.add_argument("--dt", type=float, help="override integrator step (s)")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", parents=[common],
                           help="fit a polynomial torque-to-deflection map from CSV data")
    p_fit.add_argument("data", help="CSV file with header torque_<unit>,deflection_<unit>")
    p_fit.add_argument("--degree", default="auto", choices=["auto", "1", "2", "3"],
                       help="polynomial degree (auto selects by residual)")
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        outdir = Path(args.out or os.environ.get(ENV_OUTPUT_DIR) or config["output_dir"])
        summary, files, message = args.func(config, args, outdir)
        # The one writer: the command's files in order, then summary.json.
        summary = {**summary, "command": args.command, "ok": summary.get("ok", True),
                   "outputs": [str(outdir / name) for name in files]}
        files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            tmp = outdir / f"{name}.tmp"
            tmp.write_text(text)
            os.replace(tmp, outdir / name)
        print(message)
        return 0 if summary["ok"] else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
