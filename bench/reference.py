"""Independent references for the benchmark's outputs, and the checks.

The references are computed once per seed, before the timed passes, by a
different route from the program's:

* equilibria by a direct solve of the raw effective stiffness
  (K - spreader T / dx) q = h psi'(L) T, with no equilibration or
  refinement, and inversions by bracketing on that solve;
* Bode responses by a dense complex solve of C (j w I - A)^-1 B + D on
  the ``linearize`` output, instead of the program's real block solve;
* closed-loop runs by ``scipy.integrate.solve_ivp`` (DOP853, tight
  tolerances) built only from the public ``dynamics_rhs`` and
  ``control_input``, with scenario definitions written out here;
* torque-deflection fits by ``numpy.polyfit`` and the stated parsimony rule.

Each ``check_*`` function reads one pass's output files and returns the
failures it found, so a test can perturb an output and watch it fail.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import flexboom.control as control
import flexboom.equilibrium as equilibrium
import flexboom.linearization as linearization
import flexboom.model as model

from workloads import (GAINS, MODE_COUNT, NOMINAL_BOOM, SCENARIOS,
                       TENSION_FINAL, CHECKED_TENSION_MAX, Inputs, Op,
                       fit_levels)

SCENARIO_RAMP_S = 100.0     # the ramp the CLI's named scenarios use
PARSIMONY = 0.05            # a higher fit degree must cut the RMS by 5 percent
NUDGE = 1e-6                # the program's relative shift of near-pole points

TIP_RTOL = 1e-9             # raw solve vs program, measured agreement ~2e-15
Q_RTOL = 1e-8               # modal coordinates, measured agreement ~5e-12
BODE_RTOL = 1e-6            # measured agreement ~3e-10 at non-nudged points
SIM_TOL = 2e-11             # m per m of tip, RK4 at dt 1e-3 vs DOP853, measured ~3e-13
PHASE_SLACK_DEG = 1e-6


def _raw_q(m: model.StructuralModel, tension: float) -> np.ndarray:
    stiffness = m.stiffness_matrix - m.spreader_matrix * (tension / m.params.node_spacing)
    return np.linalg.solve(stiffness, m.params.cable_offset * m.tip_slope * tension)


def _nominal_model(boom: dict = NOMINAL_BOOM, modes: int = MODE_COUNT):
    return model.assemble_matrices(model.BoomParams(**boom),
                                   model.BasisSet.with_mode_count(modes))


def dense_response(ss, omega: np.ndarray) -> np.ndarray:
    """G(j w) = C (j w I - A)^-1 B + D by a dense complex solve per point."""
    two_n = ss.a.shape[0]
    mats = 1j * omega[:, None, None] * np.eye(two_n) - ss.a
    rhs = np.broadcast_to(ss.b.astype(complex)[:, None], (omega.size, two_n, 1))
    return np.linalg.solve(mats, rhs)[:, :, 0] @ ss.c + ss.d


@dataclass(frozen=True)
class SampleRef:
    """Reference passivity figures for one sweep sample."""

    key: tuple
    passive: bool
    min_re: float
    worst_abs_phase: float


def _sample_ref(key: tuple, m, t_eq: float, omega: np.ndarray, eps_tol: float):
    q = _raw_q(m, t_eq)
    eq = equilibrium.EquilibriumPoint(t_eq, q, float(m.tip_row @ q))
    ss = linearization.linearize(m, eq)
    g = dense_response(ss, omega)
    g = g[np.isfinite(g)]
    min_re = float(g.real.min())
    worst = float(np.abs(np.degrees(np.angle(g))).max())
    passive = min_re >= -eps_tol and worst <= 90.0 + PHASE_SLACK_DEG
    return SampleRef(key, passive, min_re, worst), ss


def fit_reference(torques, deflections) -> dict:
    """Least-squares fits of degree 1..3 and the parsimonious choice."""
    t = np.asarray(torques, dtype=float)
    w = np.asarray(deflections, dtype=float)
    coeffs, rms = {}, {}
    for d in (1, 2, 3):
        coeffs[d] = np.polyfit(t, w, d)
        rms[d] = float(np.sqrt(np.mean((np.polyval(coeffs[d], t) - w) ** 2)))
    best, near_tie = 1, set()
    for d in (2, 3):
        threshold = (1.0 - PARSIMONY) * rms[best]
        if abs(rms[d] - threshold) <= 1e-9 * rms[best]:
            near_tie.add(d)
        if rms[d] < threshold:
            best = d
    return {"torques": t, "deflections": w, "degree": best, "near_tie": near_tie,
            "coefficients": coeffs, "rms": rms}


class RawSolver:
    """Equilibria of one model by the raw direct solve, and their inverse."""

    def __init__(self, m: model.StructuralModel):
        self.model = m

    def tip_at(self, tension: float) -> float:
        return float(self.model.tip_row @ _raw_q(self.model, tension))

    def tension_for(self, w: float, t_max: float = CHECKED_TENSION_MAX) -> float:
        return float(brentq(lambda t: self.tip_at(t) - w, 0.0, t_max,
                            xtol=1e-14, rtol=4 * np.finfo(float).eps))


def nominal_solver() -> RawSolver:
    return RawSolver(_nominal_model())


@dataclass
class Reference:
    """Reference solutions for one (workload, seed, sizes), built untimed."""

    inputs: Inputs
    solver: RawSolver = field(repr=False)
    data: dict = field(default_factory=dict, repr=False)

    @property
    def model(self) -> model.StructuralModel:
        return self.solver.model


def build_reference(inputs: Inputs, solver: RawSolver) -> Reference:
    """Compute every reference value the workload's checks compare against."""
    ref = Reference(inputs, solver)
    builder = {"sweep": _sweep_reference, "closed_loop": _closed_loop_reference,
               "equilibrium_map": _equilibrium_map_reference}[inputs.workload]
    builder(ref)
    return ref


# ---------------------------------------------------------------------------
# sweep


def _uncertainty_axis(sizes) -> np.ndarray:
    levels = round(sizes.sweep_samples ** (1.0 / 3.0))
    if levels ** 3 != sizes.sweep_samples or levels < 2:
        raise ValueError(f"sweep_samples must be a cube >= 8, got {sizes.sweep_samples}")
    pct = sizes.sweep_pct / 100.0
    return np.linspace(1.0 - pct, 1.0 + pct, levels)


def _sweep_reference(ref: Reference) -> None:
    sizes = ref.inputs.sizes
    omega = sizes.grid()
    axis = _uncertainty_axis(sizes)
    nominal = model.BoomParams(**NOMINAL_BOOM)
    for t_eq in ref.inputs.tensions:
        sample, ss = _sample_ref(("nominal",), ref.model, t_eq, omega, sizes.eps_tol)
        rows = {"uncertainty": [], "modes": []}
        for e in axis:
            for rho in axis:
                for i in axis:
                    m = model.assemble_matrices(nominal.scaled(e, rho, i),
                                                ref.model.basis)
                    rows["uncertainty"].append(_sample_ref(
                        (e, rho, i), m, t_eq, omega, sizes.eps_tol)[0])
        for n in sizes.sweep_modes:
            rows["modes"].append(_sample_ref(
                (n,), _nominal_model(modes=n), t_eq, omega, sizes.eps_tol)[0])
        ref.data[t_eq] = {"nominal": sample, "response": dense_response(ss, omega),
                          "rows": rows}


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _summary(op: Op, failures: list[str]) -> dict | None:
    if op.code != 0:
        failures.append(f"{op.kind}: exit code {op.code} {op.error}".rstrip())
    path = op.out / "summary.json" if op.out else None
    if path is None or not path.is_file():
        failures.append(f"{op.kind}: no summary.json")
        return None
    summary = json.loads(path.read_text())
    if summary.get("ok") is not True:
        failures.append(f"{op.kind}: summary ok is {summary.get('ok')!r}")
    return summary


def check_bode(op: Op, ref: Reference) -> tuple[list[str], dict]:
    """Nominal Bode CSV, nominal verdict and every sweep row of one bode call."""
    failures: list[str] = []
    stats = {"samples": 0, "nudged_points": 0}
    summary = _summary(op, failures)
    if summary is None:
        return failures, stats
    sizes = ref.inputs.sizes
    expected = ref.data[op.arg]
    if summary.get("nominal_verdict") != ("passive" if expected["nominal"].passive
                                          else "not-passive"):
        failures.append(f"{op.kind}: nominal verdict {summary.get('nominal_verdict')!r} "
                        f"disagrees with the reference")

    _, rows = _read_csv(op.out / f"bode_teq_{op.arg:g}.csv")
    values = np.array(rows, dtype=float)
    grid = sizes.grid()
    if values.shape != (grid.size, 5):
        failures.append(f"{op.kind}: Bode CSV has shape {values.shape}")
        return failures, stats
    omega = values[:, 0]
    plain = np.isclose(omega, grid, rtol=1e-10, atol=0.0)
    nudged = np.isclose(omega, grid * (1.0 + NUDGE), rtol=1e-10, atol=0.0)
    if not np.all(plain | nudged):
        failures.append(f"{op.kind}: Bode CSV frequencies leave the pinned grid")
    g_csv = values[:, 1] + 1j * values[:, 2]
    g_ref = expected["response"]
    err = np.abs(g_csv - g_ref)[plain]
    bound = (BODE_RTOL * np.abs(g_ref) + 1e-300)[plain]
    if not np.all(err <= bound):
        worst = int(np.argmax(err / bound))
        failures.append(f"{op.kind}: Bode CSV off the dense solve at "
                        f"{omega[plain][worst]:.6g} rad/s (error {err[worst]:.3e})")

    sweep = "uncertainty" if op.kind == "bode-uncertainty" else "modes"
    header, rows = _read_csv(op.out / f"sweep_{sweep}.csv")
    col = {name: header.index(name) for name in header}
    expected_rows = expected["rows"][sweep]
    stats["samples"] = len(rows)
    if len(rows) != len(expected_rows):
        failures.append(f"{op.kind}: {len(rows)} sweep rows, expected {len(expected_rows)}")
        return failures, stats
    for row, exp in zip(rows, expected_rows):
        stats["nudged_points"] += int(row[col["nudged_points"]])
        if sweep == "uncertainty":
            key = tuple(float(row[col[c]]) for c in ("e_scale", "rho_scale", "i_scale"))
            same_key = np.allclose(key, exp.key, rtol=1e-12, atol=0.0)
        else:
            same_key = int(row[col["mode_count"]]) == exp.key[0]
        verdict = "passive" if exp.passive else "not-passive"
        if not same_key:
            failures.append(f"{op.kind}: sweep row {row[:4]} out of order, expected {exp.key}")
        elif row[col["verdict"]] != verdict:
            failures.append(f"{op.kind}: sample {exp.key} verdict "
                            f"{row[col['verdict']]!r}, reference {verdict!r}")
        elif (abs(float(row[col["min_re"]]) - exp.min_re) > sizes.eps_tol
              or abs(abs(float(row[col["worst_phase_deg"]])) - exp.worst_abs_phase)
              > PHASE_SLACK_DEG):
            failures.append(f"{op.kind}: sample {exp.key} margins off the reference")
    return failures, stats


# ---------------------------------------------------------------------------
# closed_loop


def _controller(name: str, ref: Reference, w_init: float, w_target: float,
                tension_initial: float, coefficients=None):
    """The run's controller, written out from the scenario definitions."""
    constant = control.FeedforwardProfile.constant(TENSION_FINAL)
    if name in ("fig7a", "fig7c"):
        k_d = 25.0 if name == "fig7a" else 50.0
        return control.ControllerConfig(
            control.PDGains(GAINS["k_p"], k_d), constant,
            control.ReferenceTrajectory.constant(w_target))
    if name in ("fig8", "fig8-clamped"):
        ramp = control.FeedforwardProfile.quintic(tension_initial, TENSION_FINAL,
                                                  SCENARIO_RAMP_S)
        return control.ControllerConfig(
            control.PDGains(GAINS["k_p"], 50.0), ramp,
            control.ReferenceTrajectory.quintic(w_init, w_target, SCENARIO_RAMP_S),
            clamp_nonnegative=name == "fig8-clamped")
    ramp = control.FeedforwardProfile.quintic(tension_initial, TENSION_FINAL,
                                              ref.inputs.sizes.sim_duration)
    return control.ControllerConfig(
        control.PDGains(**GAINS), ramp,
        control.ReferenceTrajectory.map_composed(coefficients))


def integrate_reference(m, cfg, q0: np.ndarray, duration: float) -> np.ndarray:
    """Final state of the closed loop by an adaptive high-order integrator."""
    n = m.mode_count
    tip_row = m.tip_row

    def rhs(t: float, x: np.ndarray) -> np.ndarray:
        state = model.State(q=x[:n], q_rate=x[n:])
        u = control.control_input(cfg, t, float(tip_row @ state.q),
                                  float(tip_row @ state.q_rate)).u
        d = model.dynamics_rhs(m, state, u)
        return np.concatenate([d.q, d.q_rate])

    x0 = np.concatenate([q0, np.zeros(n)])
    sol = solve_ivp(rhs, (0.0, duration), x0, method="DOP853", rtol=1e-11, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def _closed_loop_reference(ref: Reference) -> None:
    inputs = ref.inputs
    w_init = inputs.w_init
    w_target = ref.solver.tip_at(TENSION_FINAL)
    torques = fit_levels(inputs.sizes)
    fit = fit_reference(torques, [ref.solver.tip_at(t) for t in torques]
                        + np.asarray(inputs.noise))
    ref.data["fit"] = fit
    t_init = ref.solver.tension_for(w_init)
    q0 = _raw_q(ref.model, t_init)
    for name in SCENARIOS + ("custom",):
        cfg = _controller(name, ref, w_init, w_target, t_init,
                          fit["coefficients"][fit["degree"]])
        x = integrate_reference(ref.model, cfg, q0, inputs.sizes.sim_duration)
        ref.data[name] = float(ref.model.tip_row @ x[:ref.model.mode_count])


def check_fit(op: Op, fit: dict) -> list[str]:
    """The fitted map against the reference least-squares fit."""
    failures: list[str] = []
    if _summary(op, failures) is None:
        return failures
    fragment = json.loads((op.out / "fit_map.json").read_text())
    degree = fragment["map"]["degree"]
    if degree != fit["degree"] and degree not in fit["near_tie"]:
        failures.append(f"{op.kind}: degree {degree}, reference {fit['degree']}")
        return failures
    t, w = fit["torques"], fit["deflections"]
    predicted = np.polyval(fragment["reference"]["map_coefficients"], t)
    expected = np.polyval(fit["coefficients"][degree], t)
    if np.max(np.abs(predicted - expected)) > 1e-9 + 1e-7 * np.max(np.abs(w)):
        failures.append(f"{op.kind}: fitted map off the reference by "
                        f"{np.max(np.abs(predicted - expected)):.3e} m")
    rms = fragment["map"]["residual_rms"]
    if abs(rms - fit["rms"][degree]) > 1e-9 + 1e-6 * fit["rms"][degree]:
        failures.append(f"{op.kind}: residual RMS {rms} vs reference {fit['rms'][degree]}")
    return failures


def check_simulation(op: Op, ref: Reference) -> tuple[list[str], int]:
    """Status, row count and final tip of one simulate call; returns RK4 steps."""
    failures: list[str] = []
    summary = _summary(op, failures)
    if summary is None:
        return failures, 0
    sizes = ref.inputs.sizes
    status = summary.get("status")
    if status == "diverged":
        steps = int(round(summary["divergence_time_s"] / sizes.sim_dt))
    else:
        steps = sizes.sim_steps()
    if status != "completed":
        failures.append(f"{op.kind}: status {status!r}, expected 'completed'")
        return failures, steps
    name = op.kind.removeprefix("simulate-")
    meta = dict(line.split("=", 1) for line in
                (op.out / f"sim_{name}.meta").read_text().splitlines())
    if int(meta["rows"]) != sizes.sim_steps() // sizes.sim_decimation + 1:
        failures.append(f"{op.kind}: {meta['rows']} logged rows")
    tip, tip_ref = summary["final_tip_m"], ref.data[name]
    if not abs(tip - tip_ref) <= SIM_TOL * (1.0 + abs(tip_ref)):
        failures.append(f"{op.kind}: final tip {tip!r} m, reference {tip_ref!r} m")
    return failures, steps


# ---------------------------------------------------------------------------
# equilibrium_map


def _equilibrium_map_reference(ref: Reference) -> None:
    inputs = ref.inputs
    tensions = np.linspace(0.0, inputs.t_max, inputs.sizes.curve_samples)
    q = np.array([_raw_q(ref.model, t) for t in tensions])
    tips = q @ ref.model.tip_row
    ref.data["curve"] = {"tension": tensions, "tip": tips, "q": q}
    ref.data["fit"] = fit_reference(tensions, tips + np.asarray(inputs.noise))


def check_curve(op: Op, ref: Reference) -> tuple[list[str], int]:
    """Every curve point against the raw direct solve; returns the row count."""
    failures: list[str] = []
    if _summary(op, failures) is None:
        return failures, 0
    _, rows = _read_csv(op.out / "equilibrium_curve.csv")
    values = np.array(rows, dtype=float)
    curve = ref.data["curve"]
    if values.shape != (curve["tension"].size, 2 + ref.model.mode_count):
        failures.append(f"{op.kind}: curve CSV has shape {values.shape}")
        return failures, len(rows)
    checks = (("tension", values[:, 0], curve["tension"], 1e-11),
              ("tip", values[:, 1], curve["tip"], TIP_RTOL),
              ("modal coordinates", values[:, 2:], curve["q"], Q_RTOL))
    for label, got, want, rtol in checks:
        scale = np.max(np.abs(want), axis=0)
        bad = np.abs(got - want) > rtol * np.abs(want) + 1e-12 * scale
        if np.any(bad):
            row = int(np.argwhere(bad)[0][0])
            failures.append(f"{op.kind}: {label} at curve row {row} off the "
                            "raw effective-stiffness solve")
    return failures, len(rows)


def check_inversion(op: Op, ref: Reference) -> list[str]:
    """The inversion reproduces its target through solve_equilibrium."""
    if op.code != 0:
        return [f"inversion of {op.arg} m raised: {op.error}"]
    if not 0.0 <= op.value <= ref.inputs.t_max:
        return [f"inversion of {op.arg} m gave {op.value} N outside [0, t_max]"]
    achieved = equilibrium.solve_equilibrium(ref.model, op.value).tip_deflection
    if not abs(achieved - op.arg) <= 1e-6:
        return [f"inversion of {op.arg} m reproduces {achieved} m"]
    return []


# ---------------------------------------------------------------------------


def output_bytes(ops: list[Op]) -> int:
    """Bytes of every file the pass's CLI commands left behind."""
    return sum(p.stat().st_size for op in ops if op.out and op.out.is_dir()
               for p in op.out.rglob("*") if p.is_file())


@dataclass
class PassCheck:
    failed_ops: int = 0
    work: int = 0                   # samples, RK4 steps, or equilibria
    nudged_points: int = 0
    bytes_written: int = 0
    failures: list[str] = field(default_factory=list)


def check_pass(ops: list[Op], ref: Reference) -> PassCheck:
    """Check every operation of a pass; count failed ones and the work done."""
    result = PassCheck(bytes_written=output_bytes(ops))
    for op in ops:
        try:
            failures = _check_op(op, ref, result)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures = [f"{op.kind}: unreadable output ({type(exc).__name__}: {exc})"]
        if failures:
            result.failed_ops += 1
            result.failures.extend(failures)
    return result


def _check_op(op: Op, ref: Reference, result: PassCheck) -> list[str]:
    if op.code is None and op.kind != "inversion":
        return [f"{op.kind}: not run ({op.error})"]
    if op.kind.startswith("bode"):
        failures, stats = check_bode(op, ref)
        result.work += stats["samples"]
        result.nudged_points += stats["nudged_points"]
    elif op.kind.startswith("simulate"):
        failures, steps = check_simulation(op, ref)
        result.work += steps
    elif op.kind == "fit":
        failures = check_fit(op, ref.data["fit"])
    elif op.kind == "equilibrium":
        failures, rows = check_curve(op, ref)
        result.work += rows
    else:
        failures = check_inversion(op, ref)
        result.work += 0 if failures else 1
    return failures
