"""Fixed-step closed-loop simulation of the nonlinear boom dynamics.

Classic fourth-order Runge-Kutta with the controller evaluated at every
stage time and stage state (the control law is an explicit function of
time and the tip measurements, so no zero-order hold is emulated).  A run
binds its control law into ``StructuralModel.rate_kernel`` once, the kernel
that ``state_rate`` and ``dynamics_rhs`` also call.  Each stage is one call of
the bound kernel, which calls the controller itself (no wrapper) and takes u
from the end of its ``ControlSample``; one stacked product gives the tip
measurements and both parts of the state rate.  An unforced run binds a zero
control law.  The loop records only the time and state of each logged step;
the rest of the log is derived from those states after it.
Divergence is declared when the state norm exceeds 1e6 times its initial
norm or any entry stops being finite; a diverged run is returned with
status rather than raised, since blow-up is a legitimate experimental
outcome here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import (ControllerConfig, ControlSample, FeedforwardProfile,
                      PDGains, ReferenceTrajectory, make_controller)
from .equilibrium import solve_equilibrium, tension_for_deflection
from .model import (BasisSet, BoomParams, State, StructuralModel, assemble_matrices,
                    checked_count, checked_number, checked_real, is_number, total_energy)

__all__ = [
    "SimScenario",
    "SimResult",
    "initial_state_from_deflection",
    "run_simulation",
    "scenario_suite",
    "SCENARIO_NAMES",
    "TARGET_TENSION",
    "RAMP_DURATION",
]

_DIVERGENCE_FACTOR = 1e6
_NORM_FLOOR = 1e-6  # so a zero initial state does not make the threshold zero
_STEP_TOL = 1e-9  # relative miss of the duration a whole number of steps may make
_MAX_STEPS = 10**9  # 6-12 h of RK4 at 22-45 us per three-mode step

SCENARIO_NAMES = ("fig7a", "fig7c", "fig8", "fig8-clamped")
TARGET_TENSION = 1.0   # N, the tension whose equilibrium the scenarios command
RAMP_DURATION = 100.0  # s, length of the fig8 quintic feedforward and reference
_ZERO_SAMPLE = ControlSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SimScenario:
    """One closed-loop run: model, controller, initial deflection, timing.

    ``controller`` may be None for an unforced (zero-tension) run.
    ``decimation`` thins the log: one row every that many steps, plus the
    final step whenever the step count is not a multiple of it.  ``dt`` must
    be a real number, finite and > 0, ``decimation`` an int >= 1, and
    ``duration`` and ``w_init`` real numbers (a bool, a string or a value that
    is not a real number is a ValueError naming the field); a run of more
    than 10**9 steps (hours of integration) is refused.
    """

    model: StructuralModel
    controller: ControllerConfig | None
    w_init: float
    duration: float = 200.0
    dt: float = 1e-3
    decimation: int = 100
    name: str = "custom"

    def __post_init__(self) -> None:
        checked_real("dt", self.dt)
        checked_number("w_init", self.w_init)
        steps = self.step_count if is_number(self.duration) else 0
        if steps < 1 or abs(steps * self.dt - self.duration) > _STEP_TOL * self.duration:
            raise ValueError("duration must be finite and a whole number, at least "
                             f"one, of steps dt = {self.dt!r} s, got {self.duration!r}")
        checked_count("decimation", self.decimation, 1)
        if steps > _MAX_STEPS:
            raise ValueError(f"a run of {steps} steps exceeds the ceiling of {_MAX_STEPS} steps")

    @property
    def step_count(self) -> int:
        """Nearest whole number of steps dt in duration; 0 when there is none to run."""
        ratio = self.duration / self.dt  # inf on overflow; 2**63 steps never finish
        return round(ratio) if 0.0 < ratio < 2.0 ** 63 else 0


@dataclass(frozen=True)
class SimResult:
    """Logged closed-loop trajectory.

    ``time``, ``q`` and ``q_rate`` are the recorded states; the tip, control
    and energy columns are derived from them after the integration.
    All rows are finite unless status is "diverged", in which case the last
    row records the state at the divergence time.
    """

    scenario_name: str
    time: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    q_rate: np.ndarray = field(repr=False)
    tip: np.ndarray = field(repr=False)
    tip_rate: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    u_unclamped: np.ndarray = field(repr=False)
    t_des: np.ndarray = field(repr=False)
    w_des: np.ndarray = field(repr=False)
    w_rate_des: np.ndarray = field(repr=False)
    kinetic: np.ndarray = field(repr=False)
    potential: np.ndarray = field(repr=False)
    status: str = "completed"
    divergence_time: float | None = None

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"

    def final_state(self) -> State:
        return State(q=self.q[-1], q_rate=self.q_rate[-1])


def initial_state_from_deflection(model: StructuralModel, w_init: float) -> State:
    """Rest state whose shape is the held equilibrium with tip at w_init."""
    tension = tension_for_deflection(model, w_init)
    q = solve_equilibrium(model, tension).modal_coords
    return State(q=q, q_rate=np.zeros(model.mode_count))


def _zero_law(t: float, w_tip: float, w_rate: float) -> ControlSample:
    """The control law of an unforced run: the all-zero sample at any time and tip."""
    return _ZERO_SAMPLE


def run_simulation(scenario: SimScenario) -> SimResult:
    """Integrate the closed loop with fixed-step RK4, then derive the log's columns."""
    model = scenario.model
    n = model.mode_count
    dt = scenario.dt
    n_steps = scenario.step_count
    law = _zero_law if scenario.controller is None else make_controller(scenario.controller)
    rate = model.rate_kernel(law)

    x = initial_state_from_deflection(model, scenario.w_init).as_vector()
    norm0 = max(float(np.linalg.norm(x)), _NORM_FLOOR)
    threshold_sq = (_DIVERGENCE_FACTOR * norm0) ** 2
    times, states = [0.0], [x]
    diverged = False

    t = 0.0
    half = 0.5 * dt
    sixth = dt / 6.0
    # Overflow is how a run diverges, and divergence is reported as a status.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1 = rate(t, x)
            k2 = rate(t + half, x + half * k1)
            k3 = rate(t + half, x + half * k2)
            k4 = rate(t + dt, x + dt * k3)
            x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            t = (k + 1) * dt
            # NaN fails the comparison too, so this catches non-finite states.
            diverged = not float(x.dot(x)) <= threshold_sq
            if diverged or (k + 1) % scenario.decimation == 0 or k + 1 == n_steps:
                times.append(t)
                states.append(x)
                if diverged:
                    break

        time, x_log = np.array(times), np.array(states)
        q, q_rate = x_log[:, :n], x_log[:, n:]
        tip, tip_rate = q @ model.tip_row, q_rate @ model.tip_row
        # Columns are the ControlSample fields after time, read back by name.
        control = np.array([law(*row)[1:] for row in zip(times, tip.tolist(), tip_rate.tolist())])
        energy = np.array([total_energy(model, State.from_vector(row)) for row in x_log])
    return SimResult(
        scenario_name=scenario.name,
        time=time, q=q, q_rate=q_rate, tip=tip, tip_rate=tip_rate,
        **dict(zip(ControlSample._fields[1:], control.T)),
        kinetic=energy[:, 0], potential=energy[:, 1],
        status="diverged" if diverged else "completed",
        divergence_time=t if diverged else None,
    )


def scenario_suite(params: BoomParams | None = None, mode_count: int = 3,
                   w_init: float = 1.0, duration: float = SimScenario.duration,
                   dt: float = SimScenario.dt,
                   step_scale: float = 1.0) -> list[SimScenario]:
    """The four benchmark closed-loop scenarios, sharing k_p = 10 N/m.

    fig7a        constant feedforward at the target tension, the default
                 ``PDGains()`` (k_d = 25 N s/m)
    fig7c        same constant feedforward, k_d = 50 N s/m (the aggressive
                 rate gain that the smooth feedforward is meant to tame)
    fig8         quintic feedforward and quintic reference over
                 ``RAMP_DURATION``, k_d = 50 N s/m
    fig8-clamped fig8 with the nonnegative-tension clamp enabled

    The commanded step runs from w_init to the equilibrium deflection of
    ``TARGET_TENSION``; ``step_scale`` stretches that step (the target is
    re-solved so the endpoint remains a true equilibrium).
    """
    params = params or BoomParams()
    model = assemble_matrices(params, BasisSet.with_mode_count(mode_count))
    target_tension = TARGET_TENSION
    w_target = solve_equilibrium(model, target_tension).tip_deflection
    if step_scale != 1.0:
        w_target = w_init + step_scale * (w_target - w_init)
        target_tension = tension_for_deflection(model, w_target)
    t_init = tension_for_deflection(model, w_init)

    constant_ref = ReferenceTrajectory.constant(w_target)
    constant_ff = FeedforwardProfile.constant(target_tension)
    ramp_ff = FeedforwardProfile.quintic(t_init, target_tension, RAMP_DURATION)
    ramp_ref = ReferenceTrajectory.quintic(w_init, w_target, RAMP_DURATION)
    aggressive = PDGains(k_d=50.0)

    def scen(name: str, gains: PDGains, ff: FeedforwardProfile,
             ref: ReferenceTrajectory, clamp: bool) -> SimScenario:
        cfg = ControllerConfig(gains=gains, feedforward=ff, reference=ref,
                               clamp_nonnegative=clamp)
        return SimScenario(model=model, controller=cfg, w_init=w_init,
                           duration=duration, dt=dt, name=name)

    return [
        scen("fig7a", PDGains(), constant_ff, constant_ref, False),
        scen("fig7c", aggressive, constant_ff, constant_ref, False),
        scen("fig8", aggressive, ramp_ff, ramp_ref, False),
        scen("fig8-clamped", aggressive, ramp_ff, ramp_ref, True),
    ]
