"""Fixed-step closed-loop simulation of the nonlinear boom dynamics.

Classic fourth-order Runge-Kutta with the controller evaluated at every
stage time and stage state (the control law is an explicit function of
time and the tip measurements, so no zero-order hold is emulated).  A run
binds its control law into ``StructuralModel.rate_kernel`` once, the kernel
that ``state_rate`` and ``dynamics_rhs`` also call.  Each stage is one call of
the bound kernel, which calls the controller itself (no wrapper) and takes u
from the end of its ``ControlSample``; one stacked product gives the tip
measurements and the unforced and tension parts of the state rate, and one
weighted product (1, u, u) of those parts and the input rate gives the stage
rate.  An unforced run binds a zero control law.

The step allocates no array: the kernel writes each stage rate into one of
four arrays the run owns (it serves one caller at a time, and a run is its
only caller), and the stage state, the weighted sum and the state itself are
updated in place, with the same operations in the same order as textbook RK4.
The loop records only the time and a copy of the state of each logged step;
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
                    checked_count, checked_number, checked_real, is_number, shown, total_energy)

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
_MAX_STEPS = 10**9  # 3-4 h of RK4 at 11-15 us per three-mode step

# The benchmark closed-loop scenarios, sharing k_p = 10 N/m (``scenario_suite``):
# name -> (k_d in N s/m, ramped step, nonnegative-tension clamp).
_SCENARIOS = {
    "fig7a": (PDGains.k_d, False, False),  # the default gains, k_d = 25
    "fig7c": (50.0, False, False),  # the aggressive rate gain a ramped step is meant to tame
    "fig8": (50.0, True, False),
    "fig8-clamped": (50.0, True, True),
}
SCENARIO_NAMES = tuple(_SCENARIOS)
TARGET_TENSION = 1.0   # N, the tension whose equilibrium the scenarios command
RAMP_DURATION = 100.0  # s, length of a ramped step's quintic feedforward and reference
_ZERO_SAMPLE = ControlSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SimScenario:
    """One closed-loop run: model, controller, initial deflection, timing.

    ``controller`` may be None for an unforced (zero-tension) run.
    ``decimation`` thins the log: one row every that many steps, plus the
    final step whenever the step count is not a multiple of it.  ``dt`` must
    be a real number, finite and > 0, ``decimation`` an int >= 1, and
    ``duration`` and ``w_init`` real numbers (a bool, a string or a value that
    is not a real number is a ValueError naming the field), each kept as a
    Python float or int; a run of more than 10**9 steps (hours of
    integration) is refused.
    """

    model: StructuralModel
    controller: ControllerConfig | None
    w_init: float
    duration: float = 200.0
    dt: float = 1e-3
    decimation: int = 100
    name: str = "custom"

    def __post_init__(self) -> None:
        dt, duration = self.dt, self.duration  # as given, for the refusal's text
        object.__setattr__(self, "dt", checked_real("dt", dt))
        object.__setattr__(self, "w_init", checked_number("w_init", self.w_init))
        object.__setattr__(self, "duration", float(duration) if is_number(duration) else 0.0)
        steps = self.step_count
        if steps < 1 or abs(steps * self.dt - self.duration) > _STEP_TOL * self.duration:
            raise ValueError("duration must be finite and a whole number, at least "
                             f"one, of steps dt = {shown(dt)} s, got {shown(duration)}")
        object.__setattr__(self, "decimation", checked_count("decimation", self.decimation, 1))
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

    x0 = initial_state_from_deflection(model, scenario.w_init).as_vector()
    norm0 = max(float(np.linalg.norm(x0)), _NORM_FLOOR)
    threshold_sq = (_DIVERGENCE_FACTOR * norm0) ** 2
    times, states = [0.0], [x0]
    diverged = False

    t = 0.0
    half = 0.5 * dt
    # The step's constants as 0-d arrays: a 0-d array times a 6-entry array
    # costs 0.37 us against 0.61 us for a Python float (numpy 2.4, 2-vCPU
    # x86-64), with the same bits; the stage times stay Python floats.
    half_, dt_, sixth_ = np.array(half), np.array(dt), np.array(dt / 6.0)
    x, k1, k2, k3, k4, stage, acc = x0.copy(), *np.empty((6, x0.size))
    add, multiply = np.add, np.multiply
    # Overflow is how a run diverges, and divergence is reported as a status.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            # Textbook order; 2.0 * (k2 + k3) is written s + s, the same bits.
            rate(t, x, k1)
            rate(t + half, add(x, multiply(half_, k1, out=stage), out=stage), k2)
            rate(t + half, add(x, multiply(half_, k2, out=stage), out=stage), k3)
            rate(t + dt, add(x, multiply(dt_, k3, out=stage), out=stage), k4)
            add(k2, k3, out=acc)
            add(acc, acc, out=acc)
            add(k1, acc, out=acc)
            add(acc, k4, out=acc)
            add(x, multiply(sixth_, acc, out=acc), out=x)
            t = (k + 1) * dt
            # NaN fails the comparison too, so this catches non-finite states.
            diverged = not float(x.dot(x)) <= threshold_sq
            if diverged or (k + 1) % scenario.decimation == 0 or k + 1 == n_steps:
                times.append(t)
                states.append(x.copy())
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
    """The benchmark closed-loop scenarios, one per row of the module's table,
    in ``SCENARIO_NAMES`` order.

    A row gives the rate gain k_d, the step and the clamp.  A constant step
    commands the target tension as feedforward and the target deflection as
    reference from t = 0; a ramped step blends both from their initial values
    with the quintic over ``RAMP_DURATION``.  The step runs from w_init to the
    equilibrium deflection of ``TARGET_TENSION``; ``step_scale`` stretches
    that step (the target is re-solved so the endpoint remains a true
    equilibrium).
    """
    params = params or BoomParams()
    model = assemble_matrices(params, BasisSet.with_mode_count(mode_count))
    target_tension = TARGET_TENSION
    w_target = solve_equilibrium(model, target_tension).tip_deflection
    if step_scale != 1.0:
        w_target = w_init + step_scale * (w_target - w_init)
        target_tension = tension_for_deflection(model, w_target)
    t_init = tension_for_deflection(model, w_init)
    return [SimScenario(model, ControllerConfig(
        PDGains(k_d=k_d),
        FeedforwardProfile.quintic(t_init, target_tension, RAMP_DURATION) if ramped
        else FeedforwardProfile.constant(target_tension),
        ReferenceTrajectory.quintic(w_init, w_target, RAMP_DURATION) if ramped
        else ReferenceTrajectory.constant(w_target), clamp_nonnegative=clamp),
        w_init, duration, dt, name=name) for name, (k_d, ramped, clamp) in _SCENARIOS.items()]
