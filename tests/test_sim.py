import dataclasses
import math
import re

import numpy as np
import pytest

import flexboom as fb


def _unforced(model, w_init, duration, dt=1e-3, decimation=100):
    return fb.SimScenario(model=model, controller=None, w_init=w_init,
                          duration=duration, dt=dt, decimation=decimation,
                          name="unforced")


def test_zero_input_zero_state_stays_zero(model3):
    result = fb.run_simulation(_unforced(model3, 0.0, 1.0))
    assert result.status == "completed"
    assert np.array_equal(result.tip, np.zeros_like(result.tip))
    assert np.array_equal(result.q, np.zeros_like(result.q))
    assert np.array_equal(result.u, np.zeros_like(result.u))


def test_initial_state_round_trip(model3):
    state = fb.initial_state_from_deflection(model3, 1.0)
    assert fb.tip_deflection(model3, state.q) == pytest.approx(1.0, abs=1e-6)
    assert np.array_equal(state.q_rate, np.zeros(3))
    zero = fb.initial_state_from_deflection(model3, 0.0)
    assert np.array_equal(zero.as_vector(), np.zeros(6))


def test_initial_state_out_of_range(model3):
    with pytest.raises(fb.OutOfRange):
        fb.initial_state_from_deflection(model3, 100.0)


def test_one_step_is_rk4_of_dynamics_rhs(model3):
    dt = 1e-3
    result = fb.run_simulation(_unforced(model3, 0.5, dt, dt=dt, decimation=1))
    x = fb.initial_state_from_deflection(model3, 0.5).as_vector()

    def f(x):
        return fb.dynamics_rhs(model3, fb.State.from_vector(x), 0.0).as_vector()

    half = 0.5 * dt
    k1 = f(x)
    k2 = f(x + half * k1)
    k3 = f(x + half * k2)
    k4 = f(x + dt * k3)
    expected = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    assert np.array_equal(result.final_state().as_vector(), expected)


def test_short_energy_conservation(model3):
    result = fb.run_simulation(_unforced(model3, 1.0, 10.0))
    total = result.kinetic + result.potential
    drift = np.max(np.abs(total - total[0])) / total[0]
    assert drift <= 1e-9


def test_determinism(model3):
    suite = fb.scenario_suite()
    scenario = fb.SimScenario(model=suite[0].model, controller=suite[0].controller,
                              w_init=1.0, duration=5.0, name="det")
    first = fb.run_simulation(scenario)
    second = fb.run_simulation(scenario)
    assert np.array_equal(first.tip, second.tip)
    assert np.array_equal(first.q, second.q)
    assert np.array_equal(first.u, second.u)


def test_clamped_run_never_logs_negative_tension(model3):
    cfg = fb.ControllerConfig(
        gains=fb.PDGains(k_p=10.0, k_d=25.0),
        feedforward=fb.FeedforwardProfile.constant(0.1),
        reference=fb.ReferenceTrajectory.constant(0.0),
        clamp_nonnegative=True,
    )
    scenario = fb.SimScenario(model=model3, controller=cfg, w_init=1.0,
                              duration=5.0, name="clamped")
    result = fb.run_simulation(scenario)
    assert np.min(result.u) >= 0.0
    assert np.min(result.u_unclamped) < 0.0  # the clamp actually engaged


def test_divergence_is_reported_not_raised():
    # An aggressive rate gain with a constant feedforward and a doubled
    # commanded step destabilizes the nonlinear loop.
    suite = fb.scenario_suite(step_scale=2.0, duration=60.0)
    scenario = next(s for s in suite if s.name == "fig7c")
    result = fb.run_simulation(scenario)
    assert result.status == "diverged"
    assert result.diverged
    assert result.divergence_time is not None
    assert 0.0 < result.divergence_time <= 60.0
    # the last logged row records the divergence time
    assert result.time[-1] == pytest.approx(result.divergence_time)
    assert np.all(np.isfinite(result.tip[:-1]))


def test_scenario_suite_structure():
    suite = fb.scenario_suite()
    assert [s.name for s in suite] == list(fb.SCENARIO_NAMES)
    assert len(suite) == 4
    by_name = {s.name: s for s in suite}
    for s in suite:
        assert s.controller.gains.k_p == 10.0
        assert s.w_init == 1.0
        assert s.duration == 200.0
    assert by_name["fig7a"].controller.gains.k_d == 25.0
    assert by_name["fig7c"].controller.gains.k_d == 50.0
    assert by_name["fig8"].controller.gains.k_d == 50.0
    assert by_name["fig7a"].controller.feedforward.mode == "constant"
    assert by_name["fig8"].controller.feedforward.mode == "quintic"
    assert by_name["fig8"].controller.reference.mode == "quintic-deflection"
    assert not by_name["fig8"].controller.clamp_nonnegative
    assert by_name["fig8-clamped"].controller.clamp_nonnegative
    # the commanded endpoint is this model's own equilibrium at 1 N
    model = by_name["fig7a"].model
    w_eq = fb.solve_equilibrium(model, 1.0).tip_deflection
    assert by_name["fig7a"].controller.reference.w_final == pytest.approx(w_eq)
    assert by_name["fig8"].controller.feedforward.tension_final == pytest.approx(1.0)


def test_scenario_validation(model3):
    with pytest.raises(ValueError):
        fb.SimScenario(model=model3, controller=None, w_init=0.0, duration=1.0,
                       dt=-1e-3)
    with pytest.raises(ValueError):
        fb.SimScenario(model=model3, controller=None, w_init=0.0, duration=1e-4,
                       dt=1e-3)


def test_logged_rows_cover_duration(model3):
    result = fb.run_simulation(_unforced(model3, 0.5, 2.0, dt=1e-3,
                                         decimation=200))
    assert result.time[0] == 0.0
    assert result.time[-1] == pytest.approx(2.0)
    assert result.time.size == 11
    assert np.all(np.isfinite(result.kinetic))
    assert np.all(np.isfinite(result.potential))


@pytest.mark.parametrize("decimation", [100, 300])
def test_final_step_is_logged_off_the_decimation_grid(model3, decimation):
    # 250 steps: neither decimation divides them, and 300 exceeds them.
    every_step = fb.run_simulation(_unforced(model3, 0.5, 0.25, decimation=1))
    thinned = fb.run_simulation(_unforced(model3, 0.5, 0.25, decimation=decimation))
    assert thinned.time[-1] == every_step.time[-1] == pytest.approx(0.25)
    assert thinned.time.size == 250 // decimation + 2
    assert np.array_equal(thinned.final_state().as_vector(),
                          every_step.final_state().as_vector())
    assert np.array_equal(thinned.time[:-1], every_step.time[:-1:decimation])


@pytest.mark.parametrize("field", ["duration", "dt"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_scenario_rejects_non_finite_timing(model3, field, value):
    timing = {"duration": 1.0, "dt": 1e-3, field: value}
    with pytest.raises(ValueError, match=field):
        _unforced(model3, 0.0, **timing)


def test_divergence_off_the_decimation_grid_is_logged():
    # Divergence at 27.08 s, before any decimated row: the divergence row
    # still needs a slot in the log.
    suite = fb.scenario_suite(step_scale=2.0, duration=28.0)
    scenario = next(s for s in suite if s.name == "fig7c")
    result = fb.run_simulation(dataclasses.replace(scenario, decimation=100_000))
    assert result.status == "diverged"
    assert result.time.size == 2
    assert result.time[-1] == result.divergence_time


@pytest.mark.parametrize("duration, dt", [(0.5, 0.3), (1.0, 0.3), (1.0, 0.4)])
def test_scenario_rejects_partial_final_step(model3, duration, dt):
    # round(duration / dt) steps would end the run at 0.6, 0.9 and 0.8 s.
    with pytest.raises(ValueError, match="whole number"):
        _unforced(model3, 0.0, duration, dt=dt)


def test_scenario_accepts_whole_steps_despite_rounding(model3):
    # 0.3 / 0.1 is 2.9999999999999996 in binary floating point.
    result = fb.run_simulation(_unforced(model3, 0.0, 0.3, dt=0.1))
    assert result.time[-1] == pytest.approx(0.3)


@pytest.mark.parametrize("decimation", [2.5, 2.0, 0])
def test_scenario_requires_integer_decimation(model3, decimation):
    with pytest.raises(ValueError, match="decimation"):
        _unforced(model3, 0.0, 1.0, decimation=decimation)


@pytest.mark.parametrize("duration", [1e308, 1e300])
def test_scenario_refuses_a_step_count_that_overflows(model3, duration):
    # 1e308 / 1e-3 overflows to inf, which round() cannot take; 1e303 steps
    # are finite but exceed any index, and no such run could end.
    with pytest.raises(ValueError, match=rf"duration .*got {re.escape(repr(duration))}"):
        _unforced(model3, 0.0, duration, dt=1e-3)


def test_scenario_refuses_a_run_past_the_step_ceiling(model3):
    # 1e6 s of 1 ms steps is the longest accepted run; one step more is refused.
    assert _unforced(model3, 0.0, 1e6, dt=1e-3).step_count == 10**9
    with pytest.raises(ValueError, match=r"^a run of 1000000001 steps exceeds the "
                                         r"ceiling of 1000000000 steps$"):
        _unforced(model3, 0.0, 1000000.001, dt=1e-3)
    # 1e12 s is 1e15 steps, about 950 years of run.
    with pytest.raises(ValueError, match="a run of 1000000000000000 steps"):
        fb.scenario_suite(duration=1e12)


def test_scenario_refuses_boolean_decimation(model3):
    with pytest.raises(ValueError, match="decimation"):
        _unforced(model3, 0.0, 1.0, decimation=True)


CONTROL_COLUMNS = fb.ControlSample._fields[1:]


@pytest.mark.parametrize("name", fb.SCENARIO_NAMES)
def test_logged_control_is_the_law_at_the_logged_tip(name):
    scenario = next(s for s in fb.scenario_suite(duration=2.0) if s.name == name)
    result = fb.run_simulation(dataclasses.replace(scenario, decimation=1))
    controller = fb.make_controller(scenario.controller)
    expected = np.array([controller(*row)[1:] for row in zip(
        result.time.tolist(), result.tip.tolist(), result.tip_rate.tolist())])
    logged = np.column_stack([getattr(result, col) for col in CONTROL_COLUMNS])
    assert result.time.size == 2001
    assert np.array_equal(logged, expected)


def test_unforced_run_logs_zero_control(model3):
    result = fb.run_simulation(_unforced(model3, 0.5, 2.0, decimation=1))
    for col in CONTROL_COLUMNS:
        assert np.array_equal(getattr(result, col), np.zeros(result.time.size)), col


# Three-step forced runs whose control law moves within each step: a ramp the
# clamp cuts at some stages, and a map-composed reference.
FORCED_STEP = 1e-3
FORCED_CONFIGS = {
    "ramp_clamp": (0.0, fb.ControllerConfig(
        gains=fb.PDGains(k_d=50.0),
        feedforward=fb.FeedforwardProfile.quintic(0.02, -0.02, 3 * FORCED_STEP),
        reference=fb.ReferenceTrajectory.quintic(0.0, -1e-6, 3 * FORCED_STEP),
        clamp_nonnegative=True)),
    "map_composed": (1.1, fb.ControllerConfig(
        gains=fb.PDGains(k_d=50.0),
        feedforward=fb.FeedforwardProfile.quintic(0.9, 1.0, 4 * FORCED_STEP),
        reference=fb.ReferenceTrajectory.map_composed((0.6, 0.5, 0.1686)))),
}


@pytest.mark.parametrize("name", sorted(FORCED_CONFIGS))
def test_forced_steps_are_rk4_at_the_stage_times(model3, monkeypatch, name):
    """Each stage's time, tip measurements and step result against textbook RK4.

    The textbook evaluates the law at t, t + h/2, t + h/2 and t + h through
    ``state_rate``; the run's controller calls during the integration are
    recorded, so a wrong stage time or stage state fails even where the step
    result would hide it.
    """
    w_init, cfg = FORCED_CONFIGS[name]
    h = FORCED_STEP
    calls = []

    def recording_controller(config):
        law = fb.make_controller(config)

        def record(t, w_tip, w_rate):
            calls.append((t, w_tip, w_rate))
            return law(t, w_tip, w_rate)
        return record

    monkeypatch.setattr(fb.sim, "make_controller", recording_controller)
    result = fb.run_simulation(fb.SimScenario(model=model3, controller=cfg, w_init=w_init,
                                              duration=3 * h, dt=h, decimation=1))
    law = fb.make_controller(cfg)
    expected_calls = []

    def f(t, x):
        def tension(w_tip, w_rate):
            expected_calls.append((t, w_tip, w_rate))
            return law(t, w_tip, w_rate).u
        return fb.state_rate(model3, x, tension)

    x = fb.initial_state_from_deflection(model3, w_init).as_vector()
    expected = [x]
    for k in range(3):
        t = k * h
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        expected.append(x)
    assert calls[:12] == expected_calls
    assert np.array_equal(np.hstack((result.q, result.q_rate)), expected)
    assert result.time.tolist() == [0.0, h, 2 * h, 3 * h]
    if cfg.clamp_nonnegative:  # the clamp must cut some stages and pass others
        raw = [law(*call).u_unclamped for call in expected_calls]
        assert 0 < sum(u < 0.0 for u in raw) < len(raw)


def test_thinned_log_holds_the_every_step_states_bit_for_bit():
    """A log thinned to every 7th step holds, bit for bit, the states that an
    every-step run of the same forced scenario logs at those steps, the final
    step (200, off the grid of 7) included.  Each logged row is an array of its
    own: the every-step log changes from each row to the next.
    """
    scenario = next(s for s in fb.scenario_suite(duration=0.2) if s.name == "fig8-clamped")
    thinned = fb.run_simulation(dataclasses.replace(scenario, decimation=7))
    every = fb.run_simulation(dataclasses.replace(scenario, decimation=1))
    rows = [*range(0, 200, 7), 200]
    assert thinned.time.tolist() == every.time[rows].tolist()
    assert np.array_equal(thinned.q, every.q[rows])
    assert np.array_equal(thinned.q_rate, every.q_rate[rows])
    states = np.hstack((every.q, every.q_rate))
    assert (states[1:] != states[:-1]).any(axis=1).all()


# The E*I law of the closed loop.  A sample (e, rho, i) of the box scales M by
# rho and K by e*i, and the cable load f(q, u) is linear in u, so the sample's
# run is the nominal run in the time tau = t sqrt(e*i/rho) with tension
# u/(e*i): feedforward T/(e*i), gains k_p/(e*i) and k_d/sqrt(e*i*rho), the same
# reference, step and ramp durations times sqrt(e*i/rho).  The clamp u >= 0 is
# invariant under a positive scale.  The sample's velocities are the nominal's
# times that time scale.
EI_STEP, EI_STEPS, EI_START = 1e-3, 2000, 1.0  # s, steps, m


def _ei_config(ramped, clamp, time_scale=1.0, tension_scale=1.0, rate_gain_scale=1.0):
    """The law with tensions and k_p divided by ``tension_scale``, k_d by
    ``rate_gain_scale`` and the ramp's 1 s stretched by ``time_scale``.  It
    commands less deflection than the start holds, so u goes negative early."""
    ramp = 1.0 * time_scale
    return fb.ControllerConfig(
        gains=fb.PDGains(k_p=10.0 / tension_scale, k_d=25.0 / rate_gain_scale),
        feedforward=(fb.FeedforwardProfile.quintic(0.88 / tension_scale, 1.0 / tension_scale, ramp)
                     if ramped else fb.FeedforwardProfile.constant(1.0 / tension_scale)),
        reference=(fb.ReferenceTrajectory.quintic(EI_START, 0.8, ramp) if ramped
                   else fb.ReferenceTrajectory.constant(0.8)),
        clamp_nonnegative=clamp)


@pytest.mark.parametrize("clamp", [False, True], ids=["unclamped", "clamped"])
@pytest.mark.parametrize("ramped", [False, True], ids=["constant", "quintic"])
@pytest.mark.parametrize("sample, tolerance", [((1.0, 0.25, 1.0), 0.0),
                                               ((0.8, 1.2, 0.8), 1e-11),
                                               ((1.2, 0.8, 0.8), 1e-11)])
def test_sample_run_is_the_nominal_run_under_the_ei_law(params, basis3, model3, sample,
                                                        tolerance, ramped, clamp):
    """A box sample's run on its own model against the nominal run under the
    E*I substitutions, every step logged: bit for bit at (1, 0.25, 1), whose
    time scale is 2, and within ``tolerance`` of each column's largest
    magnitude elsewhere.  The law's output is compared before the clamp, which
    only cuts it (u is 0 for much of a clamped run), and the clamp must cut
    the same logged rows in both runs."""
    e, rho, i = sample
    ei, time_scale = e * i, math.sqrt(e * i / rho)
    own = fb.run_simulation(fb.SimScenario(
        fb.assemble_matrices(params.scaled(e, rho, i), basis3), _ei_config(ramped, clamp),
        EI_START, EI_STEPS * EI_STEP, EI_STEP, decimation=1))
    nominal = fb.run_simulation(fb.SimScenario(
        model3, _ei_config(ramped, clamp, time_scale, ei, math.sqrt(ei * rho)), EI_START,
        EI_STEPS * EI_STEP * time_scale, EI_STEP * time_scale, decimation=1))
    assert own.status == nominal.status == "completed"
    assert (own.u_unclamped < 0.0).any()
    pairs = [(own.time, nominal.time / time_scale), (own.q, nominal.q),
             (own.q_rate, nominal.q_rate * time_scale), (own.tip, nominal.tip),
             (own.u_unclamped, nominal.u_unclamped * ei)]
    for got, expected in pairs:
        assert np.max(np.abs(got - expected)) <= tolerance * np.max(np.abs(expected))
    assert np.array_equal(own.u > 0.0, nominal.u > 0.0)
