import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flexboom as fb
from flexboom import control
from flexboom.control import feedforward_tension_rate

# Cubic torque-to-deflection map identified on the bench prototype
# (torque in N m, deflection in mm), coefficients in descending degree.
PROTOTYPE_MAP = (-1902.0, 1414.0, -302.7, 20.07)


def quintic_profile(t0=0.15, tf=0.327, duration=30.0):
    return fb.FeedforwardProfile.quintic(t0, tf, duration)


def test_gain_validation():
    with pytest.raises(ValueError):
        fb.PDGains(k_p=0.0, k_d=1.0)
    with pytest.raises(ValueError):
        fb.PDGains(k_p=1.0, k_d=-2.0)


# The ids name each case by the rule it breaks; they stay fixed when the
# wording of the refusal changes.
@pytest.mark.parametrize("gains, message", [
    pytest.param({"k_p": 0.0}, "k_p must be finite and > 0, got 0.0",
                 id="gains0-k_p must be > 0, got 0.0"),
    pytest.param({"k_d": float("nan")}, "k_d must be finite and > 0, got nan",
                 id="gains1-k_d must be > 0, got nan"),
    # k_p is checked first
    pytest.param({"k_p": -1.0, "k_d": -2.0}, "k_p must be finite and > 0, got -1.0",
                 id="gains2-k_p must be > 0, got -1.0"),
])
def test_gain_refusal_names_the_gain(gains, message):
    with pytest.raises(ValueError) as refused:
        fb.PDGains(**gains)
    assert str(refused.value) == message


def test_quintic_endpoints():
    profile = quintic_profile()
    assert fb.feedforward_tension(profile, 0.0) == 0.15
    assert fb.feedforward_tension(profile, 30.0) == 0.327
    # hold past the end of the maneuver
    assert fb.feedforward_tension(profile, 31.0) == 0.327
    assert fb.feedforward_tension(profile, 1e6) == 0.327


def test_quintic_midpoint_is_mean():
    profile = quintic_profile()
    mid = fb.feedforward_tension(profile, 15.0)
    assert mid == pytest.approx((0.15 + 0.327) / 2.0, rel=1e-15)


def test_quintic_endpoint_derivatives_vanish():
    profile = quintic_profile()
    span = abs(profile.tension_final - profile.tension_initial)
    for t in (0.0, profile.duration):
        assert abs(feedforward_tension_rate(profile, t)) <= 1e-12 * span
        # second derivative of the blend is 60 s - 180 s^2 + 120 s^3
        s = t / profile.duration
        accel = (60.0 * s - 180.0 * s ** 2 + 120.0 * s ** 3) * span \
            / profile.duration ** 2
        assert abs(accel) <= 1e-12 * span


@settings(max_examples=100)
@given(t0=st.floats(min_value=-2.0, max_value=2.0),
       tf=st.floats(min_value=-2.0, max_value=2.0),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_quintic_monotone_between_endpoints(t0, tf, frac):
    profile = fb.FeedforwardProfile.quintic(t0, tf, 10.0)
    lo = fb.feedforward_tension(profile, 10.0 * frac * 0.5)
    hi = fb.feedforward_tension(profile, 10.0 * (0.5 + frac * 0.5))
    if tf >= t0:
        assert hi >= lo - 1e-12
    else:
        assert hi <= lo + 1e-12


def test_constant_profile():
    profile = fb.FeedforwardProfile.constant(1.0)
    for t in (0.0, 5.0, 500.0):
        assert fb.feedforward_tension(profile, t) == 1.0
        assert feedforward_tension_rate(profile, t) == 0.0


def test_prototype_map_values():
    ref = fb.ReferenceTrajectory.map_composed(PROTOTYPE_MAP)
    profile = quintic_profile()
    w_end, _ = fb.desired_deflection(ref, profile.duration, profile)
    assert w_end == pytest.approx(5.77, abs=0.01)   # mm at 0.327 N m
    w_start, rate_start = fb.desired_deflection(ref, 0.0, profile)
    assert abs(w_start - 0.06) < 0.01               # ~no deflection at 0.15 N m
    assert rate_start == 0.0


def test_map_composed_rate_matches_finite_differences():
    ref = fb.ReferenceTrajectory.map_composed(PROTOTYPE_MAP)
    profile = quintic_profile()
    eps = 1e-6
    for t in (3.0, 11.0, 19.5, 27.0):
        _, rate = fb.desired_deflection(ref, t, profile)
        w_plus, _ = fb.desired_deflection(ref, t + eps, profile)
        w_minus, _ = fb.desired_deflection(ref, t - eps, profile)
        assert rate == pytest.approx((w_plus - w_minus) / (2.0 * eps),
                                     rel=1e-6, abs=1e-9)


def test_map_composed_requires_map_and_profile():
    with pytest.raises(ValueError):
        fb.ReferenceTrajectory(mode="map-composed")
    ref = fb.ReferenceTrajectory.map_composed(PROTOTYPE_MAP)
    with pytest.raises(ValueError):
        fb.desired_deflection(ref, 1.0, None)


@pytest.mark.parametrize("make, message", [
    (lambda: fb.FeedforwardProfile(mode="bogus", tension_final=1.0),
     "unknown feedforward mode"),
    (lambda: fb.FeedforwardProfile.constant(float("nan")), "feedforward tensions must be finite"),
    (lambda: fb.FeedforwardProfile.quintic(float("inf"), 1.0, 2.0),
     "feedforward tensions must be finite"),
    (lambda: fb.ReferenceTrajectory(mode="bogus"), "unknown reference mode"),
], ids=["ff_mode", "ff_final_nan", "ff_initial_inf", "ref_mode"])
def test_profiles_refuse_unknown_modes_and_non_finite_tensions(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_quintic_reference_endpoints():
    ref = fb.ReferenceTrajectory.quintic(1.0, 1.5, 100.0)
    assert fb.desired_deflection(ref, 0.0) == (1.0, 0.0)
    w_end, rate_end = fb.desired_deflection(ref, 100.0)
    assert w_end == 1.5 and rate_end == 0.0
    assert fb.desired_deflection(ref, 150.0) == (1.5, 0.0)


def _config(k_p=10.0, k_d=25.0, clamp=False, ff=None, ref=None):
    return fb.ControllerConfig(
        gains=fb.PDGains(k_p=k_p, k_d=k_d),
        feedforward=ff or fb.FeedforwardProfile.constant(1.0),
        reference=ref or fb.ReferenceTrajectory.constant(1.26855),
        clamp_nonnegative=clamp,
    )


def test_zero_error_returns_feedforward():
    cfg = _config()
    sample = fb.control_input(cfg, 3.0, 1.26855, 0.0)
    assert sample.u == 1.0
    assert sample.u_unclamped == 1.0


def test_gain_arithmetic():
    cfg = _config()
    sample = fb.control_input(cfg, 0.0, 1.26855 + 0.1, 0.0)
    assert sample.u == pytest.approx(1.0 - 10.0 * 0.1, abs=1e-12)


def test_clamp_logs_preclamp_value():
    cfg = _config(clamp=True)
    # error big enough to drive the raw command to -0.2 N
    sample = fb.control_input(cfg, 0.0, 1.26855 + 0.12, 0.0)
    assert sample.u_unclamped == pytest.approx(-0.2, abs=1e-12)
    assert sample.u == 0.0


def test_unclamped_negative_passes_through():
    cfg = _config(clamp=False)
    sample = fb.control_input(cfg, 0.0, 1.26855 + 0.12, 0.0)
    assert sample.u == pytest.approx(-0.2, abs=1e-12)


def test_measurements_must_be_finite():
    with pytest.raises(ValueError):
        fb.control_input(_config(), 0.0, float("nan"), 0.0)


def test_duration_consistency_enforced():
    ff = fb.FeedforwardProfile.quintic(0.5, 1.0, 100.0)
    ref = fb.ReferenceTrajectory.quintic(1.0, 1.3, 80.0)
    with pytest.raises(ValueError):
        fb.ControllerConfig(gains=fb.PDGains(10.0, 25.0), feedforward=ff,
                            reference=ref)


@settings(max_examples=25)
@given(k_p=st.floats(min_value=1e-3, max_value=1e3),
       k_d=st.floats(min_value=1e-3, max_value=1e3))
def test_feedback_map_is_very_strictly_passive(k_p, k_d):
    """Seen from rate error to tension, the law is k_d + k_p / s: phase in
    (-90, 0] and strictly positive feedthrough for every gain pair."""
    omega = np.logspace(-3, 3, 200)
    response = k_d + k_p / (1j * omega)
    phase = np.degrees(np.angle(response))
    assert np.all(phase > -90.0)
    assert np.all(phase <= 0.0)
    assert k_d > 0.0


def test_hold_behavior_of_composed_reference():
    ref = fb.ReferenceTrajectory.map_composed(PROTOTYPE_MAP)
    profile = quintic_profile()
    w_end, rate_end = fb.desired_deflection(ref, profile.duration, profile)
    w_later, rate_later = fb.desired_deflection(ref, profile.duration + 50.0, profile)
    assert w_later == w_end
    assert rate_end == 0.0 and rate_later == 0.0


@pytest.mark.parametrize("make", [
    lambda bad: fb.ReferenceTrajectory.constant(bad),
    lambda bad: fb.ReferenceTrajectory.quintic(bad, 1.3, 100.0),
    lambda bad: fb.ReferenceTrajectory.quintic(1.0, bad, 100.0),
    lambda bad: fb.ReferenceTrajectory.map_composed([0.6, bad, 0.1686]),
], ids=["constant", "quintic_w_initial", "quintic_w_final", "map_coefficient"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_reference_rejects_non_finite_values(make, bad):
    with pytest.raises(ValueError, match="must be finite"):
        make(bad)


@pytest.mark.parametrize("make", [
    lambda duration: fb.FeedforwardProfile.quintic(0.5, 1.0, duration),
    lambda duration: fb.ReferenceTrajectory.quintic(1.0, 1.3, duration),
], ids=["feedforward", "reference"])
def test_quintic_duration_must_be_finite(make):
    with pytest.raises(ValueError, match="duration must be finite and > 0"):
        make(float("inf"))


ORACLE_DURATION = 30.0


def _closed_form_ramp(start, end, t, duration=ORACLE_DURATION):
    """The quintic ramp written out in powers of s, with its rate."""
    s = min(max(t / duration, 0.0), 1.0)
    value = start + (10.0 * s ** 3 - 15.0 * s ** 4 + 6.0 * s ** 5) * (end - start)
    inside = 0.0 <= t <= duration
    rate = 30.0 * s ** 2 * (1.0 - s) ** 2 * (end - start) / duration if inside else 0.0
    return value, rate


ORACLE_FEEDFORWARD = {
    "constant": (fb.FeedforwardProfile.constant(1.0), lambda t: (1.0, 0.0)),
    "quintic": (fb.FeedforwardProfile.quintic(0.4, 1.0, ORACLE_DURATION),
                lambda t: _closed_form_ramp(0.4, 1.0, t)),
}
ORACLE_MAPS = {"cubic_map": (0.01, -0.05, 0.3, 1.0), "one_coefficient_map": (0.7,)}


def _oracle_reference(name, tension, tension_rate, t):
    if name == "constant":
        return 1.2, 0.0
    if name == "quintic":
        return _closed_form_ramp(1.0, 1.3, t)
    coeffs = np.array(ORACLE_MAPS[name])
    return (float(np.polyval(coeffs, tension)),
            float(np.polyval(np.polyder(coeffs), tension)) * tension_rate)


def _reference(name):
    if name == "constant":
        return fb.ReferenceTrajectory.constant(1.2)
    if name == "quintic":
        return fb.ReferenceTrajectory.quintic(1.0, 1.3, ORACLE_DURATION)
    return fb.ReferenceTrajectory.map_composed(ORACLE_MAPS[name])


@pytest.mark.parametrize("ff_name", sorted(ORACLE_FEEDFORWARD))
@pytest.mark.parametrize("ref_name", ["constant", "quintic", *ORACLE_MAPS])
def test_bound_controller_matches_oracle(ff_name, ref_name):
    """Every ControlSample field against np.polyval and the closed-form ramp.

    Off the ramp's interior (t = -1, 0, d, 2 d) the oracle performs the
    library's operations on the same numbers, so the match is exact.  At
    t = d / 3 the ramp is written in powers of s rather than in Horner
    form, so the match is to a tolerance: over 300 interior times the
    measured worst disagreement is 19 eps relative to the largest term of
    the law, and 64 eps is required.
    """
    profile, ff_oracle = ORACLE_FEEDFORWARD[ff_name]
    gains = fb.PDGains(k_p=10.0, k_d=50.0)
    for clamp in (False, True):
        controller = fb.make_controller(fb.ControllerConfig(
            gains=gains, feedforward=profile, reference=_reference(ref_name),
            clamp_nonnegative=clamp))
        for t in (-1.0, 0.0, ORACLE_DURATION / 3.0, ORACLE_DURATION,
                  2.0 * ORACLE_DURATION):
            for w_tip, w_rate in ((1.1, 0.02), (1.6, -0.01)):
                tension, tension_rate = ff_oracle(t)
                w_des, w_rate_des = _oracle_reference(ref_name, tension,
                                                      tension_rate, t)
                u_raw = (tension - gains.k_p * (w_tip - w_des)
                         - gains.k_d * (w_rate - w_rate_des))
                expected = fb.ControlSample(t, tension, w_des, w_rate_des, u_raw,
                                            max(0.0, u_raw) if clamp else u_raw)
                sample = controller(t, w_tip, w_rate)
                if t == ORACLE_DURATION / 3.0:
                    size = max(abs(tension), gains.k_p * abs(w_tip - w_des),
                               gains.k_d * abs(w_rate - w_rate_des), 1.0)
                    assert np.allclose(sample, expected, rtol=0.0,
                                       atol=64.0 * np.finfo(float).eps * size)
                else:
                    assert sample == expected


def test_map_controller_evaluates_the_feedforward_once_per_call(monkeypatch):
    """The map reads the controller's own T_des rather than a second ramp."""
    evaluations = []
    ramp_law = control._ramp_law

    def counted_ramp_law(*args):
        ramp = ramp_law(*args)

        def counted(t, *rest):
            evaluations.append(t)
            return ramp(t, *rest)
        return counted

    monkeypatch.setattr(control, "_ramp_law", counted_ramp_law)
    controller = fb.make_controller(fb.ControllerConfig(
        gains=fb.PDGains(), feedforward=quintic_profile(),
        reference=fb.ReferenceTrajectory.map_composed(PROTOTYPE_MAP)))
    times = (0.0, 10.0, 30.0, 40.0)
    for t in times:
        controller(t, 1.0, 0.0)
    assert evaluations == list(times)


@pytest.mark.parametrize("ff", [quintic_profile(), fb.FeedforwardProfile.constant(1.0)],
                         ids=["quintic", "constant"])
def test_control_input_rejects_nan_time(ff):
    cfg = fb.ControllerConfig(gains=fb.PDGains(), feedforward=ff,
                              reference=fb.ReferenceTrajectory.constant(1.0))
    with pytest.raises(ValueError, match="time"):
        fb.control_input(cfg, float("nan"), 1.0, 0.0)
    assert fb.control_input(cfg, float("inf"), 1.0, 0.0).t_des == ff.tension_final


# The bound controller's samples at the ramp's edges, pinned bit for bit:
# (k_p, k_d) = (10, 50), clamp off, tip (1.6, -0.01), quintic feedforward
# 0.4 -> 1 N over ORACLE_DURATION.  Fields after ``time``, before ``u``.
EDGE_TIMES = (-np.inf, np.inf, float(np.nextafter(ORACLE_DURATION, 0.0)), ORACLE_DURATION, np.nan)
EDGE_SAMPLES = {
    "quintic": (
        (0.4, 1.0, 0.0, -5.1000000000000005),
        (1.0, 1.3, 0.0, -1.5000000000000004),
        (1.0000000000000009, 1.3000000000000005, 3.697785493223493e-33, -1.4999999999999951),
        (1.0, 1.3, 0.0, -1.5000000000000004),
        (np.nan, np.nan, 0.0, np.nan),
    ),
    "cubic_map": (
        (0.4, 1.11264, 0.0, -3.9735999999999994),
        (1.0, 1.26, 0.0, -1.9000000000000008),
        (1.0000000000000009, 1.2600000000000002, 1.7009813268828058e-33, -1.8999999999999977),
        (1.0, 1.26, 0.0, -1.9000000000000008),
        (np.nan, np.nan, np.nan, np.nan),
    ),
}


def _bits(sample):
    """Each field's exact bits (sign of zero included); every NaN reads alike."""
    return tuple("nan" if np.isnan(v) else float.hex(v) for v in sample)


@pytest.mark.parametrize("ref_name", sorted(EDGE_SAMPLES))
@pytest.mark.parametrize("clamp", [False, True])
def test_bound_controller_at_the_ramp_edges(ref_name, clamp):
    """-inf, +inf, the last time before the end, the end and NaN, bit for bit.

    A NaN time gives a NaN feedforward and reference value with a zero ramp
    rate; the clamp sends a NaN or negative tension to 0.
    """
    controller = fb.make_controller(fb.ControllerConfig(
        gains=fb.PDGains(k_p=10.0, k_d=50.0),
        feedforward=fb.FeedforwardProfile.quintic(0.4, 1.0, ORACLE_DURATION),
        reference=_reference(ref_name), clamp_nonnegative=clamp))
    for t, (t_des, w_des, w_rate_des, u_raw) in zip(EDGE_TIMES, EDGE_SAMPLES[ref_name]):
        expected = (t, t_des, w_des, w_rate_des, u_raw, 0.0 if clamp else u_raw)
        assert _bits(controller(t, 1.6, -0.01)) == _bits(expected), t


@pytest.mark.parametrize("ramped", [False, True])
def test_float16_config_acts_as_its_float64_twin(ramped):
    """Gains, feedforward and reference given as float16 are kept as the float64
    of their values, so the law computes in float64, bit for bit as the twin
    built from those values does (the float16 law used to give u = 0.969)."""
    def config(number):
        if ramped:
            feedforward = fb.FeedforwardProfile.quintic(number(0.4), number(1.0), number(3.0))
            reference = fb.ReferenceTrajectory.quintic(number(0.9), number(1.0123), number(3.0))
        else:
            feedforward = fb.FeedforwardProfile.constant(number(1.0))
            reference = fb.ReferenceTrajectory.constant(number(1.0123))
        return fb.ControllerConfig(fb.PDGains(number(10.0), number(25.0)), feedforward, reference)

    def twin(value):
        return float(np.float16(value))

    sample = fb.make_controller(config(np.float16))(0.1, 1.0123456789, 0.001234)
    assert _bits(sample) == _bits(fb.make_controller(config(twin))(0.1, 1.0123456789, 0.001234))
    assert all(type(value) is float for value in sample)
