"""One table over every numeric input the library checks.

Each real field gets a bool, a string, NaN, +-inf and a value below its
range; each count field gets the same plus two floats, one that holds a
valid count and one that is not whole.
Every one of them must raise ValueError whose message names the field: a
bool is not a number here, even where it equals one in range, and a string
must not reach numpy.
"""

import functools
import json
from dataclasses import replace

import numpy as np
import pytest

import flexboom as fb
from flexboom import cli


@pytest.fixture(scope="module")
def plant(model3):
    return fb.linearize(model3, fb.solve_equilibrium(model3, 1.0))


@pytest.fixture(scope="module")
def data():
    torques = np.linspace(0.1, 1.0, 8)
    return fb.MeasurementSet(torques, 0.3 * torques ** 2)


def _boom(name):
    # No spreaders, so a boom of length 1 (True) is still a valid rig.
    return lambda v, ctx: fb.BoomParams(**{name: v, "spreader_count": 0})


# (label, call(value, ctx), the message fragment that names the field, below-range value)
REALS = [
    *[(f"BoomParams.{name}", _boom(name), f"{name} must be", 0.0)
      for name in ("length", "linear_density", "elastic_modulus", "second_moment",
                   "cable_offset", "node_spacing")],
    ("PDGains.k_p", lambda v, ctx: fb.PDGains(k_p=v), "k_p must be", 0.0),
    ("PDGains.k_d", lambda v, ctx: fb.PDGains(k_d=v), "k_d must be", -1.0),
    ("FeedforwardProfile.duration", lambda v, ctx: fb.FeedforwardProfile.quintic(0.0, 1.0, v),
     "duration must be", 0.0),
    ("ReferenceTrajectory.duration", lambda v, ctx: fb.ReferenceTrajectory.quintic(1.0, 1.3, v),
     "duration must be", 0.0),
    ("deflection_curve.t_max", lambda v, ctx: fb.deflection_curve(ctx["model"], t_max=v),
     "t_max must be", 0.0),
    ("tension_for_deflection.t_max",
     lambda v, ctx: fb.tension_for_deflection(ctx["model"], 0.5, t_max=v), "t_max must be", -1.0),
    ("cli.t_max", lambda v, ctx: cli._verified_tension("tension", 0.5, v), "t_max must be", 0.0),
    ("solve_equilibrium.tension", lambda v, ctx: fb.solve_equilibrium(ctx["model"], v),
     "tension must be", -1e-9),
    ("rate_scaled.factor", lambda v, ctx: ctx["plant"].rate_scaled(v, ctx["plant"].b, 1.0),
     "rate factor must be", 0.0),
    ("passivity_check.eps_tol",
     lambda v, ctx: fb.passivity_check(ctx["plant"], fb.default_grid(50), v),
     "eps_tol must be", -1e-9),
    ("SimScenario.dt",
     lambda v, ctx: fb.SimScenario(ctx["model"], None, 0.0, duration=1.0, dt=v),
     "dt must be", 0.0),
]

# (label, call(value, ctx), fragment, below-range value, a valid count)
COUNTS = [
    ("BoomParams.spreader_count", lambda v, ctx: fb.BoomParams(spreader_count=v),
     "spreader_count must be", -1, 3),
    ("BasisSet.with_mode_count", lambda v, ctx: fb.BasisSet.with_mode_count(v),
     "mode count must be", 0, 3),
    ("deflection_curve.samples",
     lambda v, ctx: fb.deflection_curve(ctx["model"], t_max=1.0, samples=v),
     "samples must be", 1, 8),
    ("uncertainty_sweep.samples",
     lambda v, ctx: fb.uncertainty_sweep(ctx["model"].params, ctx["model"].basis, 0.5, 0.2,
                                         samples=v, omega=fb.default_grid(50)),
     "samples must be", 0, 8),
    ("SimScenario.decimation",
     lambda v, ctx: fb.SimScenario(ctx["model"], None, 0.0, duration=1.0, decimation=v),
     "decimation must be", 0, 2),
    ("default_grid.n_points", lambda v, ctx: fb.default_grid(v), "n_points=", 0, 8),
    ("fit_map.degree", lambda v, ctx: fb.fit_map(ctx["data"], v), "degree must be", 0, 2),
]

_NOT_NUMBERS = [(True, "true"), ("1", "string"), (float("nan"), "nan"),
                (float("inf"), "inf"), (-float("inf"), "-inf")]

CASES = [
    *[pytest.param(call, fragment, value, id=f"{label}-{tag}")
      for label, call, fragment, low in REALS
      for value, tag in [*_NOT_NUMBERS, (low, "out_of_range"),
                         (np.float32("inf"), "float32_inf")]],
    *[pytest.param(call, fragment, value, id=f"{label}-{tag}")
      for label, call, fragment, low, valid in COUNTS
      for value, tag in [*_NOT_NUMBERS, (low, "out_of_range"), (float(valid), "float"),
                         (low + 1.5, "fraction")]],
]


@pytest.mark.parametrize("call, fragment, value", CASES)
def test_numeric_input_refusal_names_the_field(model3, plant, data, call, fragment, value):
    ctx = {"model": model3, "plant": plant, "data": data}
    with pytest.raises(ValueError) as refused:
        call(value, ctx)
    assert fragment in str(refused.value)


def test_numpy_scalars_stay_accepted(model3, data):
    # params.scaled and np.linspace hand the library numpy scalars.
    assert fb.BoomParams(length=np.float64(29.4), spreader_count=np.int64(10)) == fb.BoomParams()
    assert fb.solve_equilibrium(model3, np.float64(0.5)).tension == 0.5
    assert len(fb.deflection_curve(model3, t_max=np.float64(1.0), samples=np.int64(3))) == 3
    assert fb.default_grid(np.int64(5)).size == 5
    assert fb.fit_map(data, np.int64(2)).degree == 2
    assert fb.BasisSet.with_mode_count(np.int64(4)).mode_count == 4


@functools.cache
def _plant_of(model):
    return fb.linearize(model, fb.solve_equilibrium(model, 1.0))


# Inputs of any sign or range whose type alone is checked here: (label, call(value, ctx),
# fragment, a bool the range checks would let through, a numpy scalar that stays accepted)
TYPED = [
    ("default_grid.omega_min", lambda v, ctx: fb.default_grid(5, v, 10.0), "omega_min=",
     True, np.float64(1e-3)),
    ("default_grid.omega_max", lambda v, ctx: fb.default_grid(5, 1e-3, v), "omega_max=",
     True, np.float64(10.0)),
    ("uncertainty_sweep.t_eq",
     lambda v, ctx: fb.uncertainty_sweep(ctx["model"].params, ctx["model"].basis, v, 0.1, 1,
                                         fb.default_grid(50)),
     "t_eq must be", True, np.float64(0.5)),
    ("uncertainty_sweep.perturbation",
     lambda v, ctx: fb.uncertainty_sweep(ctx["model"].params, ctx["model"].basis, 0.5, v, 1,
                                         fb.default_grid(50)),
     "perturbation must", False, np.float64(0.1)),
    ("mode_count_sweep.t_eq",
     lambda v, ctx: fb.mode_count_sweep(ctx["model"].params, [3], v, fb.default_grid(50)),
     "t_eq must be", True, np.float64(0.5)),
    ("tension_for_deflection.w_target",
     lambda v, ctx: fb.tension_for_deflection(ctx["model"], v), "w_target must be",
     True, np.float64(0.5)),
    ("SimScenario.duration",
     lambda v, ctx: fb.SimScenario(ctx["model"], None, 0.0, duration=v), "duration must be",
     True, np.float64(1.0)),
    ("SimScenario.w_init", lambda v, ctx: fb.SimScenario(ctx["model"], None, v, duration=1.0),
     "w_init must be", True, np.float64(0.5)),
    ("FeedforwardProfile.constant", lambda v, ctx: fb.FeedforwardProfile.constant(v),
     "tension_final must be", True, np.float64(1.0)),
    ("FeedforwardProfile.tension_initial",
     lambda v, ctx: fb.FeedforwardProfile.quintic(v, 1.0, 10.0), "tension_initial must be",
     True, np.float64(0.5)),
    ("ReferenceTrajectory.constant", lambda v, ctx: fb.ReferenceTrajectory.constant(v),
     "w_final must be", True, np.float64(1.0)),
    ("ReferenceTrajectory.w_initial",
     lambda v, ctx: fb.ReferenceTrajectory.quintic(v, 1.3, 10.0), "w_initial must be",
     True, np.float64(1.0)),
    ("ReferenceTrajectory.map_composed",
     lambda v, ctx: fb.ReferenceTrajectory.map_composed([v, 0.5]),
     "map_coefficients[0] must be", True, np.float64(0.6)),
    ("StateSpaceModel.d", lambda v, ctx: replace(_plant_of(ctx["model"]), d=v),
     "d must be a real number", True, np.float64(0.0)),
    ("StateSpaceModel.t_eq", lambda v, ctx: replace(_plant_of(ctx["model"]), t_eq=v),
     "t_eq must be", True, np.float64(1.0)),
    ("rate_scaled.t_eq",
     lambda v, ctx: _plant_of(ctx["model"]).rate_scaled(1.0, _plant_of(ctx["model"]).b, v),
     "t_eq must be a real number", True, np.float64(1.0)),
]


@pytest.mark.parametrize("call, fragment, value", [
    pytest.param(call, fragment, value, id=f"{label}-{tag}")
    for label, call, fragment, refused_bool, _ in TYPED
    for value, tag in [(refused_bool, "bool"), ("1", "string"), (10**400, "huge_int")]])
def test_type_refusal_names_the_field(model3, call, fragment, value):
    with pytest.raises(ValueError) as refused:
        call(value, {"model": model3})
    assert fragment in str(refused.value)


@pytest.mark.parametrize("call, value", [pytest.param(call, value, id=label)
                                         for label, call, _, _, value in TYPED])
def test_numpy_scalar_stays_accepted_where_only_the_type_is_checked(model3, call, value):
    call(value, {"model": model3})


@pytest.mark.parametrize("call, value", [
    *[pytest.param(call, dtype(1.0), id=f"{label}-{dtype.__name__}")
      for label, call, _, _ in REALS for dtype in (np.float32, np.float16)],
    *[pytest.param(call, dtype(value), id=f"{label}-{dtype.__name__}")
      for label, call, _, _, value in TYPED for dtype in (np.float32, np.float16)]])
def test_narrow_numpy_floats_stay_accepted(model3, plant, data, call, value):
    # 1.0 lies in every range of REALS.  Comparing a float32 or float16 with a
    # bound no such float holds overflows a cast: a RuntimeWarning, which -W error raises.
    call(value, {"model": model3, "plant": plant, "data": data})


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_narrow_scales_and_spread_act_as_their_float64_twins(model3, dtype):
    """``BoomParams.scaled`` and ``uncertainty_sweep``'s level axis take a narrow
    float as the float64 of its value: a float16 modulus scale used to overflow
    in the cast, a float32 one kept a float32 modulus, and a float16 spread
    built a float16 axis (e = 0.7998046875 for a spread of 0.2)."""
    def twin(value):
        return float(dtype(value))

    params, scales = model3.params, (0.8, 1.2, 0.9)
    narrow = params.scaled(*map(dtype, scales))
    assert narrow == params.scaled(*map(twin, scales))
    assert all(type(value) is float for value in
               (narrow.elastic_modulus, narrow.linear_density, narrow.second_moment))

    def levels(spread):
        return [report.metadata for report in fb.uncertainty_sweep(
            params, model3.basis, 0.5, spread, 27, fb.default_grid(50))]

    assert levels(dtype(0.2)) == levels(twin(0.2))


@pytest.mark.parametrize("value", [True, "0.8"])
def test_scale_that_is_not_a_real_number_is_refused_by_name(value):
    for name in ("e_scale", "rho_scale", "i_scale"):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            fb.BoomParams().scaled(**{name: value})


def test_float16_target_deflection_acts_as_its_float64_twin(model3):
    """A float16 target is inverted in float64: its tension and the run's
    initial state are its float64 twin's, bit for bit (0.59375 N against
    0.5936192375942316 N used to start a run 4e-7 away in q)."""
    narrow, twin = np.float16(0.5), 0.5
    assert fb.tension_for_deflection(model3, narrow) == fb.tension_for_deflection(model3, twin)
    assert np.array_equal(fb.initial_state_from_deflection(model3, narrow).as_vector(),
                          fb.initial_state_from_deflection(model3, twin).as_vector())


def test_float16_grid_bounds_give_their_float64_twins_grid():
    narrow = fb.default_grid(5, np.float16(1e-2), np.float16(10.0))
    twin = fb.default_grid(5, float(np.float16(1e-2)), float(np.float16(10.0)))
    assert narrow.dtype == np.float64
    assert np.array_equal(narrow, twin)


def test_float16_sweep_tension_is_reported_as_its_float64_twin(model3):
    """Both sweeps report a float16 tension as the Python float of its value."""
    narrow, twin, grid = np.float16(0.77), float(np.float16(0.77)), fb.default_grid(50)
    for sweep in (lambda t: fb.uncertainty_sweep(model3.params, model3.basis, t, 0.2, 8, grid),
                  lambda t: fb.mode_count_sweep(model3.params, [3, 4], t, grid)):
        reports, expected = sweep(narrow), sweep(twin)
        assert reports == expected
        assert all(type(report.metadata["t_eq"]) is float for report in reports)


@pytest.mark.parametrize("d", [1e6, -1e6])
def test_float16_eps_tol_acts_as_its_float64_twin_on_a_feedthrough_plant(plant, d):
    """``passivity_check`` compares min Re G with eps_tol in float64: a float16
    eps_tol used to cast a |min Re G| above 65504 to float16, which overflows."""
    feedthrough, grid = replace(plant, d=d), fb.default_grid(50)
    narrow, twin = np.float16(1e-3), float(np.float16(1e-3))
    assert (fb.passivity_check(feedthrough, grid, narrow)
            == fb.passivity_check(feedthrough, grid, twin))


# (label, build(ctx, **fields), fields given as float16 reals and numpy int counts)
STORED = [
    ("BoomParams", lambda ctx, **f: fb.BoomParams(**f),
     dict(length=np.float16(30.0), linear_density=np.float16(0.1),
          elastic_modulus=np.float16(2e4), second_moment=np.float16(0.3),
          cable_offset=np.float16(0.1), node_spacing=np.float16(2.9),
          spreader_count=np.int64(10))),
    ("PDGains", lambda ctx, **f: fb.PDGains(**f), dict(k_p=np.float16(9.9), k_d=np.float16(0.3))),
    ("FeedforwardProfile", lambda ctx, **f: fb.FeedforwardProfile(mode="quintic", **f),
     dict(tension_final=np.float16(1.1), tension_initial=np.float16(0.3),
          duration=np.float16(7.7))),
    ("ReferenceTrajectory",
     lambda ctx, **f: fb.ReferenceTrajectory(mode="quintic-deflection", **f),
     dict(w_final=np.float16(1.3), w_initial=np.float16(0.7), duration=np.float16(7.7))),
    ("SimScenario", lambda ctx, **f: fb.SimScenario(ctx["model"], None, **f),
     dict(w_init=np.float16(0.3), dt=np.float16(0.1), duration=np.float16(0.2),
          decimation=np.int64(10))),
    ("StateSpaceModel", lambda ctx, **f: replace(ctx["plant"], **f),
     dict(d=np.float16(0.1), t_eq=np.float16(0.9))),
]


@pytest.mark.parametrize("build, fields", [pytest.param(build, fields, id=label)
                                           for label, build, fields in STORED])
def test_checked_fields_are_stored_as_python_numbers(model3, plant, build, fields):
    """Every checked dataclass stores a float16 input as the Python float of its
    value and a numpy int count as an int: a float16 ``w_init`` and an int64
    ``decimation`` were stored as given, so the run loop's ``(k + 1) % decimation``
    was a numpy op on every step."""
    built = build({"model": model3, "plant": plant}, **fields)
    for name, value in fields.items():
        expected = int(value) if isinstance(value, np.integer) else float(value)
        stored = getattr(built, name)
        assert type(stored) is type(expected) and stored == expected, name


def test_map_coefficients_and_plant_tension_are_stored_as_floats(plant):
    """Narrow map coefficients are kept as Python floats, and a plant's float32
    tension reaches its passivity report as a float that ``json.dumps`` writes."""
    reference = fb.ReferenceTrajectory.map_composed([np.float16(0.6), np.int64(2)])
    assert [type(c) for c in reference.map_coefficients] == [float, float]
    assert reference.map_coefficients == (float(np.float16(0.6)), 2.0)
    report = fb.passivity_check(replace(plant, t_eq=np.float32(1.1)), fb.default_grid(50))
    assert json.loads(json.dumps(report.metadata))["t_eq"] == float(np.float32(1.1))


def test_float32_duration_is_tested_as_its_float64_twin(model3):
    """The whole-step test runs in float64: a float32 1.1 s is 1.100000023841858 s,
    2.2e-8 off 1100 steps of 1 ms, and is refused as its float64 twin is (the test
    ran in float32 and accepted it)."""
    for duration in (np.float32(1.1), float(np.float32(1.1))):
        with pytest.raises(ValueError, match="whole number, at least one, of steps"):
            fb.SimScenario(model3, None, 0.0, duration=duration)


# More digits than Python prints (sys.get_int_max_str_digits(), 4300 by default).
HUGE = 10 ** 5000
NOT_PRINTED = "got an int of 5001 digits"


@pytest.mark.parametrize("call, text", [
    (lambda ctx: fb.model.checked_real("t_max", HUGE),
     f"t_max must be finite and > 0, {NOT_PRINTED}"),
    (lambda ctx: fb.model.checked_number("t_eq", -HUGE),
     f"t_eq must be a real number, {NOT_PRINTED}"),
    (lambda ctx: fb.model.checked_count("samples", HUGE, 1), "samples must be <= "),
    (lambda ctx: fb.model.checked_count("samples", -HUGE, 1), "samples must be an int >= 1, "),
    (lambda ctx: fb.SimScenario(ctx["model"], None, 0.0, duration=HUGE),
     "duration must be finite and a whole number"),
    (lambda ctx: fb.default_grid(5, 1e-3, HUGE), "omega_max=an int of 5001 digits, "),
    (lambda ctx: fb.BasisSet((2, HUGE)),
     f"exponents[1] must be a finite real number, {NOT_PRINTED}"),
    (lambda ctx: fb.fit_map(ctx["data"], HUGE), f"degree must be 1, 2, or 3, {NOT_PRINTED}"),
], ids=["checked_real", "checked_number", "checked_count", "checked_count_below",
        "SimScenario.duration", "default_grid", "BasisSet.exponents", "fit_map.degree"])
def test_refusal_of_an_unprintable_int_names_the_field_and_its_digits(model3, data, call, text):
    with pytest.raises(ValueError) as refused:
        call({"model": model3, "data": data})
    assert text in str(refused.value) and "5001 digits" in str(refused.value)


def test_refused_value_is_its_repr_or_its_digit_count():
    shown = fb.model.shown
    assert shown(10 ** 4299) == repr(10 ** 4299)  # 4300 digits print
    assert shown(10 ** 4300) == shown(10 ** 4301 - 1) == "an int of 4301 digits"
    assert shown(-10 ** 4301) == "an int of 4302 digits"
    assert shown(np.int64(3)) == "np.int64(3)" and shown("1") == "'1'" and shown(3, str) == "3"


@pytest.mark.parametrize("call, text", [
    (lambda ctx: fb.BoomParams(spreader_count=10 ** 400), "spreader_count must be <= "),
    (lambda ctx: fb.deflection_curve(ctx["model"], 1.0, 10 ** 400), "samples must be <= "),
    (lambda ctx: fb.uncertainty_sweep(ctx["model"].params, ctx["model"].basis, 0.5, 0.1,
                                      10 ** 400, fb.default_grid(50)),
     "samples must be <= 1000000, got 1"),
], ids=["BoomParams.spreader_count", "deflection_curve.samples", "uncertainty_sweep.samples"])
def test_count_too_large_for_a_float_is_refused_by_name(model3, call, text):
    with pytest.raises(ValueError) as refused:
        call({"model": model3})
    assert str(refused.value).startswith(text)


def test_sweep_sample_ceiling_is_checked_before_the_axis_is_built(monkeypatch, model3):
    grid = fb.default_grid(50)

    class AxisBuilt(Exception):
        pass

    def build(*args, **kwargs):
        raise AxisBuilt

    monkeypatch.setattr(np, "linspace", build)  # a refused count never gets this far
    for samples in (10 ** 6 + 1, 2 ** 70):
        with pytest.raises(ValueError, match=f"^samples must be <= 1000000, got {samples}$"):
            fb.uncertainty_sweep(model3.params, model3.basis, 0.5, 0.1, samples, grid)
    with pytest.raises(AxisBuilt):  # the ceiling itself is a valid count
        fb.uncertainty_sweep(model3.params, model3.basis, 0.5, 0.1, 10 ** 6, grid)
