"""One table over every numeric input the library checks.

Each real field gets a bool, a string, NaN, +-inf and a value below its
range; each count field gets the same plus two floats, one that holds a
valid count and one that is not whole.
Every one of them must raise ValueError whose message names the field: a
bool is not a number here, even where it equals one in range, and a string
must not reach numpy.
"""

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
      for value, tag in [*_NOT_NUMBERS, (low, "out_of_range")]],
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
]


@pytest.mark.parametrize("call, fragment, value", [
    pytest.param(call, fragment, value, id=f"{label}-{tag}")
    for label, call, fragment, refused_bool, _ in TYPED
    for value, tag in [(refused_bool, "bool"), ("1", "string")]])
def test_type_refusal_names_the_field(model3, call, fragment, value):
    with pytest.raises(ValueError) as refused:
        call(value, {"model": model3})
    assert fragment in str(refused.value)


@pytest.mark.parametrize("call, value", [pytest.param(call, value, id=label)
                                         for label, call, _, _, value in TYPED])
def test_numpy_scalar_stays_accepted_where_only_the_type_is_checked(model3, call, value):
    call(value, {"model": model3})
