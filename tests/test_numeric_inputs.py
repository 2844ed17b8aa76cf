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
