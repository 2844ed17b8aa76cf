import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq

import flexboom as fb
import oracles

REFERENCE_TIP_AT_1N = 1.26855  # published setpoint for the nominal boom


def test_zero_tension_is_unforced(model3):
    point = fb.solve_equilibrium(model3, 0.0)
    assert np.array_equal(point.modal_coords, np.zeros(3))
    assert point.tip_deflection == 0.0


@pytest.mark.parametrize("tension", [0.25, 0.5, 1.0])
def test_cantilever_oracle_without_spreaders(cantilever_model, params, tension):
    point = fb.solve_equilibrium(cantilever_model, tension)
    expected = oracles.cantilever_tip_deflection(params, tension)
    assert point.tip_deflection == pytest.approx(expected, rel=1e-6)


def test_cantilever_curve_linear_in_tension(cantilever_model, params):
    points = fb.deflection_curve(cantilever_model, samples=50)
    tensions = np.array([p.tension for p in points])
    tips = np.array([p.tip_deflection for p in points])
    np.testing.assert_allclose(
        tips, [oracles.cantilever_tip_deflection(params, t) for t in tensions],
        rtol=1e-9, atol=1e-15)
    # superposition: with no spreader reactions the map is exactly linear
    np.testing.assert_allclose(tips, tensions * tips[-1] / tensions[-1],
                               rtol=1e-9, atol=1e-15)


def test_equilibrium_residual_along_range(model3):
    rng = np.random.default_rng(11)
    for tension in rng.uniform(0.0, 2.0, size=20):
        point = fb.solve_equilibrium(model3, tension)
        deriv = fb.dynamics_rhs(
            model3, fb.State(point.modal_coords, np.zeros(3)), tension)
        load = np.linalg.norm(model3.stiffness_matrix @ point.modal_coords)
        residual = fb.actuation_force(model3, point.modal_coords, tension) \
            - model3.stiffness_matrix @ point.modal_coords
        assert np.linalg.norm(residual) <= max(1e-9 * load, 1e-12)
        assert np.linalg.norm(deriv.as_vector()) <= 1e-9


def test_curve_shape_and_reference_value(model3):
    points = fb.deflection_curve(model3, samples=200)
    tips = np.array([p.tip_deflection for p in points])
    tensions = np.array([p.tension for p in points])
    assert tips[0] == 0.0
    assert np.all(np.diff(tips) > 0.0), "curve must be strictly increasing"
    w1 = fb.solve_equilibrium(model3, 1.0).tip_deflection
    w2 = fb.solve_equilibrium(model3, 2.0).tip_deflection
    assert w2 > 2.0 * w1, "spreader softening must make the curve superlinear"
    # quadratic fit w ~ a T^2 + b T
    design = np.vstack([tensions ** 2, tensions]).T
    coef, *_ = np.linalg.lstsq(design, tips, rcond=None)
    r_sq = 1.0 - np.sum((tips - design @ coef) ** 2) / np.sum((tips - tips.mean()) ** 2)
    assert r_sq >= 0.999
    # achieved value reported next to the published one; equality not required
    print(f"w_eq(1 N) = {w1:.7f} m (reference {REFERENCE_TIP_AT_1N} m, "
          f"difference {w1 - REFERENCE_TIP_AT_1N:+.2e} m)")


def test_inverse_round_trip(model3):
    for tension in (0.25, 0.5, 1.0, 1.5):
        w = fb.solve_equilibrium(model3, tension).tip_deflection
        assert fb.tension_for_deflection(model3, w) == pytest.approx(tension, abs=1e-6)


def test_inverse_round_trip_random(model3):
    rng = np.random.default_rng(23)
    for tension in rng.uniform(0.01, 2.0, size=50):
        w = fb.solve_equilibrium(model3, tension).tip_deflection
        assert fb.tension_for_deflection(model3, w) == pytest.approx(tension, abs=1e-6)


def test_inverse_edge_cases(model3):
    assert fb.tension_for_deflection(model3, 0.0) == 0.0
    w_max = fb.solve_equilibrium(model3, 2.0).tip_deflection
    with pytest.raises(fb.OutOfRange):
        fb.tension_for_deflection(model3, w_max * 1.01)
    with pytest.raises(fb.OutOfRange):
        fb.tension_for_deflection(model3, -0.1)


def test_near_singular_stiffness_detected(model3):
    # Locate the critical (buckling-like) tension independently, then ask the
    # solver for an equilibrium right at it.
    def min_eig(tension):
        pencil = model3.stiffness_matrix \
            - model3.spreader_matrix * tension / model3.params.node_spacing
        return float(np.min(sla.eigvals(pencil, model3.mass_matrix).real))

    t_critical = brentq(min_eig, 2.0, 20.0)
    with pytest.raises(fb.NearSingularStiffness) as err:
        fb.solve_equilibrium(model3, t_critical)
    assert err.value.tension == pytest.approx(t_critical)


def test_curve_propagates_failure(model3):
    with pytest.raises(fb.NearSingularStiffness):
        fb.deflection_curve(model3, t_max=50.0, samples=120)


@pytest.mark.parametrize("samples", [1, 0])
def test_curve_needs_two_samples(model3, samples):
    with pytest.raises(ValueError, match="at least two samples"):
        fb.deflection_curve(model3, t_max=1.0, samples=samples)


def test_non_finite_tension_rejected(model3):
    with pytest.raises(ValueError):
        fb.solve_equilibrium(model3, float("nan"))


def test_negative_tension_rejected(model3):
    # A cable cannot push: no equilibrium below zero tension.
    with pytest.raises(ValueError, match="finite and >= 0"):
        fb.solve_equilibrium(model3, -0.5)


# The monomial basis alone has an equilibrated condition number above 1e12
# from ten modes, yet the solve stays accurate: worst relative tip errors over
# 0.5, 1 and 2 N were 1.8e-9 (10 modes), 4.3e-7 (11) and 2.4e-5 (12).
@pytest.mark.parametrize("modes, rel", [(10, 1e-8), (11, 2e-6), (12, 1e-4)])
@pytest.mark.parametrize("tension", [0.5, 1.0, 2.0])
def test_many_mode_equilibrium_matches_exact_solve(params, modes, rel, tension):
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(modes))
    point = fb.solve_equilibrium(model, tension)
    assert point.tip_deflection == pytest.approx(
        oracles.exact_equilibrium_tip(model, tension), rel=rel)


def test_single_mode_refused_past_critical_tension(params):
    # n=1 buckles at T_c = 0.924 N; below the old 2 N limit, 1 N gave -4.6 m.
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(1))
    assert model.critical_tension == pytest.approx(0.9236892, rel=1e-6)
    with pytest.raises(fb.NearSingularStiffness) as err:
        fb.solve_equilibrium(model, 1.0)
    assert err.value.critical_tension == model.critical_tension
    assert "critical tension" in str(err.value)


def test_critical_tension_is_the_sharp_bound(model3):
    t_c = model3.critical_tension
    assert t_c == pytest.approx(7.9977, abs=1e-4)
    below = fb.solve_equilibrium(model3, 0.99 * t_c)
    assert below.tip_deflection > fb.solve_equilibrium(model3, 2.0).tip_deflection
    with pytest.raises(fb.NearSingularStiffness):
        fb.solve_equilibrium(model3, 1.01 * t_c)


def test_cantilever_has_no_critical_tension(cantilever_model, params):
    assert cantilever_model.critical_tension == float("inf")
    point = fb.solve_equilibrium(cantilever_model, 50.0)
    assert point.tip_deflection == pytest.approx(
        oracles.cantilever_tip_deflection(params, 50.0), rel=1e-6)


@pytest.mark.parametrize("t_max", [-1.0, 0.0, float("inf"), float("nan")])
def test_t_max_must_be_finite_and_positive(model3, t_max):
    # t_max = -1 used to draw a curve over negative tensions.
    with pytest.raises(ValueError, match="t_max must be finite and > 0"):
        fb.deflection_curve(model3, t_max=t_max)
    with pytest.raises(ValueError, match="t_max must be finite and > 0"):
        fb.tension_for_deflection(model3, 0.5, t_max=t_max)
