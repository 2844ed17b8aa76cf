import dataclasses

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


def test_one_mode_curve_is_refused_at_t_max(params):
    # T_c = 0.924 N lies inside [0, 2] N; the refusal names the curve's end point.
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(1))
    with pytest.raises(fb.NearSingularStiffness) as err:
        fb.deflection_curve(model, t_max=2.0)
    assert err.value.tension == 2.0


def _point_solve(model, tension):
    """The per-tension solve the batched curve replaced, kept as the reference for its rows."""
    scale = model.tip_row
    scaled = fb.equilibrate(model.effective_stiffness(tension), scale)
    rhs_scaled = fb.actuation_force(model, np.zeros(model.mode_count), tension) / scale
    q_scaled = np.linalg.solve(scaled, rhs_scaled)
    q_scaled += np.linalg.solve(scaled, rhs_scaled - scaled @ q_scaled)
    return q_scaled / scale


def _hex(*values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0), (0.8, 1.2, 0.8)])
@pytest.mark.parametrize("modes", range(1, 10))
def test_curve_rows_are_the_point_solves(params, scales, modes):
    # One batched solve for the whole curve, yet each row is bit for bit the
    # single solve at its tension and the per-tension reference solve.  The
    # 0 N row is the exact zero point; a solve there gives some -0.0 entries.
    model = fb.assemble_matrices(params.scaled(*scales), fb.BasisSet.with_mode_count(modes))
    t_max = min(2.0, 0.999 * model.critical_tension)
    for row in fb.deflection_curve(model, t_max=t_max, samples=101)[1:]:
        point = fb.solve_equilibrium(model, row.tension)
        reference = _point_solve(model, row.tension)
        assert _hex(row.tension, row.tip_deflection, *row.modal_coords) == \
            _hex(point.tension, point.tip_deflection, *point.modal_coords)
        assert _hex(*row.modal_coords) == _hex(*reference)
        assert float(row.tip_deflection).hex() == \
            float(model.tip_row @ reference).hex()


@pytest.mark.parametrize("modes", range(1, 13))
def test_curve_tips_are_the_per_row_tip_deflection(params, modes):
    # The curve forms its tips in one batched product; each must equal, bit for
    # bit, the per-row dot of tip_deflection (a plain q @ tip_row matmul does not).
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(modes))
    t_max = min(1.8, 0.999 * model.critical_tension)
    for row in fb.deflection_curve(model, t_max=t_max, samples=2000):
        assert row.tip_deflection == fb.tip_deflection(model, row.modal_coords)


@pytest.mark.parametrize("samples", [1, 0])
def test_curve_needs_two_samples(model3, samples):
    with pytest.raises(ValueError, match="samples must be an int >= 2"):
        fb.deflection_curve(model3, t_max=1.0, samples=samples)


@pytest.mark.parametrize("route", [{}, {"spreader_count": 0},
                                   {"spreader_count": 9, "node_spacing": 3.0}],
                         ids=["nominal", "no_spreader", "nine_at_3m"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_zero_tension_point_has_no_negative_zero(route, n):
    # The batched solve gives -0.0 coordinates at 0 N for n >= 2, which the
    # CLI's CSV would write as -0; the curve's first point must be +0.0.
    model = fb.assemble_matrices(fb.BoomParams(**route), fb.BasisSet.with_mode_count(n))
    first = fb.deflection_curve(model, t_max=0.5, samples=3)[0]
    assert first.tension == 0.0
    assert not np.signbit(first.modal_coords).any()
    assert not np.signbit(first.tip_deflection)


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


def test_a_replaced_model_derives_its_own_critical_tension_and_map(model3):
    # Derived values come from (params, basis): half the E*I halves T_c (4.00 N)
    # and moves the closed form with the direct solve at 1 N.
    halved = dataclasses.replace(model3, params=model3.params.scaled(0.5))
    assert halved.critical_tension == pytest.approx(model3.critical_tension / 2.0, rel=1e-12)
    tip = fb.solve_equilibrium(halved, 1.0).tip_deflection
    assert halved.deflection_map.deflection(1.0) == pytest.approx(tip, rel=1e-9)


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


def test_residual_check_refuses_an_inaccurate_solve(params):
    # Eleven modes: the lowest root of det K_eff(T) is a complex pair, which
    # critical_tension skips (T_c = 8286 N; CHANGES.md records it as an open
    # fault), so no limit refuses 6 N and the residual check stops a wrong answer.
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(11))
    assert model.critical_tension > 6.0
    fb.solve_equilibrium(model, 5.0)
    with pytest.raises(RuntimeError, match="left residual .* above tolerance") as err:
        fb.solve_equilibrium(model, 6.0)
    assert not isinstance(err.value, fb.NearSingularStiffness)


def test_inverse_refuses_a_root_that_misses_the_target(model3):
    # Just below T_c, dw/dT is so steep that brentq's 1e-12 N tolerance moves
    # the tip by more than the 1e-6 m round-trip check allows.
    t_max = model3.critical_tension * (1.0 - 1e-6)
    w_target = 0.5 * fb.solve_equilibrium(model3, t_max).tip_deflection
    assert w_target > 1e7
    with pytest.raises(RuntimeError, match="inverse map did not converge"):
        fb.tension_for_deflection(model3, w_target, t_max=t_max)


# critical_tension for 1 to 12 modes on the nominal boom, as the eigenvalue-only
# solve gave it before the model kept the eigenvectors too.
CRITICAL_TENSION_HEX = [
    "0x1.d8edca92066d7p-1", "inf", "0x1.ffd9d9565a857p+2", "0x1.22b35476c0af3p+2",
    "0x1.ae484c5df3ef0p+7", "0x1.0c4c7a721327dp+3", "0x1.e75e24a4a7ba1p+12",
    "0x1.5ed5081679e32p+6", "0x1.1e1c5d7b09b79p+6", "0x1.640e771561dbap+3",
    "0x1.02effda8ba254p+13", "0x1.b558c200493dap+3",
]


@pytest.mark.parametrize("modes", range(1, 13))
def test_critical_tension_is_unchanged_by_the_kept_decomposition(params, modes):
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(modes))
    assert model.critical_tension.hex() == CRITICAL_TENSION_HEX[modes - 1]


# Measured against the exact solve: at most 8.5e-13 relative for 1-6 modes up
# to 2 N; at 0.999 T_c 1.8e-13 (1 mode), 3.9e-10 (3), 2.0e-11 (4), 2.0e-7 (5,
# where T_c = 215 N) and 3.7e-7 (6), which is the direct solve's order there.
@pytest.mark.parametrize("modes", range(1, 7))
def test_closed_form_deflection_matches_exact_solve(params, modes):
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(modes))
    closed_form = model.deflection_map
    for tension in (0.1, 0.5, 1.0, 2.0):
        if tension < model.critical_tension:
            assert closed_form.deflection(tension) == pytest.approx(
                oracles.exact_equilibrium_tip(model, tension), rel=1e-11)
    if np.isfinite(model.critical_tension):
        near = 0.999 * model.critical_tension
        assert closed_form.deflection(near) == pytest.approx(
            oracles.exact_equilibrium_tip(model, near), rel=1e-6)


@pytest.mark.parametrize("modes", [1, 3, 6])
def test_closed_form_on_the_cantilever_is_linear(params, modes):
    # No spreader reactions: every eigenvalue is zero, so w(T) = T sum(beta).
    model = fb.assemble_matrices(dataclasses.replace(params, spreader_count=0),
                                 fb.BasisSet.with_mode_count(modes))
    closed_form = model.deflection_map
    assert model.critical_tension == float("inf")
    assert not any(closed_form.eigenvalues) and closed_form.stationary == ()
    unit = closed_form.deflection(1.0)
    for tension in (0.5, 2.0, 50.0):
        assert closed_form.deflection(tension) == pytest.approx(
            oracles.exact_equilibrium_tip(model, tension), rel=1e-12)
        assert closed_form.deflection(tension) == pytest.approx(unit * tension, rel=1e-14)
        assert closed_form.slope(tension) == pytest.approx(unit, rel=1e-14)


@pytest.mark.parametrize("modes", range(1, 11))
def test_inverse_round_trip_scan(params, modes):
    # 40 tensions up to and including the bracket end t_max itself.
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(modes))
    t_max = min(2.0, 0.99 * model.critical_tension)
    for tension in np.linspace(0.01, t_max, 40):
        w = fb.solve_equilibrium(model, tension).tip_deflection
        found = fb.tension_for_deflection(model, w, t_max=t_max)
        assert abs(fb.solve_equilibrium(model, found).tip_deflection - w) <= 1e-6


@pytest.mark.parametrize("modes", [4, 10])
def test_inverse_answers_the_end_point_the_closed_form_misses(params, modes):
    # At 4 and 10 modes the closed form at 2 N lies just below the direct w(2 N),
    # so it has no sign change on [0, 2 N] for that target.
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(modes))
    w_end = fb.solve_equilibrium(model, 2.0).tip_deflection
    assert model.deflection_map.deflection(2.0) < w_end
    found = fb.tension_for_deflection(model, w_end, t_max=2.0)
    assert abs(fb.solve_equilibrium(model, found).tip_deflection - w_end) <= 1e-6


def test_inverse_finds_the_least_root_of_a_map_that_falls(params):
    # Two modes: w peaks at 5.888 m near 3.50 N and falls to 4.12 m at 10 N,
    # so 5 m is held at 2.38 N (and again past the peak).
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(2))
    assert fb.solve_equilibrium(model, 10.0).tip_deflection < 5.0
    found = fb.tension_for_deflection(model, 5.0, t_max=10.0)
    assert found == pytest.approx(2.3843, abs=1e-4)
    assert abs(fb.solve_equilibrium(model, found).tip_deflection - 5.0) <= 1e-6
    (peak,) = model.deflection_map.stationary
    assert peak == pytest.approx(3.50, abs=0.01)
    with pytest.raises(fb.OutOfRange, match=r"\[0, 5\.88822\] m at tension limit 10"):
        fb.tension_for_deflection(model, 5.9, t_max=10.0)
    # Below the peak's tension the limit decides, as before: 5.8 m needs 3.09 N.
    w_3 = fb.solve_equilibrium(model, 3.0).tip_deflection
    with pytest.raises(fb.OutOfRange, match=rf"\[0, {w_3:.6g}\] m at tension limit 3"):
        fb.tension_for_deflection(model, 5.8, t_max=3.0)


def test_inversion_takes_three_direct_solves(monkeypatch, model3):
    # w(t_max) with its T_c refusal, one polish step and the achieved check.
    calls = []
    solve = fb.equilibrium.solve_equilibrium
    monkeypatch.setattr(fb.equilibrium, "solve_equilibrium",
                        lambda model, tension: calls.append(tension) or solve(model, tension))
    w = solve(model3, 0.77).tip_deflection
    assert fb.tension_for_deflection(model3, w) == pytest.approx(0.77, abs=1e-12)
    assert len(calls) == 3 and calls[0] == 2.0


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_inverse_polishes_an_end_point_root_over_its_stretch(monkeypatch, params, fraction):
    # Six modes, t_max below T_c = 8.38 N: the closed form at t_max lies 2.2e-6 m
    # below the direct w(t_max), so a target between the two is held only by
    # the direct map, at a tension just below t_max.
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(6))
    t_max = 7.62862468006826
    solve = fb.equilibrium.solve_equilibrium
    w_closed = model.deflection_map.deflection(t_max)
    w_direct = solve(model, t_max).tip_deflection
    assert w_direct - w_closed == pytest.approx(2.2124e-6, rel=1e-3)
    calls = []
    monkeypatch.setattr(fb.equilibrium, "solve_equilibrium",
                        lambda model, tension: calls.append(tension) or solve(model, tension))
    w_target = w_closed + fraction * (w_direct - w_closed)
    found = fb.tension_for_deflection(model, w_target, t_max=t_max)
    assert found <= t_max
    assert abs(solve(model, found).tip_deflection - w_target) <= 1e-6
    assert len(calls) == 3


def test_inverse_of_the_peak_deflection_is_the_stationary_tension(monkeypatch, params):
    # Two modes: the target is the closed form at its peak, where the slope is
    # zero to roundoff, so no polish step can do better than the peak itself:
    # w(t_max), the root's solve and at most one step that stays at the peak.
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(2))
    (peak,) = model.deflection_map.stationary
    w_peak = model.deflection_map.deflection(peak)
    solve = fb.equilibrium.solve_equilibrium
    calls = []
    monkeypatch.setattr(fb.equilibrium, "solve_equilibrium",
                        lambda model, tension: calls.append(tension) or solve(model, tension))
    found = fb.tension_for_deflection(model, w_peak, t_max=10.0)
    assert found == peak == 3.5029417541321686
    assert abs(solve(model, found).tip_deflection - w_peak) <= 1e-12
    assert len(calls) <= 3 and calls[1:] == [peak] * (len(calls) - 1)
