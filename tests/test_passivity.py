import dataclasses
import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import matrix_balance

import flexboom as fb
import oracles


@pytest.fixture(scope="module")
def ss_nominal(model3):
    return fb.linearize(model3, fb.solve_equilibrium(model3, 0.0))


@pytest.fixture(scope="module")
def ss_tensioned(model3):
    return fb.linearize(model3, fb.solve_equilibrium(model3, 1.0))


def _position_output(ss):
    """Variant measuring tip deflection instead of its rate."""
    n = ss.mode_count
    c = np.concatenate([ss.c[n:], np.zeros(n)])
    return dataclasses.replace(ss, c=c)


def test_default_grid_shape():
    grid = fb.default_grid()
    assert grid.size == 2000
    assert grid[0] == pytest.approx(1e-3) and grid[-1] == pytest.approx(1e3)
    assert np.all(np.diff(grid) > 0.0)


def test_gain_vanishes_at_low_frequency(ss_nominal):
    fr = fb.frequency_response(ss_nominal, np.array([1e-6]))
    assert abs(fr.response[0]) < 1e-4


def test_single_mode_analytic_oracle(params):
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(1))
    ss = fb.linearize(model, fb.solve_equilibrium(model, 0.0))
    length = params.length
    mass = params.linear_density * length ** 5 / 5.0
    stiffness = 4.0 * params.bending_stiffness * length
    omega0 = np.sqrt(stiffness / mass)
    gain = length ** 2 * (2.0 * params.cable_offset * length) / mass

    grid = fb.default_grid(500)
    off_resonance = np.abs(grid - omega0) > 0.05 * omega0
    fr = fb.frequency_response(ss, grid)
    expected = 1j * gain * grid / (omega0 ** 2 - grid ** 2)
    err = np.abs(fr.response[off_resonance] - expected[off_resonance]) \
        / np.abs(expected[off_resonance])
    assert np.max(err) <= 1e-9


def test_rate_output_real_part_is_structurally_zero(ss_tensioned):
    fr = fb.frequency_response(ss_tensioned)
    assert np.max(np.abs(fr.response.real)) == 0.0


def test_phase_within_band_at_tension(ss_tensioned):
    fr = fb.frequency_response(ss_tensioned)
    assert np.max(np.abs(fr.phase_principal_deg)) <= 90.0 + 1e-6


def test_nominal_plants_passive(ss_nominal, ss_tensioned):
    for ss in (ss_nominal, ss_tensioned):
        report = fb.passivity_check(ss)
        assert report.passive
        assert report.verdict == "passive"
        assert report.min_real >= -1e-9


def test_position_output_not_passive(ss_nominal):
    report = fb.passivity_check(_position_output(ss_nominal))
    assert not report.passive
    assert abs(report.worst_phase_deg) > 90.0
    assert report.min_real < 0.0


def test_feedthrough_gives_margin(ss_nominal):
    report = fb.passivity_check(dataclasses.replace(ss_nominal, d=0.1))
    assert report.passive
    assert report.min_real == pytest.approx(0.1)


def _position_leak(ss, k):
    """Variant whose output adds -k times the tip deflection to the tip rate."""
    n = ss.mode_count
    c = ss.c.copy()
    c[:n] = -k * ss.c[n:]
    return dataclasses.replace(ss, c=c)


@pytest.fixture(scope="module")
def ss_half_newton(model3):
    return fb.linearize(model3, fb.solve_equilibrium(model3, 0.5))


def test_real_part_decides_when_the_phase_stays_in_band(ss_half_newton):
    # min Re G = -2.0e-9 fails eps_tol = 1e-9 while the worst phase, 90 +
    # 5.7e-7 deg, is inside a 1e-6 deg band: a phase test would pass it.
    report = fb.passivity_check(_position_leak(ss_half_newton, 1e-11))
    assert not report.passive
    assert report.min_real < -1e-9
    assert abs(report.worst_phase_deg) < 90.0 + 1e-6


def test_real_part_decides_when_the_phase_leaves_the_band(ss_half_newton):
    # At 1e-5 rad/s min Re G = -4.8e-12 is within eps_tol while the phase,
    # 90 + 2.3e-5 deg, is outside a 1e-6 deg band: a phase test would fail it.
    report = fb.passivity_check(_position_leak(ss_half_newton, 4e-12), np.array([1e-5]))
    assert report.passive
    assert -1e-9 <= report.min_real < 0.0
    assert abs(report.worst_phase_deg) > 90.0 + 1e-6


def test_conjugate_symmetry(ss_tensioned):
    for omega in (0.05, 0.4, 3.0):
        pos = fb.frequency_response(ss_tensioned, np.array([omega])).response[0]
        neg = fb.frequency_response(ss_tensioned, np.array([-omega])).response[0]
        assert neg == pytest.approx(np.conj(pos), rel=1e-12, abs=1e-15)


def test_verdict_invariant_under_common_scaling(params, basis3):
    for t_eq in (0.0, 1.0):
        verdicts = []
        for factor in (1.0, 2.0):
            model = fb.assemble_matrices(params.scaled(e_scale=factor,
                                                       rho_scale=factor), basis3)
            ss = fb.linearize(model, fb.solve_equilibrium(model, t_eq))
            verdicts.append(fb.passivity_check(ss).passive)
        assert verdicts[0] == verdicts[1]


def test_pole_on_grid_is_nudged(ss_nominal):
    eigs = ss_nominal.eigenvalues()
    omega_pole = float(np.min(eigs.imag[eigs.imag > 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fr = fb.frequency_response(ss_nominal, np.array([omega_pole]))
    assert fr.nudged == (0,)
    assert np.all(np.isfinite(fr.response))
    assert fr.omega[0] == pytest.approx(omega_pole * (1.0 + 1e-6))


def test_pole_on_grid_error_when_nudge_fails():
    # Near-defective toy plant: one pole pair at 1e-10 rad/s; a nudge of one
    # part in 1e6 cannot pull the solve away from singularity.
    s_block = np.diag([-1e-20, -1.0])
    a = np.zeros((4, 4))
    a[:2, 2:] = np.eye(2)
    a[2:, :2] = s_block
    ss = fb.StateSpaceModel(a=a, b=np.array([0.0, 0.0, 1.0, 1.0]),
                            c=np.array([0.0, 0.0, 1.0, 1.0]), d=0.0,
                            t_eq=0.0, x_bar=np.zeros(4))
    with pytest.raises(fb.PoleOnGrid):
        fb.frequency_response(ss, np.array([1e-10]))


def test_grid_validation(ss_nominal):
    with pytest.raises(ValueError):
        fb.frequency_response(ss_nominal, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        fb.frequency_response(ss_nominal, np.array([np.nan]))
    for grid in (np.ones((2, 2)), np.array([])):
        with pytest.raises(ValueError, match="nonempty 1-d array"):
            fb.frequency_response(ss_nominal, grid)


def test_non_finite_response_is_refused(ss_nominal):
    # A huge input gain overflows the response 1e-5 (relative) off the lowest
    # pole, where the point is not close enough to be nudged.
    eigs = ss_nominal.eigenvalues()
    omega_pole = float(np.min(eigs.imag[eigs.imag > 0.0]))
    n = ss_nominal.mode_count
    b = np.zeros(2 * n)
    b[n] = 1e300
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(fb.PoleOnGrid, match="non-finite frequency response"):
        fb.frequency_response(dataclasses.replace(ss_nominal, b=b),
                              np.array([omega_pole * (1.0 + 1e-5)]))


@pytest.mark.filterwarnings("error")
def test_non_finite_response_is_refused_without_warnings(ss_nominal):
    eigs = ss_nominal.eigenvalues()
    omega_pole = float(np.min(eigs.imag[eigs.imag > 0.0]))
    n = ss_nominal.mode_count
    b = np.zeros(2 * n)
    b[n] = 1e300
    with pytest.raises(fb.PoleOnGrid, match="non-finite frequency response"):
        fb.frequency_response(dataclasses.replace(ss_nominal, b=b),
                              np.array([omega_pole * (1.0 + 1e-5)]))


# Metamorphic oracle for the uncertainty box.  M scales with rho and K with
# E*I, while the spreader matrix and the actuation vector depend on neither,
# so sample (e, rho, i) at tension T is the nominal boom at T / (e i), with
# time and gain rescaled.  Worst relative errors measured over the 27-sample
# box at 0.3 and 0.6 N: 2.9e-14 (q), 7.8e-13 (T_c), 7.4e-10 (G, 300 points).
@pytest.mark.parametrize("t_eq", [0.3, 0.6])
def test_uncertainty_sample_is_the_rescaled_nominal(params, basis3, model3, t_eq):
    grid = fb.default_grid(300)
    for e, rho, i in itertools.product((0.8, 1.0, 1.2), repeat=3):
        sample = fb.assemble_matrices(params.scaled(e, rho, i), basis3)
        assert sample.critical_tension == pytest.approx(
            e * i * model3.critical_tension, rel=1e-11)
        eq = fb.solve_equilibrium(sample, t_eq)
        eq_nom = fb.solve_equilibrium(model3, t_eq / (e * i))
        assert oracles.entrywise_close(eq.modal_coords, eq_nom.modal_coords, rel=1e-12)
        fr = fb.frequency_response(fb.linearize(sample, eq), grid)
        fr_nom = fb.frequency_response(fb.linearize(model3, eq_nom),
                                       grid / np.sqrt(e * i / rho))
        expected = fr_nom.response / np.sqrt(e * i * rho)
        assert np.max(np.abs(fr.response - expected) / np.abs(expected)) <= 1e-8


def test_degenerate_sweep_matches_nominal(params, basis3, ss_tensioned):
    grid = fb.default_grid(300)
    reports = fb.uncertainty_sweep(params, basis3, 1.0, 0.0, samples=1, omega=grid)
    assert len(reports) == 1
    nominal = fb.passivity_check(ss_tensioned, grid)
    assert reports[0].passive == nominal.passive


def test_small_uncertainty_sweep_all_passive(params, basis3):
    grid = fb.default_grid(300)
    reports = fb.uncertainty_sweep(params, basis3, 1.0, 0.2, samples=8, omega=grid)
    assert len(reports) == 8
    assert all(r.passive for r in reports)
    scales = {(r.metadata["e_scale"], r.metadata["rho_scale"], r.metadata["i_scale"])
              for r in reports}
    assert len(scales) == 8


def test_mode_count_sweep_all_passive(params):
    grid = fb.default_grid(300)
    reports = fb.mode_count_sweep(params, [3, 4, 5, 6], 0.0, omega=grid)
    assert [r.metadata["mode_count"] for r in reports] == [3, 4, 5, 6]
    assert all(r.passive for r in reports)


def test_sweep_wraps_sample_failures(params, basis3):
    with pytest.raises(fb.SweepSampleError):
        # 50 N is far beyond the softening limit: equilibria do not exist
        fb.uncertainty_sweep(params, basis3, 50.0, 0.2, samples=8,
                             omega=fb.default_grid(50))


def test_bad_perturbation_rejected(params, basis3):
    with pytest.raises(ValueError):
        fb.uncertainty_sweep(params, basis3, 1.0, 1.5, samples=8)
    for samples in (0, -8):
        with pytest.raises(ValueError):
            fb.uncertainty_sweep(params, basis3, 1.0, 0.2, samples=samples)


# Exact-condition reference: the nudge rule with np.linalg.cond at every point.
_COND_NUDGE = 1e12
_COND_FAIL = 1e14


def _exact_conditions(s_bal, omegas):
    mats = s_bal[None, :, :] + (omegas ** 2)[:, None, None] * np.eye(len(s_bal))[None, :, :]
    return mats, np.linalg.cond(mats)


def _exact_condition_response(ss, grid):
    """(omega, response, nudged) under the nudge rule; raises PoleOnGrid."""
    n = ss.mode_count
    s_bal, t_diag = matrix_balance(ss.rate_block, permute=False)
    t_scale = np.diag(t_diag)
    b_bal = ss.b[n:] / t_scale

    def solve(omegas):
        mats, conds = _exact_conditions(s_bal, omegas)
        rhs = np.broadcast_to(-b_bal, (omegas.size, n))[:, :, None]
        good = np.isfinite(conds) & (conds <= _COND_FAIL)
        z = np.full((omegas.size, n), np.nan)
        if np.any(good):
            z[good] = np.linalg.solve(mats[good], rhs[good])[:, :, 0]
        return z, conds

    grid = np.array(grid, dtype=float)
    z, conds = solve(grid)
    retry = np.where(conds > _COND_NUDGE)[0]
    if retry.size:
        grid[retry] = grid[retry] * (1.0 + 1e-6)
        z_retry, conds_retry = solve(grid[retry])
        bad = conds_retry > _COND_FAIL
        if np.any(bad):
            raise fb.PoleOnGrid(
                f"grid frequencies {grid[retry[bad]]} rad/s remain on a pole "
                f"after nudging (condition {conds_retry[bad].max():.3e})")
        z[retry] = z_retry
    response = (z @ (ss.c[:n] * t_scale) + ss.d) + 1j * (grid * (z @ (ss.c[n:] * t_scale)))
    if np.any(~np.isfinite(response)):
        raise fb.PoleOnGrid("non-finite frequency response after nudging")
    return grid, response, tuple(int(i) for i in retry)


def _library_response(ss, grid):
    fr = fb.frequency_response(ss, grid)
    return fr.omega, fr.response, fr.nudged


def _outcome(respond, ss, grid):
    """Bitwise-comparable result of one evaluation, or its PoleOnGrid message."""
    try:
        omega, response, nudged = respond(ss, grid)
    except fb.PoleOnGrid as exc:
        return "PoleOnGrid", str(exc)
    return omega.tobytes(), response.tobytes(), nudged


def _pole_grid(ss):
    imag = ss.eigenvalues().imag
    return np.unique(imag[imag > 0.0])


_SCALED_TENSIONS = [((1.0, 1.0, 1.0), 0.0), ((0.8, 1.0, 0.8), 1.0),
                    ((1.2, 0.8, 1.2), 0.75), ((0.8, 1.2, 1.2), 0.5)]

# Worst relative error against the exact solve measured with the previous
# algorithm (an LU solve per point, nudged by an SVD condition test) on the
# points of test_response_near_and_on_poles_matches_exact_solve: points next
# to each pole, and points placed on each pole (after their nudge).  Near a
# pole, rounding in the float model data already moves the pole, and more so
# the worse conditioned the basis, so these figures grow with the mode count.
# At six modes they cover the points it evaluated (it raised PoleOnGrid on
# nine).  It never nudged a one-mode plant (a 1x1 block has condition 1) and
# was 246 % off on its pole; there its pole-adjacent figure stands instead.
_PREVIOUS_WORST = {  # modes: (next to a pole, on a pole)
    1: (1.750e-09, 1.750e-09),
    2: (3.125e-07, 1.877e-08),
    3: (7.510e-06, 6.365e-07),
    4: (1.751e-04, 1.751e-05),
    5: (3.553e-03, 3.552e-04),
    6: (1.021e-01, 1.021e-02),
}
_POLE_OFFSETS = np.array([-1e-5, -1e-7, 1e-7, 1e-5])


def _relative_error(model, eq, omega, response):
    exact = oracles.exact_tip_rate_response(model, eq, omega)
    return float(np.max(np.abs(response - exact) / np.abs(exact)))


@pytest.mark.parametrize("modes", range(1, 7))
def test_response_near_and_on_poles_matches_exact_solve(params, modes):
    basis = fb.BasisSet.with_mode_count(modes)
    worst_next, worst_on = 0.0, 0.0
    compared = 0
    for scales, t_eq in _SCALED_TENSIONS:
        model = fb.assemble_matrices(params.scaled(*scales), basis)
        if t_eq >= model.critical_tension:
            continue
        eq = fb.solve_equilibrium(model, t_eq)
        ss = fb.linearize(model, eq)
        poles = _pole_grid(ss)
        assert poles.size == modes
        near = fb.frequency_response(ss, np.sort(np.outer(poles, 1.0 + _POLE_OFFSETS).ravel()))
        worst_next = max(worst_next, _relative_error(model, eq, near.omega, near.response))
        on = fb.frequency_response(ss, poles)
        assert on.nudged == tuple(range(modes))
        worst_on = max(worst_on, _relative_error(model, eq, on.omega, on.response))
        compared += 1
    assert compared >= 2
    bound_next, bound_on = (1.5 * worst for worst in _PREVIOUS_WORST[modes])
    assert worst_next <= bound_next
    assert worst_on <= bound_on


def test_grid_point_next_to_a_six_mode_pole_matches_exact_solve(params):
    # Default-grid point 624, 0.0746340 rad/s, lies 1.75e-6 (relative) above
    # the lowest pole of this sample; it is nudged, and its response is 5.5e-5
    # off the exact solve (the previous algorithm raised PoleOnGrid here).
    model = fb.assemble_matrices(params.scaled(0.8, 1.0, 0.8),
                                 fb.BasisSet.with_mode_count(6))
    eq = fb.solve_equilibrium(model, 1.0)
    grid = fb.default_grid()
    fr = fb.frequency_response(fb.linearize(model, eq), grid)
    assert grid[624] == pytest.approx(0.0746340, rel=1e-6)
    assert 624 in fr.nudged
    assert fr.omega[624] == grid[624] * (1.0 + 1e-6)
    assert _relative_error(model, eq, fr.omega[624:625], fr.response[624:625]) <= 1e-4


# Default-grid points next to a pole and at an antiresonance, with the error
# the previous algorithm (an LU solve per point) had there against the exact
# response of the float system.  A refinement residual formed in float
# arithmetic leaves 1.3e-10 and 7.2e-8 there; the extended residual is what
# keeps the Schur solve within the previous figures.
@pytest.mark.parametrize("modes, scales, t_eq, index, previous", [
    (2, (0.8, 1.2, 1.2), 0.5, 677, 5.128e-12),      # next to the lowest pole
    (4, (1.2, 0.8, 1.2), 0.75, 976, 1.036e-08),     # an antiresonance
], ids=["two_mode_pole", "four_mode_antiresonance"])
def test_solver_error_within_previous_solver_error(params, modes, scales, t_eq, index,
                                                   previous):
    # Solver error alone: against the exact response of the float system.
    model = fb.assemble_matrices(params.scaled(*scales), fb.BasisSet.with_mode_count(modes))
    ss = fb.linearize(model, fb.solve_equilibrium(model, t_eq))
    fr = fb.frequency_response(ss, fb.default_grid())
    assert index not in fr.nudged
    exact = oracles.exact_state_space_response(ss, fr.omega[index:index + 1])[0]
    assert abs(fr.response[index] - exact) / abs(exact) <= previous


def test_refinement_keeps_three_mode_box_corner_within_previous_error(params):
    # Sample (0.8, 0.8, 1.2) at 1.4 N, default-grid point 677: the worst
    # three-mode point of the previous algorithm over the {0.8, 1.2}^3 x
    # {0, 1, 1.4} N box, 1.996e-8 off the exact solve of the raw data.
    model = fb.assemble_matrices(params.scaled(0.8, 0.8, 1.2), fb.BasisSet.with_mode_count(3))
    eq = fb.solve_equilibrium(model, 1.4)
    fr = fb.frequency_response(fb.linearize(model, eq), fb.default_grid())
    assert _relative_error(model, eq, fr.omega[677:678], fr.response[677:678]) <= 1.996e-8


def _toy_plant(rate_block):
    n = len(rate_block)
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = rate_block
    ones = np.concatenate([np.zeros(n), np.ones(n)])
    return fb.StateSpaceModel(a=a, b=ones, c=ones, d=0.0, t_eq=0.0,
                              x_bar=np.zeros(2 * n))


def _jordan_response(omega):
    """G(j w) of the Jordan toy plant, S = [[-1, 1], [0, -1]], from its closed
    form in exact arithmetic: with d = w^2 - 1, (S + w^2 I)^-1 = [[1/d, -1/d^2],
    [0, 1/d]] and G = -j w (2/d - 1/d^2)."""
    out = []
    for w in omega:
        w = Fraction(float(w))
        d = w * w - 1
        out.append(-1j * float(w * (2 / d - 1 / (d * d))))
    return np.array(out)


def test_defective_rate_block_matches_closed_form():
    # A 2x2 Jordan block has one eigenvector: an eigenvector (modal) form of
    # the response is far off here (cond(V) about 9e15), a Schur solve is not.
    ss = _toy_plant(np.array([[-1.0, 1.0], [0.0, -1.0]]))
    for grid in (fb.default_grid(), np.array([0.5, 0.999, 1.001, 2.0])):
        fr = fb.frequency_response(ss, grid)
        exact = _jordan_response(fr.omega)
        assert fr.nudged == ()
        assert np.max(np.abs(fr.response - exact) / np.abs(exact)) <= 1e-13
    # On the pole the point is nudged to 1 + 1e-6; there w^2 - 1 = 2e-6
    # carries the rounding of w^2, about 1e-10 of its value.
    fr = fb.frequency_response(ss, np.array([1.0]))
    assert fr.nudged == (0,)
    assert fr.response[0] == pytest.approx(_jordan_response(fr.omega)[0], rel=1e-9)


def test_complex_eigenvalue_pair_matches_exact_solve():
    # Eigenvalues -2 +- j sqrt(3): the real Schur form keeps a 2x2 block.
    ss = _toy_plant(np.array([[-2.0, 3.0], [-1.0, -2.0]]))
    fr = fb.frequency_response(ss, fb.default_grid())
    exact = oracles.exact_state_space_response(ss, fr.omega)
    assert fr.nudged == ()
    # G has a zero at w = sqrt(3), so the error is relative to the largest gain.
    assert np.max(np.abs(fr.response - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_exact_pole_screen_emits_no_warning():
    # Diagonal block: eig returns -1 and -4 exactly, so w = 1 and 2 make the
    # screen divide by zero.
    ss = _toy_plant(np.diag([-1.0, -4.0]))
    grid = np.array([0.5, 1.0, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = _outcome(_library_response, ss, grid)
    assert outcome == _outcome(_exact_condition_response, ss, grid)
    assert outcome[2] == (1, 2)


@pytest.mark.parametrize("eps_tol", [float("nan"), float("inf"), -1e-9])
def test_eps_tol_must_be_finite_and_nonnegative(ss_nominal, eps_tol):
    with pytest.raises(ValueError, match="eps_tol must be finite and nonnegative"):
        fb.passivity_check(ss_nominal, fb.default_grid(50), eps_tol)


@pytest.mark.parametrize("n_points, omega_min, omega_max", [
    (50, 0.0, 1e3), (50, -1.0, 1e3), (50, 1e3, 1e-3), (50, 1.0, 1.0),
    (50, 1e-3, float("inf")), (50, float("nan"), 1e3), (0, 1e-3, 1e3),
])
def test_default_grid_refuses_a_bad_range_without_warnings(n_points, omega_min, omega_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="frequency grid needs 0 < omega_min"):
            fb.default_grid(n_points, omega_min, omega_max)


def test_grid_whose_squares_overflow_is_refused_without_warnings(ss_nominal):
    # w^2 overflows above about 1.3e154 rad/s, where every point would read
    # as a pole.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="frequency grid needs 0 < omega_min"):
            fb.default_grid(50, 1e-3, 1e200)
        with pytest.raises(ValueError, match="finite squares"):
            fb.frequency_response(ss_nominal, np.array([1.0, 1e200]))
