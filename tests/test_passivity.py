import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import matrix_balance

import flexboom as fb


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


def test_degenerate_sweep_matches_nominal(params, basis3, ss_tensioned):
    factory = fb.scaling_factory(params, basis3)
    grid = fb.default_grid(300)
    reports = fb.uncertainty_sweep(factory, 1.0, 0.0, samples=1, omega=grid)
    assert len(reports) == 1
    nominal = fb.passivity_check(ss_tensioned, grid)
    assert reports[0].passive == nominal.passive


def test_small_uncertainty_sweep_all_passive(params, basis3):
    factory = fb.scaling_factory(params, basis3)
    grid = fb.default_grid(300)
    reports = fb.uncertainty_sweep(factory, 1.0, 0.2, samples=8, omega=grid)
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
    factory = fb.scaling_factory(params, basis3)
    with pytest.raises(fb.SweepSampleError):
        # 50 N is far beyond the softening limit: equilibria do not exist
        fb.uncertainty_sweep(factory, 50.0, 0.2, samples=8,
                             omega=fb.default_grid(50))


def test_bad_perturbation_rejected(params, basis3):
    factory = fb.scaling_factory(params, basis3)
    with pytest.raises(ValueError):
        fb.uncertainty_sweep(factory, 1.0, 1.5, samples=8)
    for samples in (0, -8):
        with pytest.raises(ValueError):
            fb.uncertainty_sweep(factory, 1.0, 0.2, samples=samples)


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


def _threshold_grid(ss, half_width=64):
    """Consecutive floats around each pole where the exact condition crosses
    the nudge threshold, so rounding decides which side a point falls on."""
    s_bal, _ = matrix_balance(ss.rate_block, permute=False)

    def cond(w):
        return _exact_conditions(s_bal, np.array([w]))[1][0]

    windows = []
    for pole in _pole_grid(ss):
        lo, hi = pole, pole * (1.0 + 1e-3)
        if not cond(lo) > _COND_NUDGE > cond(hi):
            continue
        mid = 0.5 * (lo + hi)
        while mid not in (lo, hi):
            lo, hi = (mid, hi) if cond(mid) > _COND_NUDGE else (lo, mid)
            mid = 0.5 * (lo + hi)
        windows.append(hi + np.arange(-half_width, half_width) * np.spacing(hi))
    return np.concatenate(windows) if windows else np.empty(0)


_SCALED_TENSIONS = [((1.0, 1.0, 1.0), 0.0), ((0.8, 1.0, 0.8), 1.0),
                    ((1.2, 0.8, 1.2), 0.75), ((0.8, 1.2, 1.2), 0.5)]


@pytest.mark.parametrize("modes", range(1, 7))
def test_screen_matches_exact_conditions(params, modes):
    basis = fb.BasisSet.with_mode_count(modes)
    compared = 0
    for scales, t_eq in _SCALED_TENSIONS:
        model = fb.assemble_matrices(params.scaled(*scales), basis)
        if t_eq >= model.critical_tension:
            continue
        ss = fb.linearize(model, fb.solve_equilibrium(model, t_eq))
        for grid in (fb.default_grid(), _pole_grid(ss), _threshold_grid(ss)):
            if grid.size == 0:
                continue
            assert _outcome(_library_response, ss, grid) \
                == _outcome(_exact_condition_response, ss, grid)
            compared += 1
    assert compared >= 6


def _toy_plant(rate_block):
    n = len(rate_block)
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = rate_block
    ones = np.concatenate([np.zeros(n), np.ones(n)])
    return fb.StateSpaceModel(a=a, b=ones, c=ones, d=0.0, t_eq=0.0,
                              x_bar=np.zeros(2 * n))


def test_screen_matches_exact_conditions_where_the_bound_is_tight():
    # Symmetric blocks (cond(V) = 1) with one stiff mode: near the soft poles
    # the bound exceeds the condition by about 2e-8 relative, far less than
    # the rounding of either at condition 1e12, so without the screen's safety
    # factor some of these points would be screened when they must be nudged.
    rng = np.random.default_rng(0)
    for _ in range(8):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        ss = _toy_plant(q @ np.diag([-1e8, -4.0, -1.0]) @ q.T)
        grid = _threshold_grid(ss)
        assert grid.size > 0
        assert _outcome(_library_response, ss, grid) \
            == _outcome(_exact_condition_response, ss, grid)


def test_defective_rate_block_takes_exact_path(monkeypatch):
    # A 2x2 Jordan block: eig returns nearly parallel eigenvectors, cond(V)
    # is about 1e16 and no point can be screened.
    ss = _toy_plant(np.array([[-1.0, 1.0], [0.0, -1.0]]))
    batch_sizes = []
    real_cond = np.linalg.cond

    def counting_cond(x, p=None):
        if np.ndim(x) == 3:
            batch_sizes.append(len(x))
        return real_cond(x, p)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    for grid in (fb.default_grid(), np.array([0.5, 1.0, 2.0])):
        batch_sizes.clear()
        assert _outcome(_library_response, ss, grid) \
            == _outcome(_exact_condition_response, ss, grid)
        assert batch_sizes[0] == grid.size  # the library's first solve


def test_unresolved_eigensystem_takes_exact_path(monkeypatch, ss_nominal):
    n = ss_nominal.mode_count
    monkeypatch.setattr(np.linalg, "eig", lambda a: (np.full(n, np.nan),
                                                     np.full((n, n), np.nan)))
    for grid in (fb.default_grid(), _pole_grid(ss_nominal)):
        assert _outcome(_library_response, ss_nominal, grid) \
            == _outcome(_exact_condition_response, ss_nominal, grid)


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
