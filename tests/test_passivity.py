import dataclasses

import numpy as np
import pytest

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
