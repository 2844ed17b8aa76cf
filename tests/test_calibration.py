import numpy as np
import pytest

import flexboom as fb

CUBIC = (-1902.0, 1414.0, -302.7, 20.07)  # N m -> mm bench map


def synthetic_cubic(n=20, sigma=0.0, seed=0):
    rng = np.random.default_rng(seed)
    torques = np.linspace(0.15, 0.4, n)
    deflections = np.polyval(CUBIC, torques)
    if sigma > 0.0:
        deflections = deflections + rng.normal(0.0, sigma, size=n)
    return fb.MeasurementSet(torques=torques, deflections=deflections,
                             torque_unit="Nm", deflection_unit="mm")


def test_exact_linear_recovery():
    torques = np.linspace(0.0, 1.0, 8)
    data = fb.MeasurementSet(torques=torques, deflections=2.0 * torques + 1.0)
    fitted = fb.fit_map(data, degree=1)
    np.testing.assert_allclose(fitted.coefficients, (2.0, 1.0), atol=1e-12)
    assert fitted.residual_rms <= 1e-12
    assert fitted.fit_range == (0.0, 1.0)


def test_rank_deficient():
    data = fb.MeasurementSet(torques=[0.1, 0.1, 0.4, 0.4],
                             deflections=[1.0, 1.1, 2.0, 2.1])
    with pytest.raises(fb.RankDeficient):
        fb.fit_map(data, degree=3)
    fb.fit_map(data, degree=1)  # two distinct levels support a line


def test_select_degree_parsimony_on_linear_data():
    torques = np.linspace(0.0, 1.0, 10)
    data = fb.MeasurementSet(torques=torques, deflections=3.0 * torques - 0.5)
    best, residuals = fb.select_degree(data)
    assert best == 1
    assert set(residuals) == {1, 2, 3}


def test_select_degree_picks_cubic():
    best, residuals = fb.select_degree(synthetic_cubic())
    assert best == 3
    assert residuals[1] >= residuals[2] >= residuals[3]


def test_select_degree_needs_four_levels():
    data = fb.MeasurementSet(torques=[0.1, 0.2, 0.3],
                             deflections=[1.0, 2.0, 3.0])
    with pytest.raises(fb.RankDeficient):
        fb.select_degree(data)


def test_noisefree_cubic_recovery():
    fitted = fb.fit_map(synthetic_cubic(), degree=3)
    np.testing.assert_allclose(fitted.coefficients, CUBIC, rtol=1e-6)


def test_noisy_recovery_within_three_standard_errors():
    sigma = 0.1
    data = synthetic_cubic(sigma=sigma, seed=42)
    fitted = fb.fit_map(data, degree=3)
    design = np.vander(data.torques, 4)  # descending powers, matches coefficients
    covariance = sigma ** 2 * np.linalg.inv(design.T @ design)
    std_err = np.sqrt(np.diag(covariance))
    assert np.all(np.abs(np.array(fitted.coefficients) - np.array(CUBIC))
                  <= 3.0 * std_err)


def test_residual_monotone_in_degree():
    rng = np.random.default_rng(3)
    for _ in range(10):
        torques = np.sort(rng.uniform(0.1, 0.5, size=12))
        deflections = rng.normal(size=12)
        data = fb.MeasurementSet(torques=torques, deflections=deflections)
        residuals = [fb.fit_map(data, d).residual_rms for d in (1, 2, 3)]
        assert residuals[0] >= residuals[1] - 1e-12
        assert residuals[1] >= residuals[2] - 1e-12


def test_least_squares_beats_perturbations():
    data = synthetic_cubic(sigma=0.05, seed=9)
    fitted = fb.fit_map(data, degree=3)
    coeffs = np.array(fitted.coefficients)
    rng = np.random.default_rng(17)
    for _ in range(100):
        perturbed = coeffs + rng.normal(0.0, 1e-3, size=4) * (1.0 + np.abs(coeffs))
        rms = np.sqrt(np.mean(
            (np.polyval(perturbed, data.torques) - data.deflections) ** 2))
        assert fitted.residual_rms <= rms + 1e-12


def test_round_trip_with_control_module():
    fitted = fb.fit_map(synthetic_cubic(), degree=3)
    ref = fb.ReferenceTrajectory.map_composed(fitted.coefficients)
    profile = fb.FeedforwardProfile.quintic(0.15, 0.327, 30.0)
    for t in np.linspace(0.0, 30.0, 31):
        w, _ = fb.desired_deflection(ref, t, profile)
        direct = np.polyval(np.array(CUBIC), fb.feedforward_tension(profile, t))
        assert w == pytest.approx(direct, abs=1e-9)


def test_evaluate_and_extrapolation_flag():
    fitted = fb.fit_map(synthetic_cubic(), degree=3)
    assert fitted.evaluate(0.327) == pytest.approx(5.77, abs=0.01)
    assert not fitted.extrapolates(0.3)
    assert fitted.extrapolates(0.5)
    assert fitted.extrapolates(0.1)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("torque_Nm,deflection_mm\n0.2,1.5\n0.3,3.5\n")
    data = fb.MeasurementSet.from_csv(path)
    assert data.torque_unit == "Nm"
    assert data.deflection_unit == "mm"
    np.testing.assert_allclose(data.torques, [0.2, 0.3])
    assert data.source == str(path)


@pytest.mark.parametrize("text", [
    "",                                   # empty file
    "torque,deflection\n0.2,1.5\n",       # units missing
    "torque_Nm,angle_deg\n0.2,1.5\n",     # wrong column
    "torque_Nm,deflection_mm\n0.2\n",     # short row
    "torque_Nm,deflection_mm\n0.2,abc\n",  # non-numeric
    "torque_Nm,deflection_mm,note\n0.2,1.5\n",  # three header columns
])
def test_csv_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        fb.MeasurementSet.from_csv(path)


def test_csv_skips_blank_rows(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("torque_N,deflection_m\n0.2,1.5\n\n0.3,3.5\n\n")
    data = fb.MeasurementSet.from_csv(path)
    np.testing.assert_array_equal(data.torques, [0.2, 0.3])
    np.testing.assert_array_equal(data.deflections, [1.5, 3.5])


@pytest.mark.parametrize("torques, deflections", [
    ([0.1, 0.2], [1.0]),
    ([[0.1, 0.2]], [[1.0, 2.0]]),
], ids=["lengths", "two_d"])
def test_measurements_must_be_matching_1d_arrays(torques, deflections):
    with pytest.raises(ValueError, match="matching 1-d arrays"):
        fb.MeasurementSet(torques=torques, deflections=deflections)


def test_fit_degree_above_three_refused():
    torques = np.linspace(0.1, 1.0, 8)
    data = fb.MeasurementSet(torques=torques, deflections=torques ** 4)
    with pytest.raises(ValueError, match="degree must be 1, 2, or 3"):
        fb.fit_map(data, 4)


def test_non_finite_torque_rejected():
    with pytest.raises(ValueError):
        fb.MeasurementSet(torques=[0.1, float("inf")], deflections=[1.0, 2.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_deflection_rejected(bad):
    with pytest.raises(ValueError, match="deflections must be finite"):
        fb.MeasurementSet(torques=[0.1, 0.2], deflections=[1.0, bad])
