"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line with the measured quantities (run pytest with -s or
read captured output on failure).

Run just this gate with:  pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

import flexboom as fb
import oracles

REFERENCE_TIP_AT_1N = 1.26855  # published setpoint for the nominal boom


def _report(num, name, ok, detail):
    line = f"[ACCEPT {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def nominal_curve(model3):
    return fb.deflection_curve(model3, samples=200)


def test_01_structural_matrix_oracle(params):
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5, 6):
        basis = fb.BasisSet.with_mode_count(n)
        model = fb.assemble_matrices(params, basis)
        for built, reference in (
                (model.mass_matrix, oracles.quad_mass_matrix(params, basis)),
                (model.stiffness_matrix, oracles.quad_stiffness_matrix(params, basis))):
            worst = max(worst, float(np.max(np.abs(built - reference)
                                            / np.abs(reference))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(1, "structural matrices vs quadrature oracle", ok,
            f"worst rel err {worst:.2e}, tol 1e-10, {elapsed:.2f} s")


def test_02_cantilever_equilibrium_oracle(cantilever_model, params):
    start = time.perf_counter()
    worst = 0.0
    values = []
    for tension in (0.25, 0.5, 1.0):
        achieved = fb.solve_equilibrium(cantilever_model, tension).tip_deflection
        expected = oracles.cantilever_tip_deflection(params, tension)
        worst = max(worst, abs(achieved - expected) / expected)
        values.append(f"w({tension} N)={achieved:.6f} m")
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    _report(2, "cantilever tip-moment oracle (no spreader reactions)", ok,
            f"{'; '.join(values)}, worst rel err {worst:.2e}, {elapsed:.2f} s")


def test_03_equilibrium_curve_properties(model3, nominal_curve):
    start = time.perf_counter()
    tips = np.array([p.tip_deflection for p in nominal_curve])
    tensions = np.array([p.tension for p in nominal_curve])
    increasing = bool(np.all(np.diff(tips) > 0.0))
    w1 = fb.solve_equilibrium(model3, 1.0).tip_deflection
    w2 = fb.solve_equilibrium(model3, 2.0).tip_deflection
    superlinear = w2 > 2.0 * w1
    design = np.vstack([tensions ** 2, tensions]).T
    coef, *_ = np.linalg.lstsq(design, tips, rcond=None)
    r_sq = 1.0 - np.sum((tips - design @ coef) ** 2) \
        / np.sum((tips - tips.mean()) ** 2)
    elapsed = time.perf_counter() - start
    ok = increasing and superlinear and r_sq >= 0.999 and elapsed < 5.0
    _report(3, "tension-deflection curve shape", ok,
            f"strictly increasing={increasing}, w(2N)={w2:.4f} > 2*w(1N)={2 * w1:.4f}, "
            f"R^2={r_sq:.6f} >= 0.999; achieved w(1N)={w1:.7f} m vs reference "
            f"{REFERENCE_TIP_AT_1N} m (diff {w1 - REFERENCE_TIP_AT_1N:+.2e} m, "
            f"match not required), {elapsed:.2f} s")


def test_04_passivity_sweeps(params, basis3):
    start = time.perf_counter()
    grid = fb.default_grid()
    all_reports = []
    for t_eq in (0.0, 1.0):
        all_reports += fb.uncertainty_sweep(params, basis3, t_eq, 0.20, samples=125,
                                            omega=grid)
        all_reports += fb.mode_count_sweep(params, (3, 4, 5, 6), t_eq,
                                           omega=grid)
    n_pass = sum(r.passive for r in all_reports)
    min_re = min(r.min_real for r in all_reports)
    worst_phase = max(abs(r.worst_phase_deg) for r in all_reports)
    elapsed = time.perf_counter() - start
    ok = n_pass == len(all_reports) and min_re >= -1e-9 and elapsed < 120.0
    _report(4, "passivity sweeps (uncertainty box and mode counts)", ok,
            f"{n_pass}/{len(all_reports)} passive, min Re G={min_re:.2e} >= -1e-9, "
            f"worst |phase|={worst_phase:.6f} deg, {elapsed:.1f} s")


def _fails_to_converge(result, w_target):
    if result.diverged:
        return True, f"diverged at t={result.divergence_time:.1f} s"
    first = (result.time > 100.0) & (result.time <= 150.0)
    second = result.time > 150.0
    amp1 = float(np.max(np.abs(result.tip[first] - w_target)))
    amp2 = float(np.max(np.abs(result.tip[second] - w_target)))
    return amp2 >= 0.95 * amp1, f"amp(100-150]={amp1:.2e}, amp(150-200]={amp2:.2e}"


def test_05_stability_mechanism(model3):
    start = time.perf_counter()
    found = None
    for scale in (1.0, 2.0, 3.0, 4.0):
        suite = {s.name: s for s in fb.scenario_suite(step_scale=scale)}
        w_target = suite["fig7c"].controller.reference.w_final
        step = w_target - suite["fig7c"].w_init
        constant_run = fb.run_simulation(suite["fig7c"])
        const_fails, const_detail = _fails_to_converge(constant_run, w_target)
        if not const_fails:
            continue
        varying_run = fb.run_simulation(suite["fig8"])
        if varying_run.diverged:
            continue
        error = abs(varying_run.tip[-1] - w_target)
        if error <= 0.02 * abs(step):
            found = (scale, const_detail, error / abs(step))
            break
    elapsed = time.perf_counter() - start
    ok = found is not None and elapsed < 120.0
    detail = "no destabilize/restabilize pair found up to 4x step"
    if found:
        detail = (f"step scale {found[0]:g}x: constant feedforward k_d=50 fails "
                  f"({found[1]}); time-varying feedforward k_d=50 converges to "
                  f"{found[2] * 100:.3f}% of the step")
    _report(5, "destabilize/restabilize pair (constant vs time-varying FF)", ok,
            f"{detail}, {elapsed:.1f} s")


def test_06_nominal_tracking(model3):
    start = time.perf_counter()
    suite = {s.name: s for s in fb.scenario_suite()}
    scenario = suite["fig7a"]
    w_target = scenario.controller.reference.w_final
    step = w_target - scenario.w_init
    result = fb.run_simulation(scenario)
    error = abs(result.tip[-1] - w_target)
    elapsed = time.perf_counter() - start
    ok = (result.status == "completed" and error <= 0.02 * abs(step)
          and elapsed < 30.0)
    _report(6, "nominal tracking with constant feedforward, k_d=25", ok,
            f"w(200 s)={result.tip[-1]:.6f} m, target {w_target:.6f} m, "
            f"error {error / abs(step) * 100:.3f}% of step (<= 2%), {elapsed:.1f} s")


def test_07_integrator_fidelity(model3):
    start = time.perf_counter()
    # energy conservation on the unforced 200 s run
    unforced = fb.SimScenario(model=model3, controller=None, w_init=1.0,
                              duration=200.0, dt=1e-3, decimation=100,
                              name="unforced")
    result = fb.run_simulation(unforced)
    total = result.kinetic + result.potential
    drift = float(np.max(np.abs(total - total[0])) / total[0])

    # RK4 order measured on the constant-feedforward benchmark (each error is
    # taken against the half-step reference, so four runs cover three errors).
    # fig7a settles long before 200 s, where the step-to-step differences sit
    # at roundoff; the error is therefore the largest difference over a common
    # 0.1 s log grid, which catches the transient while it is resolved.
    suite = {s.name: s for s in fb.scenario_suite()}
    base = suite["fig7a"]
    steps = [4e-3, 2e-3, 1e-3, 5e-4]
    runs = {}
    for dt in steps:
        scenario = fb.SimScenario(model=base.model, controller=base.controller,
                                  w_init=base.w_init, duration=200.0, dt=dt,
                                  decimation=int(round(0.1 / dt)),
                                  name=f"order-{dt:g}")
        runs[dt] = fb.run_simulation(scenario)
    for dt in steps[1:]:
        np.testing.assert_allclose(runs[dt].time, runs[steps[0]].time,
                                   rtol=0.0, atol=1e-9)
    errors = np.array([
        np.max(np.linalg.norm(np.hstack([runs[dt].q - runs[dt / 2].q,
                                         runs[dt].q_rate - runs[dt / 2].q_rate]),
                              axis=1))
        for dt in steps[:-1]])
    slope = float(np.polyfit(np.log2(steps[:-1]), np.log2(errors), 1)[0])
    elapsed = time.perf_counter() - start
    ok = drift <= 1e-6 and 3.5 <= slope <= 4.5 and elapsed < 60.0
    _report(7, "integrator fidelity (energy drift and RK4 order)", ok,
            f"energy drift {drift:.2e} <= 1e-6, order slope {slope:.2f} in "
            f"[3.5, 4.5] from trajectory errors "
            f"{', '.join(f'{e:.1e}' for e in errors)}, {elapsed:.1f} s")


def test_08_quintic_profile_exactness():
    start = time.perf_counter()
    t0, tf, duration = 0.15, 0.327, 30.0
    profile = fb.FeedforwardProfile.quintic(t0, tf, duration)
    span = abs(tf - t0)
    endpoint_ok = (fb.feedforward_tension(profile, 0.0) == t0
                   and fb.feedforward_tension(profile, duration) == tf)
    mid = fb.feedforward_tension(profile, duration / 2.0)
    mid_ok = abs(mid - (t0 + tf) / 2.0) <= 1e-15
    deriv_ok = True
    for t_end in (0.0, duration):
        s = t_end / duration
        rate = 30.0 * s ** 2 * (1.0 - s) ** 2 * span / duration
        accel = (60.0 * s - 180.0 * s ** 2 + 120.0 * s ** 3) * span / duration ** 2
        deriv_ok = deriv_ok and abs(rate) <= 1e-12 * span \
            and abs(accel) <= 1e-12 * span
    elapsed = time.perf_counter() - start
    ok = endpoint_ok and mid_ok and deriv_ok and elapsed < 1.0
    _report(8, "quintic profile exactness", ok,
            f"endpoints exact={endpoint_ok}, midpoint={mid:.6f}="
            f"mean({t0},{tf}), endpoint derivatives <=1e-12 scaled={deriv_ok}, "
            f"{elapsed:.2f} s")


def test_09_map_fitting():
    start = time.perf_counter()
    cubic = (-1902.0, 1414.0, -302.7, 20.07)
    torques = np.linspace(0.15, 0.4, 20)
    clean = np.polyval(cubic, torques)

    data = fb.MeasurementSet(torques=torques, deflections=clean,
                             torque_unit="Nm", deflection_unit="mm")
    best, _ = fb.select_degree(data)
    fitted = fb.fit_map(data, 3)
    coeff_err = float(np.max(np.abs((np.array(fitted.coefficients)
                                     - np.array(cubic)) / np.array(cubic))))
    noisefree_ok = best == 3 and coeff_err <= 1e-6

    sigma = 0.1
    design = np.vander(torques, 4)
    std_err = sigma * np.sqrt(np.diag(np.linalg.inv(design.T @ design)))
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(100):
        noisy = clean + rng.normal(0.0, sigma, size=torques.size)
        trial = fb.MeasurementSet(torques=torques, deflections=noisy,
                                  torque_unit="Nm", deflection_unit="mm")
        got = np.array(fb.fit_map(trial, 3).coefficients)
        if np.all(np.abs(got - np.array(cubic)) <= 3.0 * std_err):
            hits += 1

    value = fitted.evaluate(0.327)
    value_ok = abs(value - 5.77) <= 0.01
    elapsed = time.perf_counter() - start
    ok = noisefree_ok and hits >= 95 and value_ok and elapsed < 10.0
    _report(9, "torque-deflection map fitting", ok,
            f"auto degree=3 with coeff err {coeff_err:.2e} <= 1e-6; noisy "
            f"recovery {hits}/100 within 3 SE (>=95); map(0.327)={value:.4f} mm "
            f"(5.77 +- 0.01), {elapsed:.1f} s")


def test_10_linearization_oracle(model3):
    start = time.perf_counter()
    worst_a = worst_b = 0.0
    for tension in (0.0, 0.5, 1.0):
        eq = fb.solve_equilibrium(model3, tension)
        ss = fb.linearize(model3, eq)
        a_fd, b_fd = oracles.fd_jacobians(model3, eq)
        ok_a = oracles.entrywise_close(ss.a, a_fd, rel=1e-6, abs_floor=1e-9)
        ok_b = oracles.entrywise_close(ss.b, b_fd, rel=1e-6, abs_floor=1e-9)
        assert ok_a and ok_b, f"Jacobian mismatch at {tension} N"
        worst_a = max(worst_a, float(np.max(np.abs(ss.a - a_fd))))
        worst_b = max(worst_b, float(np.max(np.abs(ss.b - b_fd))))
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _report(10, "linearization vs finite-difference Jacobians", ok,
            f"max |A - A_fd|={worst_a:.2e}, max |B - B_fd|={worst_b:.2e} "
            f"(entrywise 1e-6 rel, 1e-9 floor), {elapsed:.1f} s")
