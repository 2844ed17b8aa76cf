import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

import flexboom as fb
import oracles


@pytest.fixture(scope="module")
def ss_at_1n(model3):
    return fb.linearize(model3, fb.solve_equilibrium(model3, 1.0))


def test_block_structure(model3, ss_at_1n):
    n = model3.mode_count
    assert np.array_equal(ss_at_1n.a[:n, :n], np.zeros((n, n)))
    assert np.array_equal(ss_at_1n.a[:n, n:], np.eye(n))
    assert np.array_equal(ss_at_1n.a[n:, n:], np.zeros((n, n)))
    assert np.array_equal(ss_at_1n.b[:n], np.zeros(n))
    assert np.array_equal(ss_at_1n.c[:n], np.zeros(n))
    assert np.array_equal(ss_at_1n.c[n:], model3.tip_row)
    assert ss_at_1n.d == 0.0


def test_zero_tension_blocks(model3):
    ss = fb.linearize(model3, fb.solve_equilibrium(model3, 0.0))
    n = model3.mode_count
    expected_ll = model3.mass_solve(-model3.stiffness_matrix)
    np.testing.assert_allclose(ss.a[n:, :n], expected_ll, rtol=1e-12)
    expected_b = model3.mass_solve(model3.params.cable_offset * model3.tip_slope)
    np.testing.assert_allclose(ss.b[n:], expected_b, rtol=1e-12)


@pytest.mark.parametrize("tension", [0.0, 0.5, 1.0])
def test_finite_difference_oracle(model3, tension):
    eq = fb.solve_equilibrium(model3, tension)
    ss = fb.linearize(model3, eq)
    a_fd, b_fd = oracles.fd_jacobians(model3, eq)
    assert oracles.entrywise_close(ss.a, a_fd, rel=1e-6, abs_floor=1e-9)
    assert oracles.entrywise_close(ss.b, b_fd, rel=1e-6, abs_floor=1e-9)


def test_finite_difference_oracle_random_tensions(model3):
    rng = np.random.default_rng(41)
    for tension in rng.uniform(0.0, 2.0, size=10):
        eq = fb.solve_equilibrium(model3, tension)
        ss = fb.linearize(model3, eq)
        a_fd, b_fd = oracles.fd_jacobians(model3, eq)
        assert oracles.entrywise_close(ss.a, a_fd, rel=1e-6, abs_floor=1e-9)
        assert oracles.entrywise_close(ss.b, b_fd, rel=1e-6, abs_floor=1e-9)


def test_eigenvalues_match_generalized_problem(model3):
    ss = fb.linearize(model3, fb.solve_equilibrium(model3, 0.0))
    omega_sq = sla.eigh(model3.stiffness_matrix, model3.mass_matrix,
                        eigvals_only=True)
    expected = np.sort(np.sqrt(omega_sq))
    eigs = ss.eigenvalues()
    assert np.max(np.abs(eigs.real)) <= 1e-6
    actual = np.sort(eigs.imag[eigs.imag > 0.0])
    np.testing.assert_allclose(actual, expected, rtol=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("tension", [0.0, 1.0, 2.0])
def test_eigenvalues_on_imaginary_axis(params, n, tension):
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(n))
    ss = fb.linearize(model, fb.solve_equilibrium(model, tension))
    assert np.max(np.abs(ss.eigenvalues().real)) <= 1e-6


def test_frequencies_soften_with_tension(model3):
    """Consistency with the increasing tension-deflection curve: more
    tension means a softer effective stiffness and a lower first mode."""
    first_modes = []
    tips = []
    for tension in (0.0, 0.5, 1.0, 1.5, 2.0):
        eq = fb.solve_equilibrium(model3, tension)
        ss = fb.linearize(model3, eq)
        eigs = ss.eigenvalues()
        first_modes.append(np.min(eigs.imag[eigs.imag > 0.0]))
        tips.append(eq.tip_deflection)
    assert np.all(np.diff(first_modes) < 0.0)
    assert np.all(np.diff(tips) > 0.0)


def test_anchor_state(model3, ss_at_1n):
    eq = fb.solve_equilibrium(model3, 1.0)
    np.testing.assert_array_equal(ss_at_1n.x_bar[:3], eq.modal_coords)
    assert np.array_equal(ss_at_1n.x_bar[3:], np.zeros(3))
    assert ss_at_1n.t_eq == 1.0


def test_structure_validation_rejects_bad_blocks(ss_at_1n):
    broken = ss_at_1n.a.copy()
    broken[0, 0] = 1.0
    with pytest.raises(ValueError):
        fb.StateSpaceModel(a=broken, b=ss_at_1n.b, c=ss_at_1n.c, d=0.0,
                           t_eq=1.0, x_bar=ss_at_1n.x_bar)


def _odd_a(ss):
    return {"a": np.zeros((3, 3))}


def _non_square_a(ss):
    return {"a": np.zeros((6, 8))}


def _skewed_top_right(ss):
    a = ss.a.copy()
    a[0, ss.mode_count] = 2.0
    return {"a": a}


def _b_drives_positions(ss):
    b = ss.b.copy()
    b[0] = 1.0
    return {"b": b}


def _non_finite_a(ss):
    a = ss.a.copy()
    a[ss.mode_count, 0] = np.nan
    return {"a": a}


@pytest.mark.parametrize("broken, message", [
    (_odd_a, "square with even size"),
    (_non_square_a, "square with even size"),
    (_skewed_top_right, "top-right block of A must be the identity"),
    (_b_drives_positions, "B must drive only the rate block"),
    (_non_finite_a, "must be finite"),
    (lambda ss: {"c": np.full_like(ss.c, np.inf)}, "must be finite"),
    (lambda ss: {"d": np.nan}, "must be finite"),
], ids=["odd", "non_square", "top_right", "b_positions", "a_nan", "c_inf", "d_nan"])
def test_structure_validation_names_the_broken_part(ss_at_1n, broken, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(ss_at_1n, **broken(ss_at_1n))


def test_replace_keeps_structure(ss_at_1n):
    n = ss_at_1n.mode_count
    c_position = np.concatenate([ss_at_1n.c[n:], np.zeros(n)])
    variant = dataclasses.replace(ss_at_1n, c=c_position, d=0.1)
    assert variant.d == 0.1
    assert np.array_equal(variant.a, ss_at_1n.a)


def test_plant_keeps_read_only_copies_of_its_arrays(ss_at_1n):
    # A plant is a value: writing to it fails, and editing the arrays it was
    # built from changes neither its matrices nor its response.
    arrays = {name: getattr(ss_at_1n, name).copy() for name in ("a", "b", "c", "x_bar")}
    ss = dataclasses.replace(ss_at_1n, **arrays)
    with pytest.raises(ValueError, match="read-only"):
        ss.a[0, 0] = 1.0
    for name in arrays:
        with pytest.raises(ValueError, match="read-only"):
            getattr(ss, name)[-1] = 1.0
    for array in arrays.values():
        array += 1.0
    for name in arrays:
        assert np.array_equal(getattr(ss, name), getattr(ss_at_1n, name)), name
    grid = fb.default_grid(300)
    assert np.array_equal(fb.frequency_response(ss, grid).response,
                          fb.frequency_response(ss_at_1n, grid).response)


def test_two_mode_flutter_onset_is_pinned(params):
    # Two modes never reach a critical tension, but the eigenvalues of
    # M^-1 K_eff turn complex between 25.855 and 25.86 N: linearize accepts
    # the first plant and refuses the second as flutter.
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(2))
    ss = fb.linearize(model, fb.solve_equilibrium(model, 25.855))
    assert np.max(np.abs(ss.eigenvalues().real)) <= 1e-12
    with pytest.raises(RuntimeError, match=r"imaginary axis by 8\.642e-03 at tension 25\.86 N"
                       r".*complex eigenvalues there \(flutter"):
        fb.linearize(model, fb.solve_equilibrium(model, 25.86))


def _toy_plant(rate_block):
    n = len(rate_block)
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = rate_block
    ones = np.concatenate([np.zeros(n), np.ones(n)])
    return fb.StateSpaceModel(a=a, b=ones, c=ones, d=0.0, t_eq=0.0, x_bar=np.zeros(2 * n))


def _assert_scipy_rate_schur(plant):
    """``plant.rate_schur`` holds the bits of scipy's balancing and Schur form
    and of numpy's 2-norm, read-only."""
    s_bal, scale, tri, unitary, s_norm = plant.rate_schur
    expected_bal, expected_scale = sla.matrix_balance(plant.rate_block, permute=False)
    expected_tri, expected_unitary = sla.schur(expected_bal)
    if np.any(np.diag(expected_tri, -1)):
        expected_tri, expected_unitary = sla.rsf2csf(expected_tri, expected_unitary)
    assert np.array_equal(s_bal, expected_bal)
    assert np.array_equal(scale, np.diag(expected_scale))
    assert np.array_equal(tri, expected_tri) and tri.dtype == expected_tri.dtype
    assert np.array_equal(unitary, expected_unitary)
    assert s_norm == np.linalg.norm(expected_bal, 2)
    assert not any(array.flags.writeable for array in (s_bal, scale, tri, unitary))


@pytest.mark.parametrize("n", range(1, 10))
def test_rate_schur_is_scipys_balanced_schur_form_bit_for_bit(params, n):
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(n))
    tensions = np.linspace(0.0, 0.9 * min(model.critical_tension, 10.0), 4)
    for plant in fb.linearize(model, [fb.solve_equilibrium(model, t) for t in tensions]):
        _assert_scipy_rate_schur(plant)


def test_rate_schur_of_a_complex_pair_is_scipys_complex_schur_form_bit_for_bit():
    # Eigenvalues -2 +- j sqrt(3): the real Schur form keeps a 2x2 block, which
    # rsf2csf converts.
    plant = _toy_plant(np.array([[-2.0, 3.0], [-1.0, -2.0]]))
    assert np.iscomplexobj(plant.rate_schur[2])
    _assert_scipy_rate_schur(plant)


def test_schur_refuses_with_linalg_error_where_dgees_fails(monkeypatch):
    # No small finite matrix is known to stop dgees's QR iteration, so a stand-in
    # reports the failure (info > 0) that LAPACK returns when it does not converge.
    import scipy.linalg.lapack

    dgees = scipy.linalg.lapack.dgees

    def failing(select, matrix, lwork):
        result = dgees(select, matrix, lwork=lwork)
        return result if lwork == -1 else (*result[:-1], 1)

    monkeypatch.setattr(scipy.linalg.lapack, "dgees", failing)
    with pytest.raises(np.linalg.LinAlgError, match="Schur form not found"):
        fb.linearization.schur(np.eye(2))


def _assert_inherits_scaled_factorisation(plant, parent, factor):
    """``plant``'s rate_schur is ``parent``'s times ``factor``, an exact
    balancing and Schur form of its own rate block, read-only."""
    s_bal, scale, tri, unitary, s_norm = plant.rate_schur
    p_bal, p_scale, p_tri, p_unitary, p_norm = parent.rate_schur
    assert np.array_equal(scale, p_scale) and np.array_equal(unitary, p_unitary)
    assert np.array_equal(tri, p_tri * factor)
    # The scale holds powers of 2, so balancing the scaled block by it is exact.
    assert np.array_equal(s_bal, plant.rate_block / scale[:, None] * scale[None, :])
    exact_norm = np.linalg.norm(s_bal, 2)
    assert s_norm == pytest.approx(exact_norm, rel=1e-14)
    # Measured at most 2.0e-15 over the three- and six-mode box plants.
    assert np.linalg.norm(unitary @ tri @ unitary.conj().T - s_bal, 2) <= 1e-13 * exact_norm
    assert not any(array.flags.writeable for array in (s_bal, scale, tri, unitary))


@pytest.mark.parametrize("factor", [0.64 / 1.2, 1.0, 0.99 / 0.9, 1.44 / 0.8],
                         ids=["0.53", "1", "1.1", "1.8"])
@pytest.mark.parametrize("plant", ["three_modes", "complex_pair"])
def test_rate_scaled_plant_inherits_the_scaled_factorisation(monkeypatch, ss_at_1n, plant,
                                                             factor):
    # A fresh three-mode parent, so its own factorisation is counted below.
    # Eigenvalues -2 +- j sqrt(3) keep a 2x2 block in the real Schur form, so the
    # complex pair's factorisation is complex.
    parent = dataclasses.replace(ss_at_1n) if plant == "three_modes" else _toy_plant(
        np.array([[-2.0, 3.0], [-1.0, -2.0]]))
    schur, calls = fb.linearization.schur, []
    monkeypatch.setattr(fb.linearization, "schur",
                        lambda matrix: calls.append(matrix) or schur(matrix))
    n = parent.mode_count
    b = parent.b / 1.2
    scaled = parent.rate_scaled(factor, b, 0.5)
    assert len(calls) == 1  # the parent's factorisation, read by the scaled plant
    a = parent.a.copy()
    a[n:, :n] *= factor
    assert np.array_equal(scaled.a, a) and np.array_equal(scaled.b, b)
    assert scaled.t_eq == 0.5 and scaled.d == parent.d
    assert np.array_equal(scaled.c, parent.c) and np.array_equal(scaled.x_bar, parent.x_bar)
    assert not any(getattr(scaled, name).flags.writeable for name in ("a", "b", "c", "x_bar"))
    _assert_inherits_scaled_factorisation(scaled, parent, factor)

    # A replaced copy computes its own factorisation; the responses agree to
    # 2.0e-11 (measured over the three-mode box plants).
    fresh = dataclasses.replace(scaled)
    grid = fb.default_grid()
    expected = fb.frequency_response(fresh, grid)
    assert len(calls) == 2
    fr = fb.frequency_response(scaled, grid)
    assert np.array_equal(fr.omega, expected.omega) and fr.nudged == expected.nudged
    assert np.max(np.abs(fr.response - expected.response)) <= (
        1e-10 * np.max(np.abs(expected.response)))


def test_rate_scaled_plant_carries_only_its_fields_and_factorisation(ss_at_1n):
    # A value cached on the parent later (a stand-in here) is not handed on.
    parent = dataclasses.replace(ss_at_1n)
    vars(parent)["derived_stand_in"] = object()
    scaled = parent.rate_scaled(1.1, parent.b / 1.2, 0.5)
    fields = {field.name for field in dataclasses.fields(fb.StateSpaceModel)}
    assert set(vars(scaled)) == fields | {"rate_schur"}


@pytest.mark.parametrize("plant", ["three_modes", "complex_pair"])
def test_rate_scaled_plant_is_the_plant_the_constructor_builds(ss_at_1n, plant):
    parent = ss_at_1n if plant == "three_modes" else _toy_plant(
        np.array([[-2.0, 3.0], [-1.0, -2.0]]))
    n, factor, b = parent.mode_count, 1.1, parent.b / 1.2
    a = parent.a.copy()
    a[n:, :n] *= factor
    scaled = parent.rate_scaled(factor, b, np.float32(0.5))
    built = fb.StateSpaceModel(a=a, b=b, c=parent.c, d=parent.d, t_eq=np.float32(0.5),
                               x_bar=parent.x_bar)
    assert type(scaled) is fb.StateSpaceModel
    assert list(vars(scaled)) == [*vars(built), "rate_schur"]
    for name in ("a", "b", "c", "x_bar"):
        value, expected = getattr(scaled, name), getattr(built, name)
        assert np.array_equal(value, expected) and value.dtype == expected.dtype, name
        assert value.shape == expected.shape and not value.flags.writeable, name
    assert (scaled.d, scaled.t_eq) == (built.d, built.t_eq) == (parent.d, 0.5)
    assert type(scaled.d) is type(scaled.t_eq) is float
    # The caller's b is copied, not kept.
    assert not np.shares_memory(scaled.b, b)


@pytest.mark.parametrize("factor", [0.0, -0.5, np.nan, np.inf, -np.inf])
def test_rate_scaled_refuses_a_factor_that_is_not_finite_and_positive(ss_at_1n, factor):
    with pytest.raises(ValueError, match="rate factor must be finite and > 0"):
        ss_at_1n.rate_scaled(factor, ss_at_1n.b, 1.0)


def _with(values: np.ndarray, index: int, value: float) -> np.ndarray:
    values = values.copy()
    values[index] = value
    return values


@pytest.mark.parametrize("case", ["overflow", "nan_b", "b_moves_q", "b_length"])
def test_rate_scaled_refuses_what_scaling_or_a_new_b_can_break(ss_at_1n, case):
    # The checks the constructor would make on the scaled plant, with its messages.
    b, n = ss_at_1n.b, ss_at_1n.mode_count
    factor, message = 1.0, "state-space matrices must be finite"
    if case == "overflow":
        factor = np.finfo(float).max
    elif case == "nan_b":
        b = _with(b, n, np.nan)
    elif case == "b_moves_q":
        b, message = _with(b, 0, 1.0), "B must drive only the rate block"
    else:
        b, message = b[1:], "cannot reshape"
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        ss_at_1n.rate_scaled(factor, b, 1.0)


@pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0), (0.8, 1.2, 0.8), (1.2, 0.8, 1.2)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stacked_linearize_is_the_single_calls_bit_for_bit(params, n, scales):
    # Each column of the stacked mass solves must carry the single solve's bits; if
    # a BLAS build breaks that, the stacking in ``linearize`` is what must change.
    model = fb.assemble_matrices(params.scaled(*scales), fb.BasisSet.with_mode_count(n))
    points = [fb.solve_equilibrium(model, t)
              for t in np.linspace(0.0, 0.9 * min(model.critical_tension, 10.0), 6)]
    for stack in (points, points[2:3], tuple(reversed(points))):
        plants = fb.linearize(model, stack)
        assert isinstance(plants, list) and len(plants) == len(stack)
        for plant, point in zip(plants, stack):
            single = fb.linearize(model, point)
            for name in ("a", "b", "c", "x_bar"):
                assert np.array_equal(getattr(plant, name), getattr(single, name)), name
            assert plant.t_eq == single.t_eq == point.tension and plant.d == single.d
    assert fb.linearize(model, ()) == []


def test_stack_refuses_with_its_first_fluttering_point(params):
    # Two modes flutter from about 25.86 N: the stack's refusal is the single call's
    # at its first fluttering point, whatever stands before or after it.
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(2))
    steady, flutter, later = (fb.solve_equilibrium(model, t) for t in (1.0, 26.0, 30.0))
    with pytest.raises(RuntimeError) as single:
        fb.linearize(model, flutter)
    assert "drift off the imaginary axis" in str(single.value)
    for stack in ([flutter], [steady, flutter, later], (steady, flutter, steady)):
        with pytest.raises(RuntimeError) as refused:
            fb.linearize(model, stack)
        assert str(refused.value) == str(single.value)
