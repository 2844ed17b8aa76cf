import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flexboom as fb
import oracles
from flexboom.model import equilibrate

finite_q = st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=3)


def test_params_validation():
    with pytest.raises(ValueError):
        fb.BoomParams(length=-1.0)
    with pytest.raises(ValueError):
        fb.BoomParams(spreader_count=-1)
    with pytest.raises(ValueError):
        # spreader nodes off the end of the boom
        fb.BoomParams(spreader_count=11, node_spacing=2.94)


def test_basis_validation():
    with pytest.raises(ValueError):
        fb.BasisSet(exponents=(1, 2))
    with pytest.raises(ValueError):
        fb.BasisSet(exponents=(2, 2, 3))
    with pytest.raises(ValueError):
        fb.BasisSet.with_mode_count(0)
    assert fb.BasisSet.with_mode_count(5).exponents == (2, 3, 4, 5, 6)
    with pytest.raises(ValueError, match="at least one exponent"):
        fb.BasisSet(exponents=())


def test_state_shapes_must_match():
    with pytest.raises(ValueError, match="same shape"):
        fb.State(q=[1.0, 2.0], q_rate=[0.0])


def test_mass_matrix_not_positive_definite_from_13_modes(params):
    with pytest.raises(ValueError, match="mass matrix is not positive definite"):
        fb.assemble_matrices(params, fb.BasisSet.with_mode_count(13))


@pytest.mark.parametrize("n", [103, 104, 150])
def test_overflowing_mode_count_is_refused_without_warnings(params, n):
    # The closed-form stiffness overflows from 103 modes, the mass from 104.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{n} modes overflow the closed-form "
                                             "matrices of a 29.4 m boom$"):
            fb.assemble_matrices(params, fb.BasisSet.with_mode_count(n))


@pytest.mark.parametrize("n", [120, 150])
def test_overflowing_spreader_matrix_is_refused_without_warnings(params, n):
    # The spreader sum overflows from 106 modes; it is refused where it is built.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{n} modes overflow the closed-form "
                                             "matrices of a 29.4 m boom$"):
            fb.build_spreader_matrix(params, fb.BasisSet.with_mode_count(n))


def test_evaluate_basis_clamped_root(basis3, params):
    psi, dpsi, ddpsi = fb.evaluate_basis(basis3, 0.0, params.length)
    assert np.array_equal(psi, [0.0, 0.0, 0.0])
    assert np.array_equal(dpsi, [0.0, 0.0, 0.0])
    assert np.array_equal(ddpsi, [2.0, 0.0, 0.0])


def test_evaluate_basis_monomial_identities(basis3, params):
    psi, dpsi, ddpsi = fb.evaluate_basis(basis3, 1.0, params.length)
    assert np.array_equal(psi, [1.0, 1.0, 1.0])
    assert np.array_equal(dpsi, [2.0, 3.0, 4.0])
    assert np.array_equal(ddpsi, [2.0, 6.0, 12.0])


def test_evaluate_basis_at_tip(basis3, params):
    psi, dpsi, _ = fb.evaluate_basis(basis3, 29.4, params.length)
    np.testing.assert_allclose(psi, [864.36, 25412.184, 747118.2096], rtol=1e-12)
    np.testing.assert_allclose(dpsi, [58.8, 2593.08, 101648.736], rtol=1e-12)


def test_evaluate_basis_domain(basis3, params):
    with pytest.raises(ValueError):
        fb.evaluate_basis(basis3, -0.1, params.length)
    with pytest.raises(ValueError):
        fb.evaluate_basis(basis3, params.length + 0.1, params.length)


def test_matrices_symmetric_exactly(model3):
    assert np.array_equal(model3.mass_matrix, model3.mass_matrix.T)
    assert np.array_equal(model3.stiffness_matrix, model3.stiffness_matrix.T)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_matrices_positive_definite(params, n):
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(n))
    # The raw monomial matrices (condition ~1e19 at n=6) are beyond float64's
    # eigvalsh; D^-1 A D^-1 with positive diagonal D is a congruence, so by
    # Sylvester's law of inertia it has A's definiteness, and it is resolvable.
    for matrix in (model.mass_matrix, model.stiffness_matrix):
        assert np.linalg.eigvalsh(equilibrate(matrix, model.tip_row)).min() > 0.0


def test_matrices_match_quadrature_oracle(params, basis3, model3):
    np.testing.assert_allclose(model3.mass_matrix,
                               oracles.quad_mass_matrix(params, basis3),
                               rtol=1e-10)
    np.testing.assert_allclose(model3.stiffness_matrix,
                               oracles.quad_stiffness_matrix(params, basis3),
                               rtol=1e-10)


def test_zero_elastic_modulus_zeroes_stiffness(basis3):
    # E cannot be zero by the params invariant; scale it down instead and
    # check K scales linearly with EI down to the floor.
    base = fb.BoomParams()
    small = fb.assemble_matrices(base.scaled(e_scale=1e-12), basis3)
    full = fb.assemble_matrices(base, basis3)
    np.testing.assert_allclose(small.stiffness_matrix,
                               full.stiffness_matrix * 1e-12, rtol=1e-12)


def test_density_scaling(params, basis3, model3):
    doubled = fb.assemble_matrices(params.scaled(rho_scale=2.0), basis3)
    np.testing.assert_allclose(doubled.mass_matrix, 2.0 * model3.mass_matrix,
                               rtol=1e-15)
    np.testing.assert_allclose(doubled.stiffness_matrix, model3.stiffness_matrix,
                               rtol=1e-15)


def test_spreader_matrix_empty_without_spreaders(basis3):
    params = fb.BoomParams(spreader_count=0)
    assert np.array_equal(fb.build_spreader_matrix(params, basis3),
                          np.zeros((3, 3)))


def test_actuation_force_zero_tension(model3):
    q = np.array([1e-3, 1e-5, 1e-7])
    assert np.array_equal(fb.actuation_force(model3, q, 0.0), np.zeros(3))


def test_actuation_force_at_zero_state(model3):
    force = fb.actuation_force(model3, np.zeros(3), 1.0)
    np.testing.assert_allclose(
        force, 0.1 * np.array([58.8, 2593.08, 101648.736]), rtol=1e-12)


@settings(max_examples=50)
@given(q=finite_q, u=st.floats(min_value=-5.0, max_value=5.0))
def test_actuation_force_linear_in_tension(model3, q, u):
    q = np.asarray(q)
    doubled = fb.actuation_force(model3, q, 2.0 * u)
    np.testing.assert_allclose(doubled, 2.0 * fb.actuation_force(model3, q, u),
                               rtol=1e-12, atol=1e-12)


def test_dynamics_rhs_unforced_equilibrium(model3):
    zero = fb.State(q=np.zeros(3), q_rate=np.zeros(3))
    deriv = fb.dynamics_rhs(model3, zero, 0.0)
    assert np.array_equal(deriv.as_vector(), np.zeros(6))


def test_dynamics_rhs_vanishes_at_forced_equilibrium(model3):
    eq = fb.solve_equilibrium(model3, 1.0)
    deriv = fb.dynamics_rhs(model3, fb.State(eq.modal_coords, np.zeros(3)), 1.0)
    assert np.linalg.norm(deriv.as_vector()) <= 1e-9


@settings(max_examples=50)
@given(q=finite_q, q_rate=finite_q, u=st.floats(min_value=-5.0, max_value=5.0))
def test_dynamics_rhs_linear_in_tension(model3, q, q_rate, u):
    state = fb.State(np.asarray(q), np.asarray(q_rate))
    d1 = fb.dynamics_rhs(model3, state, u).as_vector()
    d0 = fb.dynamics_rhs(model3, state, 0.0).as_vector()
    d2 = fb.dynamics_rhs(model3, state, 2.0 * u).as_vector()
    # d2 - d0 cancels the tension-free part -K q, so its rounding is a few
    # ulps of |d0| (up to ~1e7 for |q| <= 1e3), which 1e-9 alone cannot hold.
    rounding = 16.0 * np.finfo(float).eps * np.max(np.abs(d0))
    np.testing.assert_allclose(d2 - d0, 2.0 * (d1 - d0), rtol=1e-9,
                               atol=1e-9 + rounding)


def test_tip_deflection_identities(model3):
    assert fb.tip_deflection(model3, np.zeros(3)) == 0.0
    np.testing.assert_allclose(fb.tip_deflection(model3, np.array([1.0, 0.0, 0.0])),
                               29.4 ** 2, rtol=1e-14)


def test_tip_matches_equilibrium_module(model3):
    eq = fb.solve_equilibrium(model3, 1.0)
    assert fb.tip_deflection(model3, eq.modal_coords) == pytest.approx(
        eq.tip_deflection, rel=1e-14)


def test_energy_zero_state(model3):
    kinetic, potential = fb.total_energy(model3, fb.State(np.zeros(3), np.zeros(3)))
    assert kinetic == 0.0 and potential == 0.0


@settings(max_examples=50)
@given(q=finite_q, q_rate=finite_q)
def test_energy_nonnegative(model3, q, q_rate):
    kinetic, potential = fb.total_energy(model3, fb.State(np.asarray(q), np.asarray(q_rate)))
    assert kinetic >= 0.0
    assert potential >= 0.0


def test_clamped_root_for_random_shapes(model3):
    rng = np.random.default_rng(7)
    psi0, dpsi0, _ = fb.evaluate_basis(model3.basis, 0.0, model3.params.length)
    for _ in range(20):
        q = rng.normal(size=3) * np.array([1e-3, 1e-5, 1e-7])
        assert psi0 @ q == 0.0
        assert dpsi0 @ q == 0.0


def test_model_arrays_read_only(model3):
    with pytest.raises(ValueError):
        model3.mass_matrix[0, 0] = 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dynamics_rhs_matches_dense_solve(params, n):
    """The stacked rate operator against a dense LU solve of the public matrices.

    The oracle is (q_rate, M^-1 (f(q, u) - K q)) with M^-1 applied by
    np.linalg.solve on the equilibrated mass matrix.  Measured worst
    disagreement over 1000 draws per n, relative to the summed sizes of the
    two mass-solved terms: 3.2 eps cond(M) at n = 1 and below 0.35 eps cond(M)
    for n = 2..6 (cond(M) of the equilibrated matrix runs from 1 to 1.3e9),
    so 16 eps cond(M) holds with margin while a misplaced block, an O(1)
    error, does not.
    """
    model = fb.assemble_matrices(params, fb.BasisSet.with_mode_count(n))
    scale = model.tip_row
    mass = equilibrate(model.mass_matrix, scale)
    tol = 16.0 * np.finfo(float).eps * np.linalg.cond(mass)

    def solve(load):
        return np.linalg.solve(mass, load / scale) / scale

    rng = np.random.default_rng(n)
    for u in (0.0, 0.8, -1.5):
        q = rng.normal(size=n) / scale
        q_rate = rng.normal(size=n) / scale
        rate = fb.dynamics_rhs(model, fb.State(q, q_rate), u)
        assert np.array_equal(rate.q, q_rate)
        force = solve(fb.actuation_force(model, q, u))
        restoring = solve(model.stiffness_matrix @ q)
        size = np.max(np.abs(force * scale)) + np.max(np.abs(restoring * scale))
        error = np.max(np.abs(rate.q_rate - (force - restoring)) * scale)
        assert error <= tol * size
        # The same product hands the tension law the tip measurements.
        measured = []
        fb.state_rate(model, np.concatenate((q, q_rate)),
                      lambda w_tip, w_rate: measured.append((w_tip, w_rate)) or u)
        np.testing.assert_allclose(measured, [(fb.tip_deflection(model, q),
                                               fb.tip_rate(model, q_rate))],
                                   rtol=1e-13)


# Route layouts: the default's last node sits on the tip and gives no row;
# nine nodes at 3 m end the route 2.4 m short of the tip.
SPREADER_LAYOUTS = {
    "default": {},
    "no_spreaders": {"spreader_count": 0},
    "one_spreader": {"spreader_count": 1},
    "five_spreaders": {"spreader_count": 5},
    "nine_at_3m": {"spreader_count": 9, "node_spacing": 3.0},
}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("layout", SPREADER_LAYOUTS.values(), ids=SPREADER_LAYOUTS.keys())
def test_spreader_matrix_matches_exact_kink_sum(layout, n):
    # Measured worst entrywise relative error on these layouts is 1.5e-14
    # (nine_at_3m, n >= 4); the bound leaves a factor of about 7.
    params = fb.BoomParams(**layout)
    basis = fb.BasisSet.with_mode_count(n)
    exact = oracles.exact_spreader_matrix(params, basis)
    assert oracles.entrywise_close(fb.build_spreader_matrix(params, basis),
                                   np.array(exact, dtype=float), rel=1e-13)


@pytest.mark.parametrize("n", range(1, 7))
def test_evaluate_basis_on_an_array_stacks_its_scalar_calls(params, n):
    # Enough positions that x * x and pow(x, 2) differ at some of them.
    basis = fb.BasisSet.with_mode_count(n)
    xs = np.linspace(0.0, params.length, 1000).reshape(10, 100)
    scalar_calls = [fb.evaluate_basis(basis, x, params.length) for x in xs.ravel()]
    for k, row in enumerate(fb.evaluate_basis(basis, xs, params.length)):
        stacked = np.array([rows[k] for rows in scalar_calls]).reshape(xs.shape + (n,))
        assert row.shape == stacked.shape
        assert row.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("bad", [-1e-9, 29.4 + 1e-9, np.nan])
def test_evaluate_basis_refuses_an_array_with_one_bad_position(basis3, params, bad):
    xs = np.array([0.0, 1.0, bad, params.length])
    with pytest.raises(ValueError, match="outside the boom span"):
        fb.evaluate_basis(basis3, xs, params.length)


@pytest.mark.parametrize("count", [2.5, 3.0, float("nan")])
def test_params_refuse_a_fractional_spreader_count(count):
    # The route takes spreader_count nodes; 2.5 must not quietly mean three.
    with pytest.raises(ValueError, match="spreader_count must be an int >= 0"):
        fb.BoomParams(spreader_count=count)
