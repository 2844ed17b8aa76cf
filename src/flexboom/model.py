"""Assumed-modes structural model of a cable-actuated cantilever boom.

The boom is an undamped Euler-Bernoulli beam clamped at the root, with
transverse deflection discretized as w(x, t) = psi(x) q(t) over a monomial
basis psi(x) = [x^2, x^3, ...] (each basis function satisfies the clamped
root conditions w(0) = 0, w'(0) = 0); ``evaluate_basis`` is its one
definition.  A single cable runs from the root, over evenly spaced spreader
standoffs, to an attachment post at the tip offset by ``cable_offset`` from
the neutral axis.  Cable tension u enters the dynamics in two ways:

* a follower moment ``cable_offset * u`` at the tip (generalized force
  h * psi'(L)^T u), and
* transverse kink reactions along the cable route, linear in both the modal
  coordinates and the tension, summed over the route into the constant
  spreader matrix so the force reads (spreader_matrix / node_spacing) q u.

Mass and stiffness matrices are assembled in closed form (the basis is
polynomial, so the energy integrals are exact); no numeric quadrature is
involved.  All solves against the mass or stiffness matrices are done on
diagonally equilibrated copies: the raw monomial basis spans many orders
of magnitude at full boom length, and equilibration keeps the
factorizations accurate for mode counts up to at least six.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "BoomParams",
    "BasisSet",
    "State",
    "StructuralModel",
    "evaluate_basis",
    "build_spreader_matrix",
    "assemble_matrices",
    "equilibrate",
    "actuation_force",
    "state_rate",
    "dynamics_rhs",
    "tip_deflection",
    "tip_rate",
    "total_energy",
]

# Relative tolerance for "a spreader node sits at the tip attachment".
_TIP_TOL = 1e-9


@dataclass(frozen=True)
class BoomParams:
    """Physical constants of the boom and its cable rigging.

    Defaults are the nominal simulation values for a 29.4 m deployable
    composite boom.
    """

    length: float = 29.4               # m
    linear_density: float = 0.1        # kg/m
    elastic_modulus: float = 228e9     # Pa
    second_moment: float = 4.99e-10    # m^4
    cable_offset: float = 0.1          # m, standoff of cable from neutral axis
    spreader_count: int = 10
    node_spacing: float = 2.94         # m, distance between cable nodes

    def __post_init__(self) -> None:
        for name in ("length", "linear_density", "elastic_modulus",
                     "second_moment", "cable_offset", "node_spacing"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not (isinstance(self.spreader_count, (int, np.integer)) and self.spreader_count >= 0):
            raise ValueError(f"spreader_count must be an int >= 0, got {self.spreader_count!r}")
        if self.spreader_count * self.node_spacing > self.length * (1.0 + _TIP_TOL):
            raise ValueError(
                "spreader nodes must lie on the boom: "
                f"spreader_count * node_spacing = {self.spreader_count * self.node_spacing} "
                f"exceeds length = {self.length}"
            )

    @property
    def bending_stiffness(self) -> float:
        """EI (N m^2)."""
        return self.elastic_modulus * self.second_moment

    def scaled(self, e_scale: float = 1.0, rho_scale: float = 1.0,
               i_scale: float = 1.0) -> "BoomParams":
        """Copy with elastic modulus, linear density, second moment scaled."""
        return replace(self, linear_density=self.linear_density * rho_scale,
                       elastic_modulus=self.elastic_modulus * e_scale,
                       second_moment=self.second_moment * i_scale)


@dataclass(frozen=True)
class BasisSet:
    """Monomial assumed-mode basis x^p, exponents strictly increasing, p >= 2.

    Exponents >= 2 enforce the clamped root: every basis function and its
    first derivative vanish at x = 0.
    """

    exponents: tuple[int, ...] = (2, 3, 4)

    def __post_init__(self) -> None:
        if len(self.exponents) < 1:
            raise ValueError("basis needs at least one exponent")
        if min(self.exponents) < 2:
            raise ValueError(f"minimum exponent is 2, got {min(self.exponents)}")
        if any(b <= a for a, b in zip(self.exponents, self.exponents[1:])):
            raise ValueError(f"exponents must be strictly increasing: {self.exponents}")

    @classmethod
    def with_mode_count(cls, n: int) -> "BasisSet":
        """Default basis for n modes: consecutive monomials x^2 .. x^(n+1)."""
        if n < 1:
            raise ValueError(f"mode count must be >= 1, got {n}")
        return cls(exponents=tuple(range(2, n + 2)))

    @property
    def mode_count(self) -> int:
        return len(self.exponents)


def evaluate_basis(basis: BasisSet, x: float | np.ndarray, length: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows psi(x), psi'(x), psi''(x): the one definition of the mode shapes.

    ``x`` is a position or an array of positions, and each row gets a last
    axis over the basis (1-d rows for a scalar x).  Raises ValueError if any
    position lies outside [0, length] or is NaN.
    """
    xs = np.asarray(x, dtype=float)[..., None]
    if not ((0.0 <= xs) & (xs <= length)).all():
        raise ValueError(f"x = {x} outside the boom span [0, {length}]")
    # One exponent per entry: numpy turns a broadcast exponent of 2 into x * x,
    # which rounds unlike its pow, and array calls would differ from scalar ones.
    p = np.zeros_like(xs) + basis.exponents
    return xs ** p, p * xs ** (p - 1.0), p * (p - 1.0) * xs ** (p - 2.0)


def build_spreader_matrix(params: BoomParams, basis: BasisSet) -> np.ndarray:
    """Spreader reaction matrix of the taut-cable kink model.

    The cable route runs from the root anchor (w = 0) through the spreader
    nodes x_i = i * node_spacing (i = 1..spreader_count) to the tip
    attachment (w = w(L)).  The transverse reaction at an interior route
    point under tension u is the discrete-curvature kink force
    u * (w_prev - 2 w_node + w_next) / node_spacing, and the matrix is the
    sum over those points of psi(x_node)^T (psi(x_prev) - 2 psi(x_node) +
    psi(x_next)).  A node coincident with the tip attachment is not on the
    route: the kink there belongs to the attachment, whose moment is
    carried by the tip-slope term of the actuation force.

    The assembled matrix enters the dynamics as (spreader_matrix / dx) q u
    and softens the effective stiffness under tension, which is what makes
    the equilibrium tip deflection grow superlinearly with tension.
    Raises ValueError if the sum overflows (from 106 modes on the nominal boom).
    """
    length = params.length
    nodes = params.node_spacing * np.arange(params.spreader_count + 1)
    route = np.append(nodes[nodes < length - _TIP_TOL * length], length)
    psi = evaluate_basis(basis, route, length)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        kink = psi[:-2] - 2.0 * psi[1:-1] + psi[2:]
        # Summed in route order: a matrix product, or numpy's pairwise reduction
        # (at one mode the node axis is its inner loop), would reorder the sum.
        spreader = sum(psi[1:-1, :, None] * kink[:, None, :], np.zeros((basis.mode_count,) * 2))
    return _finite(spreader, basis, length)


def _finite(matrices: np.ndarray, basis: BasisSet, length: float) -> np.ndarray:
    """``matrices`` unchanged, or the one ValueError for a closed-form overflow."""
    if np.isfinite(matrices).all():
        return matrices
    raise ValueError(f"{basis.mode_count} modes overflow the closed-form matrices "
                     f"of a {length} m boom")


@dataclass(frozen=True)
class State:
    """Modal coordinates and rates; non-finite entries mean integration failure."""

    q: np.ndarray
    q_rate: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "q_rate", np.atleast_1d(np.asarray(self.q_rate, dtype=float)))
        if self.q.shape != self.q_rate.shape:
            raise ValueError("q and q_rate must have the same shape")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.q_rate])

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "State":
        x = np.asarray(x, dtype=float)
        n = x.size // 2
        return cls(q=x[:n], q_rate=x[n:])


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StructuralModel:
    """Assembled discretization: immutable after construction, safe to share.

    ``mass_matrix`` and ``stiffness_matrix`` are the raw closed-form energy
    matrices in the monomial coordinates; ``spreader_matrix`` is the cable
    reaction matrix (enters the force as spreader_matrix / node_spacing);
    ``tip_row`` and ``tip_slope`` are psi(L) and psi'(L).  ``tip_row`` is
    also the diagonal equilibration scale (see ``equilibrate``).
    ``critical_tension`` is the first positive tension (N) at which
    ``effective_stiffness`` turns singular (inf when no positive tension
    does); static equilibria exist only below it.

    The private fields cache the equilibrated mass factorization and the
    stacked state-rate operator; read them through ``mass_solve`` and
    ``state_rate``, the one definition of the dynamics.
    """

    params: BoomParams
    basis: BasisSet
    mass_matrix: np.ndarray = field(repr=False)
    stiffness_matrix: np.ndarray = field(repr=False)
    spreader_matrix: np.ndarray = field(repr=False)
    tip_row: np.ndarray = field(repr=False)
    tip_slope: np.ndarray = field(repr=False)
    critical_tension: float
    _mass_chol: tuple = field(repr=False)
    _rate_op: np.ndarray = field(repr=False)      # R, (2+4n) x 2n; see state_rate
    _input_rate: np.ndarray = field(repr=False)   # (0, M^-1 h psi'(L)^T)

    @property
    def mode_count(self) -> int:
        return self.basis.mode_count

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs through the cached equilibrated Cholesky factor."""
        return _mass_solve(self._mass_chol, self.tip_row,
                           np.asarray(rhs, dtype=float))

    def effective_stiffness(self, tension: float) -> np.ndarray:
        """Stiffness under constant cable tension: K - spreader_matrix * tension / dx."""
        return self.stiffness_matrix - self.spreader_matrix * (
            tension / self.params.node_spacing)


def equilibrate(matrix: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """D^-1 matrix D^-1 with D = diag(scale); A x = b becomes (D^-1 A D^-1)(D x) = b / scale."""
    return matrix / scale[:, None] / scale[None, :]


def _mass_solve(mass_chol: tuple, scale: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    s = scale if rhs.ndim == 1 else scale[:, None]
    return cho_solve(mass_chol, rhs / s) / s


def _first_critical_tension(stiffness: np.ndarray, spreader: np.ndarray,
                            scale: np.ndarray) -> float:
    """Smallest T > 0 with det(stiffness - T * spreader) = 0, else inf.

    The roots are T = 1/mu for the real eigenvalues mu > 0 of
    stiffness^-1 spreader, computed on the equilibrated matrices; the
    stiffness is positive definite, so mu = 0 (no spreader coupling) maps
    to no root at all.  Eigenvalues with |imag| <= 1e-9 |mu| count as real,
    so a double root that rounding splits into a complex pair is not missed.
    """
    mu = np.linalg.eigvals(np.linalg.solve(equilibrate(stiffness, scale),
                                           equilibrate(spreader, scale)))
    real = mu.real[(np.abs(mu.imag) <= 1e-9 * np.abs(mu)) & (mu.real > 0.0)]
    return float(1.0 / real.max()) if real.size else float("inf")


def assemble_matrices(params: BoomParams, basis: BasisSet) -> StructuralModel:
    """Assemble mass, stiffness, spreader, and tip quantities in closed form.

    A model is fully described by (params, basis); the cantilever with no
    spreader reactions is ``dataclasses.replace(params, spreader_count=0)``.
    M_jk = rho * L^(pj+pk+1) / (pj+pk+1) and
    K_jk = EI * pj(pj-1) pk(pk-1) * L^(pj+pk-3) / (pj+pk-3)
    are the exact monomial integrals of the kinetic and strain energies.
    The first critical tension (see ``StructuralModel``) is computed here
    once, so per-tension solves only compare against it.
    Raises ValueError if a matrix overflows (from about 103 modes on the
    nominal boom) or the mass matrix is not positive definite (from about
    13 modes, where the monomial basis is numerically dependent).
    """
    p = np.asarray(basis.exponents, dtype=float)
    length = params.length
    rho = params.linear_density
    ei = params.bending_stiffness

    psum = p[:, None] + p[None, :]
    curv = p * (p - 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        mass = rho * length ** (psum + 1.0) / (psum + 1.0)
        stiffness = ei * np.outer(curv, curv) * length ** (psum - 3.0) / (psum - 3.0)
    mass, stiffness = _finite(np.stack((mass, stiffness)), basis, length)
    spreader = build_spreader_matrix(params, basis)

    tip_row, tip_slope, _ = evaluate_basis(basis, length, length)
    spreader_per_dx = spreader / params.node_spacing

    # Equilibrate by the basis scale at the tip before factorizing: the raw
    # matrices are Hilbert-like with columns spanning ~L^(2n) in magnitude.
    try:
        mass_chol = cho_factor(equilibrate(mass, tip_row), lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("mass matrix is not positive definite") from exc

    # Rows of R x, for x = (q, q_rate): w_tip, w_rate, then the unforced rate
    # (q_rate, -M^-1 K q), then the part the tension multiplies,
    # (0, M^-1 spreader_matrix q / dx).
    n = basis.mode_count
    rate_op = np.zeros((2 + 4 * n, 2 * n))
    rate_op[0, :n] = tip_row
    rate_op[1, n:] = tip_row
    rate_op[2:2 + n, n:] = np.eye(n)
    rate_op[2 + n:2 + 2 * n, :n] = -_mass_solve(mass_chol, tip_row, stiffness)
    rate_op[2 + 3 * n:, :n] = _mass_solve(mass_chol, tip_row, spreader_per_dx)
    input_rate = np.concatenate((np.zeros(n), _mass_solve(
        mass_chol, tip_row, params.cable_offset * tip_slope)))

    return StructuralModel(
        params=params,
        basis=basis,
        mass_matrix=_readonly(mass),
        stiffness_matrix=_readonly(stiffness),
        spreader_matrix=_readonly(spreader),
        tip_row=_readonly(tip_row),
        tip_slope=_readonly(tip_slope),
        critical_tension=_first_critical_tension(stiffness, spreader_per_dx, tip_row),
        _mass_chol=mass_chol,
        _rate_op=_readonly(rate_op),
        _input_rate=_readonly(input_rate),
    )


def actuation_force(model: StructuralModel, q: np.ndarray, u: float) -> np.ndarray:
    """Generalized cable force f(q, u) = (spreader_matrix q / dx + h psi'(L)^T) u.

    The one definition of the cable load: the equilibrium right-hand side is
    f(0, T) and the linearized input vector is df/du = f(q_eq, 1).
    """
    q = np.asarray(q, dtype=float)
    return (model.spreader_matrix @ q / model.params.node_spacing
            + model.params.cable_offset * model.tip_slope) * u


def state_rate(model: StructuralModel, x: np.ndarray,
               tension_law: Callable[[float, float], float]) -> np.ndarray:
    """Rate of the stacked state x = (q, q_rate): the one definition of the dynamics.

    One product R x yields the tip deflection and rate, the unforced rate
    (q_rate, -M^-1 K q) and the part the tension multiplies,
    (0, M^-1 spreader_matrix q / dx).  ``tension_law(w_tip, w_rate)`` closes
    the loop with the cable tension u, and the rate is
    unforced + u (tension part + (0, M^-1 h psi'(L)^T)), which is
    (q_rate, M^-1 (f(q, u) - K q)).
    """
    y = model._rate_op @ x
    u = tension_law(y.item(0), y.item(1))
    split = x.size + 2
    return y[2:split] + u * (y[split:] + model._input_rate)


def dynamics_rhs(model: StructuralModel, state: State, u: float) -> State:
    """First-order dynamics: d/dt (q, q_rate) = (q_rate, M^-1 (f(q, u) - K q))."""
    return State.from_vector(state_rate(model, state.as_vector(),
                                        lambda w_tip, w_rate: u))


def tip_deflection(model: StructuralModel, q: np.ndarray) -> float:
    """Transverse tip deflection w(L) = psi(L) q (m)."""
    return float(model.tip_row @ np.asarray(q, dtype=float))


def tip_rate(model: StructuralModel, q_rate: np.ndarray) -> float:
    """Transverse tip deflection rate (m/s)."""
    return float(model.tip_row @ np.asarray(q_rate, dtype=float))


def total_energy(model: StructuralModel, state: State) -> tuple[float, float]:
    """Kinetic and potential energy (J)."""
    kinetic = 0.5 * float(state.q_rate @ model.mass_matrix @ state.q_rate)
    potential = 0.5 * float(state.q @ model.stiffness_matrix @ state.q)
    return kinetic, potential
