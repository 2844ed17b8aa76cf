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

A model is its (params, basis): ``StructuralModel``'s constructor assembles
the mass and stiffness matrices in closed form (the basis is polynomial, so
the energy integrals are exact; no numeric quadrature is involved), the
spreader matrix and the tip rows, and freezes them.

scipy stays off the import path: the constructor factorises the mass matrix
with numpy, and ``mass_solve`` (the linearization and the dynamics operator)
loads ``scipy.linalg`` for ``cho_solve`` on its first call.  Loading
``scipy.linalg`` costs more than numpy itself, so a process that only builds
models and maps equilibria, as ``flexboom equilibrium`` and ``flexboom fit``
do, never pays for it.

``is_number`` is the library's one type test for a numeric input, and
``checked_number``, ``checked_real`` and ``checked_count`` its one rule: each
refuses a value that is not a real number, or a bad real number or count, and
returns the value it accepts as a Python float (an int for a count), which
the caller binds.  So no narrow numpy float carries its width past the check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

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

# The largest float: ``is_number`` refuses an int past it, which no float holds.
_FLOAT_MAX = float(np.finfo(float).max)

# Most modes a basis may have, refused before any n x n array (8 MB each here) is
# built; the mass matrix of a 1, 29.4 or 100 m boom already refuses 11, 13 or 11.
_MODE_CEILING = 1000


def is_number(value: object, *, integral: bool = False) -> bool:
    """True if ``value`` is a real number: a Python or numpy float or int, only
    an int with ``integral``, never a bool (it equals 0 or 1 but is no number),
    and, unless ``integral``, never an int no float can hold."""
    kinds = (int, np.integer) if integral else (float, int, np.floating, np.integer)
    return (type(value) is not bool and isinstance(value, kinds)
            and (integral or not isinstance(value, int) or abs(value) <= _FLOAT_MAX))


def checked_number(name: str, value: float) -> float:
    """``value`` as a Python float; ValueError naming ``name`` unless it is a
    real number (any range)."""
    if not is_number(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def checked_real(name: str, value: float, *, zero: bool = False) -> float:
    """``value`` as a Python float; ValueError naming ``name`` unless it is a
    real number whose float64 value is finite and > 0, or >= 0 with ``zero``."""
    number = float(value) if is_number(value) else math.nan
    if not (math.isfinite(number) and (0.0 <= number if zero else 0.0 < number)):
        raise ValueError(f"{name} must be finite and {'>=' if zero else '>'} 0, got {value!r}")
    return number


def checked_count(name: str, value: int, minimum: int) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is an int
    (a Python or numpy int, not a bool) that is >= ``minimum``."""
    if not (is_number(value, integral=True) and value >= minimum):
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
    return int(value)


def _check_mode_ceiling(count: int) -> None:
    if count > _MODE_CEILING:
        raise ValueError(f"mode count must be <= {_MODE_CEILING}, got {count}")


@dataclass(frozen=True)
class BoomParams:
    """Physical constants of the boom and its cable rigging.

    Defaults are the nominal simulation values for a 29.4 m deployable
    composite boom.  Each float field must be a real number, finite and > 0
    (kept as a Python float), and ``spreader_count`` an int >= 0; anything
    else (a bool, a string, a value that is not a real number or out of range)
    is a ValueError naming the field, as are spreader nodes that do not fit on
    the boom.
    """

    length: float = 29.4               # m
    linear_density: float = 0.1        # kg/m
    elastic_modulus: float = 228e9     # Pa
    second_moment: float = 4.99e-10    # m^4
    cable_offset: float = 0.1          # m, standoff of cable from neutral axis
    spreader_count: int = 10
    node_spacing: float = 2.94         # m, distance between cable nodes

    def __post_init__(self) -> None:
        names = ("length", "linear_density", "elastic_modulus",
                 "second_moment", "cable_offset", "node_spacing")
        for name in names:
            object.__setattr__(self, name, checked_real(name, getattr(self, name)))
        object.__setattr__(self, "spreader_count",
                           checked_count("spreader_count", self.spreader_count, 0))
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
        """Copy with elastic modulus, linear density, second moment scaled.

        Each scale must be a real number (a bool or a string is a ValueError
        naming it) and is applied as a float64.
        """
        e_scale = checked_number("e_scale", e_scale)
        rho_scale = checked_number("rho_scale", rho_scale)
        i_scale = checked_number("i_scale", i_scale)
        return replace(self, linear_density=self.linear_density * rho_scale,
                       elastic_modulus=self.elastic_modulus * e_scale,
                       second_moment=self.second_moment * i_scale)


@dataclass(frozen=True)
class BasisSet:
    """Monomial assumed-mode basis x^p, exponents strictly increasing, p >= 2.

    Exponents >= 2 enforce the clamped root: every basis function and its
    first derivative vanish at x = 0.  Each exponent must be a finite real
    number (a bool, a string, NaN or inf is a ValueError naming
    ``exponents[i]``); it need not be whole.
    """

    exponents: tuple[int, ...] = (2, 3, 4)

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.exponents) < 1:
            raise ValueError("basis needs at least one exponent")
        _check_mode_ceiling(len(self.exponents))
        for i, p in enumerate(self.exponents):
            if not (is_number(p) and math.isfinite(p)):
                raise ValueError(f"exponents[{i}] must be a finite real number, got {p!r}")
        if min(self.exponents) < 2:
            raise ValueError(f"minimum exponent is 2, got {min(self.exponents)}")
        if any(b <= a for a, b in zip(self.exponents, self.exponents[1:])):
            raise ValueError(f"exponents must be strictly increasing: {self.exponents}")

    @classmethod
    def with_mode_count(cls, n: int) -> "BasisSet":
        """Default basis for n modes: consecutive monomials x^2 .. x^(n+1), n <= 1000."""
        n = checked_count("mode count", n, 1)
        _check_mode_ceiling(n)
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


def _real_positive(values: np.ndarray) -> np.ndarray:
    """Real parts of the ``values`` with |imag| <= 1e-9 |value| and real part > 0:
    a double root that rounding splits into a complex pair still counts."""
    return values.real[(np.abs(values.imag) <= 1e-9 * np.abs(values)) & (values.real > 0.0)]


@dataclass(frozen=True)
class DeflectionMap:
    """Equilibrium tip deflection at constant tension T, in closed form.

    On the equilibrated system, with K^-1 S = V diag(lam) V^-1 for the
    stiffness K and the spreader matrix over dx S, the equilibrium
    (K - T S) q = T f of the unit-tension load f = f(0, 1) is
    q = V diag(T / (1 - lam T)) V^-1 K^-1 f, and the tip deflection is the
    sum of the equilibrated coordinates:
    w(T) = Re sum_i beta_i T / (1 - lam_i T), beta = (1^T V) * (V^-1 K^-1 f).
    ``eigenvalues`` and ``weights`` hold lam and beta (complex where lam
    is) and define the map; ``stationary`` is derived from them on first
    read.  The form is exact in exact arithmetic; in floats it loses
    accuracy as V grows ill-conditioned (see the ``equilibrium`` module).
    """

    eigenvalues: tuple[complex, ...]
    weights: tuple[complex, ...]

    def deflection(self, tension: float) -> float:
        """w(T) (m)."""
        return sum(b * tension / (1.0 - lam * tension)
                   for lam, b in zip(self.eigenvalues, self.weights)).real

    def slope(self, tension: float) -> float:
        """dw/dT = Re sum_i beta_i / (1 - lam_i T)^2 (m/N)."""
        return sum(b / (1.0 - lam * tension) ** 2
                   for lam, b in zip(self.eigenvalues, self.weights)).real

    @functools.cached_property
    def stationary(self) -> tuple[float, ...]:
        """Every T > 0 where dw/dT vanishes, ascending: between two of them w is monotone.

        They are the real positive roots of the numerator
        sum_i beta_i prod_{j != i} (1 - lam_j T)^2, a polynomial of degree
        2n - 2 with real coefficients (lam and beta come in conjugate pairs),
        held here in descending powers of T.
        """
        squares = [np.convolve([-x, 1.0], [-x, 1.0]) for x in self.eigenvalues]
        numerator = sum(b * functools.reduce(np.convolve, squares[:i] + squares[i + 1:], np.ones(1))
                        for i, b in enumerate(self.weights))
        return tuple(np.sort(_real_positive(np.roots(np.real(numerator)))).tolist())


@dataclass(frozen=True)
class StructuralModel:
    """The assembled discretization of (params, basis): immutable, safe to share.

    The two fields define the model, and the constructor builds its arrays in
    closed form (the basis is polynomial, so the energy integrals are exact):
    ``mass_matrix`` M_jk = rho * L^(pj+pk+1) / (pj+pk+1) and
    ``stiffness_matrix`` K_jk = EI * pj(pj-1) pk(pk-1) * L^(pj+pk-3) / (pj+pk-3)
    in the monomial coordinates; ``spreader_matrix``, the cable reaction
    matrix (``build_spreader_matrix``, entering the force as
    spreader_matrix / node_spacing); ``tip_row`` and ``tip_slope``, psi(L)
    and psi'(L).  The five arrays are read-only, and models compare and hash
    by (params, basis); the cantilever with no spreader reactions is the model
    of ``dataclasses.replace(params, spreader_count=0)``, and
    ``dataclasses.replace(model, params=...)`` builds a model that derives all
    of its own.  The constructor raises ValueError if M or K overflows (from
    about 103 modes on the nominal boom, refused before the spreader and tip
    rows are built), if the spreader matrix does (``build_spreader_matrix``),
    or if the mass matrix is not positive definite (from about 13 modes, where
    the monomial basis is numerically dependent).  All else the model exposes
    is derived on first read and then kept.

    ``critical_tension`` is the first positive tension (N) at which
    ``effective_stiffness`` turns singular (inf when no positive tension
    does); static equilibria exist only below it.  Every solve runs on the
    system equilibrated by ``tip_row`` (``equilibrate``): the raw monomial
    basis spans many orders of magnitude at full boom length, and the scaling
    keeps the factorizations accurate for mode counts up to at least six.
    ``rate_kernel``'s operator, the one definition of the dynamics, is built
    through the mass factorization, and one eigendecomposition of the
    equilibrated K^-1 (spreader_matrix / dx) gives ``critical_tension`` and
    ``deflection_map``, the closed form that ``tension_for_deflection``
    brackets and starts its polish from.
    """

    params: BoomParams
    basis: BasisSet

    def __post_init__(self) -> None:
        p = np.asarray(self.basis.exponents, dtype=float)
        length = self.params.length
        psum = p[:, None] + p[None, :]
        curv = p * (p - 1.0)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            mass = self.params.linear_density * length ** (psum + 1.0) / (psum + 1.0)
            stiffness = (self.params.bending_stiffness * np.outer(curv, curv)
                         * length ** (psum - 3.0) / (psum - 3.0))
        mass, stiffness = _finite(np.stack((mass, stiffness)), self.basis, length)
        spreader = build_spreader_matrix(self.params, self.basis)
        tip_row, tip_slope, _ = evaluate_basis(self.basis, length, length)
        for name, array in (("mass_matrix", mass), ("stiffness_matrix", stiffness),
                            ("spreader_matrix", spreader), ("tip_row", tip_row),
                            ("tip_slope", tip_slope)):
            object.__setattr__(self, name, _readonly(array))
        self._mass_chol  # refuses a mass matrix that is not positive definite

    @functools.cached_property
    def _mass_chol(self) -> np.ndarray:
        """Lower Cholesky factor L of the equilibrated mass matrix; ValueError if it has none."""
        # Equilibrate by the basis scale at the tip before factorizing: the raw
        # matrices are Hilbert-like with columns spanning ~L^(2n) in magnitude.
        try:
            return np.linalg.cholesky(equilibrate(self.mass_matrix, self.tip_row))
        except np.linalg.LinAlgError as exc:
            raise ValueError("mass matrix is not positive definite") from exc

    @functools.cached_property
    def _softening(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, V) of K^-1 (spreader_matrix / dx) on the equilibrated matrices."""
        return np.linalg.eig(np.linalg.solve(
            equilibrate(self.stiffness_matrix, self.tip_row),
            equilibrate(self.spreader_matrix / self.params.node_spacing, self.tip_row)))

    @functools.cached_property
    def critical_tension(self) -> float:
        """Smallest T > 0 with det(K - T spreader_matrix / dx) = 0, else inf: the roots
        are T = 1/lam for the real lam > 0 of ``_softening`` (K is positive definite)."""
        real = _real_positive(self._softening[0])
        return float(1.0 / real.max()) if real.size else float("inf")

    @property
    def mode_count(self) -> int:
        return self.basis.mode_count

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs through the cached Cholesky factor."""
        from scipy.linalg import cho_solve  # loads scipy.linalg: see the module docstring

        rhs = np.asarray(rhs, dtype=float)
        scale = self.tip_row if rhs.ndim == 1 else self.tip_row[:, None]
        return cho_solve((self._mass_chol, True), rhs / scale) / scale

    def stiffness_solve(self, tensions: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve K_eff(T) x = rhs, one row per tension of a 1-d stack, with one refinement pass."""
        scale = self.tip_row
        scaled = equilibrate(self.effective_stiffness(tensions[:, None, None]), scale)
        rhs_scaled = (rhs / scale)[..., None]
        x_scaled = np.linalg.solve(scaled, rhs_scaled)
        x_scaled += np.linalg.solve(scaled, rhs_scaled - scaled @ x_scaled)
        return x_scaled[..., 0] / scale

    def effective_stiffness(self, tension: float) -> np.ndarray:
        """Stiffness under constant cable tension: K - spreader_matrix * tension / dx."""
        return self.stiffness_matrix - self.spreader_matrix * (
            tension / self.params.node_spacing)

    @functools.cached_property
    def _rate_operator(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, (0, M^-1 h psi'(L)^T)) for ``rate_kernel``; its docstring names the rows of R x."""
        n = self.mode_count
        rate_op = np.zeros((2 + 4 * n, 2 * n))
        rate_op[0, :n] = self.tip_row
        rate_op[1, n:] = self.tip_row
        rate_op[2:2 + n, n:] = np.eye(n)
        rate_op[2 + n:2 + 2 * n, :n] = -self.mass_solve(self.stiffness_matrix)
        rate_op[2 + 3 * n:, :n] = self.mass_solve(
            self.spreader_matrix / self.params.node_spacing)
        input_rate = np.concatenate((np.zeros(n), self.mass_solve(
            self.params.cable_offset * self.tip_slope)))
        return _readonly(rate_op), _readonly(input_rate)

    def rate_kernel(self, law: Callable[[float, float, float], Sequence[float]]
                    ) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
        """Bind ``law(t, w_tip, w_rate)`` into rate(t, x, out): the rate of
        x = (q, q_rate), written into ``out`` and returned.

        The one definition of the dynamics, bound once per run; the law is
        called as given, and the cable tension u is the last item of its
        result (a ``ControlSample`` or a one-tuple).  One product R x yields
        the tip deflection and rate, the unforced rate (q_rate, -M^-1 K q)
        and the part the tension multiplies, (0, M^-1 spreader_matrix q / dx).
        R x is written into a buffer whose tail holds the input rate
        (0, M^-1 h psi'(L)^T), so the unforced rate, the tension part and the
        input rate form one (3, 2n) block, and the law closes the loop with u:
        the rate is the one weighted product (1, u, u) . block, which is
        (q_rate, M^-1 (f(q, u) - K q)).

        The kernel keeps the block and the weights in buffers of its own, so it
        serves one caller at a time, and allocates no array per call: it writes
        the rate into ``out``, a C-contiguous float64 array of x's shape, and
        returns it.
        """
        rate_op, input_rate = self._rate_operator
        rows = rate_op.shape[0]
        product = np.empty(rows + input_rate.size)
        product[rows:] = input_rate
        rx, block = product[:rows], product[2:].reshape(3, input_rate.size)
        weights = np.ones(3)
        dot = rate_op.dot  # the same bits as @, at half its dispatch cost on operands this small
        weigh = weights.dot

        def rate(t: float, x: np.ndarray, out: np.ndarray) -> np.ndarray:
            dot(x, out=rx)
            weights[1] = weights[2] = law(t, product.item(0), product.item(1))[-1]
            return weigh(block, out=out)

        return rate

    @functools.cached_property
    def deflection_map(self) -> DeflectionMap:
        """The closed-form equilibrium tip deflection (``DeflectionMap``)."""
        lam, vectors = self._softening
        unit_load = actuation_force(self, np.zeros(self.mode_count), 1.0)
        response = self.stiffness_solve(np.zeros(1), unit_load[None])[0] * self.tip_row
        weights = vectors.sum(axis=0) * np.linalg.solve(vectors, response)
        return DeflectionMap(tuple(lam.tolist()), tuple(weights.tolist()))


def equilibrate(matrix: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """D^-1 matrix D^-1 with D = diag(scale); A x = b becomes (D^-1 A D^-1)(D x) = b / scale."""
    return matrix / scale[:, None] / scale[None, :]


def assemble_matrices(params: BoomParams, basis: BasisSet) -> StructuralModel:
    """The model of (params, basis): ``StructuralModel(params, basis)``."""
    return StructuralModel(params, basis)


def actuation_force(model: StructuralModel, q: np.ndarray, u: float) -> np.ndarray:
    """Generalized cable force f(q, u) = (spreader_matrix q / dx + h psi'(L)^T) u.

    The one definition of the cable load: the equilibrium right-hand side is
    f(0, T) and the linearized input vector is df/du = f(q_eq, 1).  ``q`` may
    be a stack of coordinate rows (..., n), with ``u`` broadcast against it.
    """
    q = np.asarray(q, dtype=float)
    return ((model.spreader_matrix @ q[..., None])[..., 0] / model.params.node_spacing
            + model.params.cable_offset * model.tip_slope) * u


def state_rate(model: StructuralModel, x: np.ndarray,
               tension_law: Callable[[float, float], float]) -> np.ndarray:
    """Rate of x = (q, q_rate) under ``tension_law(w_tip, w_rate) -> u``: one
    ``rate_kernel`` call into a fresh array, whose one lambda hands the kernel u
    as a one-tuple."""
    return model.rate_kernel(lambda t, w_tip, w_rate: (tension_law(w_tip, w_rate),))(
        0.0, x, np.empty(2 * model.mode_count))


def dynamics_rhs(model: StructuralModel, state: State, u: float) -> State:
    """First-order dynamics: d/dt (q, q_rate) = (q_rate, M^-1 (f(q, u) - K q))."""
    return State.from_vector(model.rate_kernel(lambda t, w_tip, w_rate: (u,))(
        0.0, state.as_vector(), np.empty(2 * model.mode_count)))


def tip_deflection(model: StructuralModel, q: np.ndarray) -> float:
    """Transverse tip deflection w(L) = psi(L) q (m)."""
    return float(model.tip_row.dot(np.asarray(q, dtype=float)))


def tip_rate(model: StructuralModel, q_rate: np.ndarray) -> float:
    """Transverse tip deflection rate (m/s)."""
    return float(model.tip_row.dot(np.asarray(q_rate, dtype=float)))


def total_energy(model: StructuralModel, state: State) -> tuple[float, float]:
    """Kinetic and potential energy (J)."""
    kinetic = 0.5 * float(state.q_rate @ model.mass_matrix @ state.q_rate)
    potential = 0.5 * float(state.q @ model.stiffness_matrix @ state.q)
    return kinetic, potential
