"""Frequency response and passivity certification of the linearized boom.

A SISO LTI map is passive when the real part of its frequency response is
nonnegative, which is the same as a phase inside [-90, +90] degrees.  The
verdict is the real-part test on a log-spaced grid, min Re G(j w) >= -eps_tol;
the worst principal phase is reported beside it but not tested.

The plant is undamped, so its poles sit on the imaginary axis and a grid
point can land on one.  Frequency responses exploit the second-order block
structure of the state matrix: with A = [[0, I], [S, 0]] and B = [0; b],

    (j w I - A)^-1 B  =>  z = -(S + w^2 I)^-1 b  (a real solve),
    G(j w) = C_q z + D + j w C_v z,

so the real and imaginary parts come out structurally separated (for the
rate output C_q = 0 the real part is exactly D, not rounding noise).
S is balanced once and reduced once to Schur form, S_bal = Z T Z^H with T
upper triangular (Laub, IEEE TAC 1981); every grid point is then one
back-substitution on T + w^2 I, vectorised over the grid, and one step of
residual refinement against S_bal in real arithmetic (Skeel, Math. Comp.
1980).  The diagonal of T holds the eigenvalues of S_bal, so the condition
of a point's solve is estimated without a condition number as
cond = (||S_bal||_2 + w^2) / min_k |T_kk + w^2|.  A point whose estimate
exceeds 1e12 is nudged by one part in 1e6; nudges are reported.  A float
residual leaves G off by about eps * cond times the ratio of the terms
summed into G to |G|: that is large next to a pole (cond large) and at an
antiresonance (|G| small), so where cond times that ratio exceeds 1e6 the
residual is formed in extended precision (np.longdouble) instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import matrix_balance, rsf2csf, schur

from .equilibrium import solve_equilibrium
from .linearization import StateSpaceModel, linearize
from .model import BasisSet, BoomParams, StructuralModel, assemble_matrices

__all__ = [
    "PoleOnGrid",
    "SweepSampleError",
    "FrequencyResponse",
    "PassivityReport",
    "default_grid",
    "frequency_response",
    "passivity_check",
    "uncertainty_sweep",
    "mode_count_sweep",
]

_NUDGE = 1e-6           # relative frequency shift applied to near-pole points
# Bounds on a point's condition estimate (module docstring): nudge the point,
# reject it after the nudge, and (times G's cancellation ratio) extend its residual.
_COND_NUDGE = 1e12
_COND_FAIL = 1e14
_COND_EXTENDED = 1e6
DEFAULT_EPS_TOL = 1e-9


class PoleOnGrid(RuntimeError):
    """A grid frequency sits on a pole even after nudging."""


class SweepSampleError(RuntimeError):
    """A sweep sample failed to build or evaluate."""


def default_grid(n_points: int = 2000, omega_min: float = 1e-3,
                 omega_max: float = 1e3) -> np.ndarray:
    """Log-spaced frequency grid (rad/s) bracketing the boom's modes."""
    if not (0.0 < omega_min < omega_max and _squares_finite(omega_max) and n_points >= 1):
        raise ValueError("frequency grid needs 0 < omega_min < omega_max < inf, a finite "
                         f"omega_max**2 and n_points >= 1, got omega_min={omega_min!r}, "
                         f"omega_max={omega_max!r}, n_points={n_points!r}")
    return np.logspace(np.log10(omega_min), np.log10(omega_max), n_points)


def _squares_finite(omega) -> bool:  # w**2 overflows above about 1.3e154 rad/s
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.all(np.isfinite(np.square(omega, dtype=float))))


@dataclass(frozen=True)
class FrequencyResponse:
    """Complex gains on a frequency grid (Bode columns are left to the caller)."""

    omega: np.ndarray = field(repr=False)
    response: np.ndarray = field(repr=False)
    nudged: tuple[int, ...] = ()

    @property
    def phase_principal_deg(self) -> np.ndarray:
        """Pointwise principal phase in (-180, 180]; reported by passivity_check."""
        return np.degrees(np.angle(self.response))


@dataclass(frozen=True)
class PassivityReport:
    passive: bool
    worst_phase_deg: float
    worst_phase_omega: float
    min_real: float
    min_real_omega: float
    metadata: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "passive" if self.passive else "not-passive"


def frequency_response(ss: StateSpaceModel, omega: Sequence[float] | None = None
                       ) -> FrequencyResponse:
    """Evaluate G(j w) = C (j w I - A)^-1 B + D over a frequency grid.

    The method is the module docstring's.  PoleOnGrid is raised when a nudged
    point's condition estimate still exceeds 1e14, or when the response is
    not finite; a grid whose squares overflow is refused with ValueError.
    """
    grid = default_grid() if omega is None else np.array(omega, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("frequency grid must be a nonempty 1-d array")
    if not _squares_finite(grid) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("frequency grid must be strictly increasing with finite squares")

    n = ss.mode_count
    # Balanced similarity scaling: the monomial coordinates are badly scaled.
    s_bal, t_diag = matrix_balance(ss.rate_block, permute=False)
    t_scale = np.diag(t_diag)
    # With real eigenvalues the real Schur form is triangular, a complex Schur
    # form in real arithmetic; complex pairs leave 2x2 blocks to convert.
    tri, unitary = schur(s_bal)
    if np.any(np.diag(tri, -1)):
        tri, unitary = rsf2csf(tri, unitary)
    eigs = tri.diagonal()[:, None]
    s_norm = np.linalg.norm(s_bal, 2)

    def near_pole(w2: np.ndarray, limit: float) -> np.ndarray:
        return np.abs(eigs + w2).min(axis=0) * limit <= s_norm + w2

    retry = np.flatnonzero(near_pole(grid ** 2, _COND_NUDGE))
    grid[retry] *= 1.0 + _NUDGE
    bad = near_pole(grid[retry] ** 2, _COND_FAIL)
    if np.any(bad):
        raise PoleOnGrid(f"grid frequencies {grid[retry[bad]]} rad/s remain on a pole "
                         f"after nudging (condition estimate above {_COND_FAIL:.0e})")

    # Columns are grid points: z[:, i] solves (S_bal + w_i^2 I) z = rhs[:, i]
    # as Z (T + w_i^2 I)^-1 Z^H rhs, one back-substitution row at a time.
    w2 = grid ** 2
    shifted = eigs + w2

    def solve(y: np.ndarray) -> np.ndarray:
        for k in range(n - 1, -1, -1):
            y[k] = (y[k] - tri[k, k + 1:] @ y[k + 1:]) / shifted[k]
        return (unitary @ y).real  # z is real; a complex Z leaves rounding in .imag

    rhs = -ss.b[n:] / t_scale
    c_q, c_v = t_scale * ss.c[:n], t_scale * ss.c[n:]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        z = solve(np.repeat((unitary.conj().T @ rhs)[:, None], grid.size, axis=1))
        # One refinement step.  A float residual leaves G with a relative error of
        # about eps * cond * (|C_q| + w |C_v|) |z| / |G|: next to a pole (cond
        # large) or an antiresonance (|G| small), where cond times that ratio
        # exceeds 1e6, the residual is formed in extended precision instead.
        residual = rhs[:, None] - s_bal @ z - w2 * z
        size = np.abs(z)
        spread = np.abs(c_q) @ size + grid * (np.abs(c_v) @ size)
        gain = np.hypot(c_q @ z + ss.d, grid * (c_v @ z))
        ext = np.flatnonzero((s_norm + w2) * spread
                             > _COND_EXTENDED * np.abs(shifted).min(axis=0) * gain)
        z_ext = z[:, ext].astype(np.longdouble)
        residual[:, ext] = rhs[:, None] - s_bal.astype(np.longdouble) @ z_ext - w2[ext] * z_ext
        z += solve(unitary.conj().T @ residual)
        response = (c_q @ z + ss.d) + 1j * (grid * (c_v @ z))
    if np.any(~np.isfinite(response)):
        raise PoleOnGrid("non-finite frequency response after nudging")
    return FrequencyResponse(omega=grid, response=response,
                             nudged=tuple(int(i) for i in retry))


def passivity_check(ss: StateSpaceModel, omega: Sequence[float] | None = None,
                    eps_tol: float = DEFAULT_EPS_TOL,
                    metadata: dict | None = None) -> PassivityReport:
    """Certify passivity on a grid: passive iff min Re G(j w) >= -eps_tol.

    The worst principal phase and its frequency are reported, not tested.
    """
    if not 0.0 <= eps_tol < np.inf:  # NaN fails too
        raise ValueError(f"eps_tol must be finite and nonnegative, got {eps_tol!r}")
    fr = frequency_response(ss, omega)

    principal = fr.phase_principal_deg
    worst_idx = int(np.argmax(np.abs(principal)))
    re_part = fr.response.real
    min_idx = int(np.argmin(re_part))
    min_real = float(re_part[min_idx])

    meta = dict(metadata or {})
    meta.setdefault("t_eq", ss.t_eq)
    meta.setdefault("mode_count", ss.mode_count)
    meta["nudged_points"] = len(fr.nudged)
    return PassivityReport(
        passive=bool(min_real >= -eps_tol),
        worst_phase_deg=float(principal[worst_idx]),
        worst_phase_omega=float(fr.omega[worst_idx]),
        min_real=min_real,
        min_real_omega=float(fr.omega[min_idx]),
        metadata=meta,
    )


def _sweep_sample(label: str, sample: dict, build: Callable[[], StructuralModel],
                  t_eq: float, omega: Sequence[float] | None,
                  eps_tol: float) -> PassivityReport:
    """Certify one built sample at t_eq; any failure becomes SweepSampleError."""
    try:
        model = build()
        ss = linearize(model, solve_equilibrium(model, t_eq))
        return passivity_check(ss, omega, eps_tol, metadata=sample)
    except Exception as exc:
        raise SweepSampleError(
            f"{label} {sample} at tension {t_eq} N failed: {exc}") from exc


def uncertainty_sweep(params: BoomParams, basis: BasisSet, t_eq: float,
                      perturbation: float, samples: int = 125,
                      omega: Sequence[float] | None = None,
                      eps_tol: float = DEFAULT_EPS_TOL) -> list[PassivityReport]:
    """Passivity reports over a Cartesian grid of (E, rho, I) scalings.

    Each sample is the model of ``params.scaled(e, rho, i)`` on ``basis``;
    the cantilever is swept by ``replace(params, spreader_count=0)``.
    ``samples`` is rounded to the nearest full cube (k levels per axis give
    k^3 samples); the default 125 uses five levels spanning +-perturbation.
    Sample order is deterministic (E outermost, I innermost).
    """
    if not 0.0 <= perturbation < 1.0:
        raise ValueError("perturbation must lie in [0, 1)")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    levels = round(samples ** (1.0 / 3.0))
    if perturbation == 0.0 or levels == 1:
        axis = np.array([1.0])
    else:
        axis = np.linspace(1.0 - perturbation, 1.0 + perturbation, levels)

    return [_sweep_sample(
        "sweep sample", {"e_scale": float(e), "rho_scale": float(rho), "i_scale": float(i)},
        lambda: assemble_matrices(params.scaled(e, rho, i), basis), t_eq, omega, eps_tol)
        for e, rho, i in itertools.product(axis, repeat=3)]


def mode_count_sweep(params: BoomParams, mode_counts: Sequence[int], t_eq: float,
                     omega: Sequence[float] | None = None,
                     eps_tol: float = DEFAULT_EPS_TOL) -> list[PassivityReport]:
    """Passivity reports for models of increasing assumed-mode count."""
    return [_sweep_sample(
        "mode-count sample", {"mode_count": int(n)},
        lambda: assemble_matrices(params, BasisSet.with_mode_count(n)),
        t_eq, omega, eps_tol) for n in mode_counts]
