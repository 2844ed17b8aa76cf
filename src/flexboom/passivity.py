"""Frequency response and passivity certification of the linearized boom.

A SISO LTI map is passive when its phase stays inside [-90, +90] degrees,
equivalently when the real part of its frequency response is nonnegative.
Both tests are computed on a log-spaced grid and must agree.

The plant is undamped, so its poles sit on the imaginary axis and a grid
point can land on one.  Frequency responses exploit the second-order block
structure of the state matrix: with A = [[0, I], [S, 0]] and B = [0; b],

    (j w I - A)^-1 B  =>  z = -(S + w^2 I)^-1 b  (a real solve),
    G(j w) = C_q z + D + j w C_v z,

so the real and imaginary parts come out structurally separated (for the
rate output C_q = 0 the real part is exactly D, not rounding noise).
Near-pole grid points are detected by the condition number of the balanced
solve and nudged by one part in 1e6; nudges are reported.  The exact
condition (one SVD per point) is needed only near a pole: with the
eigendecomposition S_bal = V diag(lam) V^-1, Bauer-Fike gives

    cond(S_bal + w^2 I) <= (||S_bal|| + w^2) cond(V) / min_i |lam_i + w^2|,

and points whose bound lies at or below the nudge threshold divided by a
safety factor of 64 skip the SVD.  A defective or unresolved V (huge or
non-finite cond(V)) leaves every point on the exact path, so nudges,
rejections and responses are those of the exact test at every point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import matrix_balance

from .equilibrium import solve_equilibrium
from .linearization import StateSpaceModel, linearize
from .model import BasisSet, BoomParams, StructuralModel, assemble_matrices

__all__ = [
    "PoleOnGrid",
    "InconsistentTests",
    "SweepSampleError",
    "FrequencyResponse",
    "PassivityReport",
    "default_grid",
    "frequency_response",
    "passivity_check",
    "scaling_factory",
    "uncertainty_sweep",
    "mode_count_sweep",
]

_NUDGE = 1e-6           # relative frequency shift applied to near-pole points
_COND_NUDGE = 1e12      # condition above which a grid point is nudged
_COND_FAIL = 1e14       # condition above which the nudged point is rejected
# Margin of the eigenvalue screen below the nudge threshold.  Near condition
# 1e12, rounding in eig and in the SVD each move the bound and the exact
# condition by parts in 1e4 (smallest measured bound/condition ratio 0.9999,
# on symmetric blocks where the bound is otherwise tight); unscaled, the
# screen could skip a point that must be nudged.
_SCREEN_SAFETY = 64.0
_PHASE_SLACK_DEG = 1e-6
DEFAULT_EPS_TOL = 1e-9


class PoleOnGrid(RuntimeError):
    """A grid frequency sits on a pole even after nudging."""


class InconsistentTests(RuntimeError):
    """Phase-band and real-part passivity verdicts disagree."""


class SweepSampleError(RuntimeError):
    """A sweep sample failed to build or evaluate."""


def default_grid(n_points: int = 2000, omega_min: float = 1e-3,
                 omega_max: float = 1e3) -> np.ndarray:
    """Log-spaced frequency grid (rad/s) bracketing the boom's modes."""
    if not (0.0 < omega_min < omega_max < np.inf and n_points >= 1):
        raise ValueError("frequency grid needs 0 < omega_min < omega_max < inf and "
                         f"n_points >= 1, got omega_min={omega_min!r}, "
                         f"omega_max={omega_max!r}, n_points={n_points!r}")
    return np.logspace(np.log10(omega_min), np.log10(omega_max), n_points)


@dataclass(frozen=True)
class FrequencyResponse:
    """Complex gains on a frequency grid (Bode columns are left to the caller)."""

    omega: np.ndarray = field(repr=False)
    response: np.ndarray = field(repr=False)
    nudged: tuple[int, ...] = ()

    @property
    def phase_principal_deg(self) -> np.ndarray:
        """Pointwise principal phase in (-180, 180]; used by passivity tests."""
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

    A point is nudged by one part in 1e6 when the condition of its balanced
    solve S_bal + w^2 I exceeds 1e12, and PoleOnGrid is raised when the
    nudged point still exceeds 1e14.  The condition is computed exactly only
    where the Bauer-Fike bound (||S_bal|| + w^2) cond(V) / min_i |lam_i + w^2|
    is not at or below 1e12 / 64 (NaN and inf bounds included); a defective
    V or a non-finite eigendecomposition sends every point to the exact test.
    The result equals that of the exact test at every point.
    """
    grid = default_grid() if omega is None else np.asarray(omega, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("frequency grid must be a nonempty 1-d array")
    if np.any(~np.isfinite(grid)) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("frequency grid must be finite and strictly increasing")

    n = ss.mode_count
    s_mat = ss.rate_block
    b2 = ss.b[n:]
    c_q = ss.c[:n]
    c_v = ss.c[n:]

    # Balanced similarity scaling: the monomial coordinates are badly scaled,
    # balancing keeps the per-frequency solves well conditioned away from poles.
    s_bal, t_diag = matrix_balance(s_mat, permute=False)
    t_scale = np.diag(t_diag)
    b_bal = b2 / t_scale
    cq_bal = c_q * t_scale
    cv_bal = c_v * t_scale

    eye = np.eye(n)

    # One eigendecomposition per call feeds the Bauer-Fike screen.  A
    # non-finite cond(V) makes every bound inf or NaN, so every point is exact.
    lam, vecs = np.linalg.eig(s_bal)
    resolved = np.all(np.isfinite(lam)) and np.all(np.isfinite(vecs))
    kappa = np.linalg.cond(vecs) if resolved else np.inf
    s_norm = np.linalg.norm(s_bal, 2)

    def solve_points(omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w2 = omegas ** 2
        mats = s_bal[None, :, :] + w2[:, None, None] * eye[None, :, :]
        with np.errstate(all="ignore"):  # an exact pole divides by zero
            bound = (s_norm + w2) * kappa / np.min(np.abs(lam + w2[:, None]), axis=1)
        exact = ~(bound <= _COND_NUDGE / _SCREEN_SAFETY)  # NaN bounds are exact
        # A screened point stays below the nudge threshold; its condition is
        # recorded as 0 so its bound never reaches the retry or reject tests.
        conds = np.zeros(omegas.size)
        conds[exact] = np.linalg.cond(mats[exact])
        rhs = np.broadcast_to(-b_bal, (omegas.size, n))[:, :, None]
        good = np.isfinite(conds) & (conds <= _COND_FAIL)
        z = np.full((omegas.size, n), np.nan)
        if np.any(good):
            z[good] = np.linalg.solve(mats[good], rhs[good])[:, :, 0]
        return z, conds

    grid = grid.copy()
    z, conds = solve_points(grid)
    nudged_idx: list[int] = []
    retry = np.where(conds > _COND_NUDGE)[0]
    if retry.size:
        grid[retry] = grid[retry] * (1.0 + _NUDGE)
        z_retry, conds_retry = solve_points(grid[retry])
        bad = conds_retry > _COND_FAIL
        if np.any(bad):
            raise PoleOnGrid(
                f"grid frequencies {grid[retry[bad]]} rad/s remain on a pole "
                f"after nudging (condition {conds_retry[bad].max():.3e})"
            )
        z[retry] = z_retry
        nudged_idx = [int(i) for i in retry]

    re_part = z @ cq_bal + ss.d
    im_part = grid * (z @ cv_bal)
    response = re_part + 1j * im_part
    if np.any(~np.isfinite(response)):
        raise PoleOnGrid("non-finite frequency response after nudging")
    return FrequencyResponse(omega=grid, response=response, nudged=tuple(nudged_idx))


def passivity_check(ss: StateSpaceModel, omega: Sequence[float] | None = None,
                    eps_tol: float = DEFAULT_EPS_TOL,
                    metadata: dict | None = None) -> PassivityReport:
    """Certify passivity on a grid by the phase-band and real-part tests.

    The two tests must agree; disagreement raises InconsistentTests since it
    signals a phase-handling bug rather than a property of the plant.
    """
    if not 0.0 <= eps_tol < np.inf:  # NaN fails too
        raise ValueError(f"eps_tol must be finite and nonnegative, got {eps_tol!r}")
    fr = frequency_response(ss, omega)

    principal = fr.phase_principal_deg
    worst_idx = int(np.argmax(np.abs(principal)))
    worst_phase = float(principal[worst_idx])
    phase_ok = bool(abs(worst_phase) <= 90.0 + _PHASE_SLACK_DEG)

    re_part = fr.response.real
    min_idx = int(np.argmin(re_part))
    min_real = float(re_part[min_idx])
    real_ok = bool(min_real >= -eps_tol)

    if phase_ok != real_ok:
        raise InconsistentTests(
            f"phase test ({'pass' if phase_ok else 'fail'}, worst {worst_phase:.6f} deg) "
            f"disagrees with real-part test ({'pass' if real_ok else 'fail'}, "
            f"min Re {min_real:.3e})"
        )

    meta = dict(metadata or {})
    meta.setdefault("t_eq", ss.t_eq)
    meta.setdefault("mode_count", ss.mode_count)
    meta["nudged_points"] = len(fr.nudged)
    return PassivityReport(
        passive=phase_ok,
        worst_phase_deg=worst_phase,
        worst_phase_omega=float(fr.omega[worst_idx]),
        min_real=min_real,
        min_real_omega=float(fr.omega[min_idx]),
        metadata=meta,
    )


ModelFactory = Callable[[float, float, float], StructuralModel]


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


def scaling_factory(params: BoomParams, basis: BasisSet) -> ModelFactory:
    """Factory assembling models with scaled (E, rho, I) about nominal params."""

    def factory(e_scale: float, rho_scale: float, i_scale: float) -> StructuralModel:
        return assemble_matrices(params.scaled(e_scale, rho_scale, i_scale), basis)

    return factory


def uncertainty_sweep(model_factory: ModelFactory, t_eq: float,
                      perturbation: float, samples: int = 125,
                      omega: Sequence[float] | None = None,
                      eps_tol: float = DEFAULT_EPS_TOL) -> list[PassivityReport]:
    """Passivity reports over a Cartesian grid of (E, rho, I) scalings.

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
        lambda: model_factory(e, rho, i), t_eq, omega, eps_tol)
        for e, rho, i in itertools.product(axis, repeat=3)]


def mode_count_sweep(params: BoomParams, mode_counts: Sequence[int], t_eq: float,
                     omega: Sequence[float] | None = None,
                     eps_tol: float = DEFAULT_EPS_TOL) -> list[PassivityReport]:
    """Passivity reports for models of increasing assumed-mode count."""
    return [_sweep_sample(
        "mode-count sample", {"mode_count": int(n)},
        lambda: assemble_matrices(params, BasisSet.with_mode_count(n)),
        t_eq, omega, eps_tol) for n in mode_counts]
