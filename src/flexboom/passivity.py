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
upper triangular (Laub, IEEE TAC 1981): the plant's ``rate_schur``, computed
on its first response and kept for the later ones.  Every grid point is one
back-substitution on T + w^2 I, vectorised over the grid, and one step of
residual refinement against S_bal in real arithmetic (Skeel, Math. Comp.
1980).  The diagonal of T holds the eigenvalues of S_bal, so the condition
of a point's solve is estimated without a condition number as
cond = (||S_bal||_2 + w^2) / gap, with the pole gap min_k |T_kk + w^2| formed
once per grid (again at nudged points only) and read by every test below.  A
point whose estimate exceeds 1e12 is nudged by one part in 1e6; nudges are
reported.  A float residual leaves G off by about eps * cond times the ratio
of the terms summed into G to |G|: that is large next to a pole (cond large)
and at an antiresonance (|G| small), so where cond times that ratio exceeds
1e6 the residual is formed in extended precision (np.longdouble) instead.

The (E, rho, I) uncertainty box is a one-parameter family: M scales with rho
and K with E*I, and the cable terms with neither, so a sample at tension T is
the nominal boom at T / (e*i) with its rate block times e*i / rho and its
input vector over rho.  The sweep therefore assembles the nominal model when
the first sample needs it, solves and linearizes it once per distinct product
e*i, and rescales that plant for each sample.  Only each chain's plant
balances and Schur-factorises its rate block; each rescaled plant inherits
the factorisation times e*i / rho (``StateSpaceModel.rate_scaled``: the
balancing scale holds powers of 2, so the scaled block stays exactly
balanced), and a 5-level box runs 15 factorisations for its 75 plants.
Each plant is still checked on the caller's grid with its own nudging and
refinement, against its own balanced block.
Where the nominal boom is refused (its assembly, or its chain at T / (e*i):
the critical tension, a residual, flutter), the sample's own model is built
and solved at T instead, so the refusal names the sample's own tension and
critical tension, and that sample factorises its own plant.
Both sweeps run one loop over (key, sample, plant) triples: the first sample
of a key builds and certifies its plant, and every sample of that key gets
that report under its own metadata.  The mode-count sweep keys by the mode
count.  The box keys by (e*i, rho): it puts the same levels on the E and I
axes, so samples (e, rho, i) and (i, rho, e) are one plant, certified once,
refused classes included.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .equilibrium import solve_equilibrium
from .linearization import StateSpaceModel, linearize
from .model import (BasisSet, BoomParams, StructuralModel, assemble_matrices, checked_count,
                    checked_number, checked_real, is_number)

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
    if not (is_number(n_points, integral=True) and n_points >= 1 and is_number(omega_min)
            and is_number(omega_max) and 0.0 < omega_min < omega_max
            and _finite_square(omega_max)):
        raise ValueError("frequency grid needs 0 < omega_min < omega_max < inf, a finite "
                         f"omega_max**2 and n_points >= 1, got omega_min={omega_min!r}, "
                         f"omega_max={omega_max!r}, n_points={n_points!r}")
    # Float bounds: a narrow bound would narrow the grid with it.
    return np.logspace(np.log10(float(omega_min)), np.log10(float(omega_max)), n_points)


def _finite_square(w) -> bool:  # w * w overflows above about 1.3e154 rad/s
    w = float(w)
    return math.isfinite(w * w)


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
    # Strictly increasing (NaN fails the comparison), so |w| peaks at an endpoint.
    if not ((grid[1:] > grid[:-1]).all() and all(map(_finite_square, (grid[0], grid[-1])))):
        raise ValueError("frequency grid must be strictly increasing with finite squares")

    n = ss.mode_count
    s_bal, t_scale, tri, unitary, s_norm = ss.rate_schur
    eigs = tri.diagonal()[:, None]
    w2 = grid ** 2
    shifted = eigs + w2
    gap = np.abs(shifted).min(axis=0)
    retry = np.flatnonzero(gap * _COND_NUDGE <= s_norm + w2)
    if retry.size:
        grid[retry] *= 1.0 + _NUDGE
        w2[retry] = grid[retry] ** 2
        shifted[:, retry] = eigs + w2[retry]
        gap[retry] = np.abs(shifted[:, retry]).min(axis=0)
        bad = gap[retry] * _COND_FAIL <= s_norm + w2[retry]
        if np.any(bad):
            raise PoleOnGrid(f"grid frequencies {grid[retry[bad]]} rad/s remain on a pole "
                             f"after nudging (condition estimate above {_COND_FAIL:.0e})")

    # Columns are grid points: z[:, i] solves (S_bal + w_i^2 I) z = rhs[:, i]
    # as Z (T + w_i^2 I)^-1 Z^H rhs, one back-substitution row at a time.
    def solve(y: np.ndarray) -> np.ndarray:
        y[n - 1] /= shifted[n - 1]
        for k in range(n - 2, -1, -1):
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
        ext = np.flatnonzero((s_norm + w2) * spread > _COND_EXTENDED * gap * gain)
        if ext.size:
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
    eps_tol = checked_real("eps_tol", eps_tol, zero=True)
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


def _chain(model: StructuralModel, t_eq: float) -> StateSpaceModel:
    """The plant of ``model`` linearized about its equilibrium at t_eq."""
    return linearize(model, solve_equilibrium(model, t_eq))


def _certify(label: str, t_eq: float, omega: Sequence[float] | None, eps_tol: float,
             samples: Iterable[tuple[Hashable, dict, Callable[[], StateSpaceModel]]]
             ) -> list[PassivityReport]:
    """Reports for (key, sample, plant) triples, in order.

    The first sample of a key builds and certifies its plant, whose report
    every sample of that key gets under its own metadata; any failure is the
    SweepSampleError of the sample that met it.
    """
    reports: dict[Hashable, PassivityReport] = {}
    out = []
    for key, sample, plant in samples:
        if key not in reports:
            try:
                reports[key] = passivity_check(plant(), omega, eps_tol, metadata=sample)
            except Exception as exc:
                raise SweepSampleError(
                    f"{label} {sample} at tension {t_eq} N failed: {exc}") from exc
        out.append(replace(reports[key], metadata={**reports[key].metadata, **sample}))
    return out


def uncertainty_sweep(params: BoomParams, basis: BasisSet, t_eq: float,
                      perturbation: float, samples: int = 125,
                      omega: Sequence[float] | None = None,
                      eps_tol: float = DEFAULT_EPS_TOL) -> list[PassivityReport]:
    """Passivity reports over a Cartesian grid of (E, rho, I) scalings.

    Each sample is the model of ``params.scaled(e, rho, i)`` on ``basis``;
    the cantilever is swept by ``replace(params, spreader_count=0)``.
    ``samples`` is rounded to the nearest full cube (k levels per axis give
    k^3 samples); the default 125 uses five levels spanning +-perturbation.
    Sample order is deterministic (E outermost, I innermost).  Samples share
    solves, plants and reports by the module docstring's box rules; each
    report's metadata carries its own ``e_scale``, ``rho_scale`` and
    ``i_scale``, and the first sample that fails raises SweepSampleError.
    """
    t_eq = checked_number("t_eq", t_eq)
    if not (is_number(perturbation) and 0.0 <= perturbation < 1.0):
        raise ValueError("perturbation must lie in [0, 1)")
    samples = checked_count("samples", samples, 1)
    levels = round(samples ** (1.0 / 3.0))
    if perturbation == 0.0 or levels == 1:
        axis = np.array([1.0])
    else:
        spread = float(perturbation)  # a float16 spread would build a float16 axis
        axis = np.linspace(1.0 - spread, 1.0 + spread, levels)

    nominal = functools.cache(lambda: assemble_matrices(params, basis))

    @functools.cache
    def chain(k: float) -> StateSpaceModel | None:
        """The nominal plant of class e*i = k, or None where the nominal boom is refused."""
        try:
            return _chain(nominal(), t_eq / k)
        except (RuntimeError, ValueError):  # refused: the sample's own chain says why
            return None

    def plant(e: float, rho: float, i: float) -> StateSpaceModel:
        parent = chain(e * i)
        if parent is None:
            return _chain(assemble_matrices(params.scaled(e, rho, i), basis), t_eq)
        return parent.rate_scaled(e * i / rho, parent.b / rho, t_eq)  # module docstring

    return _certify("sweep sample", t_eq, omega, eps_tol, (
        ((e * i, rho), {"e_scale": float(e), "rho_scale": float(rho), "i_scale": float(i)},
         functools.partial(plant, e, rho, i)) for e, rho, i in itertools.product(axis, repeat=3)))


def mode_count_sweep(params: BoomParams, mode_counts: Sequence[int], t_eq: float,
                     omega: Sequence[float] | None = None,
                     eps_tol: float = DEFAULT_EPS_TOL) -> list[PassivityReport]:
    """Passivity reports for models of increasing assumed-mode count."""
    t_eq = checked_number("t_eq", t_eq)
    # Each plant is built while the generator stands at its n.
    return _certify("mode-count sample", t_eq, omega, eps_tol, (
        (n, {"mode_count": int(n)},
         lambda: _chain(assemble_matrices(params, BasisSet.with_mode_count(n)), t_eq))
        for n in mode_counts))
