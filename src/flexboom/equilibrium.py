"""Forced equilibria of the tensioned boom and the tension-deflection map.

Holding the cable tension constant at T, the equilibrium modal coordinates
solve (K - spreader_matrix * T / dx) q = h * psi'(L)^T * T, that is
``effective_stiffness(T) q = actuation_force(0, T)``.  The resulting
tip deflection grows superlinearly (nearly quadratically) with tension
because the spreader reactions soften the effective stiffness.  That
softening makes the effective stiffness singular at the model's first
critical tension T_c (``StructuralModel.critical_tension``), where the
deflection grows without bound; past T_c the linear solve still returns
numbers, but they are not equilibria the boom can hold.  The inverse
(tension for a target tip deflection) is a bracketing root find: at 2001
even steps the nominal map rises strictly on [0, min(2 N, T_c)) for 1 to
12 modes, but need not beyond (with two modes it falls from 3.51 N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import StructuralModel, actuation_force, tip_deflection

__all__ = [
    "NearSingularStiffness",
    "OutOfRange",
    "EquilibriumPoint",
    "solve_equilibrium",
    "deflection_curve",
    "tension_for_deflection",
    "DEFAULT_TENSION_MAX",
]

# Default curve extent and inversion bracket (N), and the CLI's equilibrium.t_max default.
DEFAULT_TENSION_MAX = 2.0

_RESIDUAL_REL = 1e-9
_RESIDUAL_FLOOR = 1e-12  # N


class NearSingularStiffness(RuntimeError):
    """The one refusal of a valid tension: it is at or beyond the first critical tension."""

    def __init__(self, tension: float, critical_tension: float):
        self.tension = tension
        self.critical_tension = critical_tension
        super().__init__(
            f"no equilibrium at tension {tension} N: outside the valid "
            "actuation range, which ends below the first critical tension "
            f"{critical_tension:.6g} N"
        )


class OutOfRange(ValueError):
    """Requested value lies outside the achievable range."""


@dataclass(frozen=True)
class EquilibriumPoint:
    tension: float
    modal_coords: np.ndarray
    tip_deflection: float


def check_t_max(t_max: float) -> None:
    """ValueError unless the tension limit ``t_max`` is finite and positive."""
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max!r}")


def _equilibria(model: StructuralModel, tensions: np.ndarray) -> np.ndarray:
    """Equilibrium modal coordinates, one row per tension in (0, T_c), in one batched solve.

    The first row whose residual is above 1e-9 (relative) raises RuntimeError.
    A row does not depend on the other tensions of the stack.
    """
    t = tensions[:, None]
    q = model.stiffness_solve(tensions, actuation_force(model, np.zeros(model.mode_count), t))

    stiffness_load = (model.stiffness_matrix @ q[..., None])[..., 0]
    imbalance = actuation_force(model, q, t) - stiffness_load
    residual = np.sqrt(np.vecdot(imbalance, imbalance))  # each row's np.linalg.norm
    tol = np.maximum(_RESIDUAL_REL * np.sqrt(np.vecdot(stiffness_load, stiffness_load)),
                     _RESIDUAL_FLOOR)
    failed = residual > tol
    if failed.any():
        i = failed.argmax()
        raise RuntimeError(
            f"equilibrium solve at {tensions[i]} N left residual "
            f"{residual[i]:.3e} N above tolerance {tol[i]:.3e} N"
        )
    return q


def solve_equilibrium(model: StructuralModel, tension: float) -> EquilibriumPoint:
    """Equilibrium modal coordinates for a constant cable tension (N).

    Equilibria exist exactly on [0, T_c): a tension at or beyond the first
    critical tension raises NearSingularStiffness, a negative (a cable cannot
    push) or non-finite one ValueError; no conditioning test refuses a tension
    below T_c.  A residual above 1e-9 (relative) is a RuntimeError.
    """
    if not (np.isfinite(tension) and tension >= 0.0):
        raise ValueError(f"tension must be finite and >= 0, got {tension!r}")
    if tension == 0.0:
        return EquilibriumPoint(0.0, np.zeros(model.mode_count), 0.0)
    if tension >= model.critical_tension:
        raise NearSingularStiffness(tension, model.critical_tension)
    q = _equilibria(model, np.array([tension], dtype=float))[0]
    return EquilibriumPoint(tension, q, tip_deflection(model, q))


def deflection_curve(model: StructuralModel, t_max: float = DEFAULT_TENSION_MAX,
                     samples: int = 200) -> list[EquilibriumPoint]:
    """Equilibria sampled at evenly spaced tensions over [0, t_max], t_max > 0.

    One batched solve, row-identical to ``solve_equilibrium`` at each
    sample's tension.  The end point is solved first: a curve that reaches
    the first critical tension raises the NearSingularStiffness of t_max,
    and no partial curve is returned.
    """
    check_t_max(t_max)
    if samples < 2:
        raise ValueError("need at least two samples")
    tensions = np.linspace(0.0, t_max, samples)
    end = solve_equilibrium(model, tensions[-1])
    inner = tensions[1:-1]
    points = [EquilibriumPoint(t, q, tip_deflection(model, q))
              for t, q in zip(inner, _equilibria(model, inner))]
    return [solve_equilibrium(model, 0.0), *points, end]


def tension_for_deflection(model: StructuralModel, w_target: float,
                           t_max: float = DEFAULT_TENSION_MAX) -> float:
    """Tension (N) whose equilibrium tip deflection equals w_target (m).

    Bracketing root find on [0, t_max]; the returned tension reproduces
    w_target to within 1e-6 m.  Raises OutOfRange if the target is negative
    or above w(t_max); a t_max at or beyond the first critical tension
    raises NearSingularStiffness; a t_max that is not finite and positive
    raises ValueError.  w(t_max) is taken as the largest reachable
    deflection, which holds only where the map rises up to t_max: a
    reachable target above w(t_max) is refused as well (with two modes the
    map peaks at 5.89 m near 3.5 N and falls to 4.12 m at 10 N, so with
    t_max = 10 N the target 5 m, held at 2.38 N, is refused).
    """
    # Imported here: scipy.optimize adds about 0.3 s to importing the package.
    from scipy.optimize import brentq

    check_t_max(t_max)
    if w_target == 0.0:
        return 0.0
    w_max = solve_equilibrium(model, t_max).tip_deflection
    if not 0.0 <= w_target <= w_max:
        raise OutOfRange(
            f"target deflection {w_target} m outside achievable range "
            f"[0, {w_max:.6g}] m at tension limit {t_max} N"
        )
    tension = brentq(
        lambda t: solve_equilibrium(model, t).tip_deflection - w_target,
        0.0, t_max, xtol=1e-12, rtol=8.9e-16,
    )
    achieved = solve_equilibrium(model, tension).tip_deflection
    if abs(achieved - w_target) > 1e-6:
        raise RuntimeError(
            f"inverse map did not converge: |{achieved} - {w_target}| > 1e-6 m"
        )
    return float(tension)
