"""Forced equilibria of the tensioned boom and the tension-deflection map.

Holding the cable tension constant at T, the equilibrium modal coordinates
solve (K - spreader_matrix * T / dx) q = h * psi'(L)^T * T, that is
``effective_stiffness(T) q = actuation_force(0, T)``.  The resulting
tip deflection grows superlinearly (nearly quadratically) with tension
because the spreader reactions soften the effective stiffness.  That
softening makes the effective stiffness singular at the model's first
critical tension T_c (``StructuralModel.critical_tension``), where the
deflection grows without bound; past T_c the linear solve still returns
numbers, but they are not equilibria the boom can hold.  The one rule:
equilibria exist exactly on [0, T_c).  A tension at or beyond T_c raises
NearSingularStiffness, a negative (a cable cannot push) or non-finite one
ValueError; no conditioning test refuses a tension below T_c.  The map is
monotone on the verified tension range, so the inverse (tension required
for a target tip deflection) is computed by bracketing root finding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .model import (StructuralModel, actuation_force, equilibrate,
                    tip_deflection)

__all__ = [
    "NearSingularStiffness",
    "OutOfRange",
    "EquilibriumPoint",
    "solve_equilibrium",
    "deflection_curve",
    "tension_for_deflection",
    "DEFAULT_TENSION_MAX",
]

# Tension range over which invertibility of the effective stiffness is
# verified for the nominal boom.  CLI commands guard against leaving it.
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


def solve_equilibrium(model: StructuralModel, tension: float) -> EquilibriumPoint:
    """Equilibrium modal coordinates for a constant cable tension (N).

    Equilibria exist exactly on [0, T_c): a tension at or beyond the first
    critical tension raises NearSingularStiffness, a negative or non-finite
    one ValueError.  The solve runs on the diagonally equilibrated system
    with one refinement pass; a residual above 1e-9 (relative) is a RuntimeError.
    """
    if not (np.isfinite(tension) and tension >= 0.0):
        raise ValueError(f"tension must be finite and >= 0, got {tension!r}")
    n = model.mode_count
    if tension == 0.0:
        return EquilibriumPoint(0.0, np.zeros(n), 0.0)
    if tension >= model.critical_tension:
        raise NearSingularStiffness(tension, model.critical_tension)

    scale = model.tip_row
    scaled = equilibrate(model.effective_stiffness(tension), scale)
    rhs_scaled = actuation_force(model, np.zeros(n), tension) / scale
    q_scaled = np.linalg.solve(scaled, rhs_scaled)
    q_scaled += np.linalg.solve(scaled, rhs_scaled - scaled @ q_scaled)
    q = q_scaled / scale

    stiffness_load = model.stiffness_matrix @ q
    residual = np.linalg.norm(actuation_force(model, q, tension) - stiffness_load)
    tol = max(_RESIDUAL_REL * np.linalg.norm(stiffness_load), _RESIDUAL_FLOOR)
    if residual > tol:
        raise RuntimeError(
            f"equilibrium solve at {tension} N left residual "
            f"{residual:.3e} N above tolerance {tol:.3e} N"
        )
    return EquilibriumPoint(tension, q, tip_deflection(model, q))


def deflection_curve(model: StructuralModel, t_max: float = DEFAULT_TENSION_MAX,
                     samples: int = 200) -> list[EquilibriumPoint]:
    """Equilibria sampled at evenly spaced tensions over [0, t_max], t_max > 0.

    A curve that reaches the first critical tension has no equilibrium
    there: the NearSingularStiffness of that sample propagates, and no
    partial curve is returned.
    """
    check_t_max(t_max)
    if samples < 2:
        raise ValueError("need at least two samples")
    return [solve_equilibrium(model, t) for t in np.linspace(0.0, t_max, samples)]


def tension_for_deflection(model: StructuralModel, w_target: float,
                           t_max: float = DEFAULT_TENSION_MAX) -> float:
    """Tension (N) whose equilibrium tip deflection equals w_target (m).

    Bracketing root find on the monotone tension-deflection map; the
    returned tension reproduces w_target to within 1e-6 m.  Raises
    OutOfRange if the target exceeds what t_max can hold (or is negative);
    a t_max at or beyond the first critical tension raises
    NearSingularStiffness; a t_max that is not finite and positive raises
    ValueError.
    """
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
