"""Forced equilibria of the tensioned boom and the tension-deflection map.

Holding the cable tension constant at T, the equilibrium modal coordinates
solve (K - spreader_matrix * T / dx) q = h * psi'(L)^T * T, that is
``effective_stiffness(T) q = actuation_force(0, T)``.  The resulting
tip deflection grows superlinearly (nearly quadratically) with tension
because the spreader reactions soften the effective stiffness.  That
softening makes the effective stiffness singular at the model's first
critical tension T_c (``StructuralModel.critical_tension``), where the
deflection grows without bound; past T_c the linear solve still returns
numbers, but they are not equilibria the boom can hold.  At 2001 even steps
the nominal map rises strictly on [0, min(2 N, T_c)) for 1 to 12 modes, but
need not beyond (with two modes it falls from 3.50 N).

The map is rational in T (``StructuralModel.deflection_map``), and the
inverse (the least tension for a target tip deflection) uses that closed
form to bracket and find the root, then polishes it with Newton steps on
the direct solve, which stays the definition of w: the tension returned
meets the target on the direct map.  Below 2 N the closed form agrees with
the direct solve to 6e-14 (relative) at three modes and 3e-12 at six, but
only to 9e-8 at ten modes and 6e-5 at twelve, where its eigenvectors are
ill-conditioned (condition 5e7 to 7e9); there the polish takes more steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import StructuralModel, actuation_force, checked_count, checked_number, checked_real

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
# Direct solves the inversion may spend polishing the closed form's root.
_POLISH_STEPS = 8


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


def _equilibria(model: StructuralModel, tensions: np.ndarray) -> list[EquilibriumPoint]:
    """Equilibria at a 1-d stack of tensions in [0, T_c), in one batched solve.

    The one T_c refusal: a stack whose largest tension is at or beyond T_c
    raises that tension's NearSingularStiffness before any solve.  The first
    row whose residual is above 1e-9 (relative) raises RuntimeError.  Rows do
    not depend on each other.
    """
    # Signed zeros are normalised once here: adding +0.0 turns -0.0 (a tension given
    # as -0.0, a solve's coordinates at 0 N) into 0.0 and leaves every other value's bits.
    rows = (tensions + 0.0).tolist()
    if max(rows) >= model.critical_tension:
        raise NearSingularStiffness(max(rows), model.critical_tension)
    t = tensions[:, None]
    q = model.stiffness_solve(tensions, actuation_force(model, np.zeros(model.mode_count), t)) + 0.0
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
    tips = np.vecdot(q, model.tip_row).tolist()  # each row's tip_deflection, bit for bit
    return [EquilibriumPoint(u, row, tip) for u, row, tip in zip(rows, q, tips)]


def solve_equilibrium(model: StructuralModel, tension: float) -> EquilibriumPoint:
    """Equilibrium modal coordinates for a constant cable tension (N).

    Equilibria exist exactly on [0, T_c): a tension at or beyond the first
    critical tension raises NearSingularStiffness, a negative (a cable cannot
    push) or non-finite one, or one that is not a real number, ValueError; no
    conditioning test refuses a tension below T_c.  A residual above 1e-9
    (relative) is a RuntimeError.  Every tension, 0 N included, is a batch of
    one, so the point's tension is a float and its zeros are +0.0.
    """
    tension = checked_real("tension", tension, zero=True)
    return _equilibria(model, np.array([tension]))[0]


def deflection_curve(model: StructuralModel, t_max: float = DEFAULT_TENSION_MAX,
                     samples: int = 200) -> list[EquilibriumPoint]:
    """Equilibria sampled at evenly spaced tensions over [0, t_max], t_max > 0.

    The 0 N point from ``solve_equilibrium`` plus one batched solve of the
    rest, row-identical to ``solve_equilibrium`` at each sample's tension.  A
    curve that reaches the first critical tension raises the
    NearSingularStiffness of t_max, and no partial curve is returned.
    """
    t_max = checked_real("t_max", t_max)
    samples = checked_count("samples", samples, 2)
    tensions = np.linspace(0.0, t_max, samples)
    return [solve_equilibrium(model, 0.0), *_equilibria(model, tensions[1:])]


def tension_for_deflection(model: StructuralModel, w_target: float,
                           t_max: float = DEFAULT_TENSION_MAX) -> float:
    """Least tension (N) in [0, t_max] whose equilibrium tip deflection is w_target (m).

    The closed form ``model.deflection_map`` locates the root, and direct
    solves decide it.  The closed form's stationary tensions split [0, t_max]
    into stretches where w is monotone; the first stretch whose end reaches
    w_target holds the least root, which brentq finds on the closed form (if
    only the direct w(t_max) reaches it, the root starts at t_max).  Newton
    steps on ``solve_equilibrium`` with the closed form's slope, clipped to the
    root's stretch, polish it (at most eight steps) until the direct map meets
    w_target within 1e-6 m: the tension returned is a root of the direct map,
    not the closed form's.  From ten modes the closed form drifts from the
    direct map, and from eleven the direct map jitters by a few 1e-6 m between
    tensions 1e-9 N apart, so there the 1e-6 m check can fail.

    Raises OutOfRange if the target is negative or above the largest
    deflection on [0, t_max]: the larger of w(t_max) and the closed form at
    its stationary tensions below t_max (with two modes w peaks at 5.89 m
    near 3.50 N and falls to 4.12 m at 10 N, so with t_max = 10 N the target
    5 m is held at 2.38 N).  A t_max at or beyond the first critical tension
    raises NearSingularStiffness, a t_max that is not finite and positive or a
    w_target that is not a real number (a bool, a string) ValueError, and a
    polish that does not meet the target RuntimeError.
    """
    # Imported here, as scipy.linalg is in model and linearization: importing the
    # package loads no scipy, and only a process that inverts the map pays for it.
    from scipy.optimize import brentq

    t_end = checked_real("t_max", t_max)  # the refusal below names t_max as given
    w_target = checked_number("w_target", w_target)
    if w_target == 0.0:
        return 0.0
    w_end = solve_equilibrium(model, t_end).tip_deflection
    closed_form = model.deflection_map
    knots = [t for t in closed_form.stationary if t < t_end] + [t_end]
    w_max = max([w_end, *map(closed_form.deflection, knots[:-1])])
    if not 0.0 <= w_target <= w_max:
        raise OutOfRange(
            f"target deflection {w_target} m outside achievable range "
            f"[0, {w_max:.6g}] m at tension limit {t_max} N"
        )

    def miss(t: float) -> float:
        return closed_form.deflection(t) - w_target

    for low, high in zip([0.0, *knots], knots):
        if miss(high) >= 0.0:
            tension = brentq(miss, low, high, xtol=1e-12, rtol=8.9e-16)
            break
    else:  # only the direct w(t_max) reaches the target: polish from t_max
        tension = t_end
    achieved = solve_equilibrium(model, tension).tip_deflection
    for _ in range(_POLISH_STEPS):
        slope = closed_form.slope(tension)
        if not slope > 0.0:  # at a peak of w: no step does better
            break
        tension = min(max(tension - (achieved - w_target) / slope, low), high)
        achieved = solve_equilibrium(model, tension).tip_deflection
        if abs(achieved - w_target) <= 1e-6:
            break
    if abs(achieved - w_target) > 1e-6:
        raise RuntimeError(
            f"inverse map did not converge: |{achieved} - {w_target}| > 1e-6 m"
        )
    return tension
