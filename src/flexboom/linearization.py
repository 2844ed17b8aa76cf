"""LTI state-space models of the boom about forced equilibria.

Perturbations (dx, du) about an equilibrium (q_eq, T_eq) obey
d/dt dx = A dx + B du with

    A = [[0, I], [-M^-1 K_eff(T_eq), 0]]
    B = [0; M^-1 df/du(q_eq)]

and the measured output is the tip deflection rate, C = [0, psi(L)], D = 0.
K_eff is ``StructuralModel.effective_stiffness`` and f is the cable load
``actuation_force``; f is linear in u, so df/du(q_eq) = f(q_eq, 1).
The structure is undamped, so every pole sits on the imaginary axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibrium import EquilibriumPoint
from .model import StructuralModel, actuation_force

__all__ = ["StateSpaceModel", "linearize"]

_EIG_AXIS_TOL = 1e-6  # absolute bound on |Re(eig(A))| for produced models


@dataclass(frozen=True)
class StateSpaceModel:
    """(A, B, C, D) about an equilibrium, plus the anchor point.

    The A matrix always carries the second-order mechanical block structure
    (zero top-left, identity top-right, zero bottom-right) and B drives only
    the rate block; the frequency-response code relies on it.
    """

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    d: float
    t_eq: float
    x_bar: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        two_n = a.shape[0]
        if a.shape != (two_n, two_n) or two_n % 2 != 0:
            raise ValueError(f"A must be square with even size, got {a.shape}")
        n = two_n // 2
        if (a[:n, :n] != 0.0).any() or (a[n:, n:] != 0.0).any():
            raise ValueError("A must have zero diagonal blocks")
        if (a[:n, n:] != np.eye(n)).any():
            raise ValueError("top-right block of A must be the identity")
        b = np.asarray(self.b, dtype=float).reshape(two_n)
        if (b[:n] != 0.0).any():
            raise ValueError("B must drive only the rate block")
        c = np.asarray(self.c, dtype=float).reshape(two_n)
        x_bar = np.asarray(self.x_bar, dtype=float).reshape(two_n)
        if not (np.isfinite(a).all() and np.isfinite(b).all()
                and np.isfinite(c).all() and np.isfinite(self.d)):
            raise ValueError("state-space matrices must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "x_bar", x_bar)

    @property
    def mode_count(self) -> int:
        return self.a.shape[0] // 2

    @property
    def rate_block(self) -> np.ndarray:
        """Lower-left block S = -M^-1 K_eff(t_eq); poles are +-sqrt(eig S)."""
        n = self.mode_count
        return self.a[n:, :n]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.a)


def linearize(model: StructuralModel, eq: EquilibriumPoint) -> StateSpaceModel:
    """Linearize the boom dynamics about a forced equilibrium.

    Raises RuntimeError if an eigenvalue of A strays off the imaginary axis
    by more than 1e-6 (absolute): flutter, where M^-1 K_eff(T) has complex
    eigenvalues (two modes: from about 25.86 N), or a broken spreader-matrix
    convention.
    """
    n = model.mode_count
    t_eq = eq.tension
    q_eq = np.asarray(eq.modal_coords, dtype=float)

    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    # K_eff(T) before the mass solve: -M^-1 K + T M^-1 S/dx cancels next to a pole.
    a[n:, :n] = -model.mass_solve(model.effective_stiffness(t_eq))

    b = np.concatenate((np.zeros(n), model.mass_solve(actuation_force(model, q_eq, 1.0))))
    c = np.concatenate((np.zeros(n), model.tip_row))
    x_bar = np.concatenate([q_eq, np.zeros(n)])
    ss = StateSpaceModel(a=a, b=b, c=c, d=0.0, t_eq=t_eq, x_bar=x_bar)

    real_drift = float(np.max(np.abs(ss.eigenvalues().real)))
    if real_drift > _EIG_AXIS_TOL:
        raise RuntimeError(
            f"eigenvalues of A drift off the imaginary axis by {real_drift:.3e} "
            f"at tension {t_eq} N: M^-1 K_eff has complex eigenvalues there (flutter "
            "under the cable load), or the spreader-matrix convention is broken"
        )
    return ss
