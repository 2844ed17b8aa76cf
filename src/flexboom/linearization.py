"""LTI state-space models of the boom about forced equilibria.

Perturbations (dx, du) about an equilibrium (q_eq, T_eq) obey
d/dt dx = A dx + B du with

    A = [[0, I], [-M^-1 K_eff(T_eq), 0]]
    B = [0; M^-1 df/du(q_eq)]

and the measured output is the tip deflection rate, C = [0, psi(L)], D = 0.
K_eff is ``StructuralModel.effective_stiffness`` and f is the cable load
``actuation_force``; f is linear in u, so df/du(q_eq) = f(q_eq, 1).
The structure is undamped, so every pole sits on the imaginary axis.

scipy is not imported with this module, so that importing the package stays
on numpy alone (see the ``model`` module): ``linearize`` loads ``scipy.linalg``
through ``StructuralModel.mass_solve``, and a plant's ``rate_schur`` calls it
through the module-level ``schur``, which a test can replace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .equilibrium import EquilibriumPoint
from .model import StructuralModel, actuation_force, checked_number, checked_real

__all__ = ["StateSpaceModel", "linearize"]

_EIG_AXIS_TOL = 1e-6  # absolute bound on |Re(eig(A))| for produced models


def schur(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.schur(matrix)``, with scipy loaded on the first call."""
    from scipy.linalg import schur as real_schur

    return real_schur(matrix)


@dataclass(frozen=True)
class StateSpaceModel:
    """(A, B, C, D) about an equilibrium, plus the anchor point: a value,
    immutable after construction and safe to share.

    The A matrix always carries the second-order mechanical block structure
    (zero top-left, identity top-right, zero bottom-right) and B drives only
    the rate block; the frequency-response code relies on it.  ``a``, ``b``,
    ``c`` and ``x_bar`` are read-only copies of the constructor's arrays, so
    the checks below hold for the plant's lifetime; every plant, a box
    sample's from ``rate_scaled`` too, is built through them.  The six fields
    define the plant; ``rate_schur``, the one factorisation of its rate block,
    is derived from them on first read (``dataclasses.replace`` makes a plant
    that derives its own, and ``rate_scaled`` hands its plant one ready made).
    ``d`` and ``t_eq`` must be real numbers (a bool or a string is a ValueError
    naming the field), kept as Python floats.
    """

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    d: float
    t_eq: float
    x_bar: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("d", "t_eq"):
            object.__setattr__(self, name, checked_number(name, getattr(self, name)))
        a = np.array(self.a, dtype=float)
        two_n = a.shape[0]
        if a.shape != (two_n, two_n) or two_n % 2 != 0:
            raise ValueError(f"A must be square with even size, got {a.shape}")
        n = two_n // 2
        # ``any`` counts NaN as nonzero, as a compare with 0 does.
        if a[:n, :n].any() or a[n:, n:].any():
            raise ValueError("A must have zero diagonal blocks")
        if (a[:n, n:] != np.eye(n)).any():
            raise ValueError("top-right block of A must be the identity")
        b = np.array(self.b, dtype=float).reshape(two_n)
        if b[:n].any():
            raise ValueError("B must drive only the rate block")
        c = np.array(self.c, dtype=float).reshape(two_n)
        x_bar = np.array(self.x_bar, dtype=float).reshape(two_n)
        if not np.isfinite(np.concatenate((a.ravel(), b, c, (self.d,)))).all():
            raise ValueError("state-space matrices must be finite")
        for name, value in (("a", a), ("b", b), ("c", c), ("x_bar", x_bar)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def mode_count(self) -> int:
        return self.a.shape[0] // 2

    @property
    def rate_block(self) -> np.ndarray:
        """Lower-left block S = -M^-1 K_eff(t_eq); poles are +-sqrt(eig S)."""
        n = self.mode_count
        return self.a[n:, :n]

    @functools.cached_property
    def rate_schur(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
        """(S_bal, scale, T, Z, ||S_bal||_2): the rate block balanced,
        S_bal = S with row i divided and column i multiplied by scale[i], and
        its Schur form S_bal = Z T Z^H with T upper triangular."""
        from scipy.linalg import matrix_balance, rsf2csf

        # Balanced similarity scaling: the monomial coordinates are badly scaled.
        s_bal, t_diag = matrix_balance(self.rate_block, permute=False)
        t_scale = np.diag(t_diag)
        # With real eigenvalues the real Schur form is triangular, a complex Schur
        # form in real arithmetic; complex pairs leave 2x2 blocks to convert.
        tri, unitary = schur(s_bal)
        if np.any(np.diag(tri, -1)):
            tri, unitary = rsf2csf(tri, unitary)
        for array in (s_bal, tri, unitary):  # t_scale, a diagonal view, is read-only
            array.setflags(write=False)
        return s_bal, t_scale, tri, unitary, np.linalg.norm(s_bal, 2)

    def rate_scaled(self, factor: float, b: np.ndarray, t_eq: float) -> StateSpaceModel:
        """This plant with its rate block times ``factor``, input vector ``b``
        and anchor tension ``t_eq``, built and checked by the constructor like
        any plant, carrying this plant's ``rate_schur`` scaled:
        (factor S_bal, scale, factor T, Z, factor ||S_bal||_2).

        ``scale`` holds powers of 2, so balancing the scaled block by it is
        exact short of overflow or underflow: the inherited S_bal is the new
        rate block balanced, bit for bit, and Z (factor T) Z^H is a Schur form
        of it.  ``factor`` must be finite and positive, so that the norm scales
        by it too.
        """
        factor = checked_real("rate factor", factor)
        n = self.mode_count
        a = self.a.copy()
        a[n:, :n] *= factor
        plant = replace(self, a=a, b=b, t_eq=t_eq)
        s_bal, t_scale, tri, unitary, s_norm = self.rate_schur
        s_bal, tri = s_bal * factor, tri * factor
        for array in (s_bal, tri):
            array.setflags(write=False)
        # Stored in the cached_property's slot before the plant is shared, so it is never computed.
        vars(plant)["rate_schur"] = (s_bal, t_scale, tri, unitary, s_norm * factor)
        return plant

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

    # The refusal reads eig of the whole A, not sqrt(eig S) off ``rate_schur``:
    # against 50-digit eigenvalues of the float S, from 11 modes the balanced Schur
    # form of S accepts plants that flutter (11 modes at 5.75 N: drift 1.3e-2), while
    # eig(A) refuses some stable 12-mode plants and accepts no fluttering one.
    real_drift = float(np.max(np.abs(ss.eigenvalues().real)))
    if real_drift > _EIG_AXIS_TOL:
        raise RuntimeError(
            f"eigenvalues of A drift off the imaginary axis by {real_drift:.3e} "
            f"at tension {t_eq} N: M^-1 K_eff has complex eigenvalues there (flutter "
            "under the cable load), or the spreader-matrix convention is broken"
        )
    return ss
