"""LTI state-space models of the boom about forced equilibria.

Perturbations (dx, du) about an equilibrium (q_eq, T_eq) obey
d/dt dx = A dx + B du with

    A = [[0, I], [-M^-1 K_eff(T_eq), 0]]
    B = [0; M^-1 df/du(q_eq)]

and the measured output is the tip deflection rate, C = [0, psi(L)], D = 0.
K_eff is ``StructuralModel.effective_stiffness`` and f is the cable load
``actuation_force``; f is linear in u, so df/du(q_eq) = f(q_eq, 1).
The structure is undamped, so every pole sits on the imaginary axis.

``linearize`` takes one equilibrium or a sequence of them, and linearizes a
sequence as one stack: one mass solve of the K_eff(T) blocks side by side,
one of the input loads, and one batched eigensolve of the A matrices for the
refusal, which names the first point whose A drifts off the imaginary axis.
A single point is the stack of one, and each column of a stacked solve carries
the bits of its point's own solve, so a plant does not depend on its stack.

scipy is not imported with this module, so that importing the package stays
on numpy alone (see the ``model`` module): ``linearize`` loads ``scipy.linalg``
through ``StructuralModel.mass_solve``, and a plant's ``rate_schur`` calls
scipy's LAPACK wrappers directly on its first read: ``dgebal`` to balance, and
``dgees`` through the module-level ``schur``, which a test can replace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .equilibrium import EquilibriumPoint
from .model import StructuralModel, actuation_force, checked_number, checked_real

__all__ = ["StateSpaceModel", "linearize"]

_EIG_AXIS_TOL = 1e-6  # absolute bound on |Re(eig(A))| for produced models


def schur(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real Schur form (T, Z) of a finite square ``matrix``, from LAPACK's
    ``dgees`` as ``scipy.linalg.schur(matrix)`` calls it (a workspace query,
    then the call), with scipy loaded on the first call; LinAlgError where it
    fails."""
    from scipy.linalg.lapack import dgees

    lwork = int(dgees(_unsorted, matrix, lwork=-1)[-2][0])
    tri, _, _, _, unitary, _, info = dgees(_unsorted, matrix, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"Schur form not found (dgees info {info})")
    return tri, unitary


def _unsorted(real: float, imag: float) -> None:
    """``dgees``'s eigenvalue selector, never called: the Schur form is not reordered."""


def _rate_input(b: np.ndarray, two_n: int) -> np.ndarray:
    """``b`` as a float vector of ``two_n`` entries; ValueError unless it drives only
    the rate block."""
    b = np.array(b, dtype=float).reshape(two_n)
    if b[:two_n // 2].any():
        raise ValueError("B must drive only the rate block")
    return b


def _check_finite(*arrays: np.ndarray | float) -> None:
    if not np.isfinite(np.concatenate(arrays, axis=None)).all():
        raise ValueError("state-space matrices must be finite")


@dataclass(frozen=True)
class StateSpaceModel:
    """(A, B, C, D) about an equilibrium, plus the anchor point: a value,
    immutable after construction and safe to share.

    The A matrix always carries the second-order mechanical block structure
    (zero top-left, identity top-right, zero bottom-right) and B drives only
    the rate block; the frequency-response code relies on it.  ``a``, ``b``,
    ``c`` and ``x_bar`` are read-only copies of the constructor's arrays, so
    the checks below hold for the plant's lifetime.  A box sample's plant
    from ``rate_scaled`` skips the constructor: it reruns the checks that its
    new rate block, ``b`` and ``t_eq`` can fail, and shares the parent's
    checked ``c``, ``x_bar`` and ``d``.  The six fields
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
        b = _rate_input(self.b, two_n)
        c = np.array(self.c, dtype=float).reshape(two_n)
        x_bar = np.array(self.x_bar, dtype=float).reshape(two_n)
        _check_finite(a, b, c, self.d)
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
        its Schur form S_bal = Z T Z^H with T upper triangular.

        Its bits are those of ``scipy.linalg.matrix_balance(S, permute=False)``,
        ``scipy.linalg.schur`` and ``numpy.linalg.norm(S_bal, 2)``: it calls the
        LAPACK routines behind them (``dgebal``, ``dgees``) and the singular
        values directly, since their wrappers cost more than a small block's
        factorisation.
        """
        from scipy.linalg import rsf2csf
        from scipy.linalg.lapack import dgebal

        # Balanced similarity scaling: the monomial coordinates are badly scaled.
        s_bal, _, _, t_scale, _ = dgebal(self.rate_block, scale=1, permute=0)
        # With real eigenvalues the real Schur form is triangular, a complex Schur
        # form in real arithmetic; complex pairs leave 2x2 blocks to convert.
        tri, unitary = schur(s_bal)
        if np.any(np.diag(tri, -1)):
            tri, unitary = rsf2csf(tri, unitary)
        for array in (s_bal, t_scale, tri, unitary):
            array.setflags(write=False)
        return s_bal, t_scale, tri, unitary, np.linalg.svd(s_bal, compute_uv=False).max()

    def rate_scaled(self, factor: float, b: np.ndarray, t_eq: float) -> StateSpaceModel:
        """This plant with its rate block times ``factor``, input vector ``b``
        and anchor tension ``t_eq``, carrying this plant's ``rate_schur``
        scaled: (factor S_bal, scale, factor T, Z, factor ||S_bal||_2).

        The new plant is the one the constructor builds from those arrays, made
        without it: it runs only the checks a factor, a new ``b`` and ``t_eq``
        can fail, with the constructor's messages (``factor`` finite and > 0,
        so that the norm scales by it too; ``b`` driving only the rate block;
        the scaled block and ``b`` finite; ``t_eq`` a real number), and shares
        this plant's read-only ``c``, ``x_bar`` and ``d``.  ``scale`` holds
        powers of 2, so balancing the
        scaled block by it is exact short of overflow or underflow: the
        inherited S_bal is the new rate block balanced, bit for bit, and
        Z (factor T) Z^H is a Schur form of it.
        """
        factor = checked_real("rate factor", factor)
        t_eq = checked_number("t_eq", t_eq)
        n = self.mode_count
        b = _rate_input(b, 2 * n)
        a = self.a.copy()
        a[n:, :n] *= factor
        _check_finite(a[n:, :n], b)
        s_bal, t_scale, tri, unitary, s_norm = self.rate_schur
        s_bal, tri = s_bal * factor, tri * factor
        for array in (a, b, s_bal, tri):
            array.setflags(write=False)
        plant = object.__new__(StateSpaceModel)
        # The fields in the constructor's order, then the factorisation in the
        # cached_property's slot, so it is never computed.
        vars(plant).update(a=a, b=b, c=self.c, d=self.d, t_eq=t_eq, x_bar=self.x_bar,
                           rate_schur=(s_bal, t_scale, tri, unitary, s_norm * factor))
        return plant

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.a)


def linearize(model: StructuralModel, eq: EquilibriumPoint | Sequence[EquilibriumPoint]
              ) -> StateSpaceModel | list[StateSpaceModel]:
    """Linearize the boom dynamics about a forced equilibrium, or about each
    point of a sequence of them, returning their plants in order (a list).

    A sequence is one stack (module docstring), and each of its plants is bit
    for bit the plant of its point's own call.  Raises RuntimeError if an
    eigenvalue of A strays off the imaginary axis by more than 1e-6
    (absolute), naming the first point of the stack where one does: flutter,
    where M^-1 K_eff(T) has complex eigenvalues (two modes: from about
    25.86 N), or a broken spreader-matrix convention.
    """
    single = isinstance(eq, EquilibriumPoint)
    points = [eq] if single else list(eq)
    n, m = model.mode_count, len(points)
    q_eq = np.array([p.modal_coords for p in points], dtype=float).reshape(m, n)
    k_eff = model.effective_stiffness(np.array([p.tension for p in points])[:, None, None])

    a = np.zeros((m, 2 * n, 2 * n))
    a[:, :n, n:] = np.eye(n)
    # K_eff(T) before the mass solve: -M^-1 K + T M^-1 S/dx cancels next to a pole.
    rhs = k_eff.transpose(1, 0, 2).reshape(n, m * n)
    a[:, n:, :n] = -model.mass_solve(rhs).reshape(n, m, n).transpose(1, 0, 2)
    inputs = model.mass_solve(actuation_force(model, q_eq, 1.0).T).T

    zeros = np.zeros(n)
    c = np.concatenate((zeros, model.tip_row))
    plants = [StateSpaceModel(a=a_k, b=np.concatenate((zeros, b_k)), c=c, d=0.0,
                              t_eq=p.tension, x_bar=np.concatenate((q_k, zeros)))
              for a_k, b_k, q_k, p in zip(a, inputs, q_eq, points)]

    # The refusal reads eig of the whole A, not sqrt(eig S) off ``rate_schur``:
    # against 50-digit eigenvalues of the float S, from 11 modes the balanced Schur
    # form of S accepts plants that flutter (11 modes at 5.75 N: drift 1.3e-2), while
    # eig(A) refuses some stable 12-mode plants and accepts no fluttering one.
    drifts = np.abs(np.linalg.eigvals(a).real).max(axis=1)
    for real_drift, p in zip(drifts.tolist(), points):
        if real_drift > _EIG_AXIS_TOL:
            raise RuntimeError(
                f"eigenvalues of A drift off the imaginary axis by {real_drift:.3e} "
                f"at tension {p.tension} N: M^-1 K_eff has complex eigenvalues there "
                "(flutter under the cable load), or the spreader-matrix convention is broken"
            )
    return plants[0] if single else plants
