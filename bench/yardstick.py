"""A fixed reference computation that measures the machine's current speed.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent within a minute: an identical pass can take 1.1 s or 1.8 s.
Timing this fixed computation between passes, and dividing each pass by the
mean of the yardstick times just before and just after it, cancels most of
that drift.  The yardstick does not call ``flexboom``, so no change to the
program moves it.  It mixes the three kinds of work the passes do: a
Python-level RK4 loop over small numpy arrays (like ``sim``), batched solves
and condition numbers of 3 by 3 matrices (like ``passivity``), and single
small solves (like ``equilibrium``).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

_RK4_STEPS = 4000
_BATCHES = 15
_SOLVES = 1000


class Yardstick:
    """Fixed inputs built once; ``measure()`` returns one timing in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((3, 3))
        self._batch = rng.standard_normal((2000, 3, 3)) + 3.0 * np.eye(3)
        self._rhs = rng.standard_normal((2000, 3, 1))

    def _run(self) -> float:
        a = self._a

        def f(t: float, x: np.ndarray) -> np.ndarray:
            out = np.empty(6)
            out[:3] = x[3:]
            out[3:] = a @ x[:3] - 0.1 * x[3:] + math.sin(t)
            return out

        x, t, h = np.ones(6), 0.0, 1e-3
        for _ in range(_RK4_STEPS):
            k1 = f(t, x)
            k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = f(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            t += h
        for _ in range(_BATCHES):
            np.linalg.solve(self._batch, self._rhs)
            np.linalg.cond(self._batch)
        for i in range(_SOLVES):
            x[:3] += np.linalg.solve(self._batch[i], self._rhs[i, :, 0])
        return float(x.sum())

    def measure(self) -> float:
        start = perf_counter()
        self._run()
        return perf_counter() - start
