"""Polynomial torque-to-deflection maps fitted from steady-state test data.

On hardware the theoretical tension-deflection relationship is distorted by
effects such as motor cogging, so the map is identified empirically:
incremental open-loop torques are applied, the steady tip deflection is
recorded, and low-order polynomials are fitted by least squares.  Model
order is picked by residual with a parsimony rule (a higher degree must
earn its keep by improving the RMS residual at least 5 percent).

Fits run through numpy's Polynomial.fit, which maps the torque samples
onto a normalized window internally before solving, keeping the cubic
Vandermonde well conditioned; results are reported as plain descending
power-series coefficients.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "RankDeficient",
    "MeasurementSet",
    "TorqueDeflectionMap",
    "fit_map",
    "select_degree",
]

PARSIMONY_IMPROVEMENT = 0.05
_ZERO_RESIDUAL_FLOOR = 1e-12


class RankDeficient(ValueError):
    """Too few distinct torque levels to identify the requested degree."""


@dataclass(frozen=True)
class MeasurementSet:
    """Steady-state (torque, tip deflection) pairs with declared units."""

    torques: np.ndarray
    deflections: np.ndarray
    torque_unit: str = "N"
    deflection_unit: str = "m"
    source: str = ""

    def __post_init__(self) -> None:
        torques = np.atleast_1d(np.asarray(self.torques, dtype=float))
        deflections = np.atleast_1d(np.asarray(self.deflections, dtype=float))
        if torques.shape != deflections.shape or torques.ndim != 1:
            raise ValueError("torques and deflections must be matching 1-d arrays")
        if not np.all(np.isfinite(torques)):
            raise ValueError("torques must be finite")
        if not np.all(np.isfinite(deflections)):
            raise ValueError("deflections must be finite")
        object.__setattr__(self, "torques", torques)
        object.__setattr__(self, "deflections", deflections)

    @property
    def distinct_torques(self) -> int:
        return int(np.unique(self.torques).size)

    @classmethod
    def from_csv(cls, path: str | Path) -> "MeasurementSet":
        """Read `torque_<unit>,deflection_<unit>` rows from a CSV file."""
        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
            if len(header) != 2:
                raise ValueError(f"{path}: expected two columns, got {header!r}")
            units = []
            for column, prefix in zip(header, ("torque", "deflection")):
                name, _, unit = column.strip().partition("_")
                if name != prefix or not unit:
                    raise ValueError(
                        f"{path}: column {column!r} does not match '{prefix}_<unit>'")
                units.append(unit)
            torques = []
            deflections = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}:{line_no}: expected two fields, got {row!r}")
                try:
                    torques.append(float(row[0]))
                    deflections.append(float(row[1]))
                except ValueError:
                    raise ValueError(f"{path}:{line_no}: non-numeric row {row!r}") from None
        return cls(torques=np.array(torques), deflections=np.array(deflections),
                   torque_unit=units[0], deflection_unit=units[1],
                   source=str(path))


@dataclass(frozen=True)
class TorqueDeflectionMap:
    """Polynomial map, coefficients in descending degree; ``degree`` follows from them."""

    coefficients: tuple[float, ...]
    residual_rms: float
    fit_range: tuple[float, float]
    torque_unit: str = "N"
    deflection_unit: str = "m"

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, torque: float) -> float:
        return float(np.polyval(np.asarray(self.coefficients), torque))

    def extrapolates(self, torque: float) -> bool:
        """True when the requested torque lies outside the fitted range."""
        lo, hi = self.fit_range
        return not lo <= torque <= hi


def fit_map(data: MeasurementSet, degree: int) -> TorqueDeflectionMap:
    """Ordinary least-squares polynomial fit of deflection against torque."""
    # 1.0 and True equal 1, but only an int is a degree.
    if (type(degree) is bool or not isinstance(degree, (int, np.integer))
            or degree not in (1, 2, 3)):
        raise ValueError(f"degree must be 1, 2, or 3, got {degree}")
    if data.distinct_torques <= degree:
        raise RankDeficient(
            f"degree-{degree} fit needs more than {degree} distinct torques, "
            f"got {data.distinct_torques}"
        )
    poly = np.polynomial.Polynomial.fit(data.torques, data.deflections, degree)
    coeffs_ascending = poly.convert().coef
    coeffs = np.zeros(degree + 1)
    coeffs[: coeffs_ascending.size] = coeffs_ascending
    descending = tuple(float(c) for c in coeffs[::-1])
    predicted = np.polyval(np.asarray(descending), data.torques)
    residual_rms = float(np.sqrt(np.mean((predicted - data.deflections) ** 2)))
    return TorqueDeflectionMap(
        coefficients=descending,
        residual_rms=residual_rms,
        fit_range=(float(data.torques.min()), float(data.torques.max())),
        torque_unit=data.torque_unit,
        deflection_unit=data.deflection_unit,
    )


def select_degree(data: MeasurementSet) -> tuple[int, dict[int, float]]:
    """Fit degrees 1..3 and pick the best with a parsimony tie-break.

    A higher degree wins only by cutting the RMS residual at least
    ``PARSIMONY_IMPROVEMENT`` relative to the incumbent; otherwise the lower
    degree is preferred.  Requires at least four distinct torque levels.
    """
    if data.distinct_torques < 4:
        raise RankDeficient(
            f"degree selection needs at least 4 distinct torques, "
            f"got {data.distinct_torques}"
        )
    residuals = {d: fit_map(data, d).residual_rms for d in (1, 2, 3)}
    best = 1
    for d in (2, 3):
        if residuals[best] <= _ZERO_RESIDUAL_FLOOR:
            break
        if residuals[d] < (1.0 - PARSIMONY_IMPROVEMENT) * residuals[best]:
            best = d
    return best, residuals
