"""PD tip-deflection control with constant or smooth time-varying feedforward.

The control tension is

    u(t) = T_des(t) - k_p (w_tip - w_des(t)) - k_d (w_rate - w_rate_des(t)),

optionally clamped to stay nonnegative (a cable cannot push).  Because the
measured plant output is the tip deflection *rate*, this PD law acts on the
rate channel as a PI map with feedthrough k_d, which is very strictly
passive for k_p, k_d > 0; that is what buys robust closed-loop stability.

Feedforward tension profiles and deflection references use the quintic
blend 10 s^3 - 15 s^4 + 6 s^5, which starts and ends with zero rate and
zero acceleration.  A reference can also be composed from a fitted
torque-to-deflection polynomial map evaluated at the feedforward tension
(a cubic map over the quintic profile yields a degree-15 polynomial of
time); its rate uses the analytic chain rule so that no numeric
differentiation noise enters the derivative gain.

The module is unit agnostic: gains, tensions, deflections, and maps must
simply be supplied in one consistent unit system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import checked_number, checked_real

__all__ = [
    "PDGains",
    "FeedforwardProfile",
    "ReferenceTrajectory",
    "ControllerConfig",
    "ControlSample",
    "feedforward_tension",
    "feedforward_tension_rate",
    "desired_deflection",
    "control_input",
    "make_controller",
]


@dataclass(frozen=True)
class PDGains:
    """Proportional and derivative gains: each a real number, finite and > 0
    (a bool, a string or a value that is not a real number is a ValueError).

    The defaults, k_p = 10 N/m and k_d = 25 N s/m, are the fig7a gains.
    k_d > 0 doubles as the strictly positive feedthrough of the equivalent
    PI-on-rate map, so it is load bearing for the passivity argument, not
    just a tuning preference.
    """

    k_p: float = 10.0
    k_d: float = 25.0

    def __post_init__(self) -> None:
        for name in ("k_p", "k_d"):
            checked_real(name, getattr(self, name))


@dataclass(frozen=True)
class FeedforwardProfile:
    """Feedforward tension: constant, or a quintic ramp from T_0 to T_f."""

    mode: str  # "constant" | "quintic"
    tension_final: float
    tension_initial: float = 0.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("constant", "quintic"):
            raise ValueError(f"unknown feedforward mode {self.mode!r}")
        for name in ("tension_final", "tension_initial"):
            checked_number(name, getattr(self, name))
        if not (np.isfinite(self.tension_final) and np.isfinite(self.tension_initial)):
            raise ValueError("feedforward tensions must be finite")
        if self.mode == "quintic":
            checked_real("quintic feedforward duration", self.duration)

    @classmethod
    def constant(cls, tension: float) -> "FeedforwardProfile":
        return cls(mode="constant", tension_final=tension)

    @classmethod
    def quintic(cls, tension_initial: float, tension_final: float,
                duration: float) -> "FeedforwardProfile":
        return cls(mode="quintic", tension_final=tension_final,
                   tension_initial=tension_initial, duration=duration)


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Desired tip deflection: constant, quintic ramp, or map-composed.

    Map-composed mode evaluates a polynomial torque-to-deflection map
    (coefficients in descending degree) along the feedforward profile, so
    it additionally needs the FeedforwardProfile at evaluation time.
    """

    mode: str  # "constant" | "quintic-deflection" | "map-composed"
    w_final: float = 0.0
    w_initial: float = 0.0
    duration: float = 0.0
    map_coefficients: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("constant", "quintic-deflection", "map-composed"):
            raise ValueError(f"unknown reference mode {self.mode!r}")
        for name in ("w_final", "w_initial"):
            checked_number(name, getattr(self, name))
        if self.mode == "quintic-deflection":
            checked_real("quintic-deflection reference duration", self.duration)
        if self.mode == "map-composed" and not self.map_coefficients:
            raise ValueError("map-composed reference needs map coefficients")
        if self.map_coefficients is not None:
            object.__setattr__(self, "map_coefficients",
                               tuple(float(c) for c in self.map_coefficients))
        if not np.all(np.isfinite([self.w_final, self.w_initial,
                                   *(self.map_coefficients or ())])):
            raise ValueError("reference deflections and map coefficients must be finite")

    @classmethod
    def constant(cls, w: float) -> "ReferenceTrajectory":
        return cls(mode="constant", w_final=w)

    @classmethod
    def quintic(cls, w_initial: float, w_final: float, duration: float
                ) -> "ReferenceTrajectory":
        return cls(mode="quintic-deflection", w_final=w_final,
                   w_initial=w_initial, duration=duration)

    @classmethod
    def map_composed(cls, map_coefficients: Sequence[float]) -> "ReferenceTrajectory":
        return cls(mode="map-composed", map_coefficients=tuple(map_coefficients))


@dataclass(frozen=True)
class ControllerConfig:
    gains: PDGains
    feedforward: FeedforwardProfile
    reference: ReferenceTrajectory
    clamp_nonnegative: bool = False

    def __post_init__(self) -> None:
        if (self.reference.mode == "quintic-deflection"
                and self.feedforward.mode == "quintic"
                and self.reference.duration != self.feedforward.duration):
            raise ValueError(
                "time-varying feedforward and reference must share one duration: "
                f"{self.feedforward.duration} != {self.reference.duration}"
            )


# t -> value and time rate; reference laws also get the feedforward and its rate.
_Law = Callable[..., tuple[float, float]]


def _ramp_law(start: float, end: float, duration: float) -> _Law:
    """t -> value and time rate of the quintic ramp from start to end.

    The blend of s = t / duration has s-derivative 30 s^2 (1 - s)^2 >= 0.
    Only outside [0, duration] does s need clipping to [0, 1]; there the value
    holds its endpoint and the rate is zero (a NaN time: NaN value, zero rate).
    """
    rise = end - start

    def ramp(t: float, *_) -> tuple[float, float]:
        inside = 0.0 <= t <= duration
        s = t / duration if inside else min(max(t / duration, 0.0), 1.0)
        rate = 30.0 * s * s * (1.0 - s) * (1.0 - s) * rise / duration if inside else 0.0
        return start + s * s * s * (10.0 + s * (-15.0 + 6.0 * s)) * rise, rate

    return ramp


def _feedforward_law(profile: FeedforwardProfile) -> _Law:
    """t -> feedforward tension and its time rate."""
    if profile.mode == "constant":
        tension = profile.tension_final
        return lambda t: (tension, 0.0)
    return _ramp_law(profile.tension_initial, profile.tension_final, profile.duration)


def _reference_law(ref: ReferenceTrajectory) -> _Law:
    """(t, tension, tension_rate) -> desired tip deflection and its time rate.

    A map-composed reference evaluates the map at the feedforward tension,
    with its rate by the chain rule; the derivative's coefficients are formed
    here, once, as np.polyder forms them, and both run np.polyval's Horner
    operations.  The other modes ignore the tension.
    """
    if ref.mode == "constant":
        w = ref.w_final
        return lambda t, *_: (w, 0.0)
    if ref.mode == "quintic-deflection":
        return _ramp_law(ref.w_initial, ref.w_final, ref.duration)
    coeffs = ref.map_coefficients
    degree = len(coeffs) - 1
    slopes = tuple(c * (degree - i) for i, c in enumerate(coeffs[:-1]))

    def composed(t: float, tension: float, tension_rate: float) -> tuple[float, float]:
        w = slope = 0.0
        for c in coeffs:
            w = w * tension + c
        for c in slopes:
            slope = slope * tension + c
        return w, slope * tension_rate

    return composed


def feedforward_tension(profile: FeedforwardProfile, t: float) -> float:
    """Feedforward tension at time t >= 0 (holds the final value past t_f)."""
    return _feedforward_law(profile)(t)[0]


def feedforward_tension_rate(profile: FeedforwardProfile, t: float) -> float:
    """Time derivative of the feedforward tension (zero outside [0, t_f])."""
    return _feedforward_law(profile)(t)[1]


def desired_deflection(ref: ReferenceTrajectory, t: float,
                       feedforward: FeedforwardProfile | None = None
                       ) -> tuple[float, float]:
    """Desired tip deflection and its rate at time t (holds past t_f)."""
    if feedforward is None and ref.mode == "map-composed":
        raise ValueError("map-composed reference needs the feedforward profile")
    signal = _feedforward_law(feedforward)(t) if feedforward is not None else ()
    return _reference_law(ref)(t, *signal)


class ControlSample(NamedTuple):
    """One evaluation of the control law, pre- and post-clamp."""

    time: float
    t_des: float
    w_des: float
    w_rate_des: float
    u_unclamped: float
    u: float


def make_controller(cfg: ControllerConfig) -> Callable[[float, float, float], ControlSample]:
    """Bind a config into a fast (t, w_tip, w_rate) -> ControlSample closure."""
    k_p = cfg.gains.k_p
    k_d = cfg.gains.k_d
    feedforward = _feedforward_law(cfg.feedforward)
    reference = _reference_law(cfg.reference)
    clamp = cfg.clamp_nonnegative
    new_sample = tuple.__new__  # what ControlSample() calls, minus its Python frame

    def controller(t: float, w_tip: float, w_rate: float) -> ControlSample:
        t_des, t_des_rate = feedforward(t)
        w_des, w_rate_des = reference(t, t_des, t_des_rate)
        u_raw = t_des - k_p * (w_tip - w_des) - k_d * (w_rate - w_rate_des)
        u = max(0.0, u_raw) if clamp else u_raw
        return new_sample(ControlSample, (t, t_des, w_des, w_rate_des, u_raw, u))

    return controller


def control_input(cfg: ControllerConfig, t: float, w_tip: float,
                  w_rate: float) -> ControlSample:
    """Evaluate the PD-plus-feedforward law; returns clamped and raw tension."""
    if np.isnan(t) or not (np.isfinite(w_tip) and np.isfinite(w_rate)):
        raise ValueError("time must not be NaN and tip measurements must be finite")
    return make_controller(cfg)(t, w_tip, w_rate)
