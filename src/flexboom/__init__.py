"""flexboom: cable-actuated flexible boom modeling, control, and analysis.

Builds an assumed-modes discretization of a clamped boom actuated by a
tensioned cable, solves its tension-dependent equilibria, linearizes and
certifies passivity of the tip-rate channel, simulates the passivity-based
PD controller with constant or smooth time-varying feedforward, and fits
torque-to-deflection calibration maps from test data.
"""

__version__ = "0.1.0"

from . import (calibration, control, equilibrium, linearization, model, passivity,
               sim)
from .calibration import *  # noqa: F403
from .control import *  # noqa: F403
from .equilibrium import *  # noqa: F403
from .linearization import *  # noqa: F403
from .model import *  # noqa: F403
from .passivity import *  # noqa: F403
from .sim import *  # noqa: F403

__all__ = ["__version__", *model.__all__, *equilibrium.__all__,
           *linearization.__all__, *passivity.__all__, *control.__all__,
           *sim.__all__, *calibration.__all__]
