"""Foot-mounted pedestrian dead reckoning.

Strapdown inertial navigation for a shoe-mounted IMU: nine-parameter
sensor calibration (six gain and three bias entries) from static
batches, a 25-state extended Kalman filter, stance detection with soft
zero-velocity pseudo-measurements, Allan-variance noise
identification, and a synthetic gait generator that doubles as the test
oracle.

Each layer module is usable on its own; this package re-exports the
public names of every one, their ``__all__`` lists in module order.
One filter step runs on a bare mean and covariance: `init_state` gives
the first pair, then per sample `predict`, `update` with the IMU sample
and, on stance samples, `zupt_update` with the run's `StanceStack`.
"""

from . import allan, calibration, ekf, gait, io, quat, tracker, zupt
from .allan import *  # noqa: F403
from .calibration import *  # noqa: F403
from .ekf import *  # noqa: F403
from .gait import *  # noqa: F403
from .io import *  # noqa: F403
from .quat import *  # noqa: F403
from .tracker import *  # noqa: F403
from .zupt import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (allan, calibration, ekf, gait, io, quat, tracker, zupt)
    for name in module.__all__
] + ["__version__"]
