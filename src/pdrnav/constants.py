"""Physical constants, the sensor model and its noise figures.

The noise figures are Allan-variance coefficients of a consumer-grade
Razor-class 9DOF board, the kind commonly strapped to a shoe.  They seed
the default filter tuning and the synthetic walk generator.

Units: random-walk densities N are (unit)/sqrt(Hz) and bias instabilities
B are in (unit), where unit is m/s^2 for accelerometers and rad/s for
gyroscopes.  Gyro datasheets quote deg-based figures; the conversion to
radians happens here, once, so nothing downstream touches degrees.
"""

from __future__ import annotations

import numpy as np

# Standard gravity (m/s^2).
GRAVITY = 9.80665

# Default IMU sample rate (Hz).
DEFAULT_FS = 100.0

ADC_MIN, ADC_MAX = -32768, 32767  # signed 16-bit range of every raw count

# Default ADC scale: 16-bit accelerometer spanning +/-4 g, 16-bit gyroscope
# spanning +/-500 deg/s.  One count equals one LSB.
DEFAULT_LSB_ACCEL = 4.0 * GRAVITY / 32768.0        # m/s^2 per count
DEFAULT_LSB_GYRO = float(np.deg2rad(500.0)) / 32768.0  # rad/s per count

DEG = np.pi / 180.0

# Razor-class consumer IMU, per axis (x, y, z).
RAZOR_GYRO_N = np.array([5.2e-3, 12.1e-3, 5.6e-3]) * DEG     # (rad/s)/sqrt(Hz)
RAZOR_GYRO_B = np.array([3.0e-3, 18.0e-3, 4.4e-3]) * DEG     # rad/s
RAZOR_ACCEL_N = np.array([5.5e-3, 5.1e-3, 7.6e-3])           # (m/s^2)/sqrt(Hz)
RAZOR_ACCEL_B = np.array([609e-6, 590e-6, 732e-6])           # m/s^2

# Largest median rate (rad/s) of a still window: levelling or calibration.
STILL_RATE_LIMIT = 0.05

# Seconds over which a bias random walk wanders by about its instability B.
BIAS_HORIZON = 100.0
