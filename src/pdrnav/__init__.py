"""Foot-mounted pedestrian dead reckoning.

Strapdown inertial navigation for a shoe-mounted IMU: six-parameter
sensor calibration from static batches, a 25-state extended Kalman
filter, stance detection with soft zero-velocity pseudo-measurements,
Allan-variance noise identification, and a synthetic gait generator
that doubles as the test oracle.

The subpackages are usable on their own; this module re-exports the
names most workflows touch.  One filter step runs on a bare mean and
covariance: `init_state` gives the first pair, then per sample
`predict`, `update` with the IMU sample and, on stance samples,
`zupt_update` with the run's `StanceStack`.
"""

from .allan import AllanCurve, NoiseCoefficients, allan_deviation, extract_coefficients
from .calibration import (
    CalibrationError,
    SensorCalibration,
    apply_accel_calibration,
    apply_gyro_calibration,
    canonical_gain,
    fit_accel_calibration,
)
from .ekf import (
    FilterConfig,
    FilterDivergenceError,
    default_filter_config,
    init_state,
    predict,
    update,
)
from .gait import (
    GaitParams,
    GroundTruth,
    NoiseParams,
    generate_gait,
    inverse_imu,
    razor_noise,
    scale_calibration,
    still_truth,
    zero_noise,
)
from .io import (
    PipelineConfig,
    read_calibration,
    read_config,
    read_gait_params,
    read_log,
    read_trajectory,
    read_truth,
    write_calibration,
    write_config,
    write_log,
    write_trajectory,
    write_truth,
)
from .tracker import (
    EvalReport,
    ImuLog,
    Trajectory,
    TrackerDivergence,
    epsilon_ttd,
    evaluate_trajectory,
    run_tracker,
)
from .zupt import (
    StanceConfig,
    StanceStack,
    default_stance_config,
    event_f1,
    match_intervals,
    zupt_update,
)

__version__ = "0.1.0"

__all__ = [
    "AllanCurve",
    "NoiseCoefficients",
    "allan_deviation",
    "extract_coefficients",
    "CalibrationError",
    "SensorCalibration",
    "apply_accel_calibration",
    "apply_gyro_calibration",
    "canonical_gain",
    "fit_accel_calibration",
    "FilterConfig",
    "FilterDivergenceError",
    "default_filter_config",
    "init_state",
    "predict",
    "update",
    "GaitParams",
    "GroundTruth",
    "NoiseParams",
    "generate_gait",
    "inverse_imu",
    "razor_noise",
    "scale_calibration",
    "still_truth",
    "zero_noise",
    "PipelineConfig",
    "read_calibration",
    "read_config",
    "read_gait_params",
    "read_log",
    "read_trajectory",
    "read_truth",
    "write_calibration",
    "write_config",
    "write_log",
    "write_trajectory",
    "write_truth",
    "EvalReport",
    "ImuLog",
    "Trajectory",
    "TrackerDivergence",
    "epsilon_ttd",
    "evaluate_trajectory",
    "run_tracker",
    "StanceConfig",
    "StanceStack",
    "default_stance_config",
    "event_f1",
    "match_intervals",
    "zupt_update",
    "__version__",
]
