"""Filter faults keyed to one sample, for the divergence tests.

A fault is keyed to the state a stage's kernel receives at one sample of
a clean run, so it strikes that sample whichever path reaches the
kernel: the tracker's step, the tracker's replay of a failed step, and
the per-call chain of `oracles.chain_tracker` all hand the kernel the
same bits there.  A fault counted by calls would strike the replay one
call later than the step.
"""

from __future__ import annotations

import numpy as np
import pytest

import pdrnav.tracker as tracker_module
from pdrnav import ekf
from pdrnav.ekf import ACC_B, POS

import oracles

# The tracker's kernel for each stage, and the `oracles.chain_tracker`
# argument that runs the same stage in the chain, with its default.
TRACKER_KERNELS = {"predict": "predict", "imu": "update",
                   "stance": "zupt_update"}
CHAIN_KERNELS = {"predict": ("predict", ekf.predict),
                 "imu": ("imu_update", oracles.dense_imu_update),
                 "stance": ("stance_update", oracles.dense_stance_update)}

# The message of the ``"raises"`` fault.
RAISED = "cannot normalize quaternion with norm 0"

# A state that the first row of the stage's H reads, so a large negative
# variance of it makes S's first leading minor negative (info 1).
_FIRST_READ = {"imu": ACC_B.start, "stance": POS.start}


def stage_inputs(log, accel_cal, gyro_cal, stage):
    """The state each call of ``stage``'s tracker kernel receives in a
    clean `run_tracker` run, in call order: one per sample for predict
    and the IMU update, one per stance sample for the stance update."""
    name = TRACKER_KERNELS[stage]
    kernel = getattr(tracker_module, name)
    seen = []

    def spy(x, *rest):
        seen.append(x.copy())
        return kernel(x, *rest)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(tracker_module, name, spy)
        tracker_module.run_tracker(log, accel_cal, gyro_cal)
    return seen


def faulty(kernel, stage, fault, key):
    """``kernel`` (called as ``kernel(x, P, ...)``), corrupted where it
    receives the state ``key``.

    ``"nonfinite"`` puts NaN in the covariance the kernel returns.
    ``"indefinite"`` puts -1 on that covariance's first diagonal entry
    for predict, and for an update gives the kernel a covariance whose
    innovation covariance S is indefinite.  ``"raises"`` raises the
    ValueError that a degenerate quaternion norm raises.
    """
    def run(x, p_mat, *rest):
        if not np.array_equal(x, key):
            return kernel(x, p_mat, *rest)
        if fault == "raises":
            raise ValueError(RAISED)
        if fault == "indefinite" and stage != "predict":
            p_mat = p_mat.copy()
            p_mat[_FIRST_READ[stage], _FIRST_READ[stage]] = -1e3
            return kernel(x, p_mat, *rest)
        x1, p1 = kernel(x, p_mat, *rest)
        p1 = p1.copy()
        p1[0, 0] = np.nan if fault == "nonfinite" else -1.0
        return x1, p1

    return run


def inject_fault(monkeypatch, stage, fault, key):
    """Give the tracker's ``stage`` kernel a `faulty` fault at ``key``;
    return the `oracles.chain_tracker` keyword argument that gives the
    chain's kernel for that stage the same fault."""
    name = TRACKER_KERNELS[stage]
    monkeypatch.setattr(tracker_module, name, faulty(
        getattr(tracker_module, name), stage, fault, key))
    argument, kernel = CHAIN_KERNELS[stage]
    return {argument: faulty(kernel, stage, fault, key)}
