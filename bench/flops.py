"""Operation count of the 25x25 covariance algebra per tracked sample,
and the time bare numpy takes for exactly that algebra.

    python3 bench/flops.py

Counts are floating-point operations (one multiply-add is two) of the
dense products the filter forms each sample: the predict step
``F P F' + Q`` and the Joseph-form update for the 6-row IMU measurement
and, on stance samples, the 22-row pseudo-measurement stack.  Jacobian
evaluation, state propagation and checks are left out: this is the
floor the covariance algebra sets, against which the measured
``tracker.us_per_sample`` shows how much is interpreter and small-array
overhead.  Prints one JSON object.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

N = 25
# Stance updates per sample: zupt.updates_per_sample of the traced runs.
STANCE_SHARE = {"walk": 0.297, "slow_walk": 0.799}


def update_flops(m: int, n: int = N) -> int:
    """Joseph-form Kalman update with an m-row measurement."""
    hp = 2 * m * n * n               # H P
    s = 2 * m * n * m                # (H P) H'
    chol = m**3 // 3
    gain = 2 * m * m * n             # solve against (H P)
    ikh = 2 * n * m * n              # K H
    joseph = 2 * (2 * n**3)          # (I-KH) P (I-KH)'
    krk = 2 * n * m * n              # (K R) K'
    return hp + s + chol + gain + ikh + joseph + krk


def predict_flops(n: int = N) -> int:
    return 2 * (2 * n**3)            # F P F'


def time_algebra(predict: bool, m: int, reps: int = 2000) -> float:
    """Best-of-five seconds per call of an optional predict plus one
    m-row update, in bare numpy and scipy."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((N, N))
    p = a @ a.T / N + np.eye(N)
    f = np.eye(N) + 0.01 * rng.standard_normal((N, N))
    q = np.diag(np.full(N, 1e-3))
    h = rng.standard_normal((m, N))
    r = np.full(m, 1e-2)
    eye = np.eye(N)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            p1 = f @ p @ f.T + q if predict else p
            hp = h @ p1
            s = hp @ h.T + np.diag(r)
            k = cho_solve(cho_factor(s, lower=True), hp).T
            ikh = eye - k @ h
            p1 = ikh @ p1 @ ikh.T + (k * r) @ k.T
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def main() -> None:
    every_sample = time_algebra(True, 6)
    stance_sample = time_algebra(False, 22)
    out = {}
    for name, share in STANCE_SHARE.items():
        out[name] = {
            "flops_per_sample": round(predict_flops() + update_flops(6)
                                      + share * update_flops(22)),
            "numpy_us_per_sample": 1e6 * (every_sample + share * stance_sample),
        }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
