"""Spans around the calls into each layer of pdrnav, for the traced run.

`Tracer.install` wraps every public function of the layer modules (the
names in each module's ``__all__``) and rebinds the wrapper wherever a
pdrnav module holds the original, so calls between layers are caught as
well as calls from the command line front end.  Nothing in ``src/``
changes; `Tracer.uninstall` puts the originals back.

A span is one call: name, parent span, operation id, start and end in
ns, and for calls whose work has a natural size (rows read or written,
samples tracked) that size.  Spans are kept in flat arrays in memory and
written to one ``.npz`` file at the end.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("ekf", "zupt", "quat", "tracker", "calibration", "io", "gait", "allan")

# Work counted at the boundary, from (positional args, result).
_SIZES = {
    "io.read_log": lambda args, out: out.t.size,
    "io.write_log": lambda args, out: args[1].t.size,
    "io.read_truth": lambda args, out: out.t.size,
    "io.write_truth": lambda args, out: args[1].t.size,
    "io.read_trajectory": lambda args, out: out.t.size,
    "io.write_trajectory": lambda args, out: args[1].t.size,
    "gait.generate_gait": lambda args, out: out.t.size,
    "gait.inverse_imu": lambda args, out: args[0].t.size,
    "tracker.run_tracker": lambda args, out: args[0].t.size,
    "zupt.sfs_series": lambda args, out: len(args[0]),
    "calibration.apply_accel_calibration":
        lambda args, out: np.atleast_2d(args[1]).shape[0],
    "calibration.apply_gyro_calibration":
        lambda args, out: np.atleast_2d(args[1]).shape[0],
    "allan.allan_deviation": lambda args, out: len(args[0]),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op_kinds: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op_id = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.size = array.array("q")
        self._stack = [-1]
        self._current_op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        size_of = _SIZES.get(name)
        names, parents, ops = self.name, self.parent, self.op_id
        starts, ends, sizes, stack = self.start, self.end, self.size, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer._current_op)
            ends.append(0)
            sizes.append(-1)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if size_of is not None:
                sizes[sid] = size_of(args, out)
            return out

        return traced

    def op(self, kind: str, fn):
        """``fn`` wrapped as the root span of a new operation."""
        self._current_op = len(self.op_kinds)
        self.op_kinds.append(kind)
        return self._wrap(f"op.{kind}", fn)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pdrnav.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pdrnav" and not mod_name.startswith("pdrnav."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "op_kinds": np.array(self.op_kinds),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


class Spans:
    """Durations and self times of a finished trace, grouped by name."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = list(a["names"])
        self.name = a["name"]
        self.size = a["size"]
        self.dur = (a["end_ns"] - a["start_ns"]).astype(float)
        parent = a["parent"]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                               minlength=self.dur.size)
        self.self_time = self.dur - children
        kinds = np.array(tracer.op_kinds + [""])
        self.op_kind = kinds[a["op_id"]]

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name == self.names.index(name)

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
        return np.isin(self.name, ids)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def mean_us(self, name: str) -> float:
        m = self.mask(name)
        return float(self.dur[m].mean()) / 1e3 if m.any() else 0.0

    def total_us(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum()) / 1e3

    def size_of(self, name: str) -> int:
        return int(self.size[self.mask(name)].sum())

    def us_per_unit(self, name: str) -> float:
        size = self.size_of(name)
        return self.total_us(name) / size if size else 0.0


def layer_metrics(tracer: Tracer, overhead_pct: float) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``.

    Per-sample figures divide by the samples tracked in traced rounds.
    """
    s = Spans(tracer)
    samples = s.size_of("tracker.run_tracker")

    def per_sample(x: float) -> float:
        return x / samples if samples else 0.0

    quat_in_track = s.layer_mask("quat") & (s.op_kind == "track")
    cal_apply = s.mask("calibration.apply_accel_calibration") | s.mask(
        "calibration.apply_gyro_calibration")
    return {
        "ekf.predict_us": (s.mean_us("ekf.predict"), "us"),
        "ekf.update_us": (s.mean_us("ekf.update"), "us"),
        "ekf.kalman_update_us": (s.mean_us("ekf.kalman_update"), "us"),
        "ekf.fd_jacobian_us": (s.mean_us("ekf.finite_difference_jacobian"), "us"),
        "ekf.fd_jacobian_calls_per_sample":
            (per_sample(s.count("ekf.finite_difference_jacobian")), "count"),
        "ekf.predict_calls_per_sample": (per_sample(s.count("ekf.predict")), "count"),
        "zupt.build_us": (s.mean_us("zupt.build_pseudo_measurements"), "us"),
        "zupt.update_us": (s.mean_us("zupt.zupt_update"), "us"),
        "zupt.updates_per_sample": (per_sample(s.count("zupt.zupt_update")), "ratio"),
        "zupt.sfs_series_us_per_sample": (s.us_per_unit("zupt.sfs_series"), "us/sample"),
        "quat.calls_per_sample": (per_sample(int(quat_in_track.sum())), "count"),
        "quat.us_per_sample":
            (per_sample(float(s.self_time[quat_in_track].sum()) / 1e3), "us/sample"),
        "tracker.us_per_sample": (s.us_per_unit("tracker.run_tracker"), "us/sample"),
        "tracker.self_us_per_sample": (per_sample(
            float(s.self_time[s.mask("tracker.run_tracker")].sum()) / 1e3), "us/sample"),
        "tracker.evaluate_ms": (s.mean_us("tracker.evaluate_trajectory") / 1e3, "ms"),
        "calibration.apply_us_per_sample":
            (per_sample(float(s.self_time[cal_apply].sum()) / 1e3), "us/sample"),
        "calibration.batch_means_ms": (s.mean_us("calibration.batch_means") / 1e3, "ms"),
        "calibration.fit_ms": (s.mean_us("calibration.fit_accel_calibration") / 1e3, "ms"),
        "io.read_log_us_per_row": (s.us_per_unit("io.read_log"), "us/row"),
        "io.write_log_us_per_row": (s.us_per_unit("io.write_log"), "us/row"),
        "io.write_truth_us_per_row": (s.us_per_unit("io.write_truth"), "us/row"),
        "io.write_trajectory_us_per_row": (s.us_per_unit("io.write_trajectory"), "us/row"),
        "io.read_trajectory_us_per_row": (s.us_per_unit("io.read_trajectory"), "us/row"),
        "io.read_truth_us_per_row": (s.us_per_unit("io.read_truth"), "us/row"),
        "gait.generate_gait_us_per_sample":
            (s.us_per_unit("gait.generate_gait"), "us/sample"),
        "gait.inverse_imu_us_per_sample": (s.us_per_unit("gait.inverse_imu"), "us/sample"),
        "allan.deviation_ms": (s.mean_us("allan.allan_deviation") / 1e3, "ms"),
        "allan.extract_ms": (s.mean_us("allan.extract_coefficients") / 1e3, "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
