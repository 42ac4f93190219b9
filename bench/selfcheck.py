"""Self-check of the benchmark on reduced inputs.

    python3 bench/selfcheck.py

From the root of a repository checkout; takes about 20 seconds.  For each
workload it runs one round on reduced inputs (a smaller square at the
workload's cadence, a 20,001-sample still log), untraced and then
traced, and confirms that

- no operation fails,
- every metric named in ``BENCHMARK.json`` is produced, with its unit,
- each output check rejects a deliberately corrupted output,
- ``run.py`` exits non-zero without a result where ``src/`` is missing.

Exit code 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402

OUT = os.path.join(BENCH, "out", "selfcheck")

REDUCED = {
    "walk": session.Walk(4.0, 1.5, 0.15),
    "slow_walk": session.Walk(1.0, 0.5, 1.5),
    "imu_characterization": session.Walk(3.0, 1.5, 0.15),
}


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _compare(label: str, produced: dict, declared: dict) -> list[str]:
    got = {name: unit for name, (_, unit) in produced.items()}
    problems = [f"{label}: {name} not produced" for name in declared.keys() - got.keys()]
    problems += [f"{label}: {name} produced but not declared"
                 for name in got.keys() - declared.keys()]
    problems += [f"{label}: {name} in {got[name]}, declared {declared[name]}"
                 for name in got.keys() & declared.keys() if got[name] != declared[name]]
    return problems


def run_workloads() -> tuple[list[str], session.Inputs]:
    problems = []
    walk_inputs = None
    for name, walk in REDUCED.items():
        workload = session.Workload(name, walk, 20_001)
        inputs = session.setup(workload, 0, os.path.join(OUT, name))
        runner = session.Runner()
        runner.round(inputs)
        problems += [f"{name}: {op.kind} failed: {p}"
                     for op in runner.ops for p in op.problems]
        problems += _compare(name, session.end_to_end(runner, 1.0, 1.0),
                             _declared("end_to_end"))
        runner.tracer = tracer = tracing.Tracer()
        tracer.install()
        try:
            runner.round(inputs)
        finally:
            tracer.uninstall()
        problems += _compare(f"{name} traced", tracing.layer_metrics(tracer, 0.0),
                             _declared("per_layer"))
        if name == "walk":
            walk_inputs = inputs
    return problems, walk_inputs


def _rewrite_csv(src, dst, change) -> None:
    rows = checks.read_csv(src)
    change(rows)
    np.savetxt(dst, rows, fmt="%.17g", delimiter=",", header="corrupted")


def _rewrite_json(src, dst, change) -> None:
    with open(src) as fh:
        doc = json.load(fh)
    change(doc)
    with open(dst, "w") as fh:
        json.dump(doc, fh)


def corrupted_outputs_rejected(inputs: session.Inputs) -> list[str]:
    """Each check must fail on an output with one deliberate fault."""
    p = inputs.path
    bad = p("corrupted")
    walk = inputs.walk

    def scale_entry(key, index, factor):
        def change(doc):
            doc["accel"][key][index] *= factor
        return change

    def set_rows(column, value, rows=slice(None)):
        def change(a):
            a[rows, column] = value
        return change

    def bump_report(key, amount):
        def change(doc):
            if key == "checkpoint_errors":
                doc[key][3] += amount
            else:
                doc[key] += amount
        return change

    cases = {
        "calibration gain 2% off": (
            lambda: _rewrite_json(p("fit.json"), bad, scale_entry("gain", 0, 1.02)),
            lambda: checks.check_calibrate(bad, inputs.gain, inputs.bias)),
        "calibration bias 3% off": (
            lambda: _rewrite_json(p("fit.json"), bad, scale_entry("bias", 1, 1.03)),
            lambda: checks.check_calibrate(bad, inputs.gain, inputs.bias)),
        "allan random walk 15% high": (
            lambda: _rewrite_json(p("allan_3_coefficients.json"), bad,
                                  lambda d: d.update(random_walk=d["random_walk"] * 1.15)),
            lambda: checks.check_allan(bad, p("allan_3.csv"), 3,
                                       session.DENSITIES[3])),
        "truth stance flag flipped": (
            lambda: _rewrite_csv(p("truth.csv"), bad, set_rows(11, 0.0, 0)),
            lambda: checks.check_simulate(p("walk.csv"), bad, walk)),
        "log row dropped": (
            lambda: np.savetxt(bad, checks.read_csv(p("walk.csv"))[:-1],
                               fmt="%.17g", delimiter=","),
            lambda: checks.check_simulate(bad, p("truth.csv"), walk)),
        "trajectory quaternion not unit": (
            lambda: _rewrite_csv(p("traj.csv"), bad, set_rows(4, 1.001, 100)),
            lambda: checks.check_track(bad, walk)),
        "trajectory stance everywhere": (
            lambda: _rewrite_csv(p("traj.csv"), bad, set_rows(9, 1.0)),
            lambda: checks.check_track(bad, walk)),
        "trajectory row dropped": (
            lambda: np.savetxt(bad, checks.read_csv(p("traj.csv"))[1:],
                               fmt="%.17g", delimiter=","),
            lambda: checks.check_track(bad, walk)),
        "report closure 1 mm off": (
            lambda: _rewrite_json(p("report.json"), bad, bump_report("closure_error", 1e-3)),
            lambda: checks.check_eval(bad, p("traj.csv"), walk)[0]),
        "report checkpoint 1 cm off": (
            lambda: _rewrite_json(p("report.json"), bad,
                                  bump_report("checkpoint_errors", 1e-2)),
            lambda: checks.check_eval(bad, p("traj.csv"), walk)[0]),
        # The report is made to agree with the drifted trajectory, so only
        # the criterion-4 bound can reject it.
        "closure 3% of the path": (
            lambda: (_rewrite_csv(p("traj.csv"), bad,
                                  set_rows(1, 0.03 * walk.perimeter, -1)),
                     _rewrite_json(p("report.json"), bad + ".json", lambda d: d.update(
                         closure_error=checks.score_walk(bad, walk).closure_m))),
            lambda: checks.check_eval(bad + ".json", bad, walk)[0]),
    }
    problems = []
    for label, (corrupt, check) in cases.items():
        corrupt()
        if not check():
            problems.append(f"check accepted a corrupted output: {label}")
    return problems


def refuses_without_sources() -> list[str]:
    """run.py in a directory holding only the benchmark must fail."""
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["run.py produced a result without src/pdrnav"]
    return []


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    problems, walk_inputs = run_workloads()
    problems += corrupted_outputs_rejected(walk_inputs)
    problems += refuses_without_sources()
    for p in problems:
        print(f"selfcheck: {p}")
    print("selfcheck: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
