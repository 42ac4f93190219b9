"""Run one workload of the pdrnav benchmark and print its metrics.

    python3 bench/run.py --workload walk --seed 0 --seconds 25 --trace 0

From the root of a repository checkout.  The program is imported from
``src/`` in place; nothing is built or installed.  The run sets up the
workload's input files three times (``setup_s`` is the time taken to
import pdrnav plus the median set-up), then repeats whole rounds of
operations until ``--seconds`` have passed.  Times are scaled by the host
probe in ``session.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.

A traced run sets up once under tracing, runs one untraced round, then
traced rounds; its overhead is the median traced round against the
untraced one.  Spans go to ``bench/out/traces/``, and every run writes a
record with the metrics, every call and the environment to
``bench/out/results/``.  Exit code 2 when the checkout has no
``src/pdrnav``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("walk", "slow_walk", "imu_characterization"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pdrnav", "cli.py")):
        print(f"bench: no src/pdrnav under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import pdrnav.cli  # noqa: F401  (timed: the import is part of set-up)
    import pdrnav.gait  # noqa: F401
    import_s = time.perf_counter() - t0

    import session
    import tracing

    workload = session.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    runner = session.Runner()
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                inputs = tracer.op("setup", session.setup)(workload, args.seed, work)
            finally:
                tracer.uninstall()
            t_run = time.perf_counter()
            runner.round(inputs)
            per_round = len(runner.ops)
            runner.tracer = tracer
            tracer.install()
            try:
                while len(runner.ops) == per_round or \
                        time.perf_counter() - t_run < args.seconds:
                    runner.round(inputs)
            finally:
                tracer.uninstall()
            # Each call's time over the probe around it, summed per round,
            # so that the host's speed drifting between rounds cancels.
            round_s = [sum(op.seconds / op.probe for op in runner.ops[i:i + per_round])
                       for i in range(0, len(runner.ops), per_round)]
            overhead_pct = 100.0 * (statistics.median(round_s[1:]) / round_s[0] - 1.0)
            metrics = tracing.layer_metrics(tracer, overhead_pct)
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            tracer.save(os.path.join(OUT, "traces", f"{tag}.npz"))
            rounds = len(round_s)
        else:
            setups, probes = [], []
            for _ in range(SETUP_REPEATS):
                inputs, seconds, probe = runner.probe.around(
                    session.setup, workload, args.seed, work)
                setups.append(seconds)
                probes.append(probe)
            setup_s = ((import_s + statistics.median(setups))
                       * session.PROBE_S / statistics.median(probes))
            t_run = time.perf_counter()
            rounds = 0
            while not rounds or time.perf_counter() - t_run < args.seconds:
                runner.round(inputs)
                rounds += 1
            metrics = session.end_to_end(runner, setup_s, _peak_rss_mb())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": runner.correct,
        "attempted": len(runner.ops),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = environment()
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "rounds": rounds, "environment": env, **result,
                   "ops": [[op.kind, op.seconds, op.probe, op.size, len(op.problems)]
                           for op in runner.ops]}, fh, indent=2)
        fh.write("\n")
    print(f"bench: {tag}: {rounds} rounds, " + ", ".join(
        f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"bench: {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
