"""One run of one workload, in a fresh interpreter started by run.py.

Prints ``ready`` once doublejc is imported and the inputs are built (run.py
times that as one set-up sample), then the factor that turns that time
into calibrated seconds.  It then repeats whole rounds of the workload's
operations in a closed loop, checks every output, and prints one JSON line
of raw results.  With ``--setup-only`` it stops after the factor.

The machine's speed wanders from second to second and drifts from minute to
minute.  So every task is timed together with a calibration just before and
just after it: a fixed piece of small numpy linear algebra, the kind of
work doublejc does, that no change to doublejc can speed up.  A task's time
is reported in calibrated seconds: its time divided by the mean of the two
calibrations, times ``CAL_REF_S``.  A moment when the machine runs slow
slows both alike.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: an untraced run times at least this many rounds, after a warm-up round that is not counted
MIN_ROUNDS = 5
#: task_tail_s is the task time with exactly this many tasks beyond it
TAIL_BEYOND = 10
#: a calibration's calibrated time: about its median wall time on the machine of README.md
CAL_REF_S = 1.2e-3
#: eigh-and-svd pairs in one calibration; the set-up calibration is the median of CAL_SETUP_REPEATS
CAL_PAIRS = 40
CAL_SETUP_REPEATS = 15
_CAL_MATRIX = np.array([[2.0, 1.0j, 0.0, 0.5], [-1.0j, 3.0, 1.0, 0.0],
                        [0.0, 1.0, 4.0, 1.0j], [0.5, 0.0, -1.0j, 5.0]])
# bound now, before a traced run wraps np.linalg to count calls, so tracing leaves the calibration alone
_EIGH, _SVD = np.linalg.eigh, np.linalg.svd


def import_doublejc():
    sys.path.insert(0, str(ROOT / "src"))
    import doublejc

    source = Path(doublejc.__file__).resolve()
    if source.parent != ROOT / "src" / "doublejc":
        raise SystemExit(f"doublejc imported from {source}, not from this checkout")
    return doublejc


def calibrate() -> tuple:
    """Wall and CPU seconds of the calibration: CAL_PAIRS eigh and svd calls on a 4 x 4 matrix."""
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(CAL_PAIRS):
        _, modes = _EIGH(_CAL_MATRIX)
        _SVD(modes @ _CAL_MATRIX, compute_uv=False)
    return time.perf_counter() - w0, time.process_time() - c0


def signature_of(op, out) -> str | None:
    """Why a failed output of a fault operation is not that fault, or None if it is."""
    if op.fault is None:
        return "not a kept fault"
    if out is None:
        return "raised instead"
    try:
        op.signature(out)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def run_rounds(ops, min_rounds, seconds, tracer, log, max_rounds=None):
    """Repeat whole rounds until ``seconds`` have passed and ``min_rounds`` rounds are done.

    Records every timed task's calibrated wall and CPU time per round.
    """
    walls, cpus = [], []
    attempted = failed = unexpected = bytes_written = 0
    task_id = 0
    t_start = time.perf_counter()
    while True:
        wall, cpu = [], []
        for op in ops:
            task_id += 1
            attempted += 1
            cal_w0, cal_c0 = calibrate()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = tracer.run_task(task_id, op.run) if tracer else op.run()
                error = None
            except Exception:  # the operation failed: count it, keep the run going
                out, error = None, traceback.format_exc(limit=3)
            w1, c1 = time.perf_counter(), time.process_time()
            cal_w1, cal_c1 = calibrate()
            if op.timed:
                wall.append((w1 - w0) * 2.0 * CAL_REF_S / (cal_w0 + cal_w1))
                cpu.append((c1 - c0) * 2.0 * CAL_REF_S / max(cal_c0 + cal_c1, 1e-9))
            bytes_written += sum(os.path.getsize(p) for p in op.files if os.path.exists(p))
            if error is None:
                try:
                    op.check(out)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                why_not = signature_of(op, out)
                if why_not is not None:
                    unexpected += 1
                    log(f"{op.kind} failed: {error} ({why_not})")
                elif not walls:
                    log(f"{op.kind} hits kept fault {op.fault}: {error.splitlines()[-1]}")
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - t_start
        if len(walls) == max_rounds or (elapsed >= seconds and len(walls) >= min_rounds):
            break
    return {"walls": walls, "cpus": cpus, "attempted": attempted, "failed": failed,
            "unexpected": unexpected, "bytes_written": bytes_written}


def per_task(rounds) -> list:
    """Each task's median time over ``rounds``."""
    return [statistics.median(ts) for ts in zip(*rounds)]


def end_to_end(ops, r) -> dict:
    """Metrics of one round, each task at its median calibrated time over the rounds after the first."""
    task_wall = per_task(r["walls"][1:])
    task_cpu = per_task(r["cpus"][1:])
    values = sum(op.values for op in ops if op.timed)
    ranked = sorted(task_wall)
    return {
        "wall_s": sum(task_wall),
        "cpu_s": sum(task_cpu),
        "values_per_s": values / sum(task_wall),
        "task_p50_s": statistics.median(task_wall),
        "task_tail_s": ranked[-TAIL_BEYOND - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    def log(message):
        print(f"[{args.workload}] {message}", file=sys.stderr, flush=True)

    import_doublejc()
    import workloads

    workdir = Path(args.workdir)
    ops = workloads.build(args.workload, args.seed, workdir)
    print("ready", flush=True)
    cal = statistics.median(calibrate()[0] for _ in range(CAL_SETUP_REPEATS))
    print(json.dumps({"time_scale": CAL_REF_S / cal}), flush=True)
    try:
        if args.setup_only:
            return 0
        result = {}
        if args.trace:
            # untraced rounds for half the time, then as many rounds traced
            plain = run_rounds(ops, 2, args.seconds / 2, None, log)
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            k = len(plain["walls"])
            traced = run_rounds(ops, k, 0.0, tracer, log, max_rounds=k)
            metrics = tracer.layer_metrics(k)
            metrics["trace.overhead_s"] = sum(per_task(traced["walls"])) - sum(per_task(plain["walls"][1:]))
            metrics["cli.bytes_written"] = traced["bytes_written"] / k
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
            runs = (plain, traced)
        else:
            run = run_rounds(ops, MIN_ROUNDS + 1, args.seconds, None, log)
            metrics = end_to_end(ops, run)
            runs = (run,)
        result["attempted"] = sum(r["attempted"] for r in runs)
        result["failed"] = sum(r["failed"] for r in runs)
        result["correct"] = all(r["unexpected"] == 0 for r in runs)
        result["tasks"] = sum(len(w) for r in runs for w in r["walls"])
        result["rounds"] = sum(len(r["walls"]) for r in runs)
        result["metrics"] = metrics
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
