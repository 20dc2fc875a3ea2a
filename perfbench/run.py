"""Benchmark of doublejc: one run of one workload, result on the last line of stdout.

    python3 perfbench/run.py --workload {oracle_pairs,death_sweep,cli_session} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; doublejc is imported from its ``src/``.
This script only orchestrates, with the standard library: it times
``SETUP_SAMPLES`` fresh interpreters from start to a ready workload, each
time scaled to calibrated seconds by the calibration the worker runs once
ready (``setup_s`` is their median), then starts one more worker that also
runs the workload (see worker.py).  ``--trace 1`` adds ``python -X importtime``
and reports per-layer metrics instead of end-to-end ones.  Every child gets
one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle_pairs", "death_sweep", "cli_session")
#: fresh interpreters timed from start to ready, the worker included
SETUP_SAMPLES = 5
#: wall-clock limit for the whole run
DEADLINE_S = 170.0

IMPORT_ROOTS = ("numpy", "scipy", "doublejc")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


class Deadline(Exception):
    pass


def remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 0:
        raise Deadline("run exceeded its time limit")
    return left


def start_worker(args, workdir: Path, setup_only: bool) -> tuple:
    """Start a worker; return it with the calibrated seconds it took to print ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    scale = json.loads(proc.stdout.readline())["time_scale"]
    return proc, setup * scale


def finish(proc, t_start) -> str:
    try:
        out, _ = proc.communicate(timeout=remaining(t_start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise Deadline("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def import_times(t_start) -> dict:
    """Seconds spent importing numpy, scipy and doublejc's own code, from -X importtime.

    import.doublejc_s is the whole ``import doublejc`` minus its numpy and
    scipy parts; the three add up to the cost of the import.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sys; sys.path.insert(0, 'src'); import doublejc"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining(t_start))
    if proc.returncode != 0:
        raise RuntimeError("import doublejc failed")
    totals = dict.fromkeys(IMPORT_ROOTS, 0.0)
    whole = 0.0
    open_root = []  # (depth, root) of the outermost enclosing numpy/scipy import
    # lines come out innermost first, so walk them in reverse to see parents first
    entries = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
        if m:
            entries.append((int(m.group(2)) * 1e-6, len(m.group(3)), m.group(4)))
    for cumulative, depth, module in reversed(entries):
        while open_root and open_root[-1][0] >= depth:
            open_root.pop()
        root = module.split(".")[0]
        if module == "doublejc":
            whole = cumulative
        if root in ("numpy", "scipy") and not open_root:
            totals[root] += cumulative
            open_root.append((depth, root))
    totals["doublejc"] = whole - totals["numpy"] - totals["scipy"]
    return {f"import.{root}_s": value for root, value in totals.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="doublejc benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.monotonic()

    if not (ROOT / "src" / "doublejc" / "__init__.py").is_file():
        print(f"perfbench: no doublejc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    procs = []
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            proc, setup = start_worker(args, workdir, setup_only=True)
            procs.append(proc)
            finish(proc, t_start)
            setups.append(setup)
        proc, setup = start_worker(args, workdir, setup_only=False)
        procs.append(proc)
        setups.append(setup)
        result = json.loads(finish(proc, t_start).strip().splitlines()[-1])

        metrics = result["metrics"]
        if args.trace:
            metrics.update(import_times(t_start))
        else:
            metrics["setup_s"] = statistics.median(setups)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(units) != set(metrics):
            raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
        print(f"perfbench: {args.workload} seed {args.seed}: {result['rounds']} rounds, "
              f"{result['tasks']} tasks", file=sys.stderr)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)},
        }))
        return 0
    except (Deadline, RuntimeError, ValueError, KeyError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
