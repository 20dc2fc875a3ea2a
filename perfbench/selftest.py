"""Show that the benchmark's checks reject perturbed outputs.

    python3 perfbench/selftest.py

Runs a few real operations of each workload, confirms their checks accept
the true outputs, then perturbs each output (a value moved by 1e-5, a
dropped dead window, a NaN in JSON) and confirms the check rejects it.
For the two kept faults it also confirms that the fault's signature accepts
today's failing output and rejects any other failure.  Exits 1 if any check
accepts a perturbed output or rejects a true one.
"""

from __future__ import annotations

import dataclasses
import re
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(accepts: bool, what: str, check, output) -> None:
    try:
        check(output)
        accepted = True
    except checks.CheckFailure:
        accepted = False
    verdict = "ok" if accepted == accepts else "WRONG"
    print(f"{verdict:5s} {'accepts' if accepted else 'rejects'} {what}")
    if accepted != accepts:
        failures.append(what)


def first(ops, kind):
    return next(op for op in ops if op.kind == kind and op.fault is None)


def oracle_cases(workdir) -> None:
    ops = workloads.build("oracle_pairs", 0, workdir)
    op = first(ops, "scan_pairs")
    out = op.run()
    expect(True, "oracle scan_pairs output", op.check, out)
    for pair in ("AB", "Ab"):
        moved = {k: SimpleNamespace(times=s.times, values=s.values.copy()) for k, s in out.items()}
        values = moved[pair].values
        values[len(values) // 2] += 1e-5
        expect(False, f"oracle scan_pairs with pair {pair} moved by 1e-5", op.check, moved)

    op = first(ops, "long_scan")
    series = op.run()
    expect(True, "long oracle scan output", op.check, series)
    values = series.values.copy()
    values[len(values) // 3] += 1e-5
    expect(False, "long oracle scan with a value moved by 1e-5", op.check,
           SimpleNamespace(times=series.times, values=values))

    op = first(ops, "validate")
    report = op.run()
    expect(True, "validate report", op.check, report)
    expect(False, "validate report marked failed", op.check, dataclasses.replace(report, passed=False))


def sweep_cases(workdir) -> None:
    ops = workloads.build("death_sweep", 0, workdir)
    op = first(ops, "sweep_phi")
    results = op.run()  # one sweep per detuning
    expect(True, "phi sweep reports", op.check, results)
    g, k = next((g, k) for g, sweep in enumerate(results)
                for k, (_, report) in enumerate(sweep) if report.dead_intervals)
    alpha, report = results[g][k]

    def with_intervals(intervals):
        changed = [list(sweep) for sweep in results]
        changed[g][k] = (alpha, dataclasses.replace(report, dead_intervals=intervals))
        return changed

    expect(False, "phi sweep with a dropped dead window", op.check, with_intervals(report.dead_intervals[1:]))
    (start, end), *rest = report.dead_intervals
    expect(False, "phi sweep with an edge moved by 1e-5", op.check,
           with_intervals(((start + 1e-5, end), *rest)))


def fault_cases(workdir) -> None:
    ops = workloads.build("oracle_pairs", 0, workdir)
    probe = next(op for op in ops if op.fault == "wootters_sqrt_rho")
    value = probe.run()
    expect(False, "probe value with the sqrt(rho) fault", probe.check, value)
    expect(True, "probe value as the sqrt(rho) fault's signature", probe.signature, value)
    expect(False, "probe value moved by 1e-5 as the fault's signature", probe.signature, value + 1e-5)
    expect(False, "NaN probe value as the fault's signature", probe.signature, float("nan"))

    ops = workloads.build("death_sweep", 0, workdir)
    narrow = next(op for op in ops if op.fault == "detect_death_narrow_window")
    results = narrow.run()
    (alpha, report), = results[0]
    expect(False, "narrow-window sweep", narrow.check, results)
    expect(True, "narrow-window sweep as the fault's signature", narrow.signature, results)

    def replaced(**changes):
        return [[(alpha, dataclasses.replace(report, **changes))]]

    expect(False, "narrow-window sweep with a touch point dropped, as the fault's signature",
           narrow.signature, replaced(touch_points=report.touch_points[1:]))
    expect(False, "narrow-window sweep with an extra touch point, as the fault's signature",
           narrow.signature, replaced(touch_points=report.touch_points + (0.5,)))
    expect(False, "narrow-window sweep with its period doubled, as the fault's signature",
           narrow.signature, replaced(period=2.0 * report.period))


def edit(path: str, pattern: str, replacement: str) -> None:
    text = Path(path).read_text()
    new = re.sub(pattern, replacement, text, count=1)
    assert new != text, f"{pattern!r} not found in {path}"
    Path(path).write_text(new)


def cli_cases(workdir) -> None:
    ops = workloads.build("cli_session", 0, workdir)
    scans = [op for op in ops if op.kind == "scan"]
    csv_op = next(op for op in scans if op.files[0].endswith(".csv"))
    json_op = next(op for op in scans if op.files[0].endswith(".json"))
    death_op = next(op for op in ops if op.kind == "death" and "closed" in op.files[0])

    for op, what in ((csv_op, "CSV scan"), (json_op, "JSON scan"), (death_op, "death JSON")):
        expect(True, what, op.check, op.run())

    def moved_value(match):
        return repr(float(match.group(1)) + 1e-5)

    csv_op.run()
    edit(csv_op.files[0], r"(?m)(?<=,)(0\.\d+)$", moved_value)
    expect(False, "CSV scan with a value moved by 1e-5", csv_op.check, 0)

    json_op.run()
    edit(json_op.files[0], r'("AB": \[\s*)[-0-9.e]+', r"\1NaN")
    expect(False, "JSON scan with a NaN", json_op.check, 0)

    death_op.run()
    edit(death_op.files[0], r'"dead_intervals": \[\s*\[[^\]]*\],?', '"dead_intervals": [')
    expect(False, "death JSON with a dropped dead window", death_op.check, 0)

    death_op.run()
    edit(death_op.files[0], r'"period": [-0-9.e]+', '"period": Infinity')
    expect(False, "death JSON with Infinity", death_op.check, 0)


def main() -> int:
    workdir = HERE / "out" / "selftest"
    try:
        oracle_cases(workdir)
        sweep_cases(workdir)
        fault_cases(workdir)
        cli_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} wrong verdicts" if failures else "every check rejects its perturbed output")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
