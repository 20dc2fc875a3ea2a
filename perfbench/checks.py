"""Output checks.  Each raises CheckFailure with a reason when an output is wrong."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as ref

#: oracle pair concurrence against the tau reference (worst seen: 1.75e-7)
PAIR_TOL = 1e-6
#: closed-form or oracle atom pair against the analytic C(t)
ATOM_TOL = 1e-9
#: closed-form dead-interval edges against the analytic edges
EDGE_TOL = 1e-8
#: probe concurrence against the mpmath reference; the sqrt(rho) fault gives 1e-8..1e-7
PROBE_TOL = 1e-10
#: the errors of the sqrt(rho) fault at the probe points lie in this range (1.5e-7 to 1.7e-7 today)
PROBE_FAULT_RANGE = (1e-8, 1e-6)


class CheckFailure(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def close(actual, expected, tol: float, what: str) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    require(bool(np.all(np.isfinite(actual))), f"{what}: non-finite value")
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    require(err <= tol, f"{what}: off by {err:.3e} > {tol:.0e}")


def pair_series(family, alpha, c, times, got: dict) -> None:
    """All six oracle pairs against tau, and AB against the analytic C(t)."""
    expected = ref.six_pairs(family, alpha, c, times)
    require(sorted(got) == sorted(expected), f"pairs {sorted(got)}")
    for pair, values in got.items():
        close(values, expected[pair], PAIR_TOL, f"pair {pair}")
    close(got["AB"], ref.atom_concurrence(family, alpha, c, times), ATOM_TOL, "pair AB vs C(t)")


def death_report(family, alpha, delta, big_g, t_max, intervals, period, edge_tol) -> None:
    """Dead intervals against the analytic windows; period 2 pi / rabi."""
    expected = ref.dead_windows(family, alpha, delta, big_g, t_max)
    where = f"{family} alpha={alpha!r} delta={delta!r}"
    require(len(intervals) == len(expected),
            f"{where}: {len(intervals)} dead intervals, expected {len(expected)}")
    for got, want in zip(intervals, expected):
        close(got, want, edge_tol, f"{where}: edges")
    close(period, 2.0 * math.pi / math.hypot(delta, big_g), 1e-12, f"{where}: period")


def probe_fault(value, truth: float) -> None:
    """A failed probe shows the sqrt(rho) fault: a finite value off by 1e-8 to 1e-6."""
    require(isinstance(value, float) and math.isfinite(value), f"probe returned {value!r}")
    err = abs(value - truth)
    lo, hi = PROBE_FAULT_RANGE
    require(lo <= err <= hi, f"probe off by {err:.3e}, outside the fault's range [{lo:.0e}, {hi:.0e}]")


def narrow_window_fault(family, alpha, delta, big_g, t_max, report, dt) -> None:
    """A failed death report shows detect_death's narrow-window fault.

    Every analytic window is either reported as a dead interval with edges
    within EDGE_TOL or as one touch point inside it (widened by the grid
    spacing ``dt``); at least one window is missing; nothing else is reported.
    """
    expected = ref.dead_windows(family, alpha, delta, big_g, t_max)
    where = f"{family} alpha={alpha!r} delta={delta!r}"
    intervals, touches = list(report.dead_intervals), list(report.touch_points)
    missing = 0
    for start, end in expected:
        found = [iv for iv in intervals if abs(iv[0] - start) <= EDGE_TOL and abs(iv[1] - end) <= EDGE_TOL]
        if found:
            intervals.remove(found[0])
            continue
        inside = [t for t in touches if start - dt <= t <= end + dt]
        require(len(inside) == 1, f"{where}: window ({start!r}, {end!r}) neither found nor a touch point")
        touches.remove(inside[0])
        missing += 1
    require(missing > 0, f"{where}: no window missing")
    require(not intervals and not touches, f"{where}: reports {intervals} and touches {touches} beyond the windows")
    close(report.period, 2.0 * math.pi / math.hypot(delta, big_g), 1e-12, f"{where}: period")


def no_nonfinite(token: str):
    raise CheckFailure(f"JSON holds {token}")


def parse_json(text: str):
    return json.loads(text, parse_constant=no_nonfinite)


def parse_csv(text: str, allow_nan=()):
    """Comment lines, a header and rows of floats; NaN only in the named columns."""
    lines = [line for line in text.split("\n") if line and not line.startswith("#")]
    require(bool(lines), "empty CSV")
    require(text.endswith("\n") and "\r" not in text, "CSV must end in LF and hold no CR")
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    header, body = rows[0], rows[1:]
    data = np.array([[float(x) for x in row] for row in body], dtype=float)
    require(data.ndim == 2 and data.shape[1] == len(header), "ragged CSV")
    for j, name in enumerate(header):
        column = data[:, j]
        if name in allow_nan:
            column = column[~np.isnan(column)]
        require(bool(np.all(np.isfinite(column))), f"CSV column {name} holds a non-finite number")
    return header, data


def constants_table(table: dict, delta: float, big_g: float) -> None:
    rabi = math.hypot(delta, big_g)
    close(table["delta"], delta, 1e-12, "delta")
    close(table["G"], big_g, 1e-12, "G")
    close(table["rabi"], rabi, 1e-12 * rabi, "rabi")
    close(table["L"] + table["M"], 1.0, 1e-12, "L + M")
    close(table["L"] - table["M"], delta / rabi, 1e-12, "L - M")
    close(table["L"] * table["M"], table["N"] ** 2, 1e-12, "L M - N^2")
    close(table["lambda_plus"] - table["lambda_minus"], rabi, 1e-9 * rabi, "lambda+ - lambda-")
