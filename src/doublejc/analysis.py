"""Concurrence-versus-time analysis: scans, sudden-death detection, validation.

A scan produces a :class:`ConcurrenceSeries` either from the closed-form
atom-atom expressions or from the numerical oracle (any subsystem pair).
:func:`detect_death` classifies the zeros of a series into isolated touch
points and finite dead intervals: on the closed form both are analytic, from
:mod:`closedform` whatever the grid, and on the oracle grid samples, dead by the
sign of the Wootters value.  :func:`sweep_alpha` gives the same reports for many angles.
:func:`validate` cross-checks the closed forms against the oracle at
amplitude, density-matrix and concurrence level on a common time grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import closedform
from .model import (
    InitialState,
    ModelParams,
    StateFamily,
    _basis_labels,
    basis_shape,
    derive_constants,
    initial_state_vector,
)
from .numerics import (
    ATOM_PAIR,
    Propagator,
    SubsystemPair,
    _block_concurrences,
    _pair_blocks,
    build_hamiltonian,
)

__all__ = [
    "Source",
    "ConcurrenceSeries",
    "DeathReport",
    "ValidationReport",
    "scan",
    "scan_pairs",
    "detect_death",
    "validate",
    "sweep_alpha",
]

#: zero threshold separating the zero runs of a series from numerical dust, on both sources
ZERO_TOL = 1e-12

#: columns (initial states x time points) the oracle propagates and reduces at once; bounds its working set
GRID_CHUNK = 1024


class Source(Enum):
    """Which computational path produced a series."""

    CLOSED_FORM = "closed"
    ORACLE = "oracle"


@dataclass(frozen=True)
class ConcurrenceSeries:
    """Concurrence sampled on a strictly increasing time grid.

    Carries the initial state and model parameters it was computed from, so
    downstream analysis can recover the oscillation period and the closed
    forms behind the values.  An oracle series also carries ``signed``, its
    unclipped Wootters value, whose sign tells death; it defaults to ``values``.
    """

    times: np.ndarray
    values: np.ndarray
    pair: SubsystemPair
    source: Source
    init: InitialState
    params: ModelParams
    signed: np.ndarray | None = None

    def __post_init__(self):
        times, values, signed = _checked(self.times, [self.values], None if self.signed is None else [self.signed])
        for name, array in (("times", times), ("values", values[0]), ("signed", signed[0])):
            object.__setattr__(self, name, array)

    @classmethod
    def _of_checked(cls, *fields) -> "ConcurrenceSeries":
        """A series of arrays that already passed :func:`_checked` together, built without a second check."""
        series = object.__new__(cls)
        series.__dict__.update(zip(cls.__dataclass_fields__, fields))
        return series


def _checked(times, rows, signed=None):
    """Read-only float arrays: a strictly increasing grid, rows on it clipped into [0, 1], finite signed rows."""
    # the grid is copied before it is frozen, so the caller's own array stays writable
    times, values = np.array(times, dtype=float), np.asarray(rows, dtype=float)
    if times.ndim != 1 or values.ndim != 2 or values.shape[1:] != times.shape:
        raise ValueError("times and values must be 1-d arrays of equal length")
    if times.size and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    # written so that a NaN fails it
    if values.size and not (values.min() >= -1e-9 and values.max() <= 1 + 1e-9):
        raise ValueError("concurrence values must lie in [0, 1]")
    values = np.clip(values, 0.0, 1.0)
    signed = values if signed is None else np.asarray(signed, dtype=float)
    if signed is not values and (signed.shape != values.shape or not np.isfinite(signed).all()):
        raise ValueError("signed values must be finite and match the values")
    for array in (times, values, signed):
        array.flags.writeable = False
    return times, values, signed


@dataclass(frozen=True)
class DeathReport:
    """Zeros of one concurrence series, classified.

    ``dead_intervals`` are maximal windows with identically zero concurrence (sudden death); ``touch_points`` are
    isolated zeros, exact times on the closed form (a peak or an end of the series) and on the oracle the smallest
    grid sample of each zero run that its own signed samples do not make dead (see :func:`detect_death`).
    ``period`` is the fundamental recurrence time 2*pi/rabi of the underlying dynamics.
    """

    dead_intervals: tuple
    touch_points: tuple
    period: float
    initial_concurrence: float

    @property
    def has_death(self) -> bool:
        return bool(self.dead_intervals)

    def total_dead_length(self) -> float:
        return float(sum(end - start for start, end in self.dead_intervals))

    def to_dict(self) -> dict:
        return {
            "dead_intervals": [list(iv) for iv in self.dead_intervals],
            "touch_points": list(self.touch_points),
            "period": self.period,
            "initial_concurrence": self.initial_concurrence,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Worst absolute closed-form-versus-oracle disagreement on a grid."""

    max_abs_error: float
    worst_time: float
    samples: int
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_abs_error": self.max_abs_error,
            "worst_time": self.worst_time,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _check_grid(t_max: float, steps: int, what: str = "a scan") -> None:
    """ValueError unless the uniform grid over [0, t_max] has at least two points and t_max is positive and finite."""
    if steps < 2:
        raise ValueError(f"{what} needs at least two grid points")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError("t_max must be positive and finite")


def _grid(t_max: float, steps: int, what: str = "a scan") -> np.ndarray:
    _check_grid(t_max, steps, what)
    times = np.linspace(0.0, t_max, steps)
    if np.any(times[1:] <= times[:-1]):  # as for a subnormal t_max
        raise ValueError("times must be strictly increasing")
    return times


@functools.lru_cache(maxsize=8)
def _propagator(params: ModelParams, cutoff: int) -> Propagator:
    """The oracle's propagator, diagonalised once per (params, cutoff) while among the 8 most recent."""
    # module globals looked up at each miss, so rebinding them here (as a tracer or a test does) sees every one
    h = build_hamiltonian(params, cutoff)  # its finiteness guard and couplings
    # the frame rotating at nu keeps every pair's concurrence: delta times excited atoms, not the rounded omega + nu n
    np.fill_diagonal(h, (params.omega - params.nu) * _basis_labels(cutoff)[:2].sum(axis=0))
    return Propagator(h)


def _oracle_chunks(inits, propagator: Propagator, times: np.ndarray, cutoff: int):
    """Yield (states, part, dim x states x part amplitudes) of the exact propagation, in chunks of at most
    GRID_CHUNK columns: ``states`` slices ``inits`` and ``part`` the grid, and a chunk's states share one propagation.
    """
    states0 = [initial_state_vector(init, cutoff) for init in inits]
    for first in range(0, len(states0), GRID_CHUNK):
        group = slice(first, first + GRID_CHUNK)
        width = GRID_CHUNK // len(states0[group])
        for start in range(0, times.size, width):
            part = slice(start, start + width)
            yield group, part, propagator.evolve_grid(states0[group], times[part])


def _oracle_values(inits, propagator: Propagator, pairs, times: np.ndarray, cutoff: int) -> np.ndarray:
    """Oracle signed Wootters rows, pairs x states x times; one kernel call per chunk and run of equal-k pairs."""
    rows = np.empty((len(pairs), len(inits), times.size))
    for states, part, columns in _oracle_chunks(inits, propagator, times, cutoff):
        signed = map(_block_concurrences, _pair_blocks(columns.reshape(len(columns), -1), cutoff, pairs))
        rows[:, states, part] = np.concatenate(list(signed)).reshape((len(pairs),) + columns.shape[1:])
    return rows


def scan_pairs(
    init: InitialState,
    params: ModelParams,
    pairs,
    t_max: float,
    steps: int,
    cutoff: int = 1,
) -> dict:
    """Oracle concurrence series for several pairs from one shared propagation."""
    if not pairs:
        raise ValueError("pair list must be nonempty")
    times = _grid(t_max, steps)
    signed = _oracle_values([init], _propagator(params, cutoff), pairs, times, cutoff)[:, 0]
    times, values, signed = _checked(times, np.clip(signed, 0.0, 1.0), signed)
    return {pair.name: ConcurrenceSeries._of_checked(times, row, pair, Source.ORACLE, init, params, signs)
            for pair, row, signs in zip(pairs, values, signed)}


def scan(
    init: InitialState,
    params: ModelParams,
    pair: SubsystemPair,
    t_max: float,
    steps: int,
    source: Source,
    cutoff: int = 1,
) -> ConcurrenceSeries:
    """Concurrence of one subsystem pair on a uniform grid over [0, t_max].

    The closed-form source covers only the atom-atom pair of the two named
    families; the oracle source covers all six pairs and custom states.
    """
    basis_shape(cutoff)  # rejects a cutoff below 1 on both sources
    if source is Source.ORACLE:
        return scan_pairs(init, params, [pair], t_max, steps, cutoff)[pair.name]
    constants = derive_constants(params)
    form = closedform.for_state(init, constants)
    if pair != ATOM_PAIR:
        raise ValueError("closed-form scans cover only the atom-atom pair")
    times = _grid(t_max, steps)
    _check_phase(constants, t_max)
    return ConcurrenceSeries(times, form.concurrence(times), pair, Source.CLOSED_FORM, init, params)


def _check_phase(constants, t_max: float) -> None:
    """ValueError unless the closed forms' largest phase rabi t_max / 2, on a grid over [0, t_max], is finite."""
    if not math.isfinite(0.5 * constants.rabi * t_max):
        raise ValueError("closed-form phase rabi * t_max / 2 is not finite")


def _zero_runs(mask: np.ndarray):
    """Maximal runs of True as (first, last) index pairs."""
    flips = np.flatnonzero(np.concatenate(([False], mask)) != np.concatenate((mask, [False])))
    return list(zip(flips[0::2].tolist(), (flips[1::2] - 1).tolist()))


def bisect(f, lo: float, hi: float, xtol: float) -> float:
    """Root of f in [lo, hi], step for step as scipy.optimize.bisect.

    The step halves from hi - lo and is added to the lower end, which moves
    to the midpoint while f there shares the sign of the original f(lo).
    Stops once the step is below xtol + 4 eps |mid|, and returns the midpoint.
    Nothing in the package calls it; it stays public because perfbench/spans.py
    traces ``analysis.bisect`` by name.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo * f_hi > 0:
        raise ValueError("f(lo) and f(hi) must have different signs")
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    rtol = 4 * np.finfo(float).eps
    dm = hi - lo
    for _ in range(100):
        dm *= 0.5
        mid = lo + dm
        f_mid = f(mid)
        if f_mid * f_lo >= 0:
            lo = mid
        if f_mid == 0 or abs(dm) < xtol + rtol * abs(mid):
            return mid
    raise RuntimeError("bisection did not converge in 100 steps")


def detect_death(series: ConcurrenceSeries) -> DeathReport:
    """Classify the zeros of a concurrence series.

    A closed-form series is read from its closed form over its first to last time, whatever its grid: the analytic
    windows and, at ``ZERO_TOL``, the exact touch points (see ``closedform._StateForm.touch_points``).  On the oracle,
    each zero run of grid values <= ``ZERO_TOL`` is decided once, by its own samples of ``series.signed``: dead where
    one drops below -``closedform.FEW_ULPS``, from the linear root across the cell before its first such sample to the
    one after its last (live side clamped at >= 0; at a grid end, the end); a product state, dead over the run, where
    two or more lie within FEW_ULPS of zero; otherwise a touch point at its smallest value.
    """
    if series.times.size == 0:
        raise ValueError("empty series")
    constants = derive_constants(series.params)
    if series.source is Source.CLOSED_FORM:
        t0, t1 = float(series.times[0]), float(series.times[-1])
        return _closed_report(closedform.for_state(series.init, constants), t0, t1, float(series.values[0]))
    return _classify(series.times, series.values, series.signed, constants)


def _closed_report(form, t0: float, t1: float, initial: float) -> DeathReport:
    """The death report of a closed form over [t0, t1] (see :func:`detect_death`)."""
    dead = form.dead_windows(t0, t1)
    touches = form.touch_points(t0, t1, ZERO_TOL, dead)
    return DeathReport(tuple(dead), tuple(touches), 2.0 * math.pi / form.constants.rabi, initial)


def _classify(times: np.ndarray, values: np.ndarray, signed: np.ndarray, constants) -> DeathReport:
    """The death report of one checked oracle row and its signed row (see :func:`detect_death`)."""
    dead, touches, few_ulps, end = [], [], closedform.FEW_ULPS, len(times) - 1
    for i0, i1 in _zero_runs(values <= ZERO_TOL):
        run = signed[i0 : i1 + 1]
        negative = np.flatnonzero(run < -few_ulps)
        if negative.size:
            first, last = i0 + int(negative[0]), i0 + int(negative[-1])
            cells = ((first, max(first - 1, 0)), (last, min(last + 1, end)))  # (dead, live) sample pairs
            roots = (times[d] + (times[n] - times[d]) * signed[d] / (signed[d] - max(signed[n], 0.0)) for d, n in cells)
            dead.append(tuple(map(float, roots)))
        elif i1 > i0 and np.all(np.abs(run) <= few_ulps):  # a product state
            dead.append((float(times[i0]), float(times[i1])))
        else:
            touches.append(float(times[i0 + int(np.argmin(values[i0 : i1 + 1]))]))
    return DeathReport(tuple(dead), tuple(touches), 2.0 * math.pi / constants.rabi, float(values[0]))


def validate(
    init: InitialState,
    params: ModelParams,
    t_max: float,
    steps: int,
    tolerance: float = 1e-9,
    cutoff: int = 1,
) -> ValidationReport:
    """Compare closed-form amplitudes, density matrices and concurrence to the oracle.

    Amplitudes are compared as complex numbers, phases included, in the oracle's frame rotating at nu (dressed
    energies (delta +- rabi)/2), which pins the energy convention and not just the populations.
    """
    c = derive_constants(params)
    form = closedform.for_state(init, replace(c, lambda_plus=(c.delta + c.rabi) / 2,
                                              lambda_minus=(c.delta - c.rabi) / 2))
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError("tolerance must be finite and non-negative")
    times = _grid(t_max, steps, "validation")

    errors = np.empty(steps)
    for _, part, columns in _oracle_chunks([init], _propagator(params, cutoff), times, cutoff):
        columns, closed = columns[:, 0], form.amplitudes(times[part])
        [blocks] = _pair_blocks(columns, cutoff, [ATOM_PAIR])
        rho = np.einsum("gikt,gjkt->tij", blocks, blocks.conj())
        errors[part] = np.maximum.reduce([
            np.abs(closed.columns(cutoff) - columns).max(axis=0),
            np.abs(closed.atom_density() - rho).max(axis=(1, 2)),
            np.abs(form.concurrence(times[part]) - np.clip(_block_concurrences(blocks)[0], 0.0, 1.0)),
        ])

    worst = int(np.argmax(errors))  # the first of equal maxima
    return ValidationReport(
        max_abs_error=float(errors[worst]),
        worst_time=float(times[worst]),
        samples=steps,
        tolerance=tolerance,
        passed=bool(errors[worst] <= tolerance),
    )


def sweep_alpha(
    family: StateFamily,
    params: ModelParams,
    alpha_grid,
    t_max: float,
    steps: int,
    source: Source = Source.CLOSED_FORM,
    cutoff: int = 1,
) -> list:
    """Death reports across a grid of superposition angles.

    Returns (alpha, report) tuples in grid order, each ``detect_death(scan(...))`` at its angle, bit for bit.
    The oracle propagates all angles together from one diagonalisation, GRID_CHUNK angle x time columns at a time,
    and classifies each angle's row.  The closed path reads each angle's report from its closed form over
    [0, t_max] and builds no grid, except to check that one past the proof below strictly increases: its cost grows
    with the angles, the dead windows and the touch points, and does not depend on ``steps``.
    """
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    basis_shape(cutoff)
    inits = [InitialState(family, alpha) for alpha in alphas]
    constants = derive_constants(params)
    if source is Source.ORACLE:
        times = _grid(t_max, steps)
        signed = _oracle_values(inits, _propagator(params, cutoff), [ATOM_PAIR], times, cutoff)[0]
        times, rows, signed = _checked(times, np.clip(signed, 0.0, 1.0), signed)
        return [(alpha, _classify(times, row, signs, constants)) for alpha, row, signs in zip(alphas, rows, signed)]
    _check_grid(t_max, steps)
    t_max = float(t_max)  # linspace's ends are exactly 0.0 and t_max
    # each point fl(i h) of linspace lies below 2^50 h and rounds by at most h / 8, so such a grid strictly increases
    if not (t_max / (steps - 1) >= 2.0**-1022 and steps <= 2**50):
        _grid(t_max, steps)  # builds and checks it
    _check_phase(constants, t_max)
    # the initial value: at t = 0 the transfer weight is 0, and the row's first value is |sin 2a|, bit for bit
    return [(alpha, _closed_report(closedform.for_state(init, constants), 0.0, t_max, abs(math.sin(2.0 * alpha))))
            for alpha, init in zip(alphas, inits)]
