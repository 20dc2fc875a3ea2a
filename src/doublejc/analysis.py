"""Concurrence-versus-time analysis: scans, sudden-death detection, validation.

A scan produces a :class:`ConcurrenceSeries` either from the closed-form
atom-atom expressions or from the numerical oracle (any subsystem pair).
:func:`detect_death` classifies the zeros of a series into isolated touch
points and finite dead intervals; closed-form dead intervals are the
analytic windows from :mod:`closedform`, oracle ones the sign of the Wootters
value.  :func:`sweep_alpha` gives the same reports for many angles from one grid.
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
    "death_threshold_alpha",
    "validate",
    "sweep_alpha",
]

#: zero threshold separating the zero runs of a series from numerical dust, on both sources
ZERO_TOL = 1e-12

#: time points the oracle propagates and reduces at once; bounds its dim x T working set
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

    ``dead_intervals`` are maximal windows with identically zero concurrence
    (sudden death); ``touch_points`` are isolated zeros.  ``period`` is the
    fundamental recurrence time 2*pi/rabi of the underlying dynamics.
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


def _grid(t_max: float, steps: int, what: str = "a scan") -> np.ndarray:
    if steps < 2:
        raise ValueError(f"{what} needs at least two grid points")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError("t_max must be positive and finite")
    return np.linspace(0.0, t_max, steps)


@functools.lru_cache(maxsize=8)
def _propagator(params: ModelParams, cutoff: int) -> Propagator:
    """The oracle's propagator, diagonalised once per (params, cutoff) while among the 8 most recent."""
    # module globals looked up at each miss, so rebinding them here (as a tracer or a test does) sees every one
    return Propagator(build_hamiltonian(params, cutoff))


def _oracle_chunks(init: InitialState, propagator: Propagator, times: np.ndarray, cutoff: int):
    """Yield (slice, amplitude columns) of the exact propagation, GRID_CHUNK time points at a time."""
    state0 = initial_state_vector(init, cutoff)
    for start in range(0, times.size, GRID_CHUNK):
        part = slice(start, start + GRID_CHUNK)
        yield part, propagator.evolve_grid(state0, times[part])


def _oracle_values(init: InitialState, propagator: Propagator, pairs, times: np.ndarray, cutoff: int):
    """Oracle signed Wootters rows, one per pair; all pairs of a chunk go through one kernel call."""
    chunks = _oracle_chunks(init, propagator, times, cutoff)
    rows = np.hstack([_block_concurrences(_pair_blocks(columns, cutoff, pairs)) for _, columns in chunks])
    return rows.reshape(len(pairs), times.size)  # (0, T) for no pairs


def scan_pairs(
    init: InitialState,
    params: ModelParams,
    pairs,
    t_max: float,
    steps: int,
    cutoff: int = 1,
) -> dict:
    """Oracle concurrence series for several pairs from one shared propagation."""
    times = _grid(t_max, steps)
    signed = _oracle_values(init, _propagator(params, cutoff), pairs, times, cutoff)
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
    form = closedform.for_state(init, derive_constants(params))
    if pair != ATOM_PAIR:
        raise ValueError("closed-form scans cover only the atom-atom pair")
    times = _grid(t_max, steps)
    return ConcurrenceSeries(times, form.concurrence(times), pair, Source.CLOSED_FORM, init, params)


def _zero_runs(mask: np.ndarray):
    """Maximal runs of True as (first, last) index pairs."""
    flips = np.flatnonzero(np.concatenate(([False], mask)) != np.concatenate((mask, [False])))
    return list(zip(flips[0::2].tolist(), (flips[1::2] - 1).tolist()))


def _signed_window(times: np.ndarray, signed: np.ndarray, i0: int, i1: int):
    """Dead window (start, end) of the oracle zero run i0..i1, or None where the run only touches zero.

    The run is dead where its signed row drops below -FEW_ULPS, from the sign
    change before its first negative sample to the one after its last: the linear
    root across each bracketing cell, live side clamped at >= 0, or the grid end.
    Two or more samples within FEW_ULPS of zero are a product state, dead over the run.
    """
    run, few_ulps = signed[i0 : i1 + 1], closedform.FEW_ULPS
    negative = i0 + np.flatnonzero(run < -few_ulps)
    if negative.size == 0:
        product = i1 > i0 and np.all(np.abs(run) <= few_ulps)
        return (float(times[i0]), float(times[i1])) if product else None
    first, last = int(negative[0]), int(negative[-1])
    cells = ((first, max(first - 1, 0)), (last, min(last + 1, len(times) - 1)))  # (dead, live) sample pairs
    roots = (times[d] + (times[n] - times[d]) * signed[d] / (signed[d] - max(signed[n], 0.0)) for d, n in cells)
    return tuple(map(float, roots))


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

    A zero run is a maximal run of grid values <= ``ZERO_TOL``, on both
    sources.  Closed-form dead intervals are analytic (the family's
    ``closedform.for_state(...).dead_windows``); oracle ones are read off the
    sign of ``series.signed`` (see ``_signed_window``).  On both sources a
    zero run whose bracketing grid cells meet no dead interval is an isolated
    touch point.  :func:`sweep_alpha` applies the same touch rule (``_report``).
    """
    if series.times.size == 0:
        raise ValueError("empty series")
    constants = derive_constants(series.params)
    form = closedform.for_state(series.init, constants) if series.source is Source.CLOSED_FORM else None
    return _classify(series.times, series.values, series.signed, form, constants)


def _classify(times: np.ndarray, values: np.ndarray, signed: np.ndarray, form, constants) -> DeathReport:
    """The death report of one checked row and its signed row (see :func:`detect_death`); no form on the oracle."""
    runs = _zero_runs(values <= ZERO_TOL)
    dead = (form.dead_windows(float(times[0]), float(times[-1])) if form is not None else
            [window for i0, i1 in runs if (window := _signed_window(times, signed, i0, i1))])
    return _report(times, values, runs, dead, constants, float(values[0]))


def _report(times: np.ndarray, values: np.ndarray, runs: list, dead: list, constants, initial: float) -> DeathReport:
    """The touch rule (see :func:`detect_death`) on a row, or on samples that hold their zero runs' grid neighbours."""
    if runs and dead:  # windows come in time order: a bracket (lo, hi) may meet only the first one ending after lo
        (i0, i1), (a, b) = np.array(runs).T, np.array(dead).T
        lo, hi = times[np.maximum(i0 - 1, 0)], times[np.minimum(i1 + 1, len(times) - 1)]
        k = np.searchsorted(b[:-1], lo, side="right")  # the last window where none ends after lo
        runs = [run for run, met in zip(runs, ((a[k] < hi) & (b[k] > lo)).tolist()) if not met]
    touches = [float(times[i0 + int(np.argmin(values[i0 : i1 + 1]))]) for i0, i1 in runs]
    return DeathReport(tuple(dead), tuple(touches), period=2.0 * math.pi / constants.rabi, initial_concurrence=initial)


def death_threshold_alpha(params: ModelParams | None = None) -> float:
    """Critical angle alpha_c = arctan(G^2 / (delta^2 + G^2)) of the zero/two-excitation family.

    The signed generator turns negative iff the transfer weight, at most
    4 N^2 = G^2 / (delta^2 + G^2), can exceed |tan alpha|, so finite dead
    intervals occur exactly for alpha < alpha_c.  At the threshold the
    generator only touches zero.  The default is zero detuning, where
    alpha_c = pi/4.
    """
    return math.atan(1.0 if params is None else closedform._peak_weight(derive_constants(params)))


def validate(
    init: InitialState,
    params: ModelParams,
    t_max: float,
    steps: int,
    tolerance: float = 1e-9,
    cutoff: int = 1,
) -> ValidationReport:
    """Compare closed-form amplitudes, density matrices and concurrence to the oracle.

    Amplitudes are compared as complex numbers, phases included, which pins
    the energy convention and not just the populations.
    """
    form = closedform.for_state(init, derive_constants(params))
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError("tolerance must be finite and non-negative")
    times = _grid(t_max, steps, "validation")

    errors = np.empty(steps)
    for part, columns in _oracle_chunks(init, _propagator(params, cutoff), times, cutoff):
        closed = form.amplitudes(times[part])
        [(_, blocks)] = stacks = _pair_blocks(columns, cutoff, [ATOM_PAIR])
        rho = np.einsum("tgik,tgjk->tij", blocks, blocks.conj())
        errors[part] = np.maximum.reduce([
            np.abs(closed.columns(cutoff) - columns).max(axis=0),
            np.abs(closed.atom_density() - rho).max(axis=(1, 2)),
            np.abs(form.concurrence(times[part]) - np.clip(_block_concurrences(stacks)[0], 0.0, 1.0)),
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
    The oracle classifies a row per angle from one diagonalisation.  The closed path has no row: zero runs lie in
    touch zones (``zero_zones`` at 2 ``ZERO_TOL``).  A cluster of zones that no grid point parts, each meeting a dead
    window, holds only runs the touch rule drops; the rest are sampled in one call, widened by one grid index.  The
    cost grows with angles x peaks (at most 3 steps), the dead windows and the samples, not with angles x steps.
    """
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    basis_shape(cutoff)
    inits = [InitialState(family, alpha) for alpha in alphas]
    constants, times = derive_constants(params), _grid(t_max, steps)
    if source is Source.ORACLE:
        propagator = _propagator(params, cutoff)
        signed = np.array([_oracle_values(init, propagator, [ATOM_PAIR], times, cutoff)[0] for init in inits])
        times, rows, signed = _checked(times, np.clip(signed, 0.0, 1.0), signed)
        return [(alpha, _classify(times, row, signs, None, constants)) for alpha, row, signs in zip(alphas, rows, signed)]
    forms = [closedform.for_state(init, constants) for init in inits]
    if np.any(times[1:] <= times[:-1]):  # as a scan of this grid would
        raise ValueError("times must be strictly increasing")
    t0, t1, size = float(times[0]), float(times[-1]), times.size
    # the phase rabi t / 2 of a row value rounds by an ulp of itself, so the margin grows with t1
    level = 2 * ZERO_TOL + closedform.FEW_ULPS * constants.rabi * t1
    # on fewer points than periods only the peaks by a point, or one either side for rounding, can hold a zone
    peaks = None if (t1 - t0) * constants.rabi < 2.0 * math.pi * size else sorted(
        {k + d for k in (times * constants.rabi / (2.0 * math.pi)).astype(int).tolist() for d in (-1, 0, 1)})
    deads = [form.dead_windows(t0, t1) for form in forms]
    # an angle's dead windows fill one window per peak over their span: a zone meets one iff it meets the span
    zones = [(j, start, end, bool(dead) and end > dead[0][0] and start < dead[-1][1]) for j, (form, dead)
             in enumerate(zip(forms, deads)) for start, end in form.zero_zones(t0, t1, level, peaks)]
    owner = index = samples = np.empty(0, dtype=int)
    if not all(zone[3] for zone in zones):  # a zone that meets no dead window may hold a touch
        # each zone's grid points lo..hi-1, widened by one index, as increasing keys angle * (size + 1) + index
        owner, starts, ends, meets = np.array(zones).T
        lo, hi = np.searchsorted(times, starts), np.searchsorted(times, ends, side="right")
        base, held = owner.astype(int) * (size + 1), hi > lo
        first, last = (base + np.maximum(lo - 1, 0))[held], (base + np.minimum(hi, size - 1))[held]
        # a zero run may cross zones no grid point parts: sample such a cluster unless its zones all meet dead windows
        cluster = np.cumsum(first >= np.concatenate(([-1], last[:-1])))
        kept = np.bincount(cluster, meets[held] == 0)[cluster] > 0
        first, last = first[kept], last[kept]
        first[1:] = np.maximum(first[1:], last[:-1] + 1)  # each key once: zones come in order, and may overlap
        width = np.maximum(last - first + 1, 0)  # the ranges first..last as one arange, shifted range by range
        owner, index = np.divmod(np.repeat(first - np.cumsum(width) + width, width) + np.arange(width.sum()), size + 1)
    if index.size:  # one call for all sampled angles, in the row's own elementwise arithmetic
        sampled, union = np.flatnonzero(np.bincount(owner)), np.flatnonzero(np.bincount(index))
        rows = replace(forms[0], alpha=[alphas[j] for j in sampled.tolist()]).concurrence(times[union])
        samples = rows[np.searchsorted(sampled, owner), np.searchsorted(union, index)]
    cuts = np.searchsorted(owner, np.arange(len(alphas) + 1)).tolist()
    # the initial value: at t = 0 the transfer weight is 0, and the row's first value is |sin 2a|, bit for bit
    return [(alpha, _report(times[index[i:k]], samples[i:k], _zero_runs(samples[i:k] <= ZERO_TOL) if k > i else [],
                            dead, constants, abs(math.sin(2.0 * alpha))))
            for alpha, dead, i, k in zip(alphas, deads, cuts, cuts[1:])]
