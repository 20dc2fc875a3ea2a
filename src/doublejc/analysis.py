"""Concurrence-versus-time analysis: scans, sudden-death detection, validation.

A scan produces a :class:`ConcurrenceSeries` either from the closed-form
atom-atom expressions or from the numerical oracle (any subsystem pair).
:func:`detect_death` classifies the zeros of a series into isolated touch
points and finite dead intervals; closed-form dead intervals are the
analytic windows from :mod:`closedform`, and oracle ones are read off the
grid.  :func:`sweep_alpha` classifies many angles the same way from one grid.
:func:`validate` cross-checks the closed forms against the oracle at
amplitude, density-matrix and concurrence level on a common time grid.
"""

from __future__ import annotations

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

#: zero thresholds separating zeros from numerical dust on the grid: closed-form touch
#: points, and every zero of an oracle series
ZERO_TOL_CLOSED = 1e-12
ZERO_TOL_ORACLE = 1e-9

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
    downstream analysis can recover the oscillation period and the signed
    generator behind the values.
    """

    times: np.ndarray
    values: np.ndarray
    pair: SubsystemPair
    source: Source
    init: InitialState
    params: ModelParams

    def __post_init__(self):
        times, [values] = _checked(self.times, [self.values])
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _checked(times, rows):
    """A strictly increasing 1-d grid and concurrence rows on it, as read-only float arrays clipped into [0, 1]."""
    times, values = np.asarray(times, dtype=float), np.asarray(rows, dtype=float)
    if times.ndim != 1 or values.ndim != 2 or values.shape[1:] != times.shape:
        raise ValueError("times and values must be 1-d arrays of equal length")
    if times.size and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    # written so that a NaN fails it
    if values.size and not (values.min() >= -1e-9 and values.max() <= 1 + 1e-9):
        raise ValueError("concurrence values must lie in [0, 1]")
    values = np.clip(values, 0.0, 1.0)
    times.flags.writeable = False
    values.flags.writeable = False
    return times, values


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


def _oracle_chunks(init: InitialState, propagator: Propagator, times: np.ndarray, cutoff: int):
    """Yield (slice, amplitude columns) of the exact propagation, GRID_CHUNK time points at a time."""
    state0 = initial_state_vector(init, cutoff)
    for start in range(0, times.size, GRID_CHUNK):
        part = slice(start, start + GRID_CHUNK)
        yield part, propagator.evolve_grid(state0, times[part])


def _oracle_values(init: InitialState, propagator: Propagator, pairs, times: np.ndarray, cutoff: int):
    """Oracle concurrence rows, one per pair; all pairs of a chunk go through one kernel call."""
    chunks = _oracle_chunks(init, propagator, times, cutoff)
    return np.hstack([_block_concurrences(_pair_blocks(columns, cutoff, pairs)) for _, columns in chunks])


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
    values = _oracle_values(init, Propagator(build_hamiltonian(params, cutoff)), pairs, times, cutoff)
    return {pair.name: ConcurrenceSeries(times, row, pair, Source.ORACLE, init, params)
            for pair, row in zip(pairs, values)}


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


def _grid_edge(times: np.ndarray, values: np.ndarray, zero: int, step: int) -> float:
    """Edge of a zero run at its sample ``zero``, on the side ``step`` (-1 before, +1 after).

    The concurrence is clamped at zero inside a dead window, so the crossing
    is located by continuing the approach slope of the two live samples
    beside the run rather than interpolating into the flat region; the
    estimate is clamped into the grid cell known to bracket the true edge,
    and is that cell's midpoint when only one live sample is left.
    """
    near, far = zero + step, zero + 2 * step
    if not 0 <= near < len(times):
        return float(times[zero])
    lo, hi = sorted((times[zero], times[near]))
    if 0 <= far < len(times) and values[far] > values[near] > 0:
        t_star = times[near] + values[near] * (times[near] - times[far]) / (values[far] - values[near])
    else:
        t_star = 0.5 * (lo + hi)
    return float(min(max(t_star, lo), hi))


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


def detect_death(series: ConcurrenceSeries, zero_tol: float | None = None) -> DeathReport:
    """Classify the zeros of a concurrence series.

    Closed-form dead intervals are analytic (the family's
    ``closedform.for_state(...).dead_windows``).  A grid zero run
    (values <= zero_tol) whose bracketing grid cells meet no such window is
    an isolated touch point.  For oracle series a zero run spanning at
    least two grid intervals is a dead interval with edges extrapolated from
    the approach slopes (see ``_grid_edge``); shorter runs are touch points.
    The oracle reads values <= ``ZERO_TOL_ORACLE`` (1e-9) as zero, so at small
    |sin 2a| it reports dead intervals the dynamics does not have.
    :func:`sweep_alpha` classifies each of its rows with the same code.
    """
    if series.times.size == 0:
        raise ValueError("empty series")
    constants = derive_constants(series.params)
    form = closedform.for_state(series.init, constants) if series.source is Source.CLOSED_FORM else None
    return _classify(series.times, series.values, form, constants, zero_tol)


def _classify(times: np.ndarray, values: np.ndarray, form, constants, zero_tol: float | None) -> DeathReport:
    """The death report of one checked row (see :func:`detect_death`); ``form`` is None for an oracle row."""
    if zero_tol is None:
        zero_tol = ZERO_TOL_ORACLE if form is None else ZERO_TOL_CLOSED
    elif not (math.isfinite(zero_tol) and zero_tol >= 0):
        raise ValueError("zero_tol must be finite and non-negative")

    runs = _zero_runs(values <= zero_tol)
    if form is not None:
        dead = form.dead_windows(float(times[0]), float(times[-1]))
        last = len(times) - 1
        runs = [(i0, i1) for i0, i1 in runs
                if not any(a < times[min(i1 + 1, last)] and b > times[max(i0 - 1, 0)] for a, b in dead)]
    else:
        dead = [(_grid_edge(times, values, i0, -1), _grid_edge(times, values, i1, 1))
                for i0, i1 in runs if i1 - i0 >= 2]
        runs = [(i0, i1) for i0, i1 in runs if i1 - i0 < 2]
    touches = [float(times[i0 + int(np.argmin(values[i0 : i1 + 1]))]) for i0, i1 in runs]

    return DeathReport(
        dead_intervals=tuple(dead),
        touch_points=tuple(touches),
        period=2.0 * math.pi / constants.rabi,
        initial_concurrence=float(values[0]),
    )


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
    for part, columns in _oracle_chunks(init, Propagator(build_hamiltonian(params, cutoff)), times, cutoff):
        closed = form.amplitudes(times[part])
        [blocks] = _pair_blocks(columns, cutoff, [ATOM_PAIR])
        rho = np.einsum("tik,tjk->tij", blocks, blocks.conj())
        errors[part] = np.maximum.reduce([
            np.abs(closed.columns(cutoff) - columns).max(axis=0),
            np.abs(closed.atom_density() - rho).max(axis=(1, 2)),
            np.abs(form.concurrence(times[part]) - _block_concurrences([blocks])[0]),
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
    zero_tol: float | None = None,
) -> list:
    """Death reports across a grid of superposition angles.

    Returns (alpha, report) tuples in grid order; the dead-interval lengths
    shrink monotonically with growing initial entanglement.  Each report equals
    ``detect_death(scan(...))`` at its angle, from one grid and one classifier per
    sweep: one (angles x times) closed-form call, or one oracle diagonalisation.
    """
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    basis_shape(cutoff)
    inits = [InitialState(family, alpha) for alpha in alphas]
    constants, times = derive_constants(params), _grid(t_max, steps)
    if source is Source.ORACLE:
        forms = [None] * len(inits)
        propagator = Propagator(build_hamiltonian(params, cutoff))
        rows = [_oracle_values(init, propagator, [ATOM_PAIR], times, cutoff)[0] for init in inits]
    else:
        forms = [closedform.for_state(init, constants) for init in inits]
        # the first form with every angle at once: one row per angle
        rows = replace(forms[0], alpha=alphas).concurrence(times)
    times, rows = _checked(times, rows)
    return [(alpha, _classify(times, row, form, constants, zero_tol))
            for alpha, row, form in zip(alphas, rows, forms)]
