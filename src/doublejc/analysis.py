"""Concurrence-versus-time analysis: scans, sudden-death detection, validation.

A scan produces a :class:`ConcurrenceSeries` either from the closed-form
atom-atom expressions or from the numerical oracle (any subsystem pair).
:func:`detect_death` classifies the zeros of a series into isolated touch
points and finite dead intervals; closed-form dead intervals are the
analytic windows of the signed generator, with edges from one asin, and
oracle ones are read off the grid.  :func:`validate` cross-checks the
closed forms against the oracle at amplitude, density-matrix and concurrence
level on a common time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closedform import (
    phi_amplitudes,
    phi_concurrence,
    psi_amplitudes,
    psi_concurrence,
)
from .model import (
    InitialState,
    JCConstants,
    ModelParams,
    StateFamily,
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
    pair_concurrences,
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
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        # written so that a NaN fails it
        if values.size and not (values.min() >= -1e-9 and values.max() <= 1 + 1e-9):
            raise ValueError("concurrence values must lie in [0, 1]")
        values = np.clip(values, 0.0, 1.0)
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


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


def _closed_values(init: InitialState, params: ModelParams, times: np.ndarray) -> np.ndarray:
    constants = derive_constants(params)
    if init.family is StateFamily.PSI_ALPHA:
        return psi_concurrence(init.alpha, constants, times)
    return phi_concurrence(init.alpha, constants, times)


def _grid(t_max: float, steps: int, what: str = "a scan") -> np.ndarray:
    if steps < 2:
        raise ValueError(f"{what} needs at least two grid points")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError("t_max must be positive and finite")
    return np.linspace(0.0, t_max, steps)


def _oracle_chunks(init: InitialState, params: ModelParams, times: np.ndarray, cutoff: int):
    """Yield (slice, amplitude columns) of the exact propagation, GRID_CHUNK time points at a time."""
    state0 = initial_state_vector(init, cutoff)
    propagator = Propagator(build_hamiltonian(params, cutoff))
    for start in range(0, times.size, GRID_CHUNK):
        part = slice(start, start + GRID_CHUNK)
        yield part, propagator.evolve_grid(state0, times[part])


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
    values = {pair.name: np.empty(steps) for pair in pairs}
    for part, columns in _oracle_chunks(init, params, times, cutoff):
        for pair in pairs:
            values[pair.name][part] = pair_concurrences(columns, cutoff, pair)
    return {
        pair.name: ConcurrenceSeries(times, values[pair.name], pair, Source.ORACLE, init, params)
        for pair in pairs
    }


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
    if source is Source.ORACLE:
        return scan_pairs(init, params, [pair], t_max, steps, cutoff)[pair.name]
    if init.family is StateFamily.CUSTOM:
        raise ValueError("closed-form scans require a named family")
    if pair != ATOM_PAIR:
        raise ValueError("closed-form scans cover only the atom-atom pair")
    times = _grid(t_max, steps)
    values = _closed_values(init, params, times)
    return ConcurrenceSeries(times, values, pair, Source.CLOSED_FORM, init, params)


def _zero_runs(mask: np.ndarray):
    """Maximal runs of True as (first, last) index pairs."""
    flips = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
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


def _peak_weight(constants: JCConstants) -> float:
    """Largest transfer weight 4 N^2 = G^2 / (delta^2 + G^2); phi dies iff |tan alpha| is below it."""
    return 4.0 * constants.n_coef**2


def _phi_dead_windows(alpha: float, constants: JCConstants, t0: float, t1: float) -> list:
    """Closed-form dead windows of the zero/two-excitation family that meet [t0, t1], clipped to it.

    The signed generator is negative exactly where the transfer weight
    4 N^2 sin^2(rabi t / 2) exceeds |tan alpha|, i.e. on
    ((2/rabi)(k pi + theta), (2/rabi)((k + 1) pi - theta)) with
    theta = asin(sqrt(s)) and s = |tan alpha| / (4 N^2).  tan alpha and N^2
    carry a few ulps of rounding each, so s within 4 eps of 1 is the
    threshold, where the generator only touches zero.  At s = 0 (alpha = 0)
    neighbouring windows meet and merge into one.
    """
    s = abs(math.tan(alpha)) / _peak_weight(constants)
    if s >= 1.0 - 4 * np.finfo(float).eps:
        return []
    theta = math.asin(math.sqrt(s))
    scale = 2.0 / constants.rabi
    windows = []
    k = math.floor(t0 / (scale * math.pi))
    while (start := scale * (k * math.pi + theta)) < t1:
        end = scale * ((k + 1) * math.pi - theta)
        if windows and start <= windows[-1][1]:
            windows[-1][1] = end
        elif end > t0:
            windows.append([start, end])
        k += 1
    return [(max(start, t0), min(end, t1)) for start, end in windows]


def detect_death(series: ConcurrenceSeries, zero_tol: float | None = None) -> DeathReport:
    """Classify the zeros of a concurrence series.

    Closed-form dead intervals are analytic: the windows of the
    zero/two-excitation family (:func:`_phi_dead_windows`), and none for the
    one-excitation family unless it starts as a product state.  A grid zero
    run (values <= zero_tol) whose bracketing grid cells meet no such window
    is an isolated touch point.  For oracle series a zero run spanning at
    least two grid intervals is a dead interval with edges extrapolated from
    the approach slopes (see ``_grid_edge``); shorter runs are touch points.
    """
    if series.times.size == 0:
        raise ValueError("empty series")
    if zero_tol is None:
        zero_tol = ZERO_TOL_CLOSED if series.source is Source.CLOSED_FORM else ZERO_TOL_ORACLE
    elif not (math.isfinite(zero_tol) and zero_tol >= 0):
        raise ValueError("zero_tol must be finite and non-negative")

    times, values = series.times, series.values
    constants = derive_constants(series.params)
    runs = _zero_runs(values <= zero_tol)
    if series.source is Source.CLOSED_FORM:
        t0, t1, init = float(times[0]), float(times[-1]), series.init
        dead = []
        if init.family is StateFamily.PHI_ALPHA:
            dead = _phi_dead_windows(init.alpha, constants, t0, t1)
        elif init.family is StateFamily.PSI_ALPHA and math.sin(2.0 * init.alpha) == 0.0:
            dead = [(t0, t1)]  # a product state: |sin 2 alpha| (1 - w) vanishes throughout
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
    return math.atan(1.0 if params is None else _peak_weight(derive_constants(params)))


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
    if init.family is StateFamily.CUSTOM:
        raise ValueError("validation requires a named family")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError("tolerance must be finite and non-negative")
    times = _grid(t_max, steps, "validation")
    constants = derive_constants(params)
    amplitudes = psi_amplitudes if init.family is StateFamily.PSI_ALPHA else phi_amplitudes

    errors = np.empty(steps)
    for part, columns in _oracle_chunks(init, params, times, cutoff):
        closed = amplitudes(init.alpha, constants, times[part])
        blocks = _pair_blocks(columns, cutoff, ATOM_PAIR)
        rho = np.einsum("tik,tjk->tij", blocks, blocks.conj())
        errors[part] = np.maximum.reduce([
            np.abs(closed.columns(cutoff) - columns).max(axis=0),
            np.abs(closed.atom_density() - rho).max(axis=(1, 2)),
            np.abs(_closed_values(init, params, times[part]) - _block_concurrences(blocks)),
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
    shrink monotonically with growing initial entanglement.
    """
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    out = []
    for alpha in alphas:
        init = InitialState(family, alpha)
        series = scan(init, params, ATOM_PAIR, t_max, steps, source, cutoff)
        out.append((alpha, detect_death(series, zero_tol)))
    return out
