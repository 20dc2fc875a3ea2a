"""Concurrence-versus-time analysis: scans, sudden-death detection, validation.

A scan produces a :class:`ConcurrenceSeries` either from the closed-form
atom-atom expressions or from the numerical oracle (any subsystem pair).
:func:`detect_death` classifies the zeros of a series into isolated touch
points and finite dead intervals, refining interval endpoints by bisection
on the signed generator where one exists.  :func:`validate` cross-checks the
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
    phi_f,
    psi_amplitudes,
    psi_concurrence,
)
from .model import (
    InitialState,
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

#: zero thresholds separating true sudden death from numerical dust
ZERO_TOL_CLOSED = 1e-12
ZERO_TOL_ORACLE = 1e-9

#: time resolution of dead-interval endpoint refinement
REFINE_XTOL = 1e-10

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
    runs = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(mask) - 1))
    return runs


def _edge_estimate(t_far, v_far, t_near, v_near, lo, hi) -> float:
    """Zero crossing extrapolated from the last two live samples.

    The concurrence is clamped at zero inside a dead window, so the crossing
    is located by continuing the approach slope rather than interpolating
    into the flat region; the estimate is clamped into the grid cell [lo, hi]
    known to bracket the true edge.
    """
    if v_far > v_near > 0:
        t_star = t_near + v_near * (t_near - t_far) / (v_far - v_near)
    else:
        t_star = 0.5 * (lo + hi)
    return float(min(max(t_star, lo), hi))


def bisect(f, lo: float, hi: float, xtol: float) -> float:
    """Root of f in [lo, hi], step for step as scipy.optimize.bisect.

    The step halves from hi - lo and is added to the lower end, which moves
    to the midpoint while f there shares the sign of the original f(lo).
    Stops once the step is below xtol + 4 eps |mid|, and returns the midpoint.
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

    A zero run spanning at least two grid intervals counts as a dead
    interval; shorter runs are isolated touch points.  For closed-form
    series of the zero/two-excitation family the interval endpoints are
    refined by bisection on the signed generator; otherwise each endpoint
    extrapolates the approach slope of the last two live samples into the
    zero run (see ``_edge_estimate``).
    """
    if series.times.size == 0:
        raise ValueError("empty series")
    if zero_tol is None:
        zero_tol = ZERO_TOL_CLOSED if series.source is Source.CLOSED_FORM else ZERO_TOL_ORACLE

    times, values = series.times, series.values
    use_generator = (
        series.source is Source.CLOSED_FORM
        and series.init.family is StateFamily.PHI_ALPHA
    )
    if use_generator:
        constants = derive_constants(series.params)
        generator = lambda t: phi_f(series.init.alpha, constants, float(t))

    dead = []
    touches = []
    for i0, i1 in _zero_runs(values <= zero_tol):
        if i1 - i0 < 2:
            k = i0 + int(np.argmin(values[i0 : i1 + 1]))
            touches.append(float(times[k]))
            continue

        if use_generator:
            f_run = np.array([generator(t) for t in times[i0 : i1 + 1]])
            negative = np.nonzero(f_run < 0)[0]
            if negative.size == 0:
                # run hugs zero without a sign change: a broad touch
                k = i0 + int(np.argmin(values[i0 : i1 + 1]))
                touches.append(float(times[k]))
                continue
            j = i0 + int(negative[0])
            k = i0 + int(negative[-1])
            start = (
                float(times[0])
                if j == 0
                else float(bisect(generator, times[j - 1], times[j], xtol=REFINE_XTOL))
            )
            end = (
                float(times[-1])
                if k == len(times) - 1
                else float(bisect(generator, times[k], times[k + 1], xtol=REFINE_XTOL))
            )
        else:
            last = len(times) - 1
            if i0 == 0:
                start = float(times[0])
            elif i0 == 1:
                start = 0.5 * float(times[0] + times[1])
            else:
                start = _edge_estimate(
                    times[i0 - 2], values[i0 - 2], times[i0 - 1], values[i0 - 1],
                    times[i0 - 1], times[i0],
                )
            if i1 == last:
                end = float(times[-1])
            elif i1 == last - 1:
                end = 0.5 * float(times[last - 1] + times[last])
            else:
                end = _edge_estimate(
                    times[i1 + 2], values[i1 + 2], times[i1 + 1], values[i1 + 1],
                    times[i1], times[i1 + 1],
                )
        dead.append((start, end))

    rabi = derive_constants(series.params).rabi
    return DeathReport(
        dead_intervals=tuple(dead),
        touch_points=tuple(touches),
        period=2.0 * math.pi / rabi,
        initial_concurrence=float(values[0]),
    )


def death_threshold_alpha() -> float:
    """Critical angle for sudden death of the zero/two-excitation family at zero detuning.

    The signed generator turns negative iff the transfer weight sin^2(Gt/2)
    can exceed tan(alpha), so finite dead intervals occur exactly for
    tan(alpha) < 1, i.e. alpha < pi/4.  At the threshold the generator only
    touches zero at Gt = pi, where the leading factor vanishes as well.
    """
    return math.atan(1.0)


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
