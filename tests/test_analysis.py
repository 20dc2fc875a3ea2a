import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from doublejc import (
    ALL_PAIRS,
    ATOM_PAIR,
    ConcurrenceSeries,
    InitialState,
    ModelParams,
    Propagator,
    PureState,
    QubitEquivalenceError,
    Source,
    StateFamily,
    SubsystemPair,
    analysis,
    basis_shape,
    build_hamiltonian,
    closedform,
    death_threshold_alpha,
    derive_constants,
    detect_death,
    initial_state_vector,
    numerics,
    partial_trace_pair,
    phi_f,
    scan,
    scan_pairs,
    sweep_alpha,
    validate,
    wootters_concurrence,
)
from doublejc.cli import _json
from doublejc.model import ALPHA_MAX

RESONANT = ModelParams.from_detuning(0.0, 1.0)


def psi_series(alpha, params=RESONANT, source=Source.CLOSED_FORM, t_max=4 * math.pi, steps=2001):
    return scan(InitialState.psi(alpha), params, ATOM_PAIR, t_max, steps, source)


def phi_series(alpha, params=RESONANT, source=Source.CLOSED_FORM, t_max=4 * math.pi, steps=2001):
    return scan(InitialState.phi(alpha), params, ATOM_PAIR, t_max, steps, source)


def dead_window(alpha):
    """Analytic dead interval of the resonant phi family in the first period."""
    t_start = 2 * math.asin(math.sqrt(math.tan(alpha)))
    return t_start, 2 * math.pi - t_start


# ------------------------------------------------------------------- scan

def test_scan_psi_closed_matches_cosine():
    series = psi_series(math.pi / 4, t_max=2 * math.pi, steps=201)
    expected = np.cos(series.times / 2) ** 2
    assert np.abs(series.values - expected).max() <= 1e-12


def test_scan_phi_quarter_has_only_isolated_zeros():
    series = phi_series(math.pi / 4)
    report = detect_death(series)
    assert report.dead_intervals == ()
    assert report.touch_points == pytest.approx([math.pi, 3 * math.pi], abs=1e-9)


def test_scan_tiny_coupling_is_constant():
    params = ModelParams.from_detuning(0.0, 1e-6)
    for init in (InitialState.psi(0.6), InitialState.phi(0.6)):
        series = scan(init, params, ATOM_PAIR, 1.0, 101, Source.CLOSED_FORM)
        assert np.abs(series.values - abs(math.sin(1.2))).max() <= 1e-9


def test_scan_oracle_agrees_with_closed_form():
    for make, alpha, delta in [
        (psi_series, math.pi / 6, 0.0),
        (psi_series, 0.9, 1.3),
        (phi_series, math.pi / 12, 0.0),
        (phi_series, 0.7, -0.8),
    ]:
        params = ModelParams.from_detuning(delta, 1.0)
        closed = make(alpha, params, Source.CLOSED_FORM, 12.0, 601)
        oracle = make(alpha, params, Source.ORACLE, 12.0, 601)
        assert np.abs(closed.values - oracle.values).max() <= 1e-9


def test_scan_rejects_unsupported_closed_requests():
    with pytest.raises(ValueError, match="atom-atom"):
        scan(InitialState.psi(0.3), RESONANT, SubsystemPair.from_name("ab"), 1.0, 10, Source.CLOSED_FORM)
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(ValueError, match="named family"):
        scan(InitialState.custom(amps), RESONANT, ATOM_PAIR, 1.0, 10, Source.CLOSED_FORM)
    with pytest.raises(ValueError):
        scan(InitialState.psi(0.3), RESONANT, ATOM_PAIR, 1.0, 1, Source.CLOSED_FORM)
    with pytest.raises(ValueError):
        scan(InitialState.psi(0.3), RESONANT, ATOM_PAIR, -1.0, 10, Source.CLOSED_FORM)


def test_scan_pairs_initial_row():
    out = scan_pairs(InitialState.psi(math.pi / 4), RESONANT, ALL_PAIRS, 2.0, 21)
    assert list(out) == ["AB", "ab", "Aa", "Bb", "Ab", "Ba"]
    first = [out[name].values[0] for name in out]
    assert first[0] == pytest.approx(1.0, abs=1e-12)
    assert first[1:] == pytest.approx([0.0] * 5, abs=1e-9)


# ----------------------------------------------------------- death reports

def test_detect_death_phi_interval_endpoints():
    report = detect_death(phi_series(math.pi / 12))
    assert len(report.dead_intervals) == 2  # two periods scanned
    start, end = report.dead_intervals[0]
    t_start, t_end = dead_window(math.pi / 12)
    assert start == pytest.approx(t_start, abs=1e-9)
    assert end == pytest.approx(t_end, abs=1e-9)
    assert start == pytest.approx(1.08817621, abs=1e-7)
    assert end == pytest.approx(5.19500909, abs=1e-7)
    assert report.touch_points == ()
    assert report.initial_concurrence == pytest.approx(0.5, abs=1e-12)
    assert report.period == pytest.approx(2 * math.pi, rel=1e-15)


def test_detect_death_oracle_matches_closed_endpoints():
    report = detect_death(phi_series(math.pi / 12, source=Source.ORACLE))
    assert len(report.dead_intervals) == 2
    start, end = report.dead_intervals[0]
    t_start, t_end = dead_window(math.pi / 12)
    # linear interpolation of the signed Wootters value on the grid: endpoint accuracy is O(grid step^2)
    assert start == pytest.approx(t_start, abs=1e-5)
    assert end == pytest.approx(t_end, abs=1e-5)


def test_detect_death_intervals_recur_each_period():
    report = detect_death(phi_series(0.2))
    assert len(report.dead_intervals) == 2
    (s1, e1), (s2, e2) = report.dead_intervals
    assert s2 - s1 == pytest.approx(report.period, abs=1e-8)
    assert e2 - e1 == pytest.approx(report.period, abs=1e-8)


def test_detect_death_psi_touch_points():
    report = detect_death(psi_series(math.pi / 4))
    assert report.dead_intervals == ()
    assert report.touch_points == pytest.approx([math.pi, 3 * math.pi], abs=1e-9)


def test_detect_death_detuned_psi_has_no_zeros():
    report = detect_death(psi_series(math.pi / 4, ModelParams.from_detuning(1.0, 1.0)))
    assert report.dead_intervals == ()
    assert report.touch_points == ()


def test_detect_death_initial_concurrence_random():
    rng = np.random.default_rng(79)
    for _ in range(20):
        alpha = rng.uniform(0, math.pi / 2)
        series = phi_series(alpha, steps=101) if rng.random() < 0.5 else psi_series(alpha, steps=101)
        report = detect_death(series)
        assert report.initial_concurrence == pytest.approx(abs(math.sin(2 * alpha)), abs=1e-12)


def test_detect_death_rejects_empty_series():
    empty = ConcurrenceSeries(
        np.array([]), np.array([]), ATOM_PAIR, Source.CLOSED_FORM, InitialState.psi(0.3), RESONANT
    )
    with pytest.raises(ValueError, match="empty"):
        detect_death(empty)



@pytest.mark.parametrize("zero_tol", [math.nan, -1.0, math.inf, 1e-3])
def test_detect_death_rejects_bad_zero_tol(zero_tol):
    # no threshold is a parameter any more, bad or plausible: zero runs are bounded by
    # ZERO_TOL on both sources, and death itself is read from the sign
    for source in Source:
        with pytest.raises(TypeError):
            detect_death(phi_series(0.3, source=source, steps=101), zero_tol)
        with pytest.raises(TypeError):
            sweep_alpha(StateFamily.PHI_ALPHA, RESONANT, [0.3], 4 * math.pi, 101, source, 1, zero_tol)
        with pytest.raises(TypeError):
            sweep_alpha(StateFamily.PHI_ALPHA, RESONANT, [0.3], 4 * math.pi, 101, source, zero_tol=zero_tol)
    assert detect_death(phi_series(0.3, steps=101)).dead_intervals


def test_series_rejects_a_bad_grid():
    init = InitialState.psi(0.3)
    with pytest.raises(ValueError, match="times and values must be 1-d arrays of equal length"):
        ConcurrenceSeries(np.array([0.0, 1.0]), np.array([0.5, 0.5, 0.5]), ATOM_PAIR, Source.ORACLE, init, RESONANT)
    with pytest.raises(ValueError, match="times and values must be 1-d arrays of equal length"):
        ConcurrenceSeries(np.zeros((2, 2)), np.zeros((2, 2)), ATOM_PAIR, Source.ORACLE, init, RESONANT)
    for times in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0]):
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            ConcurrenceSeries(np.array(times), np.full(3, 0.5), ATOM_PAIR, Source.ORACLE, init, RESONANT)


def test_every_grid_is_strictly_increasing():
    init, t_max = InitialState.phi(0.3), 5e-324  # linspace repeats 0 on a subnormal span
    for call in (lambda: scan(init, RESONANT, ATOM_PAIR, t_max, 3, Source.CLOSED_FORM),
                 lambda: scan_pairs(init, RESONANT, ALL_PAIRS, t_max, 3),
                 lambda: validate(init, RESONANT, t_max, 3),
                 lambda: sweep_alpha(StateFamily.PHI_ALPHA, RESONANT, [0.3], t_max, 3),
                 lambda: sweep_alpha(StateFamily.PHI_ALPHA, RESONANT, [0.3], t_max, 3, Source.ORACLE)):
        with pytest.raises(ValueError, match="^times must be strictly increasing$"):
            call()


def loop_zero_runs(mask):
    """The per-element loop _zero_runs replaced."""
    runs, start = [], None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(mask) - 1))
    return runs


def test_zero_runs_matches_loop():
    rng = np.random.default_rng(97)
    masks = [np.ones(7, bool), np.zeros(7, bool), np.array([True]), np.array([False])]
    masks += [rng.random(rng.integers(1, 60)) < p for p in rng.uniform(0.1, 0.9, 200)]
    for mask in masks:
        assert analysis._zero_runs(mask) == loop_zero_runs(mask)


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_detect_death_reports_windows_narrower_than_the_grid(delta):
    params = ModelParams.from_detuning(delta, 1.0)
    alpha = death_threshold_alpha(params) - 1e-5
    series = phi_series(alpha, params)
    rabi = math.hypot(delta, 1.0)
    theta = math.asin(math.sqrt(math.tan(alpha) * rabi**2))
    windows = [((2 / rabi) * (k * math.pi + theta), (2 / rabi) * ((k + 1) * math.pi - theta)) for k in range(8)]
    expected = [(start, end) for start, end in windows if end < series.times[-1]]
    report = detect_death(series)
    assert len(report.dead_intervals) == len(expected) >= 2
    for got, want in zip(report.dead_intervals, expected):
        assert got == pytest.approx(want, abs=1e-12)
        assert got[1] - got[0] < 3 * (series.times[1] - series.times[0])
    assert not [t for t in report.touch_points for start, end in expected if start <= t <= end]


def test_detect_death_window_beginning_in_the_last_cell():
    alpha = math.pi / 12
    start = dead_window(alpha)[0]
    series = phi_series(alpha, t_max=start + 0.5e-3, steps=201)
    assert series.times[-2] < start < series.times[-1]
    report = detect_death(series)
    assert report.dead_intervals == ((pytest.approx(start, abs=1e-12), series.times[-1]),)


def test_detect_death_zero_next_to_a_window_belongs_to_it():
    # a live sample within 1e-13 of the edge of a window between grid points reads as
    # zero; the grid cell around it brackets the window, so it is no touch point
    params = ModelParams.from_detuning(1.0, 1.0)
    alpha = death_threshold_alpha(params) - 1e-5
    grid = np.linspace(0.0, 4.0, 41)
    (start, end), *_ = closedform.for_state(InitialState.phi(alpha), derive_constants(params)).dead_windows(0.0, 4.0)
    assert not np.any((grid >= start) & (grid <= end))
    times = np.sort(np.append(grid, start - 1e-13))
    values = closedform.phi_concurrence(alpha, derive_constants(params), times)
    assert values[np.searchsorted(times, start) - 1] <= analysis.ZERO_TOL
    series = ConcurrenceSeries(times, values, ATOM_PAIR, Source.CLOSED_FORM, InitialState.phi(alpha), params)
    report = detect_death(series)
    assert report.dead_intervals == ((start, end),)
    assert report.touch_points == ()


def test_detect_death_closed_cost_does_not_grow_with_the_grid(monkeypatch):
    calls = []
    for name in closedform.__all__:
        original = getattr(closedform, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original)
            return _original(*args, **kwargs)

        for module in (closedform, analysis):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    for steps in (201, 2001):
        series = phi_series(math.pi / 12, steps=steps)
        calls.clear()
        report = detect_death(series)
        assert len(report.dead_intervals) == 2
        assert len(calls) <= 2


def test_detect_death_alpha_zero_is_one_dead_interval():
    for series in (phi_series(0.0), psi_series(0.0)):
        report = detect_death(series)
        assert report.dead_intervals == ((0.0, series.times[-1]),)
        assert report.touch_points == ()


@pytest.mark.parametrize("family", [StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA])
@pytest.mark.parametrize("alpha", [0.0, math.pi / 2])
def test_product_states_are_one_dead_interval_on_both_sources(family, alpha):
    # at alpha = pi/2, sin 2 alpha rounds to 1.2e-16 rather than zero
    init, t_max = InitialState(family, alpha), 4 * math.pi
    closed, oracle = (detect_death(scan(init, RESONANT, ATOM_PAIR, t_max, 201, source))
                      for source in (Source.CLOSED_FORM, Source.ORACLE))
    assert closed.dead_intervals == oracle.dead_intervals == ((0.0, t_max),)
    assert closed.touch_points == oracle.touch_points == ()


def test_series_rejects_nan_values():
    # a NaN inside an oracle zero run would split one dead interval into touch points
    with pytest.raises(ValueError, match="concurrence values"):
        ConcurrenceSeries(
            np.array([0.0, 1.0]), np.array([math.nan, 0.5]), ATOM_PAIR, Source.ORACLE,
            InitialState.phi(0.3), RESONANT,
        )


def test_series_freezes_a_copy_of_the_callers_grid():
    times = np.linspace(0.0, 1.0, 3)
    series = ConcurrenceSeries(times, np.array([0.1, 0.2, 0.3]), ATOM_PAIR, Source.ORACLE, InitialState.phi(0.3),
                               RESONANT)
    times[0] = 5.0  # the caller's array stays writable
    assert series.times.tolist() == [0.0, 0.5, 1.0] and not series.times.flags.writeable


def test_closed_scan_is_the_checked_constructors_series_bit_for_bit():
    # the closed scan freezes its grid and the closed form's clipped row unchecked: each array is the one the public
    # constructor would build from them, bit for bit, and the signed row is the values themselves
    rng = np.random.default_rng(101)
    for _ in range(600):
        family = StateFamily(rng.choice(["psi", "phi"]))
        alpha = [0.0, -0.0, math.pi / 2, 1e-13, math.pi / 4, rng.uniform(0, math.pi / 2)][rng.integers(6)]
        params = ModelParams.from_detuning(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
        init, t_max, steps = InitialState(family, alpha), rng.uniform(0.1, 60.0), int(rng.integers(2, 402))
        got = scan(init, params, ATOM_PAIR, t_max, steps, Source.CLOSED_FORM)
        times = np.linspace(0.0, t_max, steps)
        values = closedform.for_state(init, derive_constants(params)).concurrence(times)
        want = ConcurrenceSeries(times, values, ATOM_PAIR, Source.CLOSED_FORM, init, params)
        for name in ("times", "values", "signed"):
            assert np.array_equal(getattr(got, name).view(np.uint64), getattr(want, name).view(np.uint64))
            assert not getattr(got, name).flags.writeable
        assert got.signed is got.values
        assert (got.pair, got.source, got.init, got.params) == (ATOM_PAIR, Source.CLOSED_FORM, init, params)


@pytest.mark.parametrize("source", [Source.CLOSED_FORM, Source.ORACLE])
def test_a_grid_is_of_doubles_whatever_type_t_max_has(source):
    # _check_grid proves a grid of doubles, so the grid is built from t_max as a float: a float32 t_max once gave
    # the oracle a float32 grid
    t_max = np.float32(2.7)
    series = scan(InitialState.phi(0.3), RESONANT, ATOM_PAIR, t_max, 101, source)
    assert series.times.dtype == np.float64
    assert np.array_equal(series.times, np.linspace(0.0, float(t_max), 101))


def test_report_dicts_are_the_explicit_dicts_they_replace():
    # to_dict reads the dataclass fields: the keys, their order and the values of the dicts once written out by
    # hand, with the report's own tuples in place of list copies, so the printed JSON is unchanged
    [(_, report)] = sweep_alpha(StateFamily.PHI_ALPHA, RESONANT, [0.3], 4 * math.pi, 401, Source.ORACLE)
    reports = [report, detect_death(phi_series(math.pi / 4, steps=101)), analysis.DeathReport((), (), 1.0, 0.0)]
    for death in reports:
        explicit = {
            "dead_intervals": [list(iv) for iv in death.dead_intervals],
            "touch_points": list(death.touch_points),
            "period": death.period,
            "initial_concurrence": death.initial_concurrence,
        }
        got = death.to_dict()
        assert list(got) == list(explicit)
        assert got["dead_intervals"] is death.dead_intervals and got["touch_points"] is death.touch_points
        assert [got["period"], got["initial_concurrence"]] == [death.period, death.initial_concurrence]
        assert _json(got) == _json(explicit)
    assert reports[0].dead_intervals and reports[1].touch_points  # neither is vacuous
    for passed in (True, False):
        check = validate(InitialState.phi(0.3), RESONANT, 2.0, 21, 1e-9 if passed else 0.0)
        explicit = {
            "max_abs_error": check.max_abs_error,
            "worst_time": check.worst_time,
            "samples": check.samples,
            "tolerance": check.tolerance,
            "pass": check.passed,
        }
        assert list(check.to_dict().items()) == list(explicit.items()) and check.passed is passed
        assert _json(check.to_dict()) == _json(explicit)


def test_series_signed_row_is_checked_and_defaults_to_the_values():
    def series(values, signed=None):
        return ConcurrenceSeries(np.arange(len(values), dtype=float), np.array(values), ATOM_PAIR,
                                 Source.ORACLE, InitialState.phi(0.3), RESONANT, signed)

    plain = series([0.5, 0.0, 0.5])
    assert np.array_equal(plain.signed, plain.values) and not plain.signed.flags.writeable
    for signed in ([0.5, math.nan, 0.5], [0.5, 0.0]):
        with pytest.raises(ValueError, match="signed values"):
            series([0.5, 0.0, 0.5], np.array(signed))
    # without a signed row, one zero sample touches and a longer zero run is a product-state window
    assert detect_death(plain).touch_points == (1.0,)
    assert detect_death(series([0.5, 0.0, 0.0, 0.0, 0.5])).dead_intervals == ((1.0, 3.0),)


def test_oracle_series_carries_the_signed_wootters_value():
    series = phi_series(math.pi / 12, source=Source.ORACLE, steps=201)
    assert series.signed.min() < -0.1
    assert np.array_equal(series.values, np.clip(series.signed, 0.0, 1.0))
    assert not series.signed.flags.writeable


def _two_pass_classify(series):
    """The oracle report by the two-pass bracket rule ``detect_death`` replaced: the reference of its one pass.

    Each zero run gives its signed window, each edge clamped into its own cell, and a run is then a touch point only
    if the grid cells bracketing it meet no dead window, found by one binary search of the windows' ends.
    """
    times, values, signed, few_ulps = series.times, series.values, series.signed, closedform.FEW_ULPS

    def signed_window(i0, i1):
        run = signed[i0 : i1 + 1]
        negative = i0 + np.flatnonzero(run < -few_ulps)
        if negative.size == 0:
            product = i1 > i0 and np.all(np.abs(run) <= few_ulps)
            return (float(times[i0]), float(times[i1])) if product else None
        first, last = int(negative[0]), int(negative[-1])
        cells = ((first, max(first - 1, 0)), (last, min(last + 1, len(times) - 1)))
        roots = ((times[d] + (times[n] - times[d]) * (signed[d] / (signed[d] - max(signed[n], 0.0))),
                  times[d], times[n]) for d, n in cells)
        return tuple(float(min(max(root, min(ends)), max(ends))) for root, *ends in roots)

    runs = analysis._zero_runs(values <= analysis.ZERO_TOL)
    dead = [window for i0, i1 in runs if (window := signed_window(i0, i1))]
    if dead:
        (i0, i1), (a, b) = np.array(runs).T, np.array(dead).T
        lo, hi = times[np.maximum(i0 - 1, 0)], times[np.minimum(i1 + 1, len(times) - 1)]
        k = np.searchsorted(b[:-1], lo, side="right")
        runs = [run for run, met in zip(runs, ((a[k] < hi) & (b[k] > lo)).tolist()) if not met]
    touches = [float(times[i0 + int(np.argmin(values[i0 : i1 + 1]))]) for i0, i1 in runs]
    rabi = derive_constants(series.params).rabi
    return analysis.DeathReport(tuple(dead), tuple(touches), 2.0 * math.pi / rabi, float(values[0]))


def test_oracle_touch_beside_a_root_past_its_live_sample_stays():
    # a hand-built, non-uniform row whose second sample reads live but signs zero: (t_n - t_d) s_d / s_d rounds the
    # window's end one ulp past that sample, into the bracket of the next zero run; the end is clamped back to the
    # sample, and the next run is still a touch point
    times = [0.0, 0.6999949517653684, 1.9276487201667345, 2.9276487201667347, 3.9276487201667347]
    series = ConcurrenceSeries(times, np.array([0.5, 0.0, 0.5, 0.0, 0.5]), ATOM_PAIR, Source.ORACLE,
                               InitialState.phi(0.3), RESONANT, np.array([0.5, -0.29969970324800926, 0.0, 0.0, 0.5]))
    report = detect_death(series)
    [(_, end)] = report.dead_intervals
    assert end == times[2]
    assert report.touch_points == (times[3],)


def test_oracle_reports_equal_the_two_pass_bracket_rule():
    # on a uniform grid each linear root stays inside its own run's bracketing samples, so the bracket search of the
    # reference never drops a run that the one pass keeps: equal reports for all six pairs, both families, 2 to 401
    # steps, at and by the phi threshold, near and at product states, as single scans and as oracle sweeps
    rng = np.random.default_rng(29)
    mixed = windows = 0
    for draw in range(240):
        delta, big_g = rng.uniform(-2.0, 2.0), rng.uniform(0.3, 3.0)
        params = ModelParams.from_detuning(delta, big_g)
        threshold = death_threshold_alpha(params)
        alpha = [rng.uniform(0.0, 0.5 * math.pi), threshold, threshold * (1.0 + rng.uniform(-1e-9, 1e-9)), 1e-13,
                 0.0, 0.5 * math.pi, rng.uniform(0.02, 0.98) * threshold][draw % 7]
        family = [StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA][draw % 2]
        t_max = rng.uniform(0.1, 8.0) * 2.0 * math.pi / math.hypot(delta, big_g)
        steps = int(rng.integers(2, 402))
        init = InitialState(family, alpha)
        for series in scan_pairs(init, params, ALL_PAIRS, t_max, steps).values():
            report = detect_death(series)
            assert report == _two_pass_classify(series), (draw, series.pair.name)
            mixed += bool(report.dead_intervals and report.touch_points)
            # each window lies within the samples bracketing its own zero run, one run per window, in time order; a
            # root clamped into its cell stays within [0, t_max] too, where (t_n - t_d) s_d / s_d once rounded it
            # an ulp past a grid end whose sample is a zero above -FEW_ULPS
            times, last = series.times, steps - 1
            runs = analysis._zero_runs(series.values <= analysis.ZERO_TOL)
            brackets = [(times[i0 - 1] if i0 else 0.0, times[i1 + 1] if i1 < last else t_max) for i0, i1 in runs]
            owners = [next(k for k, (lo, hi) in enumerate(brackets) if lo <= start <= end <= hi)
                      for start, end in report.dead_intervals]
            assert owners == sorted(set(owners)), (draw, series.pair.name)
            windows += len(owners)
        if draw % 4 == 0:
            angles = [alpha, threshold, rng.uniform(0.0, 0.5 * math.pi)]
            swept = sweep_alpha(family, params, angles, t_max, steps, Source.ORACLE)
            assert [report for _, report in swept] == [
                _two_pass_classify(scan(InitialState(family, a), params, ATOM_PAIR, t_max, steps, Source.ORACLE))
                for a in angles], draw
    assert mixed > 20 and windows > 500


# ------------------------------------------------------------- bisection

def test_bisect_bracket_ends_and_signs():
    assert analysis.bisect(lambda x: x, 0.0, 1.0, xtol=1e-10) == 0.0
    assert analysis.bisect(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-10) == 1.0
    with pytest.raises(ValueError, match="different signs"):
        analysis.bisect(lambda x: x - 2.0, 0.0, 1.0, xtol=1e-10)


def seeded_phi_deaths():
    """40 seeded dying phi scans over three periods: (alpha, params, series, report)."""
    rng = np.random.default_rng(89)
    for _ in range(40):
        delta, big_g = rng.uniform(-2.0, 2.0), rng.uniform(0.3, 3.0)
        params = ModelParams.from_detuning(delta, big_g)
        alpha = rng.uniform(0.02, 0.98) * math.atan(big_g**2 / (delta**2 + big_g**2))
        rabi = math.hypot(delta, big_g)
        series = phi_series(alpha, params, t_max=3 * 2 * math.pi / rabi, steps=301)
        yield alpha, params, series, detect_death(series)


def interior_edges(series, report):
    """Reported dead-interval edges strictly inside the grid, with the grid cell bracketing each."""
    times = series.times
    for edge in (t for interval in report.dead_intervals for t in interval):
        if times[0] < edge < times[-1]:
            j = int(np.searchsorted(times, edge))
            yield edge, float(times[j - 1]), float(times[j])


def test_bisect_matches_scipy_on_phi_death_edges():
    optimize = pytest.importorskip("scipy.optimize")
    count = 0
    for alpha, params, series, report in seeded_phi_deaths():
        constants = derive_constants(params)

        def f(t):
            return phi_f(alpha, constants, t)

        for _, lo, hi in interior_edges(series, report):
            assert analysis.bisect(f, lo, hi, xtol=1e-10) == optimize.bisect(f, lo, hi, xtol=1e-10)
            count += 1
    assert count >= 200


def mp_phi_root(alpha, constants, guess):
    """Root of the signed generator near ``guess`` in 50-digit arithmetic."""
    import mpmath as mp

    with mp.workdps(50):
        a, big_g = mp.mpf(alpha), mp.mpf(constants.big_g)
        rabi = mp.sqrt(mp.mpf(constants.delta) ** 2 + big_g**2)
        peak = (big_g / rabi) ** 2

        def f(t):
            w = peak * mp.sin(rabi * t / 2) ** 2
            return (1 - w) * (abs(mp.sin(2 * a)) - 2 * w * mp.cos(a) ** 2)

        return float(mp.findroot(f, mp.mpf(guess)))


def test_phi_death_edges_are_roots():
    try:
        from scipy.optimize import brentq
    except ImportError:
        brentq = None
    count = 0
    for alpha, params, series, report in seeded_phi_deaths():
        constants = derive_constants(params)

        def f(t):
            return phi_f(alpha, constants, t)

        for edge, lo, hi in interior_edges(series, report):
            if brentq is not None:
                root = brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
            else:
                root = mp_phi_root(alpha, constants, edge)
            assert abs(edge - root) <= 1e-12
            assert f(edge - 1e-9) * f(edge + 1e-9) < 0
            count += 1
    assert count >= 200


def test_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, doublejc; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# -------------------------------------------------------------- threshold

def test_death_threshold_value():
    assert death_threshold_alpha() == pytest.approx(math.pi / 4, rel=1e-15)


def test_death_threshold_separates_behaviors():
    threshold = death_threshold_alpha()
    below = detect_death(phi_series(threshold - 0.05))
    above = detect_death(phi_series(threshold + 0.05))
    assert below.has_death
    assert not above.has_death
    # exactly at threshold the generator only touches zero at G t = pi
    at = detect_death(phi_series(threshold))
    assert at.dead_intervals == ()
    assert at.touch_points == pytest.approx([math.pi, 3 * math.pi], abs=1e-9)


def test_death_threshold_alpha_0p3_dies():
    report = detect_death(phi_series(0.3))
    assert report.has_death


def test_death_threshold_detuned():
    params = ModelParams.from_detuning(1.0, 1.0)
    threshold = death_threshold_alpha(params)
    assert threshold == pytest.approx(math.atan(0.5), rel=1e-15)
    assert death_threshold_alpha(RESONANT) == death_threshold_alpha()
    assert detect_death(phi_series(threshold - 0.01, params)).has_death
    assert not detect_death(phi_series(threshold + 0.01, params)).has_death


# ------------------------------------------------------------------ sweep

def test_sweep_dead_lengths_decrease_with_alpha():
    grid = [math.pi / 24, math.pi / 16, math.pi / 12, 0.4, 0.6]
    results = sweep_alpha(StateFamily.PHI_ALPHA, RESONANT, grid, 2 * math.pi, 2001)
    lengths = []
    for alpha, report in results:
        assert len(report.dead_intervals) == 1
        start, end = report.dead_intervals[0]
        expected = 2 * math.pi - 4 * math.asin(math.sqrt(math.tan(alpha)))
        assert end - start == pytest.approx(expected, abs=1e-8)
        lengths.append(end - start)
    assert lengths == sorted(lengths, reverse=True)
    assert all(l2 < l1 for l1, l2 in zip(lengths, lengths[1:]))


def test_sweep_above_threshold_never_dies():
    grid = np.linspace(death_threshold_alpha() + 0.02, math.pi / 2 - 0.02, 9)
    results = sweep_alpha(StateFamily.PHI_ALPHA, RESONANT, grid, 2 * math.pi, 1001)
    assert all(not report.has_death for _, report in results)


def test_sweep_psi_never_dies():
    grid = np.linspace(0.05, math.pi / 2 - 0.05, 9)
    for params in (RESONANT, ModelParams.from_detuning(0.7, 1.0)):
        results = sweep_alpha(StateFamily.PSI_ALPHA, params, grid, 4 * math.pi, 1001)
        assert all(not report.has_death for _, report in results)


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep_alpha(StateFamily.PHI_ALPHA, RESONANT, [], 1.0, 10)


@pytest.mark.parametrize("source", [Source.CLOSED_FORM, Source.ORACLE])
def test_scan_and_sweep_reject_cutoff_zero(source):
    with pytest.raises(ValueError, match="Fock cutoff must be at least 1"):
        scan(InitialState.phi(0.3), RESONANT, ATOM_PAIR, 1.0, 11, source, cutoff=0)
    with pytest.raises(ValueError, match="Fock cutoff must be at least 1"):
        sweep_alpha(StateFamily.PHI_ALPHA, RESONANT, [0.3], 1.0, 11, source, cutoff=0)


@pytest.mark.parametrize("family", [StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA])
def test_closed_sweep_cost_does_not_grow_with_alpha(family, monkeypatch):
    # the counting of test_detect_death_closed_cost_does_not_grow_with_the_grid, over the angles and the grid:
    # the closed sweep computes no row, and evaluates the closed form once for each angle with a touch run
    calls = []
    for name in closedform.__all__:
        original = getattr(closedform, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(closedform, name, counted)
    generator = ["phi_f"] if family is StateFamily.PHI_ALPHA else []
    for count in (1, 12):
        alphas = np.linspace(1.4, 0.1, count)
        touching = sum(family is StateFamily.PSI_ALPHA or alpha >= math.pi / 4 for alpha in alphas)
        reports = []
        for steps in (201, 20001):
            calls.clear()
            # above the threshold from 1.4 down, so the first angle has touch points at pi and 3 pi on both grids
            results = sweep_alpha(family, RESONANT, alphas, 4 * math.pi, steps)
            assert results[0][1].touch_points == (math.pi, 3 * math.pi)
            assert calls == ([f"{family.value}_concurrence"] + generator) * touching
            reports.append(results)
        assert reports[0] == reports[1]
    if family is StateFamily.PHI_ALPHA:
        # every angle dies: every zone meets a dead window, and nothing is evaluated
        calls.clear()
        results = sweep_alpha(family, RESONANT, np.linspace(0.1, 0.7, 12), 4 * math.pi, 201)
        assert all(report.has_death and not report.touch_points for _, report in results)
        assert calls == []
    # zones that the phase rounding widens by 5.6e-9 over a million periods, where the peak value 5e-10 is above
    # ZERO_TOL: nothing is evaluated, and no array of a million zones is made
    calls.clear()
    params = ModelParams.from_detuning(3e-5, 1.0)
    [(_, report)] = sweep_alpha(family, params, [1.2], 2e6 * math.pi / derive_constants(params).rabi, 101)
    assert report.touch_points == () and calls == []


@pytest.mark.parametrize("family", [StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA])
@pytest.mark.parametrize("delta, t_max", [(1e10, 1e10), (1e10, 1e6), (1e200, 4 * math.pi), (1e200, 1e-199)])
def test_closed_sweep_is_detect_death_at_huge_phases_and_detunings(family, delta, t_max):
    # rabi t_max of 1e20 put the peak indices past 2^63 (the sweep gave the touch point 5.4e9, the scan 9.3e9);
    # 1e16 is past 2^50, where the phase rounding alone reaches the zone level; at delta = 1e200 the peak
    # weight G^2 / rabi^2 underflows to 0, where dividing by it raised ZeroDivisionError
    params, alphas = ModelParams.from_detuning(delta, 1.0), [1e-13, 0.3, 1.2]
    for alpha, report in sweep_alpha(family, params, alphas, t_max, 101):
        init = InitialState(family, alpha)
        assert report == detect_death(scan(init, params, ATOM_PAIR, t_max, 101, Source.CLOSED_FORM))


@pytest.mark.parametrize("family, alpha", [(StateFamily.PSI_ALPHA, 0.3), (StateFamily.PHI_ALPHA, 0.9),
                                           (StateFamily.PHI_ALPHA, math.pi / 4)])
def test_closed_report_does_not_depend_on_the_grid(family, alpha):
    # the touch points are the peaks G t = pi and 3 pi, on grids that hold them (401, 4001) and grids that do not
    # (2, 400), where the grid samples reported none
    for steps in (2, 400, 401, 4001):
        report = detect_death(scan(InitialState(family, alpha), RESONANT, ATOM_PAIR, 4 * math.pi, steps,
                                   Source.CLOSED_FORM))
        assert report.dead_intervals == ()
        assert report.touch_points == (math.pi, 3 * math.pi)


def test_closed_touch_of_a_zero_run_over_several_periods_is_its_first_peak():
    # psi at 1e-13 never reaches ZERO_TOL's bound from above, so [0, 40] is one zero run over six periods at
    # delta = 0.3; its touch is the run's first peak pi / rabi on every grid, where the oracle takes its smallest
    # grid sample, which can be a later peak
    params, init = ModelParams.from_detuning(0.3, 1.0), InitialState.psi(1e-13)
    for steps in (2, 401, 4001):
        report = detect_death(scan(init, params, ATOM_PAIR, 40.0, steps, Source.CLOSED_FORM))
        assert report.dead_intervals == ()
        assert report.touch_points == (math.pi / derive_constants(params).rabi,)


def test_closed_touch_past_the_resolved_phase_is_one_run():
    # once the phase rounding FEW_ULPS rabi t1 reaches 1 (rabi t1 about 1.1e15), every value lies within the widened
    # level, so [0, t1] is one zero run: resonant psi at 0.3 reports the one touch pi, not one a period
    for steps in (2, 101):
        report = detect_death(scan(InitialState.psi(0.3), RESONANT, ATOM_PAIR, 1e16, steps, Source.CLOSED_FORM))
        assert (report.dead_intervals, report.touch_points) == ((), (math.pi,))
    assert sweep_alpha(StateFamily.PSI_ALPHA, RESONANT, [0.3], 1e16, 101) == [(0.3, report)]


@pytest.mark.parametrize("family", [StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA])
def test_closed_report_past_max_windows_is_refused(family, monkeypatch):
    # resonant psi touches zero and phi at 0.3 dies once a period, so a report lists a window a period; past
    # MAX_WINDOWS periods it is refused before any is listed, at 1.6e9 periods at once
    message = "^a closed-form report over \\[0.0, 10000000000.0\\] would list a window for each of about 1591549430 "
    with pytest.raises(ValueError, match=message):
        sweep_alpha(family, RESONANT, [0.3], 1e10, 101)
    monkeypatch.setattr(closedform, "MAX_WINDOWS", 8)  # 5 periods and the 3 peaks the walk looks past t1
    [(_, report)] = sweep_alpha(family, RESONANT, [0.3], 10 * math.pi, 101)
    assert len(report.touch_points if family is StateFamily.PSI_ALPHA else report.dead_intervals) == 5
    with pytest.raises(ValueError, match="for each of about 6 periods, past the 8 it may list$"):
        detect_death(scan(InitialState(family, 0.3), RESONANT, ATOM_PAIR, 12 * math.pi, 101, Source.CLOSED_FORM))


#: resonant phi at 0.3: the generator's edges 2 (k pi +- theta) of its dead windows, by a hair past them
THETA = math.asin(math.sqrt(math.tan(0.3)))


@pytest.mark.parametrize("family, t0, t1, touch", [
    # an end that cuts a zone before its peak, with no dead window, and after a whole dead window
    (StateFamily.PSI_ALPHA, 0.0, math.pi - 1e-7, "end"),
    (StateFamily.PHI_ALPHA, 0.0, 2.0 * (math.pi + THETA) - 1e-13, "end"),
    # a start just past a dead window, with the next one out of reach and inside the span
    (StateFamily.PHI_ALPHA, 2.0 * (math.pi - THETA) + 1e-13, 2.0 * (math.pi - THETA) + 1.0, "start"),
    (StateFamily.PHI_ALPHA, 2.0 * (math.pi - THETA) + 1e-13, 2.0 * (math.pi - THETA) + 4.0, "start"),
])
def test_closed_touch_at_an_end_that_cuts_a_zero_run(family, t0, t1, touch):
    # the run that an end cuts off holds no peak and meets no dead window: its touch is that end, where the
    # value lies below ZERO_TOL, and every other zone that the span holds meets a dead window
    init = InitialState(family, 0.3)
    times = np.linspace(t0, t1, 11)
    values = closedform.for_state(init, derive_constants(RESONANT)).concurrence(times)
    assert values[0 if touch == "start" else -1] <= analysis.ZERO_TOL
    report = detect_death(ConcurrenceSeries(times, values, ATOM_PAIR, Source.CLOSED_FORM, init, RESONANT))
    assert report.touch_points == ((t0,) if touch == "start" else (t1,))
    expected = [window for window in (dead_window(0.3), (dead_window(0.3)[0] + 2 * math.pi, math.inf))
                if family is StateFamily.PHI_ALPHA and window[0] < t1 and window[1] > t0]
    assert len(report.dead_intervals) == len(expected)


def test_long_closed_sweep_is_small_and_equals_the_short_one():
    # 2,000,001 steps made a 16 MB grid that no report read
    params, alphas = ModelParams.from_detuning(0.5, 1.0), np.linspace(0.05, 0.5 * math.pi - 0.05, 25)
    tracemalloc.start()
    try:
        results = sweep_alpha(StateFamily.PHI_ALPHA, params, alphas, 4 * math.pi, 2_000_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert results == sweep_alpha(StateFamily.PHI_ALPHA, params, alphas, 4 * math.pi, 2001)
    assert any(report.has_death for _, report in results)


@pytest.mark.parametrize("family", [StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA])
def test_closed_phase_that_overflows_is_refused(family):
    # the sweep reported from NaN samples, and the scan raised "concurrence values must lie in [0, 1]"
    params, message = ModelParams.from_detuning(1e300, 1.0), "^closed-form phase rabi \\* t_max / 2 is not finite$"
    with pytest.raises(ValueError, match=message):
        sweep_alpha(family, params, [0.3], 1e10, 11)
    with pytest.raises(ValueError, match=message):
        detect_death(scan(InitialState(family, 0.3), params, ATOM_PAIR, 1e10, 11, Source.CLOSED_FORM))


# --------------------------------------------------------------- validate

def test_validate_psi_detuned():
    report = validate(InitialState.psi(math.pi / 3), ModelParams.from_detuning(0.8, 1.4), 15.0, 500)
    assert report.passed
    assert report.max_abs_error <= 1e-9
    assert report.samples == 500


def test_validate_phi_resonant():
    report = validate(InitialState.phi(math.pi / 12), RESONANT, 4 * math.pi, 500)
    assert report.passed
    assert report.max_abs_error <= 1e-9


def test_validate_product_initial_state():
    report = validate(InitialState.psi(0.0), RESONANT, 10.0, 200)
    assert report.passed


def test_validate_higher_cutoff_matches():
    init = InitialState.phi(0.4)
    params = ModelParams.from_detuning(0.3, 1.0)
    r1 = validate(init, params, 10.0, 200, cutoff=1)
    r3 = validate(init, params, 10.0, 200, cutoff=3)
    assert r1.passed and r3.passed
    assert abs(r1.max_abs_error - r3.max_abs_error) <= 1e-12


def test_validate_requires_named_family():
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(ValueError, match="named family"):
        validate(InitialState.custom(amps), RESONANT, 1.0, 10)


def test_validate_report_pass_flag_tracks_tolerance():
    report = validate(InitialState.psi(0.5), RESONANT, 5.0, 100, tolerance=1e-20)
    assert not report.passed
    assert report.max_abs_error > 1e-20



@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-9])
def test_validate_rejects_bad_tolerance(tolerance):
    with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
        validate(InitialState.psi(0.5), RESONANT, 5.0, 10, tolerance=tolerance)

# ------------------------------------------------------ batched oracle kernel

OWN_CAVITY = SubsystemPair.from_name("Aa")


def qubit_regime_state(rng, cutoff):
    """Seeded random total state with at most one excitation per atom-cavity pair.

    Each pair conserves its own excitation number, so such a state never
    puts a mode above one photon, and no cutoff truncates it wrongly.
    """
    d = cutoff + 1
    amps = rng.normal(size=(2, 2, d, d)) + 1j * rng.normal(size=(2, 2, d, d))
    for atom_a, atom_b, photons_a, photons_b in np.ndindex(2, 2, d, d):
        if atom_a + photons_a > 1 or atom_b + photons_b > 1:
            amps[atom_a, atom_b, photons_a, photons_b] = 0.0
    amps = amps.ravel()
    return InitialState.custom(amps / np.linalg.norm(amps))


def overflow_state():
    """|e g 1 0> at cutoff 2: atom A excited with one photon in its own cavity, which fills |g 2>."""
    amps = np.zeros(36, dtype=complex)
    amps[np.ravel_multi_index((1, 0, 1, 0), basis_shape(2))] = 1.0
    return InitialState.custom(amps)


@pytest.mark.parametrize("cutoff, seed", [(1, 83), (2, 89)])
def test_scan_pairs_matches_per_point_path(cutoff, seed):
    init = qubit_regime_state(np.random.default_rng(seed), cutoff)
    params = ModelParams.from_detuning(0.4, 1.0)
    series = scan_pairs(init, params, ALL_PAIRS, 12.0, 61, cutoff)
    times = series["AB"].times
    columns = Propagator(build_hamiltonian(params, cutoff)).evolve_grid(initial_state_vector(init, cutoff), times)
    for pair in ALL_PAIRS:
        expected = [wootters_concurrence(partial_trace_pair(PureState(col, cutoff), pair)) for col in columns.T]
        # the seeds keep every grid point clear of the zero crossing, where the eigh route loses digits
        assert all(value == 0.0 or value > 1e-4 for value in expected)
        np.testing.assert_allclose(series[pair.name].values, expected, rtol=0, atol=1e-9)


INTERLEAVED = [SubsystemPair(name) for name in ("AB", "Aa", "ab", "Bb", "Ba", "Ab")]


@pytest.mark.parametrize("cutoff", [1, 2, 3])
@pytest.mark.parametrize("family", ["psi", "phi"])
@pytest.mark.parametrize("pairs", [ALL_PAIRS, INTERLEAVED], ids=["conventional", "interleaved"])
def test_scan_pairs_gives_each_pair_its_own_scans_row_bit_for_bit(cutoff, family, pairs):
    # at cutoff 2 ALL_PAIRS goes through the kernel in three stacks, and the interleaved order in four
    init, params = InitialState(StateFamily(family), 0.4), ModelParams.from_detuning(0.3, 1.0)
    together = scan_pairs(init, params, pairs, 12.0, 301, cutoff)
    for pair in pairs:
        [alone] = scan_pairs(init, params, [pair], 12.0, 301, cutoff).values()
        for field in ("values", "signed"):
            got, want = getattr(together[pair.name], field), getattr(alone, field)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (pair.name, field)


def test_scan_pairs_rejects_mode_overflow():
    with pytest.raises(QubitEquivalenceError, match="mode a holds population .* above one photon"):
        scan_pairs(overflow_state(), RESONANT, [OWN_CAVITY], 5.0, 11, cutoff=2)
    # tracing mode a out is still fine
    scan_pairs(overflow_state(), RESONANT, [SubsystemPair.from_name("Ab")], 5.0, 11, cutoff=2)


def test_scan_pairs_rejects_mode_overflow_in_a_later_chunk(monkeypatch):
    monkeypatch.setattr(numerics, "GRID_CHUNK", 7)
    # |g 2> holds sin^2(t / sqrt 2) ~ t^2 / 2, which first passes QUBIT_EQUIV_TOL = 1e-10
    # between grid points 6 and 7, in the second chunk of a 24-point grid
    step = 2.2e-6
    scan_pairs(overflow_state(), RESONANT, [OWN_CAVITY], 6 * step, 7, cutoff=2)
    with pytest.raises(QubitEquivalenceError, match="mode a"):
        scan_pairs(overflow_state(), RESONANT, [OWN_CAVITY], 23 * step, 24, cutoff=2)


@pytest.mark.parametrize("bad, message", [(math.nan, "concurrence values must lie in [0, 1]"),
                                          (math.inf, "signed values must be finite and match the values"),
                                          (-math.inf, "signed values must be finite and match the values")])
def test_oracle_scans_refuse_a_non_finite_signed_row(monkeypatch, bad, message):
    # only the signed rows' finiteness is checked again; a NaN clips to a NaN value, which the value check names
    oracle_pass = analysis._oracle_pass

    def corrupted(*args):
        for states, part, columns, stacks, signed in oracle_pass(*args):  # the 11-point grid is one chunk
            signed[-1, -1, 3] = bad
            yield states, part, columns, stacks, signed

    init = InitialState.phi(0.3)
    series = scan_pairs(init, RESONANT, ALL_PAIRS, 4.0, 11).values()
    grid = next(iter(series)).times
    assert all(each.times is grid for each in series)  # one shared grid
    assert not any(array.flags.writeable for each in series for array in (each.times, each.values, each.signed))
    monkeypatch.setattr(analysis, "_oracle_pass", corrupted)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scan_pairs(init, RESONANT, ALL_PAIRS, 4.0, 11)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep_alpha(StateFamily.PHI_ALPHA, RESONANT, [0.1, 0.3], 4.0, 11, Source.ORACLE)


def test_oracle_dead_edges_lie_within_the_grid():
    # a root across a grid end's own cell, where the end sample is a zero above -FEW_ULPS, computes (t_n - t_d) s_d /
    # s_d and rounded an ulp past that end, down to -5.6e-17; each root is now clamped into its cell
    edges = 0
    for alpha in (0.0, 1e-13, 0.3):
        for delta in (0.0, 0.3, 1.0):
            params = ModelParams.from_detuning(delta, 1.0)
            for steps in (50, 201, 401):
                for series in scan_pairs(InitialState.phi(alpha), params, ALL_PAIRS, 40.0, steps).values():
                    for start, end in detect_death(series).dead_intervals:
                        assert 0.0 <= start <= end <= 40.0, (alpha, delta, steps, series.pair.name, start, end)
                        edges += 2
    assert edges > 300


@pytest.mark.parametrize("pairs", [[], ()])
def test_scan_pairs_rejects_an_empty_pair_list(pairs):
    # at the top, before numpy is asked to concatenate no rows
    with pytest.raises(ValueError, match="^pair list must be nonempty$"):
        scan_pairs(InitialState.phi(0.3), RESONANT, pairs, 5.0, 11)


def test_scan_pairs_names_the_first_offending_pair_in_pair_order():
    # both pairs carry |e 1>, so both modes overflow into |g 2>; mode b holds four times the population of mode a
    amps = np.zeros(basis_shape(2), dtype=complex)
    amps[1, 0, 1, 0], amps[0, 1, 0, 1] = 1.0, 2.0
    init = InitialState.custom(amps.ravel() / math.sqrt(5.0))
    times = np.linspace(0.0, 5.0, 11)
    columns = Propagator(build_hamiltonian(RESONANT, 2)).evolve_grid(initial_state_vector(init, 2), times)
    tensor = np.abs(columns.reshape(basis_shape(2) + (11,))) ** 2
    above = {"a": tensor[:, :, 2:].sum(axis=(0, 1, 2, 3)), "b": tensor[:, :, :, 2:].sum(axis=(0, 1, 2, 3))}
    for names, mode in ((["Bb", "Aa"], "b"), (["Aa", "Bb"], "a"), (["AB", "ab"], "a"), (["Ab", "Ba"], "b")):
        weight = above[mode][np.argmax(above[mode] > 1e-10)]
        message = f"mode {mode} holds population {weight:.3e} above one photon"
        with pytest.raises(QubitEquivalenceError, match=f"^{re.escape(message)}$"):
            scan_pairs(init, RESONANT, [SubsystemPair.from_name(n) for n in names], 5.0, 11, cutoff=2)
    # the atoms alone keep no mode
    scan_pairs(init, RESONANT, [ATOM_PAIR], 5.0, 11, cutoff=2)


def test_propagator_arrays_are_read_only():
    propagator = Propagator(build_hamiltonian(RESONANT, 1))
    with pytest.raises(ValueError, match="read-only"):
        propagator.modes[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        propagator.energies[0] = 0.0


def test_cached_propagators_give_the_uncached_results(monkeypatch):
    init, first, second = InitialState.phi(0.4), ModelParams.from_detuning(0.5, 1.0), ModelParams.from_detuning(-1, 2)

    def run(params):
        series = scan_pairs(init, params, ALL_PAIRS, 8.0, 41)
        return [series[pair.name].signed for pair in ALL_PAIRS], validate(init, params, 8.0, 41)

    fresh = {}
    for params in (first, second):
        numerics._propagator.cache_clear()
        fresh[params] = run(params)
    numerics._propagator.cache_clear()
    for params in (first, second, first):
        rows, report = run(params)
        assert all(np.array_equal(got, want) for got, want in zip(rows, fresh[params][0]))
        assert report == fresh[params][1]
    # a repeat at the same parameters diagonalises nothing: the cache looks the pair builder up on the module, and
    # a miss builds once, in the frame rotating at nu (delta = 0.25 on each excited atom, no mode energy)
    builds, two_pairs = [], numerics._two_pairs
    monkeypatch.setattr(numerics, "_two_pairs", lambda *args: builds.append(args) or two_pairs(*args))
    run(first)
    sweep_alpha(StateFamily.PHI_ALPHA, second, [0.2, 0.6], 8.0, 41, Source.ORACLE)
    assert builds == []
    run(ModelParams.from_detuning(0.25, 1.0))
    assert builds == [(0.25, 0.0, 0.5, 1)]
    assert numerics._propagator.cache_info().maxsize == 8


def test_chunked_oracle_matches_unchunked(monkeypatch):
    init, params = InitialState.phi(0.3), ModelParams.from_detuning(0.5, 1.0)
    whole = scan_pairs(init, params, ALL_PAIRS, 10.0, 101)
    report = validate(init, params, 10.0, 101)
    monkeypatch.setattr(numerics, "GRID_CHUNK", 7)
    chunked = scan_pairs(init, params, ALL_PAIRS, 10.0, 101)
    for pair in ALL_PAIRS:
        np.testing.assert_allclose(chunked[pair.name].values, whole[pair.name].values, rtol=0, atol=1e-15)
    again = validate(init, params, 10.0, 101)
    assert again.max_abs_error == pytest.approx(report.max_abs_error, abs=1e-15)
    assert again.samples == report.samples and again.passed == report.passed


@pytest.mark.parametrize("family", [StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA])
@pytest.mark.parametrize("chunk", [3, 7, 40])
def test_chunked_oracle_sweep_matches_unchunked(monkeypatch, family, chunk):
    # GRID_CHUNK bounds angles x times: 3 splits the 7 angles into groups of 3, 3 and 1 (one, one and three time
    # points a chunk), while 7 and 40 take all of them, one and five time points a chunk
    params, alphas = ModelParams.from_detuning(0.5, 1.0), [0.0, 1e-13, 0.2, 0.5, math.pi / 4, 1.1, -0.3]
    whole = sweep_alpha(family, params, alphas, 10.0, 101, Source.ORACLE)
    monkeypatch.setattr(numerics, "GRID_CHUNK", chunk)
    assert sweep_alpha(family, params, alphas, 10.0, 101, Source.ORACLE) == whole


@pytest.mark.parametrize("alpha", [1e308, -1e308, np.nextafter(ALPHA_MAX, math.inf)])
def test_an_angle_whose_double_overflows_is_refused_by_both_sources(alpha):
    # the closed forms take sin(2 alpha); the oracle alone used to accept such an angle
    for family in (StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA):
        with pytest.raises(ValueError, match=re.escape(f"|alpha| <= {ALPHA_MAX!r}")):
            InitialState(family, alpha)
        with pytest.raises(ValueError, match="alpha must be finite"):
            sweep_alpha(family, RESONANT, [0.3, alpha], 1.0, 11)


@pytest.mark.parametrize("family", [StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA])
def test_the_largest_angles_agree_on_both_sources(family):
    for alpha in (ALPHA_MAX, -ALPHA_MAX):
        closed, oracle = (scan(InitialState(family, alpha), RESONANT, ATOM_PAIR, 4 * math.pi, 51, source)
                          for source in (Source.CLOSED_FORM, Source.ORACLE))
        assert closed.values[0] == pytest.approx(abs(math.sin(2 * alpha)), abs=1e-12)
        np.testing.assert_allclose(oracle.values, closed.values, rtol=0, atol=1e-9)
        assert validate(InitialState(family, alpha), RESONANT, 4 * math.pi, 51).passed


def test_oracle_scan_rejects_non_finite_input():
    with pytest.raises(ValueError, match="alpha must be finite"):
        scan(InitialState.phi(math.nan), RESONANT, ATOM_PAIR, 1.0, 11, Source.ORACLE)
    for source in Source:
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            scan(InitialState.phi(0.3), RESONANT, ATOM_PAIR, math.inf, 11, source)
