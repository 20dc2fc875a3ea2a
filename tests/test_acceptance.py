"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 2 and 3 rest on the resonant (G = 2g) dynamics of each pair,
|e0> -> c|e0> - i s|g1> with c = cos(Gt/2), s = sin(Gt/2).  Tracing out the
cavities gives an X-state with rho_14 = sin(a)cos(a) c^2 and
rho_22 = rho_33 = cos^2(a) c^2 s^2, so C = max{0, c^2 (|sin 2a| - 2 s^2 cos^2 a)}:
the death window edges solve sin^2(Gt/2) = tan(a), and death occurs iff a < pi/4.
"""

import math
import time

import numpy as np

from doublejc import (
    ALL_PAIRS,
    ATOM_PAIR,
    BasisIndex,
    InitialState,
    ModelParams,
    Propagator,
    Source,
    build_hamiltonian,
    derive_constants,
    detect_death,
    initial_state_vector,
    pair_concurrence,
    partial_trace_pair,
    phi_amplitudes,
    phi_concurrence,
    phi_reduced_density,
    psi_amplitudes,
    psi_concurrence,
    psi_reduced_density,
    scan,
    total_excitation,
    wootters_concurrence,
)

RESONANT = ModelParams.from_detuning(0.0, 1.0)


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_resonant_oscillation_reproduction():
    t_max, steps = 4 * math.pi, 2001
    worst_closed = worst_oracle = slowest = 0.0
    for alpha in (math.pi / 8, math.pi / 6, math.pi / 4):
        init = InitialState.psi(alpha)
        expected = None
        for source in (Source.CLOSED_FORM, Source.ORACLE):
            tic = time.perf_counter()
            series = scan(init, RESONANT, ATOM_PAIR, t_max, steps, source)
            slowest = max(slowest, time.perf_counter() - tic)
            if expected is None:
                expected = abs(math.sin(2 * alpha)) * np.cos(series.times / 2) ** 2
            err = np.abs(series.values - expected).max()
            if source is Source.CLOSED_FORM:
                worst_closed = max(worst_closed, err)
            else:
                worst_oracle = max(worst_oracle, err)
    ok = worst_closed <= 1e-12 and worst_oracle <= 1e-9 and slowest < 1.0
    _criterion(
        1,
        ok,
        f"closed err {worst_closed:.2e} (<=1e-12), oracle err {worst_oracle:.2e} (<=1e-9), "
        f"slowest curve {slowest:.2f}s (<1s)",
    )


def test_criterion_2_sudden_death_window():
    alpha = math.pi / 12
    series = scan(InitialState.phi(alpha), RESONANT, ATOM_PAIR, 2 * math.pi, 2001, Source.CLOSED_FORM)
    report = detect_death(series)

    has_interval = len(report.dead_intervals) == 1
    # expected endpoints: roots of sin^2(Gt/2) = tan(alpha)
    t_expected = 2 * math.asin(math.sqrt(math.tan(alpha)))
    expected = (t_expected, 2 * math.pi - t_expected)  # ~ (1.088176, 5.195009)
    if has_interval:
        start, end = report.dead_intervals[0]
        endpoint_err = max(abs(start - expected[0]), abs(end - expected[1]))
    else:
        start = end = float("nan")
        endpoint_err = float("inf")

    constants = derive_constants(RESONANT)
    revival = phi_concurrence(alpha, constants, 2 * math.pi)
    revival_err = abs(revival - 0.5)

    ok = has_interval and endpoint_err <= 1e-6 and revival_err <= 1e-9
    _criterion(
        2,
        ok,
        f"zero interval found: {has_interval}, measured ({start:.6f}, {end:.6f}) vs "
        f"expected ({expected[0]:.6f}, {expected[1]:.6f}), endpoint err {endpoint_err:.3e} (<=1e-6), "
        f"revival err {revival_err:.2e} (<=1e-9)",
    )


# The name records the constant first asserted here, arctan(1/2), which is
# the threshold at detuning Delta = G; at resonance tan(alpha) < 1 gives pi/4.
def test_criterion_3_death_boundary_at_arctan_half():
    threshold = math.atan(1.0)
    mismatches = []
    for alpha in np.linspace(0.03, math.pi / 2 - 0.03, 50):
        series = scan(
            InitialState.phi(float(alpha)), RESONANT, ATOM_PAIR, 2 * math.pi, 1001, Source.ORACLE
        )
        died = detect_death(series).has_death
        if died != (alpha < threshold):
            mismatches.append(float(alpha))
    ok = not mismatches
    detail = f"50-point alpha grid vs boundary arctan(1)=pi/4={threshold:.5f}"
    if mismatches:
        detail += f"; {len(mismatches)} mismatches in [{mismatches[0]:.4f}, {mismatches[-1]:.4f}]"
    _criterion(3, ok, detail)


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(2006)
    worst_amp = worst_rho = worst_conc = 0.0
    for family in ("psi", "phi"):
        for _ in range(200):
            alpha = rng.uniform(0, math.pi / 2)
            delta = rng.uniform(-2.0, 2.0)
            big_g = rng.uniform(0.2, 3.0)
            t = rng.uniform(0.0, 20.0)
            params = ModelParams.from_detuning(delta, big_g)
            constants = derive_constants(params)
            if family == "psi":
                init = InitialState.psi(alpha)
                closed_state = psi_amplitudes(alpha, constants, t).to_state(1)
                closed_rho = psi_reduced_density(alpha, constants, t)
                closed_conc = psi_concurrence(alpha, constants, t)
            else:
                init = InitialState.phi(alpha)
                closed_state = phi_amplitudes(alpha, constants, t).to_state(1)
                closed_rho = phi_reduced_density(alpha, constants, t)
                closed_conc = phi_concurrence(alpha, constants, t)
            state = Propagator(build_hamiltonian(params, 1)).evolve(
                initial_state_vector(init, 1), t
            )
            oracle_rho = partial_trace_pair(state, ATOM_PAIR)
            worst_amp = max(worst_amp, np.abs(state.amplitudes - closed_state.amplitudes).max())
            worst_rho = max(worst_rho, np.abs(oracle_rho.entries - closed_rho.entries).max())
            worst_conc = max(worst_conc, abs(closed_conc - wootters_concurrence(oracle_rho)))
    ok = max(worst_amp, worst_rho, worst_conc) <= 1e-9
    _criterion(
        4,
        ok,
        f"200 samples/family: amplitudes {worst_amp:.2e}, matrices {worst_rho:.2e}, "
        f"concurrence {worst_conc:.2e} (all <=1e-9)",
    )


def test_criterion_5_detuning_floor():
    worst = 0.0
    for alpha, delta, big_g in [
        (math.pi / 4, 1.0, 1.0),
        (math.pi / 8, -0.6, 1.3),
        (1.1, 2.0, 0.4),
        (0.3, 0.25, 2.0),
    ]:
        constants = derive_constants(ModelParams.from_detuning(delta, big_g))
        floor = abs(math.sin(2 * alpha)) * delta**2 / (delta**2 + big_g**2)
        times = np.linspace(0.0, 2 * math.pi / constants.rabi, 2001)
        times = np.sort(np.append(times, math.pi / constants.rabi))
        values = psi_concurrence(alpha, constants, times)
        assert floor > 0
        assert values.min() >= floor - 1e-12
        worst = max(worst, abs(values.min() - floor))
    ok = worst <= 1e-9
    _criterion(5, ok, f"grid minimum vs |sin 2a| d^2/(d^2+G^2): err {worst:.2e} (<=1e-9)")


def test_criterion_6_conservation_suite():
    worst_norm = worst_exc = worst_cut = 0.0
    cases = [
        (family, alpha, params)
        for family in (InitialState.psi, InitialState.phi)
        for alpha in (math.pi / 12, math.pi / 8, math.pi / 4)
        for params in (RESONANT, ModelParams.from_detuning(1.0, 1.0), ModelParams.from_detuning(-0.7, 2.3))
    ]
    for family, alpha, params in cases:
        init = family(alpha)
        propagators = {c: Propagator(build_hamiltonian(params, c)) for c in (1, 3)}
        states0 = {c: initial_state_vector(init, c) for c in (1, 3)}
        n_ops = {c: total_excitation(c) for c in (1, 3)}
        expected_exc = {
            c: np.vdot(states0[c].amplitudes, n_ops[c] @ states0[c].amplitudes).real
            for c in (1, 3)
        }
        for t in np.linspace(0.0, 15.0, 16):
            evolved = {c: propagators[c].evolve(states0[c], float(t)) for c in (1, 3)}
            for c in (1, 3):
                amps = evolved[c].amplitudes
                worst_norm = max(worst_norm, abs(np.linalg.norm(amps) - 1.0))
                exc = np.vdot(amps, n_ops[c] @ amps).real
                worst_exc = max(worst_exc, abs(exc - expected_exc[c]))
            small = evolved[1].amplitudes
            large = evolved[3]
            for index in range(small.size):
                element = BasisIndex(*np.unravel_index(index, (2, 2, 2, 2)))
                worst_cut = max(worst_cut, abs(small[index] - large.amplitudes[element.flatten(3)]))
            # density-matrix invariants checked on construction for all six pairs
            for pair in ALL_PAIRS:
                partial_trace_pair(evolved[1], pair)
    ok = worst_norm <= 1e-12 and worst_exc <= 1e-12 and worst_cut <= 1e-12
    _criterion(
        6,
        ok,
        f"norm {worst_norm:.2e}, excitation {worst_exc:.2e}, cutoff 1 vs 3 {worst_cut:.2e} "
        f"(all <=1e-12); reduced matrices Hermitian/trace-1/PSD for all six pairs",
    )


def test_criterion_7_periodicity_and_recurrence():
    worst = 0.0
    for family in (InitialState.psi, InitialState.phi):
        for alpha, delta in ((math.pi / 12, 0.0), (math.pi / 4, 0.0), (0.6, 1.0)):
            params = ModelParams.from_detuning(delta, 1.0)
            period = 2 * math.pi / derive_constants(params).rabi
            # 2001 points over two periods: the shift is exactly 1000 samples
            series = scan(
                family(alpha), params, ATOM_PAIR, 2 * period, 2001, Source.ORACLE
            )
            worst = max(worst, np.abs(series.values[1000:] - series.values[:1001]).max())
    # dead intervals recur shifted by one period
    series = scan(InitialState.phi(math.pi / 12), RESONANT, ATOM_PAIR, 4 * math.pi, 2001, Source.ORACLE)
    report = detect_death(series)
    recurrence_ok = len(report.dead_intervals) == 2
    if recurrence_ok:
        (s1, e1), (s2, e2) = report.dead_intervals
        grid_step = series.times[1] - series.times[0]
        recurrence_ok = (
            abs((s2 - s1) - report.period) <= 2 * grid_step
            and abs((e2 - e1) - report.period) <= 2 * grid_step
        )
    ok = worst <= 1e-9 and recurrence_ok
    _criterion(
        7,
        ok,
        f"C(t + 2pi/rabi) vs C(t) err {worst:.2e} (<=1e-9); dead interval recurs: {recurrence_ok}",
    )


def test_criterion_8_concurrence_unit_values():
    worst = 0.0
    # Bell states
    for positions, signs in (((1, 2), (1, 1)), ((1, 2), (1, -1)), ((0, 3), (1, 1)), ((0, 3), (1, -1))):
        vec = np.zeros(4, dtype=complex)
        vec[positions[0]] = signs[0] / math.sqrt(2)
        vec[positions[1]] = signs[1] / math.sqrt(2)
        worst = max(worst, abs(wootters_concurrence(np.outer(vec, vec.conj())) - 1.0))
    # product states
    for vec_a, vec_b in (
        (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        (np.full(2, 1 / math.sqrt(2)), np.array([1.0, 0.0])),
        (np.array([0.6, 0.8]), np.array([0.8, -0.6])),
    ):
        vec = np.kron(vec_a, vec_b).astype(complex)
        worst = max(worst, abs(wootters_concurrence(np.outer(vec, vec.conj()))))
    # Werner state at p = 0.8
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    werner = 0.8 * np.outer(singlet, singlet.conj()) + 0.2 * np.eye(4) / 4
    worst = max(worst, abs(wootters_concurrence(werner) - 0.7))
    ok = worst <= 1e-12
    _criterion(8, ok, f"Bell -> 1, products -> 0, Werner(0.8) -> 0.7: err {worst:.2e} (<=1e-12)")
