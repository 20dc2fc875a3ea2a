"""Property tests of the concurrence routes over random inputs.

Examples are bounded and derandomized, so the suite stays fast and
repeatable.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doublejc import (
    ALL_PAIRS,
    ATOM_PAIR,
    InitialState,
    ModelParams,
    Propagator,
    Source,
    StateFamily,
    build_hamiltonian,
    death_threshold_alpha,
    derive_constants,
    detect_death,
    initial_state_vector,
    pair_concurrences,
    phi_concurrence,
    psi_concurrence,
    scan,
    sweep_alpha,
    wootters_concurrence,
)

bounded = settings(max_examples=40, deadline=None, derandomize=True, database=None)
unit = st.floats(-1.0, 1.0)


def complex_array(shape):
    """Complex arrays with real and imaginary parts in [-1, 1]."""
    return arrays(float, (2,) + shape, elements=unit).map(lambda x: x[0] + 1j * x[1])


def unitary(z):
    """Unitary factor of a QR decomposition, regularized away from singular inputs."""
    q, r = np.linalg.qr(z + 3.0 * np.eye(len(z)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def mixed_state(g):
    """Full-rank density matrix G G^dagger + I/20, normalized."""
    rho = g @ g.conj().T + 0.05 * np.eye(4)
    return rho / np.trace(rho).real


@bounded
@given(amps=complex_array((16,)), g=complex_array((4, 4)))
def test_concurrence_lies_in_unit_interval(amps, g):
    norm = np.linalg.norm(amps)
    if norm > 1e-3:
        columns = (amps / norm)[:, None]
        for pair in ALL_PAIRS:
            assert 0.0 <= pair_concurrences(columns, 1, pair)[0] <= 1.0
    assert 0.0 <= wootters_concurrence(mixed_state(g)) <= 1.0


@bounded
@given(g=complex_array((4, 4)), za=complex_array((2, 2)), zb=complex_array((2, 2)), amps=complex_array((16,)))
def test_concurrence_invariant_under_local_unitaries(g, za, zb, amps):
    local = np.kron(unitary(za), unitary(zb))
    rho = mixed_state(g)
    assert abs(wootters_concurrence(local @ rho @ local.conj().T) - wootters_concurrence(rho)) <= 1e-9

    norm = np.linalg.norm(amps)
    if norm > 1e-3:
        # U_A x U_B on the two atoms of a pure total state, over (atom A, atom B, mode a, mode b)
        columns = (amps / norm)[:, None]
        moved = (local @ columns.reshape(4, 4)).reshape(16, 1)
        before = pair_concurrences(columns, 1, ATOM_PAIR)[0]
        assert abs(pair_concurrences(moved, 1, ATOM_PAIR)[0] - before) <= 1e-9


@bounded
@given(
    family=st.sampled_from([StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA]),
    alpha=st.floats(0.0, 0.5 * math.pi),
    delta=st.floats(-2.0, 2.0),
    big_g=st.floats(0.2, 3.0),
    t=st.floats(0.0, 20.0),
)
def test_closed_form_matches_batched_oracle(family, alpha, delta, big_g, t):
    params = ModelParams.from_detuning(delta, big_g)
    init = InitialState(family, alpha)
    columns = Propagator(build_hamiltonian(params, 1)).evolve_grid(initial_state_vector(init, 1), [t])
    closed = psi_concurrence if family is StateFamily.PSI_ALPHA else phi_concurrence
    assert abs(pair_concurrences(columns, 1, ATOM_PAIR)[0] - closed(alpha, derive_constants(params), t)) <= 1e-9


#: product states, and the resonant threshold arctan(1/2) of the crossed pairs with a hair either side
EDGE_ALPHAS = [0.0, 0.5 * math.pi, -0.5 * math.pi, math.atan(0.5), math.atan(0.5) - 1e-12, math.atan(0.5) + 1e-12]


@bounded
@given(
    family=st.sampled_from([StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA]),
    source=st.sampled_from([Source.CLOSED_FORM, Source.ORACLE]),
    alphas=st.lists(st.one_of(st.sampled_from(EDGE_ALPHAS), st.floats(-2.0, 2.0)), min_size=1, max_size=5),
    delta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-2.0, 2.0)),
    t_max=st.floats(0.5, 30.0),
    steps=st.integers(2, 400),
)
def test_sweep_reports_equal_detect_death_of_each_scan(family, source, alphas, delta, t_max, steps):
    # the sweep shares its grid and classifier across angles; each report must be the per-angle one
    params = ModelParams.from_detuning(delta, 1.0)
    results = sweep_alpha(family, params, alphas, t_max, steps, source)
    assert [alpha for alpha, _ in results] == alphas
    for alpha, report in results:
        series = scan(InitialState(family, alpha), params, ATOM_PAIR, t_max, steps, source)
        assert report == detect_death(series)


@settings(bounded, max_examples=100)
@given(
    fraction=st.floats(0.0, 1.0),
    delta=st.floats(-2.0, 2.0),
    big_g=st.floats(0.5, 2.0),
    periods=st.floats(0.3, 3.0),
    steps=st.integers(41, 2001),
)
def test_oracle_death_windows_match_the_closed_form(fraction, delta, big_g, periods, steps):
    # the oracle reads dead windows off the sign of the Wootters value: where the grid resolves
    # them, it finds the analytic ones and places each edge within a tenth of a grid step
    params = ModelParams.from_detuning(delta, big_g)
    init = InitialState.phi(fraction * (death_threshold_alpha(params) - 0.01))
    t_max = periods * 2 * math.pi / math.hypot(delta, big_g)
    closed = scan(init, params, ATOM_PAIR, t_max, steps, Source.CLOSED_FORM)
    dt = closed.times[1] - closed.times[0]
    expected = detect_death(closed).dead_intervals
    # windows, and the live stretches between them (the first one mirrored at t = 0), of 16 cells
    # or more: the interpolation error grows like dt^2 over the width, and at resonance the
    # Wootters value comes back to zero mid-window, so each half of a narrow window curves sharply
    bounds = np.ravel(expected)
    assume(np.all(np.diff(np.concatenate((-bounds[:1], bounds))) >= 16 * dt))
    got = detect_death(scan(init, params, ATOM_PAIR, t_max, steps, Source.ORACLE)).dead_intervals
    assert len(got) == len(expected)
    assert np.abs(np.subtract(got, expected)).max(initial=0.0) <= 0.1 * dt


@bounded
@given(
    exponent=st.floats(-9.0, math.log10(math.pi / 4)),
    mirrored=st.booleans(),
    delta=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    t_max=st.floats(0.5, 30.0),
    steps=st.integers(2, 400),
)
def test_oracle_psi_never_dies(exponent, mirrored, delta, t_max, steps):
    # psi's Wootters value never turns negative, down to |sin 2 alpha| of about 1e-9: the oracle
    # reports no death and finds the closed form's touch points, each within one grid step
    alpha = 10.0**exponent
    init = InitialState.psi(math.pi / 2 - alpha if mirrored else alpha)
    params = ModelParams.from_detuning(delta, 1.0)
    closed, oracle = (detect_death(scan(init, params, ATOM_PAIR, t_max, steps, source))
                      for source in (Source.CLOSED_FORM, Source.ORACLE))
    assert oracle.dead_intervals == ()
    assert len(oracle.touch_points) == len(closed.touch_points)
    assert np.abs(np.subtract(oracle.touch_points, closed.touch_points)).max(initial=0.0) <= t_max / (steps - 1)
