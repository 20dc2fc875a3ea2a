"""Property tests of the concurrence routes over random inputs.

Examples are bounded and derandomized, so the suite stays fast and
repeatable.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doublejc import (
    ALL_PAIRS,
    ATOM_PAIR,
    InitialState,
    ModelParams,
    Propagator,
    PureState,
    Source,
    StateFamily,
    basis_shape,
    build_hamiltonian,
    death_threshold_alpha,
    derive_constants,
    detect_death,
    initial_state_vector,
    pair_concurrence,
    phi_concurrence,
    psi_concurrence,
    scan,
    scan_pairs,
    sweep_alpha,
    validate,
    wootters_concurrence,
)
from doublejc.analysis import ZERO_TOL, _zero_runs
from doublejc.closedform import FEW_ULPS

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
        state = PureState(amps / norm, 1)
        for pair in ALL_PAIRS:
            assert 0.0 <= pair_concurrence(state, pair) <= 1.0
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
        amplitudes = amps / norm
        moved = (local @ amplitudes.reshape(4, 4)).ravel()
        before = pair_concurrence(PureState(amplitudes, 1), ATOM_PAIR)
        assert abs(pair_concurrence(PureState(moved, 1), ATOM_PAIR) - before) <= 1e-9


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
    oracle = pair_concurrence(PureState(columns[:, 0], 1), ATOM_PAIR)
    assert abs(oracle - closed(alpha, derive_constants(params), t)) <= 1e-9


@bounded
@given(
    family=st.sampled_from([StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA]),
    alpha=st.floats(0.0, 0.5 * math.pi),
    delta=st.floats(-2.0, 2.0),
    log_nu=st.floats(1.0, 12.0),
)
def test_oracle_does_not_drift_with_nu(family, alpha, delta, log_nu):
    # the oracle's frame rotates at nu, so no phase carries nu t: in the lab frame the AB row missed the
    # closed form by about eps nu t (1e-3 at nu = 1e12)
    init, params = InitialState(family, alpha), ModelParams.from_detuning(delta, 1.0, 10.0**log_nu)
    t_max, steps = 20.0, 201
    constants = derive_constants(params)
    reference = ModelParams.from_detuning(constants.delta, 1.0)  # nu = 10 G, at the same rounded delta
    assert derive_constants(reference).delta == constants.delta
    assert validate(init, params, t_max, steps).passed
    rows, low = scan_pairs(init, params, ALL_PAIRS, t_max, steps), scan_pairs(init, reference, ALL_PAIRS, t_max, steps)
    closed = psi_concurrence if family is StateFamily.PSI_ALPHA else phi_concurrence
    assert np.abs(rows["AB"].values - closed(alpha, constants, rows["AB"].times)).max() <= 1e-12
    for pair in ALL_PAIRS:
        assert np.abs(rows[pair.name].values - low[pair.name].values).max() <= 1e-12


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
    # the sweep shares its grid across angles; each report must be the per-angle one
    assert_sweep_equals_scans(family, ModelParams.from_detuning(delta, 1.0), alphas, t_max, steps, source)


def assert_sweep_equals_scans(family, params, alphas, t_max, steps, source=Source.CLOSED_FORM):
    results = sweep_alpha(family, params, alphas, t_max, steps, source)
    assert [alpha for alpha, _ in results] == alphas
    for alpha, report in results:
        assert report == detect_death(scan(InitialState(family, alpha), params, ATOM_PAIR, t_max, steps, source))


@st.composite
def hard_alphas(draw, params):
    """An angle where the closed sweep is hardest: by alpha_c, by pi/4, or by a product state."""
    kind = draw(st.sampled_from(["threshold", "quarter", "product"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if kind == "threshold":
        return death_threshold_alpha(params) + sign * 10.0 ** draw(st.floats(-14.0, -2.0))
    if kind == "quarter":
        return math.pi / 4 + sign * 10.0 ** draw(st.floats(-15.0, -3.0))
    # |sin 2 alpha| from a few ulps through the zero threshold 1e-12 up to 1e-5, by either end of [0, pi/2]
    alpha = 0.5 * math.asin(10.0 ** draw(st.floats(math.log10(FEW_ULPS), -5.0)))
    return sign * (0.5 * math.pi - alpha if draw(st.booleans()) else alpha)


@settings(bounded, max_examples=200)
@given(
    data=st.data(),
    family=st.sampled_from([StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA]),
    delta=st.one_of(st.sampled_from([0.0, 1e-12, -1e-12, 1e-8, -1e-8]), st.floats(-2.0, 2.0)),
    big_g=st.floats(0.3, 3.0),
    periods=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.2, 6.0)),
    # 4k + 1 points over whole or half periods put grid points on the peaks, where touches are
    steps=st.one_of(st.integers(2, 3000), st.integers(1, 750).map(lambda k: 4 * k + 1)),
)
def test_closed_sweep_in_the_hard_region_equals_detect_death_of_each_scan(data, family, delta, big_g, periods,
                                                                         steps):
    params = ModelParams.from_detuning(delta, big_g)
    alphas = data.draw(st.lists(hard_alphas(params), min_size=1, max_size=4))
    t_max = periods * 2.0 * math.pi / derive_constants(params).rabi
    assert_sweep_equals_scans(family, params, alphas, t_max, steps)


#: the hard angles of the resonant closed sweep, each family's threshold with a hair either side
RESONANT_HARD_ALPHAS = [1e-13, 5e-13, 1.5e-12, 0.3, math.pi / 4 - 1e-10, math.pi / 4, math.pi / 4 + 1e-15,
                        math.pi / 4 + 1e-10, 0.9, 1.2, 0.5 * math.pi - 1e-13]


@pytest.mark.parametrize("family", [StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA])
def test_closed_sweep_on_a_fine_grid_equals_detect_death_of_each_scan(family):
    assert_sweep_equals_scans(family, ModelParams.from_detuning(0.0, 1.0), RESONANT_HARD_ALPHAS,
                              2.0 * math.pi, 200_001)


@pytest.mark.parametrize("family", [StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA])
@pytest.mark.parametrize("periods", [1e4, 1e4 + 0.5])
@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_closed_sweep_over_a_long_horizon_equals_detect_death_of_each_scan(family, periods, delta):
    # ten thousand windows and zones an angle: a pass over them that is not linear shows in the run time
    params = ModelParams.from_detuning(delta, 1.0)
    alphas = RESONANT_HARD_ALPHAS + [death_threshold_alpha(params) - 1e-9, death_threshold_alpha(params) + 1e-9]
    assert_sweep_equals_scans(family, params, alphas, periods * 2.0 * math.pi / derive_constants(params).rabi, 101)



@pytest.mark.parametrize("family", [StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA])
@pytest.mark.parametrize("periods", [1.01, 10.1])
def test_closed_sweep_where_no_grid_point_parts_zones_equals_detect_death_of_each_scan(family, periods):
    # by a product state, far detuned (4 N^2 = 1e-10), the touch zones fill whole periods or leave gaps narrower
    # than a grid cell, so a zero run may reach from a zone that holds a dead window into one that holds none
    params = ModelParams.from_detuning(1e5, 1.0)
    alphas = [1e-13, 4e-13, 1e-12, 1.5e-12, 3e-12, 1e-11, 0.5 * math.pi - 4e-13]
    assert_sweep_equals_scans(family, params, alphas, periods * 2.0 * math.pi / derive_constants(params).rabi, 101)


@st.composite
def touch_alphas(draw, params):
    """An angle by alpha_c or pi/4, or any angle at least 1e-6 from a product state.

    Closer to a product state the zones abut into one run with one touch, at its first peak, where a grid over
    several periods has a zero run at every peak, and its smallest value at any of them.
    """
    sign = draw(st.sampled_from([-1.0, 1.0]))
    edge = draw(st.sampled_from([death_threshold_alpha(params), math.pi / 4]))
    return draw(st.one_of(st.just(edge), st.floats(-14.0, -2.0).map(lambda e: edge + sign * 10.0**e),
                          st.floats(1e-6, 0.5 * math.pi - 1e-6)))


@settings(bounded, max_examples=100)
@given(
    data=st.data(),
    family=st.sampled_from([StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA]),
    delta=st.one_of(st.sampled_from([0.0, 1e-8, -1e-8]), st.floats(-2.0, 2.0)),
    big_g=st.floats(0.3, 3.0),
    periods=st.integers(1, 4),
    quarters=st.integers(1, 60),
)
def test_every_closed_touch_is_a_zero_run_of_a_grid_on_the_peaks(data, family, delta, big_g, periods, quarters):
    # 4 k + 1 points over whole periods put grid points on the peaks: every analytic touch lies within dt of the
    # smallest value of a zero run whose bracketing cells meet no dead window, and each such run holds one touch
    params = ModelParams.from_detuning(delta, big_g)
    init = InitialState(family, data.draw(touch_alphas(params)))
    t_max, steps = periods * 2.0 * math.pi / derive_constants(params).rabi, 4 * periods * quarters + 1
    series = scan(init, params, ATOM_PAIR, t_max, steps, Source.CLOSED_FORM)
    report, times, dt = detect_death(series), series.times, t_max / (steps - 1)
    minima = []
    for i0, i1 in _zero_runs(series.values <= ZERO_TOL):
        lo, hi = times[max(i0 - 1, 0)], times[min(i1 + 1, steps - 1)]
        if not any(a < hi and b > lo for a, b in report.dead_intervals):
            held = [t for t in report.touch_points if times[i0] - 0.5 * dt <= t <= times[i1] + 0.5 * dt]
            assert len(held) == 1
            minima.append(times[i0 + np.argmin(series.values[i0 : i1 + 1])])
    assert len(minima) == len(report.touch_points)
    for touch in report.touch_points:
        assert min(abs(touch - t) for t in minima) <= dt


@bounded
@given(steps=st.integers(2, 10**5), data=st.data())
def test_linspace_strictly_increases_where_the_closed_sweep_does_not_check_it(steps, data):
    # analysis._check_grid builds and checks no grid where h = t_max / (steps - 1) >= 2^-1022 and steps <= 2^50, and
    # the closed sweep builds none: each point fl(i h) lies below 2^50 h and rounds by at most h / 8, and the ends are
    # exactly 0 and t_max
    low = (steps - 1) * 2.0**-1022
    t_max = data.draw(st.one_of(st.just(low), st.floats(low, 1e6 * low), st.floats(low, 1e308)))
    times = np.linspace(0.0, t_max, steps)
    assert times[0] == 0.0 and times[-1] == t_max
    assert np.all(times[1:] > times[:-1])

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
    periods=st.one_of(st.just(0), st.integers(1, 4)),
)
def test_oracle_psi_never_dies(exponent, mirrored, delta, t_max, steps, periods):
    # psi's Wootters value never turns negative, down to |sin 2 alpha| of about 1e-9: the oracle reports no death,
    # and each of its touch points, a grid sample, lies within one grid step of an exact closed-form one; a grid
    # of 4 k + 1 points over whole periods holds the peaks, and there the oracle finds every one of them
    alpha = 10.0**exponent
    init = InitialState.psi(math.pi / 2 - alpha if mirrored else alpha)
    params = ModelParams.from_detuning(delta, 1.0)
    if periods:
        t_max, steps = periods * 2.0 * math.pi / derive_constants(params).rabi, 4 * periods * (1 + steps // 16) + 1
    closed, oracle = (detect_death(scan(init, params, ATOM_PAIR, t_max, steps, source))
                      for source in (Source.CLOSED_FORM, Source.ORACLE))
    assert oracle.dead_intervals == ()
    for touch in oracle.touch_points:
        assert min((abs(touch - t) for t in closed.touch_points), default=math.inf) <= t_max / (steps - 1)
    if periods:
        assert len(oracle.touch_points) == len(closed.touch_points)


#: sigma_y (x) sigma_y on the |ee>,|eg>,|ge>,|gg> levels, with sigma_y = [[0, -i], [i, 0]] on (excited, ground)
SPIN_FLIP = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def reference_signed_rows(init, params, cutoff, times):
    """Signed Wootters value of every pair, as lambda_1 - lambda_2 - lambda_3 - lambda_4 of B^T (sy x sy) B."""
    columns = Propagator(build_hamiltonian(params, cutoff)).evolve_grid(initial_state_vector(init, cutoff), times)
    tensor = columns.reshape(basis_shape(cutoff) + (len(times),))
    rows = {}
    for pair in ALL_PAIRS:
        # (time, first, second, traced...), excited level first on both kept subsystems
        kept = ["ABab".index(sub) for sub in pair.name]
        blocks = np.moveaxis(tensor, [4] + kept, [0, 1, 2])[:, 1::-1, 1::-1].reshape(len(times), 4, -1)
        lam = np.linalg.svd(np.swapaxes(blocks, 1, 2) @ SPIN_FLIP @ blocks, compute_uv=False)
        rows[pair.name] = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    return rows


@bounded
@given(
    amps=complex_array((2, 2, 2, 2)),
    cutoff=st.sampled_from([1, 2]),
    delta=st.floats(-2.0, 2.0),
    big_g=st.floats(0.5, 2.0),
    steps=st.integers(2, 60),
)
def test_scan_pairs_kernel_matches_the_explicit_spin_flip(amps, cutoff, delta, big_g, steps):
    # at most one excitation per atom-cavity pair, which each pair conserves: no mode ever holds more than
    # one photon, so every pair's block is exact on the larger space, and cutoff 1 truncates no pair wrongly
    amps = amps.copy()
    amps[1, :, 1, :] = amps[:, 1, :, 1] = 0.0
    assume(np.linalg.norm(amps) > 1e-3)
    embedded = np.zeros(basis_shape(cutoff), dtype=complex)
    embedded[:, :, :2, :2] = amps / np.linalg.norm(amps)
    init, params = InitialState.custom(embedded.ravel()), ModelParams.from_detuning(delta, big_g)
    series = scan_pairs(init, params, ALL_PAIRS, 4.0 * math.pi / big_g, steps, cutoff)
    want = reference_signed_rows(init, params, cutoff, series["AB"].times)
    for pair in ALL_PAIRS:
        np.testing.assert_allclose(series[pair.name].signed, want[pair.name], rtol=0, atol=1e-13)


@settings(bounded, max_examples=60)
@given(
    family=st.sampled_from([StateFamily.PSI_ALPHA, StateFamily.PHI_ALPHA]),
    drawn=st.lists(st.floats(-2.0, 2.0), max_size=4),
    delta=st.floats(-2.0, 2.0),
    big_g=st.floats(0.3, 3.0),
    cutoff=st.sampled_from([1, 2]),
    periods=st.floats(0.3, 4.0),
    steps=st.integers(2, 300),
)
def test_oracle_sweep_gives_each_angle_the_report_of_its_own_scan(family, drawn, delta, big_g, cutoff, periods, steps):
    # the sweep propagates and reduces all its angles together; each angle's report is its lone scan's
    params = ModelParams.from_detuning(delta, big_g)
    alphas, t_max = [0.0, *drawn, 1e-13, math.pi / 4], periods * 2.0 * math.pi / derive_constants(params).rabi
    for alpha, report in sweep_alpha(family, params, alphas, t_max, steps, Source.ORACLE, cutoff):
        alone = detect_death(scan(InitialState(family, alpha), params, ATOM_PAIR, t_max, steps, Source.ORACLE, cutoff))
        assert report.touch_points == alone.touch_points
        assert len(report.dead_intervals) == len(alone.dead_intervals)
        assert np.abs(np.subtract(report.dead_intervals, alone.dead_intervals)).max(initial=0.0) <= 1e-12
        assert (report.period, report.initial_concurrence) == (alone.period, alone.initial_concurrence)


@bounded
@given(
    cutoff=st.sampled_from([1, 2]),
    draws=st.lists(st.tuples(complex_array((2, 2, 3, 3)), arrays(bool, (4, 4))), min_size=1, max_size=3),
    delta=st.floats(-2.0, 2.0),
    big_g=st.floats(0.2, 3.0),
    times=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=20),
)
def test_evolve_grid_is_the_full_mode_product_and_keeps_unoccupied_sectors_zero(cutoff, draws, delta, big_g, times):
    # random states on random (N_A, N_B) sectors: phases are formed only for the occupied eigenmodes
    atom_a, atom_b, n_a, n_b = np.indices(basis_shape(cutoff))
    states, supports = [], []
    for amps, chosen in draws:
        support = chosen[atom_a + n_a, atom_b + n_b]
        amps = np.where(support, amps[:, :, : cutoff + 1, : cutoff + 1], 0.0)
        assume(np.linalg.norm(amps) > 1e-3)
        states.append(PureState((amps / np.linalg.norm(amps)).ravel(), cutoff))
        supports.append(support.ravel())
    propagator = Propagator(build_hamiltonian(ModelParams.from_detuning(delta, big_g), cutoff))
    batch = propagator.evolve_grid(states, times)
    assert batch.shape == (math.prod(basis_shape(cutoff)), len(states), len(times))
    phases = np.exp(-1j * np.outer(propagator.energies, times))
    for state, support, columns in zip(states, supports, np.moveaxis(batch, 1, 0)):
        full = propagator.modes @ (phases * (propagator.modes.conj().T @ state.amplitudes)[:, None])
        for got in (columns, propagator.evolve_grid(state, times)):
            np.testing.assert_allclose(got, full, rtol=0, atol=1e-15)
            assert np.all(got[~support] == 0.0)
