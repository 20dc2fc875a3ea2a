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
    Source,
    StateFamily,
    basis_shape,
    build_hamiltonian,
    death_threshold_alpha,
    derive_constants,
    detect_death,
    initial_state_vector,
    pair_concurrences,
    phi_concurrence,
    psi_concurrence,
    scan,
    scan_pairs,
    sweep_alpha,
    wootters_concurrence,
)
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
    if cutoff > 1:
        # at most one excitation per atom-cavity pair, which each pair conserves: no mode ever
        # holds more than one photon, so every pair's block is exact on the larger space
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
