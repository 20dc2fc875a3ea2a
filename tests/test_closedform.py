import math
import re
from dataclasses import replace

import numpy as np
import pytest

from doublejc import (
    ATOM_PAIR,
    InitialState,
    ModelParams,
    PureState,
    death_threshold_alpha,
    derive_constants,
    initial_state_vector,
    partial_trace_pair,
    phi_amplitudes,
    phi_concurrence,
    phi_f,
    phi_reduced_density,
    psi_amplitudes,
    psi_concurrence,
    psi_reduced_density,
)
from doublejc import closedform
from doublejc.analysis import _propagator
from doublejc.model import ALPHA_MAX, basis_shape

RESONANT = derive_constants(ModelParams.from_detuning(0.0, 1.0))
#: the basis elements (atom A, atom B, photons a, photons b) of each family's amplitudes, atom level 1 excited:
#: |eg00>, |ge00>, |gg10>, |gg01> for psi and |ee00>, |gg11>, |eg01>, |ge10>, |gg00> for phi
PSI_ELEMENTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
PHI_ELEMENTS = ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 0, 0))


def amplitudes_at(record, elements):
    """The amplitudes of ``record`` at the named basis elements, read from its cutoff-1 columns."""
    state = record.columns(1).reshape(basis_shape(1) + np.shape(record.t))
    return [state[element] for element in elements]


def random_constants(rng):
    delta = rng.uniform(-2.0, 2.0)
    big_g = rng.uniform(0.2, 3.0)
    return derive_constants(ModelParams.from_detuning(delta, big_g))


def test_psi_amplitudes_at_t0():
    x1, x2, x3, x4 = amplitudes_at(psi_amplitudes(math.pi / 4, RESONANT, 0.0), PSI_ELEMENTS)
    root_half = 1 / math.sqrt(2)
    assert x1 == pytest.approx(root_half, abs=1e-15)
    assert x2 == pytest.approx(root_half, abs=1e-15)
    assert x3 == 0 and x4 == 0


def test_psi_amplitudes_full_transfer():
    # at rabi*t = pi the excitation sits entirely in the cavities
    x1, x2, x3, x4 = amplitudes_at(psi_amplitudes(math.pi / 4, RESONANT, math.pi), PSI_ELEMENTS)
    assert abs(x1) == pytest.approx(0.0, abs=5e-15)
    assert abs(x2) == pytest.approx(0.0, abs=5e-15)
    assert abs(x3) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert abs(x4) == pytest.approx(1 / math.sqrt(2), rel=1e-12)


def test_psi_normalization_random():
    rng = np.random.default_rng(21)
    for _ in range(200):
        c = random_constants(rng)
        x1, x2, x3, x4 = amplitudes_at(psi_amplitudes(rng.uniform(0, math.pi / 2), c, rng.uniform(0, 20)),
                                       PSI_ELEMENTS)
        total = abs(x1) ** 2 + abs(x2) ** 2 + abs(x3) ** 2 + abs(x4) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)


def test_psi_amplitude_ratios():
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha = rng.uniform(0.1, 1.4)
        c = random_constants(rng)
        x1, x2, x3, x4 = amplitudes_at(psi_amplitudes(alpha, c, rng.uniform(0.1, 15)), PSI_ELEMENTS)
        if abs(x1) > 1e-12:
            assert x2 / x1 == pytest.approx(math.tan(alpha), rel=1e-10)
        if abs(x3) > 1e-12:
            assert x4 / x3 == pytest.approx(math.tan(alpha), rel=1e-10)


def test_phi_amplitudes_at_t0():
    x1, x2, x3, x4, x5 = amplitudes_at(phi_amplitudes(math.pi / 4, RESONANT, 0.0), PHI_ELEMENTS)
    root_half = 1 / math.sqrt(2)
    assert x1 == pytest.approx(root_half, abs=1e-15)
    assert x2 == 0 and x3 == 0 and x4 == 0
    assert x5 == pytest.approx(root_half, abs=1e-15)


def test_phi_amplitudes_double_transfer():
    # alpha = 0: both excitations fully transferred at rabi*t = pi
    x1, x2, x3, x4, x5 = amplitudes_at(phi_amplitudes(0.0, RESONANT, math.pi), PHI_ELEMENTS)
    assert abs(x2) == pytest.approx(1.0, rel=1e-12)
    for x in (x1, x3, x4, x5):
        assert abs(x) == pytest.approx(0.0, abs=5e-15)


def test_phi_structure():
    rng = np.random.default_rng(13)
    for _ in range(200):
        alpha = rng.uniform(0, math.pi / 2)
        c = random_constants(rng)
        x1, x2, x3, x4, x5 = amplitudes_at(phi_amplitudes(alpha, c, rng.uniform(0, 20)), PHI_ELEMENTS)
        assert x3 == x4
        assert x5 == complex(math.sin(alpha))
        total = sum(abs(x) ** 2 for x in (x1, x2, x3, x4, x5))
        assert total == pytest.approx(1.0, abs=1e-12)
    # on a time grid too, where numpy's vectorised complex h * f can differ from f * h in the last bit
    _, _, x3, x4, _ = amplitudes_at(phi_amplitudes(0.3, random_constants(rng), np.linspace(0.0, 20.0, 101)),
                                    PHI_ELEMENTS)
    assert np.array_equal(x3, x4)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        psi_amplitudes(0.3, RESONANT, -0.1)
    with pytest.raises(ValueError):
        phi_concurrence(0.3, RESONANT, -1.0)


@pytest.mark.parametrize("function", [psi_concurrence, phi_concurrence, phi_f, psi_amplitudes, phi_amplitudes])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
def test_non_finite_or_negative_time_rejected(function, bad):
    # a NaN or an infinity used to come back as NaN values without complaint; the check takes one min and one max,
    # and a NaN makes both NaN, so it fails first, last or inside a scalar, a list or an array
    for t in (bad, [bad, 1.0, 2.0], [0.0, bad, 2.0], [[0.5, 1.0], [bad, 0.0]], np.array([bad, 1.0]),
              np.array([0.0, 1.0, bad]), np.array([[0.5], [bad]])):
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            function(0.3, RESONANT, t)


@pytest.mark.parametrize("function", [psi_concurrence, phi_concurrence, phi_f, psi_amplitudes, phi_amplitudes])
def test_empty_grids_and_edge_times_pass_the_time_check(function):
    for t in ([], np.array([]), np.empty((0, 3)), [-0.0, 0, 1.5], 0):  # an empty grid holds no bad time
        function(0.3, RESONANT, t)


def test_psi_reduced_density_bell_at_t0():
    rho = psi_reduced_density(math.pi / 4, RESONANT, 0.0)
    bell = np.zeros(4)
    bell[1] = bell[2] = 1 / math.sqrt(2)
    assert np.allclose(rho.entries, np.outer(bell, bell), atol=1e-15)


def test_psi_reduced_density_all_ground_after_transfer():
    rho = psi_reduced_density(math.pi / 4, RESONANT, math.pi)
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert np.allclose(rho.entries, expected, atol=1e-15)


def test_phi_reduced_density_bell_at_t0():
    rho = phi_reduced_density(math.pi / 4, RESONANT, 0.0)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    assert np.allclose(rho.entries, np.outer(bell, bell), atol=1e-15)


def test_phi_reduced_density_after_double_transfer():
    rho = phi_reduced_density(0.0, RESONANT, math.pi)
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert np.allclose(rho.entries, expected, atol=1e-14)


def test_reduced_density_invariants_random():
    # DensityMatrix construction enforces hermiticity, unit trace and
    # positivity, so building many random instances is the check
    rng = np.random.default_rng(17)
    for _ in range(100):
        alpha = rng.uniform(0, math.pi / 2)
        c = random_constants(rng)
        t = rng.uniform(0, 25)
        psi_reduced_density(alpha, c, t)
        phi_reduced_density(alpha, c, t)


def test_psi_concurrence_values():
    assert psi_concurrence(math.pi / 4, RESONANT, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert psi_concurrence(math.pi / 4, RESONANT, math.pi / 2) == pytest.approx(0.5, abs=1e-12)
    detuned = derive_constants(ModelParams.from_detuning(1.0, 1.0))
    value = psi_concurrence(math.pi / 4, detuned, math.pi / math.sqrt(2))
    assert value == pytest.approx(0.5, abs=1e-12)


def test_psi_concurrence_is_twice_x1_x2():
    rng = np.random.default_rng(29)
    for _ in range(200):
        alpha = rng.uniform(0, math.pi)
        c = random_constants(rng)
        t = rng.uniform(0, 20)
        x1, x2, _, _ = amplitudes_at(psi_amplitudes(alpha, c, t), PSI_ELEMENTS)
        assert psi_concurrence(alpha, c, t) == pytest.approx(
            2 * abs(x1) * abs(x2), abs=1e-12
        )


def test_phi_f_matches_amplitude_form():
    rng = np.random.default_rng(31)
    for _ in range(200):
        alpha = rng.uniform(0, math.pi / 2)
        c = random_constants(rng)
        t = rng.uniform(0, 20)
        x1, _, x3, x4, x5 = amplitudes_at(phi_amplitudes(alpha, c, t), PHI_ELEMENTS)
        expected = 2 * abs(x1) * abs(x5) - 2 * abs(x3) * abs(x4)
        assert phi_f(alpha, c, t) == pytest.approx(expected, abs=1e-12)


def test_phi_f_resonant_closed_form():
    # at zero detuning: f = cos^2(Gt/2) (|sin 2a| - 2 sin^2(Gt/2) cos^2 a)
    rng = np.random.default_rng(37)
    for _ in range(200):
        alpha = rng.uniform(0, math.pi / 2)
        t = rng.uniform(0, 4 * math.pi)
        half = 0.5 * t
        expected = math.cos(half) ** 2 * (
            abs(math.sin(2 * alpha)) - 2 * math.sin(half) ** 2 * math.cos(alpha) ** 2
        )
        assert phi_f(alpha, RESONANT, t) == pytest.approx(expected, abs=1e-12)


def test_phi_f_sign_structure():
    alpha = math.pi / 12
    assert phi_f(alpha, RESONANT, 1.0) > 0
    assert phi_f(alpha, RESONANT, 2.0) < 0
    # the leading cos^2 factor vanishes at G t = pi while the bracket is negative
    assert phi_f(alpha, RESONANT, math.pi) == pytest.approx(0.0, abs=1e-15)
    assert phi_f(alpha, RESONANT, math.pi - 0.05) < 0
    # first zero where the transfer weight sin^2(Gt/2) reaches tan(alpha)
    t_zero = 2 * math.asin(math.sqrt(math.tan(alpha)))
    assert phi_f(alpha, RESONANT, t_zero) == pytest.approx(0.0, abs=1e-14)
    assert t_zero == pytest.approx(1.08817621, abs=1e-7)


def test_phi_concurrence_dead_zone_and_revival():
    alpha = math.pi / 12
    assert phi_concurrence(alpha, RESONANT, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert phi_concurrence(alpha, RESONANT, 3.0) == 0.0
    assert phi_concurrence(alpha, RESONANT, 2 * math.pi) == pytest.approx(0.5, abs=1e-12)
    assert phi_concurrence(math.pi / 4, RESONANT, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_phi_concurrence_at_a_resonant_peak_is_positive_zero():
    # (1 - w) is +0 at the peak and times a negative bracket gives -0.0 in phi_f, which keeps its sign
    peaks = np.array([math.pi, 3 * math.pi])
    assert math.copysign(1.0, phi_f(0.3, RESONANT, math.pi)) == -1.0
    assert math.copysign(1.0, phi_concurrence(0.3, RESONANT, math.pi)) == 1.0
    assert not np.signbit(phi_concurrence(0.3, RESONANT, peaks)).any()
    for alpha in (0.1, 0.3):
        assert not np.signbit(phi_concurrence(alpha, RESONANT, np.linspace(0.0, 20.0, 2001))).any()


def test_concurrence_periodicity():
    rng = np.random.default_rng(41)
    for _ in range(100):
        alpha = rng.uniform(0, math.pi / 2)
        c = random_constants(rng)
        t = rng.uniform(0, 10)
        period = 2 * math.pi / c.rabi
        assert psi_concurrence(alpha, c, t + period) == pytest.approx(
            psi_concurrence(alpha, c, t), abs=1e-12
        )
        assert phi_concurrence(alpha, c, t + period) == pytest.approx(
            phi_concurrence(alpha, c, t), abs=1e-12
        )


def test_psi_detuning_floor():
    rng = np.random.default_rng(43)
    for _ in range(50):
        alpha = rng.uniform(0.1, 1.4)
        delta = rng.choice([-1, 1]) * rng.uniform(0.2, 2.0)
        big_g = rng.uniform(0.2, 3.0)
        c = derive_constants(ModelParams.from_detuning(delta, big_g))
        floor = abs(math.sin(2 * alpha)) * delta**2 / (delta**2 + big_g**2)
        # the minimum is reached where the transfer weight peaks, rabi*t = pi
        t_min = math.pi / c.rabi
        assert psi_concurrence(alpha, c, t_min) == pytest.approx(floor, abs=1e-12)
        times = np.linspace(0, 2 * math.pi / c.rabi, 1001)
        assert psi_concurrence(alpha, c, times).min() >= floor - 1e-12
        assert floor > 0


def test_phi_sudden_death_iff_tan_alpha_below_one():
    # zero detuning: f dips negative somewhere iff tan(alpha) < 1
    times = np.linspace(0.0, 2 * math.pi, 4001)
    for alpha in np.linspace(0.02, math.pi / 2 - 0.02, 50):
        goes_negative = bool(np.any(phi_f(alpha, RESONANT, times) < -1e-15))
        assert goes_negative == (math.tan(alpha) < 1.0), f"alpha={alpha}"


def test_array_broadcasting_matches_scalars():
    times = np.linspace(0, 12, 7)
    c = derive_constants(ModelParams.from_detuning(0.7, 1.3))
    psi_vals = psi_concurrence(0.5, c, times)
    phi_vals = phi_concurrence(0.5, c, times)
    for j, t in enumerate(times):
        assert psi_vals[j] == psi_concurrence(0.5, c, float(t))
        assert phi_vals[j] == phi_concurrence(0.5, c, float(t))


@pytest.mark.parametrize("fn", [psi_amplitudes, phi_amplitudes, psi_concurrence, phi_f, phi_concurrence])
@pytest.mark.parametrize("alpha", [1e308, -1e308, math.inf, math.nan, np.nextafter(ALPHA_MAX, math.inf)])
def test_single_angle_functions_refuse_an_angle_whose_double_overflows(fn, alpha):
    # the same check and message as InitialState, before any sin(2 alpha) is taken
    message = re.escape(f"alpha must be finite with |alpha| <= {ALPHA_MAX!r}, so that 2 alpha is finite")
    with pytest.raises(ValueError, match=message):
        fn(alpha, RESONANT, np.array([0.0, 1.0]))
    for edge in (ALPHA_MAX, -ALPHA_MAX):
        fn(edge, RESONANT, np.array([0.0, 1.0]))


@pytest.mark.parametrize("phi", [False, True])
@pytest.mark.parametrize("points", [3001, 7])
def test_zero_zones_hold_their_dead_windows_and_every_point_at_most_zero_tol(phi, points):
    # the zones of the touch rule, at its level ZERO_TOL: a zone holds the dead window it meets; a point in no zone
    # is above ZERO_TOL, so each zero run lies in zones
    rng = np.random.default_rng(11)
    for _ in range(20):
        constants = random_constants(rng)
        times = np.linspace(0.0, rng.uniform(0.5, 12.0) * 2.0 * math.pi / constants.rabi, points)
        t0, t1 = float(times[0]), float(times[-1])
        for alpha in [*rng.uniform(0.0, 0.5 * math.pi, 4), 1e-13, 4e-12, math.pi / 4, 0.5 * math.pi - 1e-13]:
            form = closedform.for_state((InitialState.phi if phi else InitialState.psi)(alpha), constants)
            theta = form._zone_angle(t1, 1e-12)
            a, b = np.array([] if theta is None else form._around_peaks(t0, t1, theta)).reshape(-1, 2).T
            inside = ((times >= a[:, None]) & (times <= b[:, None])).any(axis=0)
            assert np.all(form.concurrence(times)[~inside] > 1e-12)
            for lo, hi in form.dead_windows(t0, t1):
                meets = (a < hi) & (b > lo)
                assert meets.any() and np.all((a[meets] <= lo) & (b[meets] >= hi))


def _vectorised_touch_points(form, t0, t1, level, dead):
    """``touch_points`` with the touch rule's tail as one numpy pass over all runs: the reference of its walk.

    It keeps the early return on abutting zones beside a dead window that ``touch_points`` leaves to its end filters.
    """
    theta = form._zone_angle(t1, level)
    if theta is None or (dead and theta == 0.0):
        return []
    runs = ([run for run in form._around_peaks(t0, dead[0][0], theta) if run[1] < dead[0][0]] +
            [run for run in form._around_peaks(dead[-1][1], t1, theta) if run[0] > dead[-1][1]]
            if dead else form._around_peaks(t0, t1, theta))
    if not runs:
        return []
    starts, ends = np.array(runs).T
    rabi = form.constants.rabi
    k = np.floor(starts * rabi / (2.0 * math.pi))
    k += (2.0 * k + 1.0) * math.pi / rabi < starts
    peaks = (2.0 * k + 1.0) * math.pi / rabi
    times = np.stack((starts, np.where(peaks <= ends, peaks, starts), ends))
    values = form.concurrence(times)
    best, each = np.argmin(values, axis=0), np.arange(times.shape[1])  # the first of equal values
    return times[best, each][values[best, each] <= level].tolist()


@pytest.mark.parametrize("phi", [False, True])
def test_touch_walk_matches_the_vectorised_reference(phi):
    # the walk forms each run's start, first peak and end in the reference's operation order and takes the first of
    # equal values, so the lists agree exactly: at and within hairs of the phi threshold, near product states, past
    # pi/2, from t0 = 0 and t0 > 0, over up to 60 periods, at three levels, beside the report's own dead windows
    rng = np.random.default_rng(27)
    touching = ends = abutting = 0
    for draw in range(700):
        big_g = rng.uniform(0.1, 3.0)
        params = ModelParams.from_detuning(rng.uniform(-3.0, 3.0), big_g, 10.0 * big_g + 5.0)
        constants, threshold = derive_constants(params), death_threshold_alpha(params)
        period = 2.0 * math.pi / constants.rabi
        alpha = [rng.uniform(0.0, 0.5 * math.pi), threshold, threshold * (1.0 + rng.uniform(-1e-9, 1e-9)), 1e-13,
                 1e-10, 0.5 * math.pi - 1e-12, rng.choice([-1.0, 1.0]) * rng.uniform(0.5 * math.pi, 3.0)][draw % 7]
        t0 = float(rng.choice([0.0, rng.uniform(0.0, 30.0) * period]))
        t1 = t0 + rng.uniform(0.0, 60.0) * period
        form = closedform.for_state((InitialState.phi if phi else InitialState.psi)(alpha), constants)
        dead = form.dead_windows(t0, t1)
        for level in (1e-14, 1e-12, 1e-9):
            touches = form.touch_points(t0, t1, level, dead)
            assert touches == _vectorised_touch_points(form, t0, t1, level, dead), (alpha, t0, t1, level)
            touching += bool(touches)
            ends += t1 in touches
            abutting += bool(dead) and form._zone_angle(t1, level) == 0.0
    # the draws reach the walk, its clipped ends and, for phi (psi dies only as a product state, which no draw is),
    # zones that abut beside a dead window, where touch_points leaves the reference's early return to its end filters
    assert touching > 300 and ends > 0 and (abutting > 300 or not phi)


@pytest.mark.parametrize("amplitudes, coherence", [(psi_amplitudes, (1, 2)), (phi_amplitudes, (0, 3))])
def test_atom_density_is_the_partial_trace_of_its_own_state(amplitudes, coherence):
    # the matrix traced from the terms against the modes traced out of the embedded state by einsum,
    # excited-first (atom level 1 is excited, so both atom axes run backwards); its only coherence is the
    # documented one: rho_12 for psi, rho_03 for phi
    rng = np.random.default_rng(29)
    documented = np.zeros((4, 4), dtype=bool)
    documented[coherence] = documented[coherence[::-1]] = True
    for k in range(60):
        t = rng.uniform(0.0, 25.0) if k % 2 else np.sort(rng.uniform(0.0, 25.0, 33))
        record = amplitudes(rng.uniform(0.05, math.pi / 2 - 0.05), random_constants(rng), t)
        state = record.columns(1).reshape((2, 2, 2, 2) + np.shape(t))
        traced = np.einsum("ABab...,CDab...->...ABCD", state, state.conj())[..., ::-1, ::-1, ::-1, ::-1]
        rho = record.atom_density()
        assert rho.shape == np.shape(t) + (4, 4)
        np.testing.assert_allclose(rho, traced.reshape(np.shape(t) + (4, 4)), rtol=0, atol=4 * np.finfo(float).eps)
        coherent = (rho != 0) & ~np.eye(4, dtype=bool)
        assert (coherent == documented).all()


def test_isometry_terms_match_the_oracle_on_any_atom_state():
    # the named families reach only 4 or 5 of the 9 products of (V (x) V); random complex atom weights reach all of
    # them, checked against the oracle's propagation of that custom state in validate's frame rotating at nu
    rng = np.random.default_rng(43)
    for k in range(24):
        params = ModelParams.from_detuning(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0))
        c = derive_constants(params)
        frame = replace(c, lambda_plus=(c.delta + c.rabi) / 2, lambda_minus=(c.delta - c.rabi) / 2)
        weights = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        weights /= np.linalg.norm(weights)
        times = np.sort(rng.uniform(0.0, 20.0, 9)) if k % 2 else rng.uniform(0.0, 20.0, 1)
        record = closedform._evolved(weights, frame, times if k % 2 else float(times[0]))
        assert len(record.terms) == 9
        for cutoff in (1, 2):
            atoms = np.zeros(basis_shape(cutoff), dtype=complex)
            atoms[:, :, 0, 0] = weights
            state0 = initial_state_vector(InitialState.custom(atoms.ravel()), cutoff)
            oracle = _propagator(params, cutoff).evolve_grid(state0, times)
            rho = np.array([partial_trace_pair(PureState(column, cutoff), ATOM_PAIR).entries for column in oracle.T])
            if not k % 2:  # a scalar time: one column, one matrix
                oracle, rho = oracle[:, 0], rho[0]
            np.testing.assert_allclose(record.columns(cutoff), oracle, rtol=0, atol=1e-12)
            np.testing.assert_allclose(record.atom_density(), rho, rtol=0, atol=1e-12)
