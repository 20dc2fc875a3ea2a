import math
import re

import numpy as np
import pytest

from doublejc import (
    InitialState,
    ModelParams,
    derive_constants,
    phi_amplitudes,
    phi_concurrence,
    phi_f,
    phi_reduced_density,
    psi_amplitudes,
    psi_concurrence,
    psi_reduced_density,
)
from doublejc import closedform
from doublejc.model import ALPHA_MAX

RESONANT = derive_constants(ModelParams.from_detuning(0.0, 1.0))


def random_constants(rng):
    delta = rng.uniform(-2.0, 2.0)
    big_g = rng.uniform(0.2, 3.0)
    return derive_constants(ModelParams.from_detuning(delta, big_g))


def test_psi_amplitudes_at_t0():
    a = psi_amplitudes(math.pi / 4, RESONANT, 0.0)
    root_half = 1 / math.sqrt(2)
    assert a.x1 == pytest.approx(root_half, abs=1e-15)
    assert a.x2 == pytest.approx(root_half, abs=1e-15)
    assert a.x3 == 0 and a.x4 == 0


def test_psi_amplitudes_full_transfer():
    # at rabi*t = pi the excitation sits entirely in the cavities
    a = psi_amplitudes(math.pi / 4, RESONANT, math.pi)
    assert abs(a.x1) == pytest.approx(0.0, abs=5e-15)
    assert abs(a.x2) == pytest.approx(0.0, abs=5e-15)
    assert abs(a.x3) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert abs(a.x4) == pytest.approx(1 / math.sqrt(2), rel=1e-12)


def test_psi_normalization_random():
    rng = np.random.default_rng(21)
    for _ in range(200):
        c = random_constants(rng)
        a = psi_amplitudes(rng.uniform(0, math.pi / 2), c, rng.uniform(0, 20))
        total = abs(a.x1) ** 2 + abs(a.x2) ** 2 + abs(a.x3) ** 2 + abs(a.x4) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)


def test_psi_amplitude_ratios():
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha = rng.uniform(0.1, 1.4)
        c = random_constants(rng)
        a = psi_amplitudes(alpha, c, rng.uniform(0.1, 15))
        if abs(a.x1) > 1e-12:
            assert a.x2 / a.x1 == pytest.approx(math.tan(alpha), rel=1e-10)
        if abs(a.x3) > 1e-12:
            assert a.x4 / a.x3 == pytest.approx(math.tan(alpha), rel=1e-10)


def test_phi_amplitudes_at_t0():
    a = phi_amplitudes(math.pi / 4, RESONANT, 0.0)
    root_half = 1 / math.sqrt(2)
    assert a.x1 == pytest.approx(root_half, abs=1e-15)
    assert a.x2 == 0 and a.x3 == 0 and a.x4 == 0
    assert a.x5 == pytest.approx(root_half, abs=1e-15)


def test_phi_amplitudes_double_transfer():
    # alpha = 0: both excitations fully transferred at rabi*t = pi
    a = phi_amplitudes(0.0, RESONANT, math.pi)
    assert abs(a.x2) == pytest.approx(1.0, rel=1e-12)
    for x in (a.x1, a.x3, a.x4, a.x5):
        assert abs(x) == pytest.approx(0.0, abs=5e-15)


def test_phi_structure():
    rng = np.random.default_rng(13)
    for _ in range(200):
        alpha = rng.uniform(0, math.pi / 2)
        c = random_constants(rng)
        a = phi_amplitudes(alpha, c, rng.uniform(0, 20))
        assert a.x3 == a.x4
        assert a.x5 == complex(math.sin(alpha))
        total = sum(abs(x) ** 2 for x in (a.x1, a.x2, a.x3, a.x4, a.x5))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        psi_amplitudes(0.3, RESONANT, -0.1)
    with pytest.raises(ValueError):
        phi_concurrence(0.3, RESONANT, -1.0)


@pytest.mark.parametrize("function", [psi_concurrence, phi_concurrence, phi_f, psi_amplitudes, phi_amplitudes])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
def test_non_finite_or_negative_time_rejected(function, bad):
    # a NaN or an infinity used to come back as NaN values without complaint
    for t in (bad, np.array([0.0, 1.0, bad]), np.array([[0.5], [bad]])):
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
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
        a = psi_amplitudes(alpha, c, t)
        assert psi_concurrence(alpha, c, t) == pytest.approx(
            2 * abs(a.x1) * abs(a.x2), abs=1e-12
        )


def test_phi_f_matches_amplitude_form():
    rng = np.random.default_rng(31)
    for _ in range(200):
        alpha = rng.uniform(0, math.pi / 2)
        c = random_constants(rng)
        t = rng.uniform(0, 20)
        a = phi_amplitudes(alpha, c, t)
        expected = 2 * abs(a.x1) * abs(a.x5) - 2 * abs(a.x3) * abs(a.x4)
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
    if fn not in (psi_amplitudes, phi_amplitudes):
        # a sequence of angles, one row each, is checked angle by angle
        with pytest.raises(ValueError, match=message):
            fn([0.3, alpha], RESONANT, np.array([0.0, 1.0]))
    for edge in (ALPHA_MAX, -ALPHA_MAX):
        fn(edge, RESONANT, np.array([0.0, 1.0]))


@pytest.mark.parametrize("phi", [False, True])
@pytest.mark.parametrize("points", [3001, 7])
def test_zero_zones_hold_their_dead_windows_and_every_point_at_most_zero_tol(phi, points):
    # a zone holds the dead window it meets; a point in no zone is above ZERO_TOL, so each zero run lies in zones
    rng = np.random.default_rng(11)
    for _ in range(20):
        constants = random_constants(rng)
        times = np.linspace(0.0, rng.uniform(0.5, 12.0) * 2.0 * math.pi / constants.rabi, points)
        t0, t1 = float(times[0]), float(times[-1])
        for alpha in [*rng.uniform(0.0, 0.5 * math.pi, 4), 1e-13, 4e-12, math.pi / 4, 0.5 * math.pi - 1e-13]:
            form = closedform.for_state((InitialState.phi if phi else InitialState.psi)(alpha), constants)
            a, b = np.reshape(form.zero_zones(t0, t1, 2e-12), (-1, 2)).T
            inside = ((times >= a[:, None]) & (times <= b[:, None])).any(axis=0)
            assert np.all(form.concurrence(times)[~inside] > 1e-12)
            for lo, hi in form.dead_windows(t0, t1):
                meets = (a < hi) & (b > lo)
                assert meets.any() and np.all((a[meets] <= lo) & (b[meets] >= hi))
