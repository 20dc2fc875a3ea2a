import math

import numpy as np
import pytest

from doublejc import (
    BasisIndex,
    InitialState,
    ModelParams,
    StateFamily,
    basis_dimension,
    derive_constants,
    initial_state_vector,
)


def test_constants_zero_detuning():
    c = derive_constants(ModelParams(omega=1.0, nu=1.0, g=0.5))
    assert c.delta == 0.0
    assert c.big_g == 1.0
    assert c.rabi == 1.0
    assert c.l_coef == 0.5 and c.m_coef == 0.5 and c.n_coef == 0.5
    assert c.lambda_plus == pytest.approx(1.5, abs=1e-15)
    assert c.lambda_minus == pytest.approx(0.5, abs=1e-15)


def test_constants_detuned():
    c = derive_constants(ModelParams(omega=2.0, nu=1.0, g=0.5))
    assert c.delta == 1.0
    assert c.big_g == 1.0
    assert c.rabi == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert c.l_coef == pytest.approx(0.5 * (1 + 1 / math.sqrt(2)), rel=1e-15)
    assert c.m_coef == pytest.approx(0.5 * (1 - 1 / math.sqrt(2)), rel=1e-15)
    assert c.n_coef == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-15)
    assert c.lambda_plus == pytest.approx(1.5 + math.sqrt(2) / 2, rel=1e-15)
    assert c.lambda_minus == pytest.approx(1.5 - math.sqrt(2) / 2, rel=1e-15)


def test_constants_identities_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        omega = rng.uniform(0.05, 5.0)
        nu = rng.uniform(0.05, 5.0)
        g = rng.uniform(0.01, 2.0)
        c = derive_constants(ModelParams(omega, nu, g))
        assert c.l_coef + c.m_coef == pytest.approx(1.0, rel=1e-12)
        assert c.l_coef - c.m_coef == pytest.approx(c.delta / c.rabi, rel=1e-12, abs=1e-14)
        assert c.l_coef * c.m_coef == pytest.approx(c.n_coef**2, rel=1e-12, abs=1e-15)
        assert 4 * c.n_coef**2 == pytest.approx(
            c.big_g**2 / (c.delta**2 + c.big_g**2), rel=1e-12
        )
        assert c.lambda_plus - c.lambda_minus == pytest.approx(c.rabi, rel=1e-12)
        assert 0.0 < c.n_coef <= 0.5


def test_n_is_half_only_on_resonance():
    assert derive_constants(ModelParams(2.0, 2.0, 0.3)).n_coef == 0.5
    assert derive_constants(ModelParams(2.0, 1.9, 0.3)).n_coef < 0.5


@pytest.mark.parametrize(
    "omega, nu, g",
    [(1.0, 1.0, 0.0), (1.0, 1.0, -0.5), (0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (1.0, 0.0, 0.5)],
)
def test_invalid_params_rejected(omega, nu, g):
    with pytest.raises(ValueError):
        ModelParams(omega, nu, g)


def test_from_detuning():
    p = ModelParams.from_detuning(1.0, 1.0)
    assert p.nu == 10.0 and p.omega == 11.0 and p.g == 0.5
    p = ModelParams.from_detuning(-0.5, 2.0, nu=3.0)
    assert p.omega == 2.5 and p.g == 1.0
    with pytest.raises(ValueError, match="coupling"):
        ModelParams.from_detuning(0.0, 0.0)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_basis_roundtrip(cutoff):
    dim = basis_dimension(cutoff)
    assert dim == 4 * (cutoff + 1) ** 2
    shape = (2, 2, cutoff + 1, cutoff + 1)
    for index in range(dim):
        element = BasisIndex(*np.unravel_index(index, shape))
        assert element.flatten(cutoff) == index


def test_basis_flatten_formula():
    # |eg10> at cutoff 2: ((1*2+0)*3 + 1)*3 + 0
    assert BasisIndex(1, 0, 1, 0).flatten(2) == 21
    assert BasisIndex(0, 0, 0, 0).flatten(3) == 0
    with pytest.raises(ValueError):
        BasisIndex(1, 0, 3, 0).flatten(2)
    with pytest.raises(ValueError):
        BasisIndex(2, 0, 0, 0)
    with pytest.raises(ValueError):
        BasisIndex(*np.unravel_index(basis_dimension(1), (2, 2, 2, 2)))


def test_initial_state_psi_quarter():
    state = initial_state_vector(InitialState.psi(math.pi / 4), cutoff=1)
    root_half = 1 / math.sqrt(2)
    assert state.amplitudes[BasisIndex(1, 0, 0, 0).flatten(1)] == pytest.approx(root_half, rel=1e-15)
    assert state.amplitudes[BasisIndex(0, 1, 0, 0).flatten(1)] == pytest.approx(root_half, rel=1e-15)
    assert np.count_nonzero(state.amplitudes) == 2


def test_initial_state_phi_alpha_zero():
    state = initial_state_vector(InitialState.phi(0.0), cutoff=1)
    assert state.amplitudes[BasisIndex(1, 1, 0, 0).flatten(1)] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_initial_state_psi_alpha_zero_cutoff2():
    state = initial_state_vector(InitialState.psi(0.0), cutoff=2)
    assert state.amplitudes[BasisIndex(1, 0, 0, 0).flatten(2)] == 1.0
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_initial_state_norm_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        family = StateFamily.PSI_ALPHA if rng.random() < 0.5 else StateFamily.PHI_ALPHA
        alpha = rng.uniform(-2 * math.pi, 2 * math.pi)
        cutoff = int(rng.integers(1, 5))
        state = initial_state_vector(InitialState(family, alpha), cutoff)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


def test_initial_state_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        initial_state_vector(InitialState.psi(0.3), cutoff=0)


def test_custom_state_roundtrip():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = initial_state_vector(InitialState.custom(amps), cutoff=1)
    assert np.allclose(state.amplitudes, amps)


def test_custom_state_validation():
    with pytest.raises(ValueError, match="unit norm"):
        InitialState.custom(np.ones(16))
    good = np.zeros(16, dtype=complex)
    good[0] = 1.0
    with pytest.raises(ValueError, match="length"):
        initial_state_vector(InitialState.custom(good), cutoff=2)
    with pytest.raises(ValueError, match="amplitude vector"):
        InitialState(StateFamily.CUSTOM)
    with pytest.raises(ValueError):
        InitialState(StateFamily.PSI_ALPHA, 0.1, custom_amplitudes=good)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        ModelParams(bad, 1.0, 0.5)
    with pytest.raises(ValueError, match="finite"):
        ModelParams(1.0, 1.0, bad)
    with pytest.raises(ValueError, match="finite"):
        ModelParams.from_detuning(bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        InitialState.phi(bad)
    with pytest.raises(ValueError, match="unit norm"):
        InitialState.custom(np.full(16, bad, dtype=complex))
