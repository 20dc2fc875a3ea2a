import math
import re

import numpy as np
import pytest

from doublejc import (
    DensityMatrix,
    InitialState,
    ModelParams,
    PureState,
    StateFamily,
    basis_shape,
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
    for big_g in (0.0, -1.0):
        with pytest.raises(ValueError, match="coupling must be positive"):
            ModelParams.from_detuning(0.0, big_g)
    # omega = nu + delta <= 0 is reported as the detuning the caller gave, not as omega
    with pytest.raises(ValueError, match=r"detuning must be above -nu = -10 \(nu defaults to 10 G\)"):
        ModelParams.from_detuning(-20.0, 1.0)
    with pytest.raises(ValueError, match="detuning must be above -nu = -3"):
        ModelParams.from_detuning(-3.0, 2.0, nu=3.0)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_basis_roundtrip(cutoff):
    dim = math.prod(basis_shape(cutoff))
    assert dim == 4 * (cutoff + 1) ** 2
    shape = basis_shape(cutoff)
    assert shape == (2, 2, cutoff + 1, cutoff + 1)
    d = cutoff + 1
    for index in range(dim):
        element = atom_a, atom_b, n_a, n_b = np.unravel_index(index, shape)
        assert ((atom_a * 2 + atom_b) * d + n_a) * d + n_b == index  # the formula in README
        assert np.ravel_multi_index(element, shape) == index


def test_basis_flatten_formula():
    # |eg10> at cutoff 2: ((1*2+0)*3 + 1)*3 + 0
    assert np.ravel_multi_index((1, 0, 1, 0), basis_shape(2)) == 21
    assert np.ravel_multi_index((0, 0, 0, 0), basis_shape(3)) == 0
    with pytest.raises(ValueError):
        np.ravel_multi_index((1, 0, 3, 0), basis_shape(2))  # photon number above the cutoff
    with pytest.raises(ValueError):
        np.ravel_multi_index((2, 0, 0, 0), basis_shape(2))  # atom level 2
    with pytest.raises(ValueError):
        np.unravel_index(16, basis_shape(1))  # index = dim
    with pytest.raises(ValueError, match="Fock cutoff must be at least 1"):
        basis_shape(0)


def test_initial_state_psi_quarter():
    state = initial_state_vector(InitialState.psi(math.pi / 4), cutoff=1)
    root_half = 1 / math.sqrt(2)
    assert state.amplitudes[np.ravel_multi_index((1, 0, 0, 0), basis_shape(1))] == pytest.approx(root_half, rel=1e-15)
    assert state.amplitudes[np.ravel_multi_index((0, 1, 0, 0), basis_shape(1))] == pytest.approx(root_half, rel=1e-15)
    assert np.count_nonzero(state.amplitudes) == 2


def test_initial_state_phi_alpha_zero():
    state = initial_state_vector(InitialState.phi(0.0), cutoff=1)
    assert state.amplitudes[np.ravel_multi_index((1, 1, 0, 0), basis_shape(1))] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_initial_state_psi_alpha_zero_cutoff2():
    state = initial_state_vector(InitialState.psi(0.0), cutoff=2)
    assert state.amplitudes[np.ravel_multi_index((1, 0, 0, 0), basis_shape(2))] == 1.0
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
    amps = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
    amps[1, :, 1, :] = amps[:, 1, :, 1] = 0.0  # no pair holds two excitations, which cutoff 1 would truncate
    amps = amps.ravel() / np.linalg.norm(amps)
    state = initial_state_vector(InitialState.custom(amps), cutoff=1)
    assert np.allclose(state.amplitudes, amps)


def test_custom_state_beyond_the_cutoff_is_refused():
    # |e,1>_A |g,0>_B: pair Aa holds two excitations, and cutoff 1 has no |g,2> for |e,1> to reach
    beyond = np.zeros(basis_shape(1), dtype=complex)
    beyond[1, 0, 1, 0] = 1.0
    message = "custom state holds weight 1.000e+00 where pair Aa has more excitations than cutoff 1 can hold"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        initial_state_vector(InitialState.custom(beyond.ravel()), cutoff=1)
    # the same state at cutoff 2 is accepted as it is
    wide = np.zeros(basis_shape(2), dtype=complex)
    wide[1, 0, 1, 0] = 1.0
    assert np.array_equal(initial_state_vector(InitialState.custom(wide.ravel()), cutoff=2).amplitudes, wide.ravel())
    # part of the weight beyond, in pair Bb: |e,1>_B at cutoff 1
    partial = np.zeros(basis_shape(1), dtype=complex)
    partial[0, 0, 0, 0], partial[0, 1, 0, 1] = 0.6, 0.8
    message = "custom state holds weight 6.400e-01 where pair Bb has more excitations than cutoff 1 can hold"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        initial_state_vector(InitialState.custom(partial.ravel()), cutoff=1)
    # the named families hold at most one excitation per pair, so no cutoff refuses them
    for cutoff in (1, 2, 3):
        for init in (InitialState.psi(0.3), InitialState.phi(0.3)):
            assert np.count_nonzero(initial_state_vector(init, cutoff).amplitudes) == 2


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


def test_pure_state_validation():
    with pytest.raises(ValueError, match="amplitude vector length does not match cutoff"):
        PureState(np.eye(16)[0], cutoff=2)
    with pytest.raises(ValueError, match="state vector must have unit norm"):
        PureState(np.full(16, 0.5), cutoff=1)
    assert PureState(np.full(16, 0.25), cutoff=1).amplitudes.shape == (16,)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="density matrix must be 4x4"):
        DensityMatrix(np.eye(3) / 3)
    # Hermitian with unit trace, but with eigenvalues 1.5 and -0.5
    with pytest.raises(ValueError, match="density matrix must be positive semidefinite"):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))
    DensityMatrix(np.eye(4) / 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        ModelParams(bad, 1.0, 0.5)
    with pytest.raises(ValueError, match="finite"):
        ModelParams(1.0, 1.0, bad)
    with pytest.raises(ValueError, match="finite"):
        ModelParams.from_detuning(bad, 1.0)
    with pytest.raises(ValueError, match="frequencies must be finite"):
        ModelParams.from_detuning(0.0, bad)
    with pytest.raises(ValueError, match="finite"):
        InitialState.phi(bad)
    with pytest.raises(ValueError, match="unit norm"):
        InitialState.custom(np.full(16, bad, dtype=complex))
