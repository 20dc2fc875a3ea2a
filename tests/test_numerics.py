import math

import mpmath
import numpy as np
import pytest

from doublejc import (
    ALL_PAIRS,
    ATOM_PAIR,
    InitialState,
    ModelParams,
    Propagator,
    PureState,
    QubitEquivalenceError,
    SubsystemPair,
    basis_shape,
    build_hamiltonian,
    derive_constants,
    initial_state_vector,
    pair_concurrence,
    pair_concurrences,
    partial_trace_pair,
    phi_amplitudes,
    psi_amplitudes,
    psi_reduced_density,
    total_excitation,
    wootters_concurrence,
)

MODES = SubsystemPair.from_name("ab")


def bell_rho(signs=(1, 1), positions=(1, 2)):
    """Projector onto (|i> + s|j>)/sqrt(2) in the two-qubit basis."""
    vec = np.zeros(4, dtype=complex)
    vec[positions[0]] = signs[0] / math.sqrt(2)
    vec[positions[1]] = signs[1] / math.sqrt(2)
    return np.outer(vec, vec.conj())


def random_sample(rng):
    alpha = rng.uniform(0, math.pi / 2)
    delta = rng.uniform(-2.0, 2.0)
    big_g = rng.uniform(0.2, 3.0)
    t = rng.uniform(0.0, 20.0)
    return alpha, ModelParams.from_detuning(delta, big_g), t


# ------------------------------------------------------------ Hamiltonian

def test_single_excitation_block_resonant():
    h = build_hamiltonian(ModelParams(1.0, 1.0, 0.5), cutoff=1)
    up_dn_00 = np.ravel_multi_index((1, 0, 0, 0), basis_shape(1))
    dn_dn_10 = np.ravel_multi_index((0, 0, 1, 0), basis_shape(1))
    block = h[np.ix_([up_dn_00, dn_dn_10], [up_dn_00, dn_dn_10])]
    assert np.allclose(block, [[1.0, 0.5], [0.5, 1.0]])
    assert np.linalg.eigvalsh(block) == pytest.approx([0.5, 1.5])


def test_single_excitation_eigenvalues_detuned():
    params = ModelParams(2.0, 1.0, 0.5)
    h = build_hamiltonian(params, cutoff=1)
    i = np.ravel_multi_index((1, 0, 0, 0), basis_shape(1))
    j = np.ravel_multi_index((0, 0, 1, 0), basis_shape(1))
    block = h[np.ix_([i, j], [i, j])]
    expected = [1.5 - math.sqrt(2) / 2, 1.5 + math.sqrt(2) / 2]
    assert np.linalg.eigvalsh(block) == pytest.approx(expected, rel=1e-14)
    # the next Fock coupling, g sqrt(2) between |e,1> and |g,2> of pair A
    h2 = build_hamiltonian(params, cutoff=2)
    i = np.ravel_multi_index((1, 0, 1, 0), basis_shape(2))
    j = np.ravel_multi_index((0, 0, 2, 0), basis_shape(2))
    g_root2 = params.g * math.sqrt(2)
    expected_block = [[params.omega + params.nu, g_root2], [g_root2, 2 * params.nu]]
    assert np.abs(h2[np.ix_([i, j], [i, j])] - expected_block).max() <= 1e-14


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_hamiltonian_matches_kronecker_build(cutoff):
    # an independent build: each operator placed by np.kron in (A, B, a, b) order
    params = ModelParams.from_detuning(0.7, 1.3)
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|, level 0 = ground
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)  # photon annihilation

    def embed(atom_a=np.eye(2), atom_b=np.eye(2), mode_a=np.eye(cutoff + 1), mode_b=np.eye(cutoff + 1)):
        return np.kron(np.kron(np.kron(atom_a, atom_b), mode_a), mode_b)

    expected = (
        params.omega * (embed(atom_a=sm.T @ sm) + embed(atom_b=sm.T @ sm))
        + params.nu * (embed(mode_a=a.T @ a) + embed(mode_b=a.T @ a))
        + params.g * (embed(atom_a=sm, mode_a=a.T) + embed(atom_a=sm.T, mode_a=a))
        + params.g * (embed(atom_b=sm, mode_b=a.T) + embed(atom_b=sm.T, mode_b=a))
    )
    h = build_hamiltonian(params, cutoff)
    assert np.abs(h - expected).max() <= 1e-15 * np.linalg.norm(expected, 2)
    if cutoff == 1:
        assert np.array_equal(h, expected)


def test_hamiltonian_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        build_hamiltonian(ModelParams(1.0, 1.0, 0.5), cutoff=0)


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_hamiltonian_conserves_excitation(cutoff):
    rng = np.random.default_rng(53)
    n_exc = total_excitation(cutoff)
    for _ in range(5):
        params = ModelParams(rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.1, 1))
        h = build_hamiltonian(params, cutoff)
        assert np.abs(h @ n_exc - n_exc @ h).max() <= 1e-12
        assert np.abs(h - h.conj().T).max() <= 1e-12


def test_decoupled_limit_static_populations():
    # couplings must stay positive, so probe the g -> 0 limit instead of g = 0
    params = ModelParams(1.3, 0.9, 1e-9)
    h = build_hamiltonian(params, cutoff=1)
    off_diag = h - np.diag(np.diag(h))
    assert np.abs(off_diag).max() <= 1e-9
    state0 = initial_state_vector(InitialState.psi(0.6), cutoff=1)
    state1 = Propagator(h).evolve(state0, 5.0)
    assert np.abs(np.abs(state1.amplitudes) ** 2 - np.abs(state0.amplitudes) ** 2).max() <= 1e-12


def test_propagator_rejects_non_square_operator():
    with pytest.raises(ValueError, match="operator must be a square matrix"):
        Propagator(np.zeros((16, 15)))


def test_propagator_rejects_non_hermitian_operator():
    h = build_hamiltonian(ModelParams(1.0, 1.0, 0.5), cutoff=1)
    h[0, 5] += 1e-3
    with pytest.raises(ValueError, match="operator must be Hermitian"):
        Propagator(h)


def test_evolve_grid_rejects_a_state_of_another_cutoff():
    propagator = Propagator(build_hamiltonian(ModelParams(1.0, 1.0, 0.5), cutoff=1))
    with pytest.raises(ValueError, match="state dimension does not match operator"):
        propagator.evolve_grid(initial_state_vector(InitialState.psi(0.3), cutoff=2), [0.0, 1.0])


# ------------------------------------------------------------- evolution

def test_evolve_identity_at_t0():
    params = ModelParams(1.7, 1.1, 0.4)
    state0 = initial_state_vector(InitialState.phi(0.8), cutoff=1)
    state1 = Propagator(build_hamiltonian(params, 1)).evolve(state0, 0.0)
    assert np.allclose(state1.amplitudes, state0.amplitudes, atol=1e-15)


def test_evolve_full_transfer():
    params = ModelParams(1.0, 1.0, 0.5)
    state0 = initial_state_vector(InitialState.psi(math.pi / 4), cutoff=1)
    state1 = Propagator(build_hamiltonian(params, 1)).evolve(state0, math.pi)
    populations = np.abs(state1.amplitudes) ** 2
    i = np.ravel_multi_index((0, 0, 1, 0), basis_shape(1))
    j = np.ravel_multi_index((0, 0, 0, 1), basis_shape(1))
    assert populations[i] == pytest.approx(0.5, abs=1e-12)
    assert populations[j] == pytest.approx(0.5, abs=1e-12)
    assert populations.sum() == pytest.approx(1.0, abs=1e-12)


def test_evolve_eigenstate_is_stationary():
    params = ModelParams(1.4, 1.0, 0.3)
    h = build_hamiltonian(params, cutoff=2)
    energies, modes = np.linalg.eigh(h)
    state0 = PureState(modes[:, 4].astype(complex), cutoff=2)
    state1 = Propagator(h).evolve(state0, 2.7)
    phase = np.exp(-1j * energies[4] * 2.7)
    assert np.abs(state1.amplitudes - phase * state0.amplitudes).max() <= 1e-12
    assert np.abs(np.abs(state1.amplitudes) ** 2 - np.abs(state0.amplitudes) ** 2).max() <= 1e-12


def test_evolve_preserves_norm_and_excitation():
    rng = np.random.default_rng(59)
    for _ in range(25):
        alpha, params, t = random_sample(rng)
        family = InitialState.psi if rng.random() < 0.5 else InitialState.phi
        state0 = initial_state_vector(family(alpha), cutoff=1)
        n_exc = total_excitation(1)
        state1 = Propagator(build_hamiltonian(params, 1)).evolve(state0, t)
        assert abs(np.linalg.norm(state1.amplitudes) - 1.0) <= 1e-12
        before = np.vdot(state0.amplitudes, n_exc @ state0.amplitudes).real
        after = np.vdot(state1.amplitudes, n_exc @ state1.amplitudes).real
        assert after == pytest.approx(before, abs=1e-12)


def test_oracle_reproduces_psi_amplitudes():
    rng = np.random.default_rng(61)
    propagators = {}
    worst = 0.0
    for _ in range(200):
        alpha, params, t = random_sample(rng)
        key = (params.omega, params.nu, params.g)
        if key not in propagators:
            propagators[key] = Propagator(build_hamiltonian(params, 1))
        state = propagators[key].evolve(initial_state_vector(InitialState.psi(alpha), 1), t)
        closed = psi_amplitudes(alpha, derive_constants(params), t).to_state(1)
        worst = max(worst, np.abs(state.amplitudes - closed.amplitudes).max())
    assert worst <= 1e-9


def test_oracle_reproduces_phi_amplitudes():
    rng = np.random.default_rng(67)
    worst = 0.0
    for _ in range(200):
        alpha, params, t = random_sample(rng)
        state = Propagator(build_hamiltonian(params, 1)).evolve(initial_state_vector(InitialState.phi(alpha), 1), t)
        closed = phi_amplitudes(alpha, derive_constants(params), t).to_state(1)
        worst = max(worst, np.abs(state.amplitudes - closed.amplitudes).max())
    assert worst <= 1e-9


@pytest.mark.parametrize("family", [InitialState.psi, InitialState.phi])
def test_cutoff_exactness(family):
    # no population ever reaches Fock level 2: cutoffs 1 and 3 agree exactly
    rng = np.random.default_rng(71)
    for _ in range(10):
        alpha, params, t = random_sample(rng)
        states = {}
        for cutoff in (1, 3):
            state0 = initial_state_vector(family(alpha), cutoff)
            states[cutoff] = Propagator(build_hamiltonian(params, cutoff)).evolve(state0, t)
        small, large = states[1], states[3]
        for index in range(small.dim):
            element = np.unravel_index(index, basis_shape(1))
            diff = abs(small.amplitudes[index] - large.amplitudes[np.ravel_multi_index(element, basis_shape(3))])
            assert diff <= 1e-12
        rho1 = partial_trace_pair(small, ATOM_PAIR).entries
        rho3 = partial_trace_pair(large, ATOM_PAIR).entries
        assert np.abs(rho1 - rho3).max() <= 1e-12


# ----------------------------------------------------------- partial trace

def test_partial_trace_product_state():
    state = initial_state_vector(InitialState.psi(0.0), cutoff=1)  # |eg00>
    rho = partial_trace_pair(state, ATOM_PAIR).entries
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |eg>
    assert np.allclose(rho, expected, atol=1e-15)


def test_partial_trace_atom_with_own_vacuum_mode():
    state = initial_state_vector(InitialState.psi(math.pi / 4), cutoff=1)
    rho = partial_trace_pair(state, SubsystemPair.from_name("Aa"))
    assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_partial_trace_matches_closed_form_matrix():
    params = ModelParams.from_detuning(0.5, 1.0)
    alpha, t = math.pi / 6, 1.7
    state = Propagator(build_hamiltonian(params, 1)).evolve(initial_state_vector(InitialState.psi(alpha), 1), t)
    oracle_rho = partial_trace_pair(state, ATOM_PAIR).entries
    closed_rho = psi_reduced_density(alpha, derive_constants(params), t).entries
    assert np.abs(oracle_rho - closed_rho).max() <= 1e-10


def test_partial_trace_pair_ordering():
    # |eg00>: atom A excited. Pair (a, A) puts the mode first: |ge><ge|
    state = initial_state_vector(InitialState.psi(0.0), cutoff=1)
    rho = partial_trace_pair(state, SubsystemPair.from_name("aA")).entries
    expected = np.zeros((4, 4))
    expected[2, 2] = 1.0
    assert np.allclose(rho, expected, atol=1e-15)


def test_qubit_equivalence_violation():
    amps = np.zeros(36, dtype=complex)
    amps[np.ravel_multi_index((1, 0, 2, 0), basis_shape(2))] = 1.0  # two photons in mode a
    state = PureState(amps, cutoff=2)
    with pytest.raises(QubitEquivalenceError):
        partial_trace_pair(state, SubsystemPair.from_name("Aa"))
    # tracing mode a out entirely is still fine
    rho = partial_trace_pair(state, SubsystemPair.from_name("Ab")).entries
    assert rho[1, 1] == pytest.approx(1.0, abs=1e-15)


def test_pair_validation():
    with pytest.raises(ValueError, match="unknown subsystem pair 'AA'"):
        SubsystemPair("AA")
    with pytest.raises(ValueError, match="unknown subsystem pair 'AZ'"):
        SubsystemPair.from_name("AZ")
    assert [p.name for p in ALL_PAIRS] == ["AB", "ab", "Aa", "Bb", "Ab", "Ba"]


# ------------------------------------------------------------- concurrence

def test_pair_concurrences_input_validation():
    with pytest.raises(ValueError, match="amplitude vector length does not match cutoff"):
        pair_concurrences(np.eye(36, 3), 1, ATOM_PAIR)
    with pytest.raises(ValueError, match="state vector must have unit norm"):
        pair_concurrences(np.ones((16, 2)), 1, ATOM_PAIR)
    # one bad column among good ones is enough
    columns = np.eye(16, 3)
    columns[5, 2] = 1.0
    with pytest.raises(ValueError, match="state vector must have unit norm"):
        pair_concurrences(columns, 1, ATOM_PAIR)
    assert pair_concurrences(np.eye(16, 3), 1, ATOM_PAIR).tolist() == [0.0, 0.0, 0.0]


def test_wootters_bell_states():
    assert wootters_concurrence(bell_rho()) == pytest.approx(1.0, abs=1e-12)
    assert wootters_concurrence(bell_rho((1, -1))) == pytest.approx(1.0, abs=1e-12)
    assert wootters_concurrence(bell_rho((1, 1), (0, 3))) == pytest.approx(1.0, abs=1e-12)


def test_wootters_product_states():
    for k in range(4):
        rho = np.zeros((4, 4), dtype=complex)
        rho[k, k] = 1.0
        assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)
    plus = np.full(2, 1 / math.sqrt(2))
    vec = np.kron(plus, plus)
    assert wootters_concurrence(np.outer(vec, vec)) == pytest.approx(0.0, abs=1e-12)


def test_wootters_werner_state():
    singlet = bell_rho((1, -1))
    for p, expected in [(0.8, 0.7), (0.5, 0.25), (1 / 3, 0.0), (0.2, 0.0)]:
        rho = p * singlet + (1 - p) * np.eye(4) / 4
        assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-12)


def test_wootters_input_validation():
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        wootters_concurrence(bad)
    with pytest.raises(ValueError, match="trace"):
        wootters_concurrence(np.eye(4, dtype=complex))


def test_wootters_bounds_on_random_reductions():
    rng = np.random.default_rng(73)
    for _ in range(1000):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        state = PureState(amps, cutoff=1)
        pair = ALL_PAIRS[rng.integers(0, len(ALL_PAIRS))]
        value = pair_concurrence(state, pair)
        assert 0.0 <= value <= 1.0


def test_pair_concurrence_initial_bell():
    state = initial_state_vector(InitialState.psi(math.pi / 4), cutoff=1)
    assert pair_concurrence(state, ATOM_PAIR) == pytest.approx(1.0, abs=1e-12)


def test_pair_concurrence_modes_after_transfer():
    params = ModelParams(1.0, 1.0, 0.5)
    state = Propagator(build_hamiltonian(params, 1)).evolve(initial_state_vector(InitialState.psi(math.pi / 4), 1), math.pi)
    assert pair_concurrence(state, MODES) == pytest.approx(1.0, abs=1e-12)


def test_pair_concurrence_follows_resonant_cosine():
    params = ModelParams(1.0, 1.0, 0.5)
    propagator = Propagator(build_hamiltonian(params, 1))
    state0 = initial_state_vector(InitialState.psi(math.pi / 4), 1)
    for t in np.linspace(0, 4 * math.pi, 50):
        state = propagator.evolve(state0, float(t))
        expected = math.cos(t / 2) ** 2
        assert pair_concurrence(state, ATOM_PAIR) == pytest.approx(expected, abs=1e-10)


def mp_phi_pair_concurrence(alpha, delta, big_g, nu, t, pair_name):
    """Pair concurrence of the evolved phi(alpha) state in 50-digit arithmetic.

    The amplitudes come from the pair factors f, h and the lambda_i from
    the singular values of B^T (sy x sy) B on the amplitude block B.
    """
    with mpmath.workdps(50):
        a, d, g, n, tt = (mpmath.mpf(x) for x in (alpha, delta, big_g, nu, t))
        rabi = mpmath.sqrt(d**2 + g**2)
        ep = mpmath.expj(-(n + d / 2 + rabi / 2) * tt)
        em = mpmath.expj(-(n + d / 2 - rabi / 2) * tt)
        f = ((1 + d / rabi) * ep + (1 - d / rabi) * em) / 2
        h = g / (2 * rabi) * (ep - em)
        ca = mpmath.cos(a)
        # (atom A, atom B, mode a, mode b) -> amplitude, 1 = excited or one photon
        amps = {(1, 1, 0, 0): ca * f * f, (1, 0, 0, 1): ca * f * h, (0, 1, 1, 0): ca * h * f,
                (0, 0, 1, 1): ca * h * h, (0, 0, 0, 0): mpmath.sin(a)}
        keep = ["ABab".index(s) for s in pair_name]
        rest = [k for k in range(4) if k not in keep]
        block = mpmath.zeros(4, 4)
        for idx, value in amps.items():
            block[2 * idx[keep[0]] + idx[keep[1]], 2 * idx[rest[0]] + idx[rest[1]]] += value
        flip = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        lam = sorted(mpmath.svd_c(block.T * flip * block, compute_uv=False), reverse=True)
        return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))


@pytest.mark.parametrize("pair_name", ["Ab", "Ba"])
def test_small_crossed_pair_concurrence_matches_mpmath(pair_name):
    # C is about 2.9e-4 here; the former sqrt(rho) route, which zeroed the
    # 9.4e-15 eigenvalue of rho, was off by 1.7e-7
    alpha, t = 0.5333333333333333, 4.442212012175967
    params = ModelParams.from_detuning(1.0, 1.0)
    state = Propagator(build_hamiltonian(params, 1)).evolve(initial_state_vector(InitialState.phi(alpha), 1), t)
    pair = SubsystemPair.from_name(pair_name)
    truth = mp_phi_pair_concurrence(alpha, 1.0, 1.0, params.nu, t, pair_name)
    assert truth == pytest.approx(2.9356e-4, rel=1e-4)
    assert pair_concurrence(state, pair) == pytest.approx(truth, abs=1e-10)
    # the eigendecomposition route for arbitrary rho loses digits to eigh on that small eigenvalue
    assert wootters_concurrence(partial_trace_pair(state, pair)) == pytest.approx(truth, abs=1e-9)
