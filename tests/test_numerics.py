import math

import kernel_sweep
import mpmath
import numpy as np
import pytest

from doublejc import (
    ALL_PAIRS,
    ATOM_PAIR,
    DensityMatrix,
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
    partial_trace_pair,
    phi_amplitudes,
    psi_amplitudes,
    psi_reduced_density,
    scan_pairs,
    total_excitation,
    wootters_concurrence,
)
from doublejc import numerics
from doublejc.numerics import _block_concurrences, _pair_blocks, _svd2

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


@pytest.mark.parametrize("cutoff", [1, 2, 3])
@pytest.mark.parametrize("delta, nu", [(0.0, 10.0), (0.37, 7.0), (-1.3, 5.0), (-0.25, 1e12)])
def test_oracle_hamiltonian_is_the_lab_one_in_the_frame_rotating_at_nu(monkeypatch, delta, nu, cutoff):
    # the oracle diagonalises H - nu N_exc, with its diagonal formed from delta = omega - nu: exactly delta per
    # excited atom, where the lab entries omega + nu n minus nu N_exc round at the scale of nu
    params, held = ModelParams.from_detuning(delta, 0.8, nu), []
    monkeypatch.setattr(numerics, "Propagator", held.append)
    numerics._propagator.cache_clear()
    numerics._propagator(params, cutoff)
    numerics._propagator.cache_clear()  # no held None for later tests
    [h] = held
    lab = build_hamiltonian(params, cutoff) - params.nu * total_excitation(cutoff)
    assert np.abs(h - lab).max() <= 8 * np.finfo(float).eps * (2 * params.omega + 2 * cutoff * params.nu)
    assert np.array_equal(h - np.diag(np.diag(h)), lab - np.diag(np.diag(lab)))  # the couplings g sqrt(n+1)
    excited = np.indices(basis_shape(cutoff))[:2].sum(axis=0).ravel()
    assert np.array_equal(np.diag(h), (params.omega - params.nu) * excited)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
@pytest.mark.parametrize("container", [Propagator, DensityMatrix])
def test_non_finite_entries_are_refused_without_warnings(container, where, bad):
    # the Hermiticity checks read |M - M^dagger| > tol, which a NaN passes: a NaN energy or coherence was held, and
    # an inf warned in the subtraction (any warning fails the suite)
    entries = np.eye(4, dtype=complex) / 4
    entries[where] = entries[where[::-1]] = bad
    with pytest.raises(ValueError, match="must be Hermitian with finite entries$"):
        container(entries)


def test_evolve_grid_rejects_a_state_of_another_cutoff():
    propagator = Propagator(build_hamiltonian(ModelParams(1.0, 1.0, 0.5), cutoff=1))
    with pytest.raises(ValueError, match="state dimension does not match operator"):
        propagator.evolve_grid(initial_state_vector(InitialState.psi(0.3), cutoff=2), [0.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_evolution_rejects_non_finite_or_negative_times(bad):
    # evolve used to fail with "state vector must have unit norm", and evolve_grid returned NaN columns
    propagator = Propagator(build_hamiltonian(ModelParams(1.0, 1.0, 0.5), cutoff=1))
    state0 = initial_state_vector(InitialState.psi(0.3), cutoff=1)
    with pytest.raises(ValueError, match="time must be finite and nonnegative"):
        propagator.evolve(state0, bad)
    with pytest.raises(ValueError, match="time must be finite and nonnegative"):
        propagator.evolve_grid(state0, [0.0, bad, 1.0])


# ------------------------------------------------------- exact structure

@pytest.mark.parametrize("cutoff", [1, 2])
@pytest.mark.parametrize("family, occupied, support", [(InitialState.phi, {(0, 0), (1, 1)}, 5),
                                                       (InitialState.psi, {(1, 0), (0, 1)}, 4)])
def test_resonant_propagation_keeps_unoccupied_sectors_exactly_zero(cutoff, family, occupied, support):
    # each (N_A, N_B) sector gets its own eigh; one 16 x 16 eigh mixed the degenerate sectors at delta = 0,
    # so 11 of phi's 16 amplitudes came out nonzero although phi occupies 5 basis states
    atom_a, atom_b, n_a, n_b = np.indices(basis_shape(cutoff)).reshape(4, -1)
    inside = np.array([sector in occupied for sector in zip(atom_a + n_a, atom_b + n_b)])
    propagator = Propagator(build_hamiltonian(ModelParams.from_detuning(0.0, 1.0), cutoff))
    for alpha in (0.3, math.pi / 4, 1.2):
        columns = propagator.evolve_grid(initial_state_vector(family(alpha), cutoff), np.linspace(0.0, 40.0, 401))
        assert np.count_nonzero(columns[~inside]) == 0
        assert np.count_nonzero(columns[:, 7]) == support  # a pair's sector 1 is {|e,0>, |g,1>} at any cutoff


def test_dense_hermitian_operator_is_one_block_and_evolves_exactly():
    rng = np.random.default_rng(61)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    h = (m + m.conj().T) / 2
    propagator = Propagator(h)
    assert np.count_nonzero(propagator.modes) == 256
    amplitudes = rng.normal(size=16) + 1j * rng.normal(size=16)
    state0 = PureState(amplitudes / np.linalg.norm(amplitudes), cutoff=1)
    times = [0.7, 3.1]
    with mpmath.workdps(25):
        for t, column in zip(times, propagator.evolve_grid(state0, times).T):
            exact = mpmath.expm(-1j * t * mpmath.matrix(h.tolist())) * mpmath.matrix(state0.amplitudes.tolist())
            assert max(abs(complex(exact[i]) - column[i]) for i in range(16)) <= 1e-12


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
        for index in range(small.amplitudes.size):
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

def test_pair_blocks_input_validation():
    with pytest.raises(ValueError, match="amplitude vector length does not match cutoff"):
        _pair_blocks(np.eye(36, 3), 1, [ATOM_PAIR])
    with pytest.raises(ValueError, match="state vector must have unit norm"):
        _pair_blocks(np.ones((16, 2)), 1, [ATOM_PAIR])
    # one bad column among good ones is enough
    columns = np.eye(16, 3)
    columns[5, 2] = 1.0
    with pytest.raises(ValueError, match="state vector must have unit norm"):
        _pair_blocks(columns, 1, [ATOM_PAIR])
    assert [pair_concurrence(PureState(column, 1), ATOM_PAIR) for column in np.eye(16, 3).T] == [0.0, 0.0, 0.0]


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


def test_psi_oracle_signed_rows_are_never_negative():
    # psi's tau is one nonzero entry on every pair, so lambda_2..4 are exactly 0; a dense 4 x 4 SVD gave
    # 33 negative samples here, down to -3.0e-16
    for delta in (0.0, 0.5, 1.0, 2.0):
        params = ModelParams.from_detuning(delta, 1.0)
        for alpha in np.linspace(0.02, math.pi / 2 - 0.02, 11):
            series = scan_pairs(InitialState.psi(float(alpha)), params, ALL_PAIRS, 4 * math.pi, 401)
            assert min(each.signed.min() for each in series.values()) >= 0.0


def within_ulps_of_norm(got, want, ulps) -> bool:
    """Whether each singular value in ``got`` is within ``ulps`` eps ||block||_2 of ``want``.

    Both are 2 x T, one block per column, sorted descending down each column.
    """
    return bool(np.all(np.abs(got - want) <= ulps * np.finfo(float).eps * want[:1]))


#: hard 2 x 2 blocks: rank one, equal singular values, zero rows and columns, complex-symmetric
HARD_BLOCKS = np.array([
    [[1, 2j], [3, 6j]], [[1e-3, 1], [1e-3, 1]], [[1 + 1j, 1 - 1j], [2 + 2j, 2 - 2j]],
    [[1, 0], [0, 1j]], [[0, 1], [1, 0]], [[0.6, -0.8j], [0.8, 0.6j]], [[1, 1j], [1j, 1]],
    [[0, 0], [0, 0]], [[0, 0], [1 + 1j, 2]], [[0, 3j], [0, 4]], [[5, 0], [0, 0]], [[0, 0], [0, 7j]],
    [[0, 1e-20], [0, 0]], [[1 + 2j, 0.5j], [0.5j, -3 + 1j]], [[-2j, 1e-8], [1e-8, 2j]], [[0, 1 + 1j], [1 + 1j, 0]],
], dtype=complex)


@pytest.mark.parametrize("scale", [1e-160, 1e-100, 1.0, 1e100, 1e150])
def test_svd2_matches_dense_svd_on_hard_blocks(scale):
    # scaling by a power of two keeps the products in range; unscaled, they underflow at 1e-160, where
    # the values are off by 1.2e-2 of the norm, and overflow above about 1e154
    blocks = np.moveaxis(HARD_BLOCKS * scale, 0, -1)  # time-last: one block per last index
    assert within_ulps_of_norm(_svd2(blocks), np.linalg.svd(HARD_BLOCKS * scale, compute_uv=False).T, 4)
    assert _svd2(blocks[..., 7:8]).tolist() == [[0.0], [0.0]]
    assert _svd2(blocks[..., 10:11]).tolist() == [[5 * scale], [0.0]]  # a single entry is exact


@pytest.mark.parametrize("scale", [1e-310, 1e-320, 4e-323])
def test_svd2_of_blocks_whose_largest_modulus_is_subnormal(scale):
    # numpy's complex division by the scale forms its reciprocal, which overflowed for a scale below 2^-1022:
    # every singular value came out NaN, after overflow and invalid-value warnings
    blocks = HARD_BLOCKS * scale
    got, want = _svd2(np.moveaxis(blocks, 0, -1)), np.linalg.svd(blocks, compute_uv=False).T
    # subnormals are 2^-1074 apart, far more than 4 eps ||B||_2 here
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want[:1] + 2 * 2.0**-1074)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e150, 1e300, 1e-310, 1e-320, 4e-323])
def test_svd2_equals_the_division_scaled_formula_bit_for_bit(scale):
    # multiplying by the exact reciprocal of the power-of-two scale gives every scaled value that dividing by it
    # gave; from 1e-310 down the largest modulus is subnormal, and the 2^-1021 floor keeps the reciprocal finite
    blocks, zero = HARD_BLOCKS * scale, np.zeros((2, 2, 1), dtype=complex)
    for stack in (np.moveaxis(blocks, 0, -1), np.moveaxis(blocks.reshape(2, 8, 2, 2), 1, -1), zero):
        got, want = _svd2(stack), kernel_sweep.divided_svd2(stack)
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_svd2_is_within_four_ulps_of_the_exact_singular_values():
    # measured against 40-digit values, so the bound holds whatever LAPACK's own rounding
    for name, blocks in kernel_sweep.hard_blocks(40, np.random.default_rng(67)).items():
        with mpmath.workdps(40):
            exact = np.array([sorted(map(float, mpmath.svd_c(mpmath.matrix(block.tolist()), compute_uv=False)),
                                     reverse=True) for block in np.moveaxis(blocks, -1, 0)]).T
        assert within_ulps_of_norm(_svd2(blocks), exact, 4), name


def test_pair_blocks_stack_each_run_of_equal_traced_size_in_pair_order():
    # at cutoff 2 a pair of atoms traces 9 levels away, a pair of modes 4, and a mixed pair 6
    columns = initial_state_vector(InitialState.phi(0.4), 2).amplitudes[:, None]
    interleaved = [SubsystemPair(name) for name in ("AB", "Aa", "ab", "Bb", "Ba", "Ab")]
    for pairs, shapes in ((ALL_PAIRS, [(1, 4, 9, 1), (1, 4, 4, 1), (4, 4, 6, 1)]),
                          (interleaved, [(1, 4, 9, 1), (1, 4, 6, 1), (1, 4, 4, 1), (3, 4, 6, 1)])):
        stacks = _pair_blocks(columns, 2, pairs)
        assert [blocks.shape for blocks in stacks] == shapes
        lone = [_pair_blocks(columns, 2, [pair])[0][0] for pair in pairs]
        assert all(np.array_equal(got, want) for got, want in zip((b for blocks in stacks for b in blocks), lone))


def test_block_kernel_is_the_dense_svd_for_dense_states():
    # a tau with no zero is one block, and goes to the batched SVD whole
    rng = np.random.default_rng(71)
    amplitudes = rng.normal(size=(16, 50)) + 1j * rng.normal(size=(16, 50))
    stacks = _pair_blocks(amplitudes / np.linalg.norm(amplitudes, axis=0), 1, ALL_PAIRS)
    assert all(blocks.shape[1:] == (4, 4, 50) for blocks in stacks)  # time-last: g x 4 x k x T
    for blocks in stacks:
        assert np.array_equal(_block_concurrences(blocks), kernel_sweep.dense_signed(blocks))


@pytest.mark.parametrize("name, traced", [("AB", 9), ("Aa", 6)])
def test_block_kernel_is_the_dense_svd_past_four_traced_levels(name, traced):
    # at cutoff 2 tau is k x k with k > 4: its four largest singular values sort to the end, and only the last four
    # columns give lambda_1..4; a dense tau is one block, which goes to the batched SVD whole
    rng = np.random.default_rng(83)
    amplitudes = rng.normal(size=(36, 50)) + 1j * rng.normal(size=(36, 50))
    if name == "Aa":  # its retained mode a holds at most one photon; B and b are traced
        amplitudes[np.indices(basis_shape(2)).reshape(4, -1)[2] == 2] = 0.0
    [blocks] = _pair_blocks(amplitudes / np.linalg.norm(amplitudes, axis=0), 2, [SubsystemPair(name)])
    assert blocks.shape == (1, 4, traced, 50)
    assert np.array_equal(_block_concurrences(blocks), kernel_sweep.dense_signed(blocks))


def test_block_kernel_matches_the_dense_svd_on_hard_blocks_and_sector_supported_states():
    found = kernel_sweep.sweep(500, seed=79)
    assert {name: bad[:3] for name, bad in found.items() if bad} == {}


def test_partial_transpose_sign_is_the_wootters_death_verdict():
    # a second death oracle that shares no code with the kernel: for two qubits rho is separable exactly when its
    # partial transpose is positive, so lambda_min < 0 exactly where the signed Wootters value is > 0
    bad, decided, dead = kernel_sweep.death_sign_disagreements(60, np.random.default_rng(89))
    assert bad == []
    assert decided > 20000 and dead > 1000  # not vacuous: many decided points, many of them dead


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
