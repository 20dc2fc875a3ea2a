"""Property tests of the concurrence routes over random inputs.

Examples are bounded and derandomized, so the suite stays fast and
repeatable.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doublejc import (
    ALL_PAIRS,
    ATOM_PAIR,
    InitialState,
    ModelParams,
    Propagator,
    StateFamily,
    build_hamiltonian,
    derive_constants,
    initial_state_vector,
    pair_concurrences,
    phi_concurrence,
    psi_concurrence,
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
