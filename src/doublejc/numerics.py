"""Brute-force numerical oracle for the double Jaynes-Cummings system.

Everything here works directly on the truncated product space: build the
full Hamiltonian, propagate exactly through its eigendecomposition, trace
down to any of the six subsystem pairs, and evaluate the concurrence of the
resulting two-qubit state.  No closed-form result enters any code path, so
this module serves as an independent check on the analytic formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DensityMatrix,
    HERMITICITY_TOL,
    ModelParams,
    NORM_TOL,
    PureState,
    TRACE_TOL,
    basis_shape,
)

__all__ = [
    "SubsystemPair",
    "ALL_PAIRS",
    "ATOM_PAIR",
    "QubitEquivalenceError",
    "build_hamiltonian",
    "total_excitation",
    "Propagator",
    "partial_trace_pair",
    "wootters_concurrence",
    "pair_concurrence",
    "pair_concurrences",
]

#: population allowed above Fock level 1 in a retained mode before the
#: two-level (qubit) description of that mode breaks down
QUBIT_EQUIV_TOL = 1e-10


class QubitEquivalenceError(RuntimeError):
    """A retained cavity mode is populated beyond one photon."""


#: the subsystems in tensor-axis order of :func:`basis_shape`: atoms A, B and
#: their cavity modes a, b (a lower-case letter is a mode)
_AXES = "ABab"


@dataclass(frozen=True)
class SubsystemPair:
    """An ordered pair of distinct subsystems named by two letters of ``ABab``; six unordered pairs exist."""

    name: str

    def __post_init__(self):
        if len(self.name) != 2 or self.name[0] == self.name[1] or not all(s in _AXES for s in self.name):
            raise ValueError(f"unknown subsystem pair {self.name!r}")

    @classmethod
    def from_name(cls, name: str) -> "SubsystemPair":
        """Parse a two-letter pair name such as ``AB`` or ``Ba``."""
        return cls(name)


#: the six pairs in conventional order: atoms, modes, own cavities, crossed
ALL_PAIRS = tuple(SubsystemPair(n) for n in ("AB", "ab", "Aa", "Bb", "Ab", "Ba"))

ATOM_PAIR = ALL_PAIRS[0]


def _basis_labels(cutoff: int) -> np.ndarray:
    """(atom_a, atom_b, n_a, n_b) of every flattened basis index; an excited atom is 1."""
    return np.indices(basis_shape(cutoff)).reshape(4, -1)


def build_hamiltonian(params: ModelParams, cutoff: int) -> np.ndarray:
    """Full Hamiltonian of the two independent atom-cavity pairs.

    H = omega(|e><e|_A + |e><e|_B) + nu(n_a + n_b)
        + g(a^dag sm_A + a sp_A) + g(b^dag sm_B + b sp_B)

    with the atomic ground state at zero energy.  The rotating-wave coupling
    conserves the total excitation number, also on the truncated space.
    """
    shape = basis_shape(cutoff)
    # flattened-index step of one level along each axis
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    atom_a, atom_b, n_a, n_b = _basis_labels(cutoff)
    h = np.diag(params.omega * (atom_a + atom_b) + params.nu * (n_a + n_b)).astype(complex)
    index = np.arange(h.shape[0])
    # g sqrt(n+1) couples |e,n> to |g,n+1> within each pair: the flattened
    # index drops by the atom's stride and rises by its mode's
    for atom, n, shift in ((atom_a, n_a, strides[0] - strides[2]), (atom_b, n_b, strides[1] - strides[3])):
        e_n = index[(atom == 1) & (n < cutoff)]
        h[e_n, e_n - shift] = h[e_n - shift, e_n] = params.g * np.sqrt(n[e_n] + 1)
    return h


def total_excitation(cutoff: int) -> np.ndarray:
    """Total excitation number |e><e|_A + |e><e|_B + n_a + n_b."""
    return np.diag(_basis_labels(cutoff).sum(axis=0).astype(float))


class Propagator:
    """Exact propagator exp(-iHt) through one shared eigendecomposition.

    Diagonalizing once and reusing the eigenbasis makes dense time grids
    cheap; evolution is exact at any t, with no step-size error.
    """

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("operator must be a square matrix")
        if np.abs(h - h.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("operator must be Hermitian")
        self.energies, self.modes = np.linalg.eigh(h)

    def evolve(self, state0: PureState, t: float) -> PureState:
        """State at time t from ``state0`` at time 0."""
        return PureState(self.evolve_grid(state0, [t])[:, 0], state0.cutoff)

    def evolve_grid(self, state0: PureState, times: np.ndarray) -> np.ndarray:
        """Amplitudes at many times, one column per time point."""
        if state0.dim != self.energies.size:
            raise ValueError("state dimension does not match operator")
        coeffs = self.modes.conj().T @ state0.amplitudes
        phases = np.exp(-1j * np.outer(self.energies, np.asarray(times, dtype=float)))
        return self.modes @ (phases * coeffs[:, None])


def _pair_blocks(columns: np.ndarray, cutoff: int, pairs) -> list:
    """Stacked (T x 4 x k) factors B of each pair's reduced states, rho = B B^dagger.

    ``columns`` holds one unit-norm amplitude vector per time point.  Rows of
    B are the pair's |ee>,|eg>,|ge>,|gg> levels (a mode's ``e`` is one photon),
    columns the levels of the two traced subsystems.  Retained modes must
    behave as qubits: population above Fock level 1 beyond
    ``QUBIT_EQUIV_TOL`` at any time point raises :class:`QubitEquivalenceError` for the first such pair.
    """
    shape = basis_shape(cutoff)
    dim, steps = columns.shape
    if dim != math.prod(shape):
        raise ValueError("amplitude vector length does not match cutoff")
    if not np.all(np.abs(np.sqrt((np.abs(columns) ** 2).sum(axis=0)) - 1.0) <= NORM_TOL):
        raise ValueError("state vector must have unit norm")
    stacks = []
    for pair in pairs:
        # (T, first, second, traced, traced)
        axes = [len(shape)] + [_AXES.index(sub) for sub in pair.name]
        tensor = np.moveaxis(columns.reshape(shape + (steps,)), axes, (0, 1, 2))

        for k, sub in enumerate(pair.name, start=1):
            if sub.islower() and cutoff > 1:
                weight = (np.abs(np.moveaxis(tensor, k, 1)[:, 2:]) ** 2).reshape(steps, -1).sum(axis=1)
                over = weight > QUBIT_EQUIV_TOL
                if over.any():
                    raise QubitEquivalenceError(
                        f"mode {sub} holds population {weight[np.argmax(over)]:.3e} above one photon"
                    )

        # excited-first ordering for both atoms (g,e) and modes (0,1)
        blocks = tensor[:, 1::-1, 1::-1].reshape(steps, 4, -1)
        trace = (np.abs(blocks) ** 2).sum(axis=(1, 2))
        # mass discarded with the >1-photon tail (still below QUBIT_EQUIV_TOL)
        drifted = np.abs(trace - 1.0) > TRACE_TOL
        stacks.append(blocks / np.sqrt(np.where(drifted, trace, 1.0))[:, None, None])
    return stacks


def partial_trace_pair(state: PureState, pair: SubsystemPair) -> DensityMatrix:
    """Reduced density matrix of a subsystem pair, in the |ee>,|eg>,|ge>,|gg> basis.

    Retained cavity modes must behave as qubits: any population above Fock
    level 1 beyond ``QUBIT_EQUIV_TOL`` raises :class:`QubitEquivalenceError`.
    """
    [[block]] = _pair_blocks(state.amplitudes[:, None], state.cutoff, [pair])
    return DensityMatrix(block @ block.conj().T)


# sigma_y (x) sigma_y in the |ee>,|eg>,|ge>,|gg> ordering, with
# sigma_y = [[0, -i], [i, 0]] on (excited, ground)
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)


def _block_concurrences(stacks) -> list:
    """Concurrence of each rho = B B^dagger in a list of (T x 4 x k) stacks of equal T.

    For any decomposition rho = B B^dagger the Wootters lambda_i are the
    singular values of tau = B^T (sy x sy) B (Wootters, PRL 80, 2245, 1998),
    so C = max{0, lambda_1 - lambda_2 - lambda_3 - lambda_4} needs neither
    sqrt(rho) nor an eigendecomposition.  tau has rank at most 4.  All stacks
    with the same k go through one tau product and one batched SVD.
    """
    lam = {}
    for k in {blocks.shape[-1] for blocks in stacks}:
        same = [i for i, blocks in enumerate(stacks) if blocks.shape[-1] == k]
        blocks = np.concatenate([stacks[i] for i in same])
        singular = np.linalg.svd(np.swapaxes(blocks, 1, 2) @ _SPIN_FLIP @ blocks, compute_uv=False)
        lam.update(zip(same, np.split(singular, len(same))))
    return [np.clip(x[:, 0] - x[:, 1] - x[:, 2] - x[:, 3], 0.0, 1.0) for _, x in sorted(lam.items())]


def pair_concurrences(columns: np.ndarray, cutoff: int, pair: SubsystemPair) -> np.ndarray:
    """Concurrence of a subsystem pair at every time point, from one batched SVD.

    ``columns`` is the dim x T amplitude array that :meth:`Propagator.evolve_grid` returns.
    """
    return _block_concurrences(_pair_blocks(columns, cutoff, [pair]))[0]


def wootters_concurrence(rho: DensityMatrix | np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    C = max{0, lambda1 - lambda2 - lambda3 - lambda4} with lambda_i the
    descending square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).
    They are taken as the singular values of tau = B^T (sy x sy) B for
    B = V sqrt(w) from the eigendecomposition rho = V w V^dagger, which stays
    accurate when the lambda_i collide near a zero crossing.  Small positive
    eigenvalues are kept: a weight of 1e-14 still moves C by about 1e-7.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    evals, evecs = np.linalg.eigh(rho.entries)
    return float(_block_concurrences([(evecs * np.sqrt(np.maximum(evals, 0.0)))[None]])[0][0])


def pair_concurrence(state: PureState, pair: SubsystemPair) -> float:
    """Concurrence between two subsystems of a pure total state."""
    return float(pair_concurrences(state.amplitudes[:, None], state.cutoff, pair)[0])
