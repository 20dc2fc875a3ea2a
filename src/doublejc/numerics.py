"""Brute-force numerical oracle for the double Jaynes-Cummings system.

Everything here works directly on the truncated product space: build the
full Hamiltonian, propagate exactly through its eigendecomposition, trace
down to any of the six subsystem pairs, and evaluate the concurrence of the
resulting two-qubit state.  No closed-form result enters any code path, so
this module serves as an independent check on the analytic formulas.
"""

from __future__ import annotations

import functools
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
    _check_time,
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
        self.energies.flags.writeable = self.modes.flags.writeable = False  # shared through the analysis cache

    def evolve(self, state0: PureState, t: float) -> PureState:
        """State at time t from ``state0`` at time 0."""
        return PureState(self.evolve_grid(state0, [t])[:, 0], state0.cutoff)

    def evolve_grid(self, state0: PureState, times: np.ndarray) -> np.ndarray:
        """Amplitudes at many finite, nonnegative times, one column per time point."""
        _check_time(times)
        if state0.dim != self.energies.size:
            raise ValueError("state dimension does not match operator")
        coeffs = self.modes.conj().T @ state0.amplitudes
        phases = np.exp(-1j * np.outer(self.energies, np.asarray(times, dtype=float)))
        return self.modes @ (phases * coeffs[:, None])


@functools.lru_cache(maxsize=64)
def _gather_plan(cutoff: int, names: tuple) -> list:
    """[(positions, g x 4 x k flat basis indices)] of the named pairs' blocks B, one entry per k (see _pair_blocks)."""
    flat = np.arange(math.prod(basis_shape(cutoff))).reshape(basis_shape(cutoff))
    # excited-first ordering for both atoms (g,e) and modes (0,1)
    indices = [np.moveaxis(flat, [_AXES.index(sub) for sub in name], (0, 1))[1::-1, 1::-1].reshape(4, -1)
               for name in names]
    ks = [index.shape[1] for index in indices]
    groups = [tuple(i for i, k in enumerate(ks) if k == key) for key in dict.fromkeys(ks)]
    return [(same, np.stack([indices[i] for i in same])) for same in groups]


def _pair_blocks(columns: np.ndarray, cutoff: int, pairs) -> list:
    """Factors B of the pairs' reduced states, rho = B B^dagger, as [(positions, T x g x 4 x k stack)].

    ``columns`` holds one unit-norm amplitude vector per time point.  Rows of B are the
    pair's |ee>,|eg>,|ge>,|gg> levels (a mode's ``e`` is one photon), columns the levels
    of the two traced subsystems; the g pairs of equal k, at ``positions`` in ``pairs``,
    share one gather.  Retained modes must behave as qubits: population above Fock level 1
    beyond ``QUBIT_EQUIV_TOL`` at any time raises :class:`QubitEquivalenceError` for the first such pair.
    """
    shape = basis_shape(cutoff)
    dim, steps = columns.shape
    if dim != math.prod(shape):
        raise ValueError("amplitude vector length does not match cutoff")
    population = np.abs(columns) ** 2
    if not np.all(np.abs(np.sqrt(population.sum(axis=0)) - 1.0) <= NORM_TOL):
        raise ValueError("state vector must have unit norm")
    # each retained mode once, in the order its first pair comes
    for sub in dict.fromkeys(sub for pair in pairs for sub in pair.name if sub.islower() and cutoff > 1):
        weight = np.moveaxis(population.reshape(shape + (steps,)), _AXES.index(sub), 0)[2:].reshape(-1, steps).sum(0)
        over = weight > QUBIT_EQUIV_TOL
        if over.any():
            raise QubitEquivalenceError(f"mode {sub} holds population {weight[np.argmax(over)]:.3e} above one photon")
    stacks = []
    for positions, index in _gather_plan(cutoff, tuple(pair.name for pair in pairs)):
        blocks = columns.T[:, index]
        # mass discarded with the >1-photon tail (still below QUBIT_EQUIV_TOL)
        trace = population.T[:, index].sum(axis=(2, 3))
        drifted = np.abs(trace - 1.0) > TRACE_TOL
        stacks.append((positions, blocks / np.sqrt(np.where(drifted, trace, 1.0))[..., None, None]))
    return stacks


def partial_trace_pair(state: PureState, pair: SubsystemPair) -> DensityMatrix:
    """Reduced density matrix of a subsystem pair, in the |ee>,|eg>,|ge>,|gg> basis.

    Retained cavity modes must behave as qubits: any population above Fock
    level 1 beyond ``QUBIT_EQUIV_TOL`` raises :class:`QubitEquivalenceError`.
    """
    [(_, [[block]])] = _pair_blocks(state.amplitudes[:, None], state.cutoff, [pair])
    return DensityMatrix(block @ block.conj().T)


def _block_concurrences(stacks) -> list:
    """Signed lambda_1 - lambda_2 - lambda_3 - lambda_4 of each pair, in pair order, from :func:`_pair_blocks` stacks.

    For any decomposition rho = B B^dagger the Wootters lambda_i are the singular
    values of tau = B^T (sy x sy) B (Wootters, PRL 80, 2245, 1998), with neither
    sqrt(rho) nor an eigendecomposition; tau has rank at most 4.  sy x sy only
    reverses and signs the rows b_0..b_3 of B, so tau = P + P^T with
    P = b_1 (x) b_2 - b_0 (x) b_3.  Clipped into [0, 1] the value is the
    concurrence, and below zero it marks sudden death.  One batched SVD per stack.
    """
    rows = {}
    for positions, blocks in stacks:
        b0, b1, b2, b3 = (blocks[..., r, :] for r in range(4))
        p = b1[..., :, None] * b2[..., None, :] - b0[..., :, None] * b3[..., None, :]
        x = np.linalg.svd(p + np.swapaxes(p, -1, -2), compute_uv=False)
        rows.update(zip(positions, (x[..., 0] - x[..., 1] - x[..., 2] - x[..., 3]).T))
    return [rows[i] for i in range(len(rows))]


def pair_concurrences(columns: np.ndarray, cutoff: int, pair: SubsystemPair) -> np.ndarray:
    """Concurrence of a subsystem pair at every time point, from one batched SVD.

    ``columns`` is the dim x T amplitude array that :meth:`Propagator.evolve_grid` returns.
    """
    return np.clip(_block_concurrences(_pair_blocks(columns, cutoff, [pair]))[0], 0.0, 1.0)


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
    block = (evecs * np.sqrt(np.maximum(evals, 0.0)))[None, None]
    return float(np.clip(_block_concurrences([((0,), block)])[0][0], 0.0, 1.0))


def pair_concurrence(state: PureState, pair: SubsystemPair) -> float:
    """Concurrence between two subsystems of a pure total state."""
    return float(pair_concurrences(state.amplitudes[:, None], state.cutoff, pair)[0])
