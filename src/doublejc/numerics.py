"""Brute-force numerical oracle for the double Jaynes-Cummings system.

Everything here works directly on the truncated product space: build the
full Hamiltonian, propagate exactly through its eigendecomposition, trace
down to any of the six subsystem pairs, and evaluate the concurrence of the
resulting two-qubit state.  No closed-form result enters any code path, so
this module serves as an independent check on the analytic formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    DensityMatrix,
    HERMITICITY_TOL,
    ModelParams,
    NORM_TOL,
    PureState,
    TRACE_TOL,
    basis_dimension,
)

__all__ = [
    "Subsystem",
    "SubsystemPair",
    "ALL_PAIRS",
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


class Subsystem(Enum):
    """The four elementary subsystems; values are the conventional short names."""

    ATOM_A = "A"
    ATOM_B = "B"
    MODE_A = "a"
    MODE_B = "b"

    @property
    def axis(self) -> int:
        """Tensor axis of this subsystem in the (atomA, atomB, modeA, modeB) layout."""
        return ("A", "B", "a", "b").index(self.value)

    @property
    def is_mode(self) -> bool:
        return self.value.islower()


@dataclass(frozen=True)
class SubsystemPair:
    """An ordered pair of distinct subsystems; six unordered pairs exist."""

    first: Subsystem
    second: Subsystem

    def __post_init__(self):
        if self.first is self.second:
            raise ValueError("pair members must be distinct")

    @property
    def name(self) -> str:
        return self.first.value + self.second.value

    @classmethod
    def from_name(cls, name: str) -> "SubsystemPair":
        """Parse a two-letter pair name such as ``AB`` or ``Ba``."""
        if len(name) != 2:
            raise ValueError(f"unknown subsystem pair {name!r}")
        try:
            return cls(Subsystem(name[0]), Subsystem(name[1]))
        except ValueError:
            raise ValueError(f"unknown subsystem pair {name!r}") from None


#: the six pairs in conventional order: atoms, modes, own cavities, crossed
ALL_PAIRS = tuple(
    SubsystemPair.from_name(n) for n in ("AB", "ab", "Aa", "Bb", "Ab", "Ba")
)

ATOM_PAIR = ALL_PAIRS[0]


def _basis_labels(cutoff: int) -> np.ndarray:
    """(atom_a, atom_b, n_a, n_b) of every flattened basis index; an excited atom is 1."""
    d = cutoff + 1
    return np.indices((2, 2, d, d)).reshape(4, -1)


def build_hamiltonian(params: ModelParams, cutoff: int) -> np.ndarray:
    """Full Hamiltonian of the two independent atom-cavity pairs.

    H = omega(|e><e|_A + |e><e|_B) + nu(n_a + n_b)
        + g(a^dag sm_A + a sp_A) + g(b^dag sm_B + b sp_B)

    with the atomic ground state at zero energy.  The rotating-wave coupling
    conserves the total excitation number, also on the truncated space.
    """
    if cutoff < 1:
        raise ValueError("Fock cutoff must be at least 1")
    d = cutoff + 1
    atom_a, atom_b, n_a, n_b = _basis_labels(cutoff)
    h = np.diag(params.omega * (atom_a + atom_b) + params.nu * (n_a + n_b)).astype(complex)
    index = np.arange(h.shape[0])
    # g sqrt(n+1) couples |e,n> to |g,n+1> within each pair: the flattened
    # index drops by the atom's stride and rises by its mode's
    for atom, n, shift in ((atom_a, n_a, 2 * d * d - d), (atom_b, n_b, d * d - 1)):
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


def _pair_blocks(columns: np.ndarray, cutoff: int, pair: SubsystemPair) -> np.ndarray:
    """Stacked (T x 4 x k) factors B of the pair's reduced states, rho = B B^dagger.

    ``columns`` holds one unit-norm amplitude vector per time point.  Rows of
    B are the pair's |ee>,|eg>,|ge>,|gg> levels (a mode's ``e`` is one photon),
    columns the levels of the two traced subsystems.  Retained modes must
    behave as qubits: population above Fock level 1 beyond
    ``QUBIT_EQUIV_TOL`` at any time point raises :class:`QubitEquivalenceError`.
    """
    d = cutoff + 1
    dim, steps = columns.shape
    if dim != basis_dimension(cutoff):
        raise ValueError("amplitude vector length does not match cutoff")
    if not np.all(np.abs(np.sqrt((np.abs(columns) ** 2).sum(axis=0)) - 1.0) <= NORM_TOL):
        raise ValueError("state vector must have unit norm")
    # (T, first, second, traced, traced)
    tensor = np.moveaxis(columns.reshape(2, 2, d, d, steps), (4, pair.first.axis, pair.second.axis), (0, 1, 2))

    for k, sub in enumerate((pair.first, pair.second), start=1):
        if sub.is_mode and d > 2:
            weight = (np.abs(np.moveaxis(tensor, k, 1)[:, 2:]) ** 2).reshape(steps, -1).sum(axis=1)
            over = weight > QUBIT_EQUIV_TOL
            if over.any():
                raise QubitEquivalenceError(
                    f"mode {sub.value} holds population {weight[np.argmax(over)]:.3e} above one photon"
                )

    # excited-first ordering for both atoms (g,e) and modes (0,1)
    blocks = tensor[:, 1::-1, 1::-1].reshape(steps, 4, -1)
    trace = (np.abs(blocks) ** 2).sum(axis=(1, 2))
    # mass discarded with the >1-photon tail (still below QUBIT_EQUIV_TOL)
    drifted = np.abs(trace - 1.0) > TRACE_TOL
    return blocks / np.sqrt(np.where(drifted, trace, 1.0))[:, None, None]


def partial_trace_pair(state: PureState, pair: SubsystemPair) -> DensityMatrix:
    """Reduced density matrix of a subsystem pair, in the |ee>,|eg>,|ge>,|gg> basis.

    Retained cavity modes must behave as qubits: any population above Fock
    level 1 beyond ``QUBIT_EQUIV_TOL`` raises :class:`QubitEquivalenceError`.
    """
    block = _pair_blocks(state.amplitudes[:, None], state.cutoff, pair)[0]
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


def _block_concurrences(blocks: np.ndarray) -> np.ndarray:
    """Concurrence of each rho = B B^dagger in a (T x 4 x k) stack.

    For any decomposition rho = B B^dagger the Wootters lambda_i are the
    singular values of tau = B^T (sy x sy) B (Wootters, PRL 80, 2245, 1998),
    so C = max{0, lambda_1 - lambda_2 - lambda_3 - lambda_4} needs neither
    sqrt(rho) nor an eigendecomposition.  tau has rank at most 4.
    """
    tau = np.swapaxes(blocks, 1, 2) @ _SPIN_FLIP @ blocks
    lam = np.linalg.svd(tau, compute_uv=False)
    return np.clip(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0, 1.0)


def pair_concurrences(columns: np.ndarray, cutoff: int, pair: SubsystemPair) -> np.ndarray:
    """Concurrence of a subsystem pair at every time point, from one batched SVD.

    ``columns`` is the dim x T amplitude array that :meth:`Propagator.evolve_grid` returns.
    """
    return _block_concurrences(_pair_blocks(columns, cutoff, pair))


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
    return float(_block_concurrences((evecs * np.sqrt(np.maximum(evals, 0.0)))[None])[0])


def pair_concurrence(state: PureState, pair: SubsystemPair) -> float:
    """Concurrence between two subsystems of a pure total state."""
    return float(pair_concurrences(state.amplitudes[:, None], state.cutoff, pair)[0])
