"""Brute-force numerical oracle for the double Jaynes-Cummings system.

Everything here works directly on the truncated product space: build the full
Hamiltonian as one atom-cavity pair's taken twice (in the lab frame, or for
the oracle rotating at nu), propagate exactly through the eigendecomposition
of each block of its exact nonzero pattern, trace down to any of the six
subsystem pairs, and evaluate the concurrence of the resulting two-qubit state
from the blocks of the exact nonzero pattern of its Wootters matrix; the
analyses read all three from one chunked pass over a cached propagator.  No
closed-form result enters any code path, so it checks them independently.
"""

from __future__ import annotations

import functools
import itertools
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
    _basis_labels,
    _check_time,
    basis_shape,
    initial_state_vector,
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
]

#: population allowed above Fock level 1 in a retained mode before the
#: two-level (qubit) description of that mode breaks down
QUBIT_EQUIV_TOL = 1e-10

#: columns (initial states x time points) the oracle propagates and reduces at once; bounds its working set
GRID_CHUNK = 1024


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
        """Parse a pair name such as ``AB``; only perfbench/ calls it, the package uses the constructor."""
        return cls(name)


#: the six pairs in conventional order: atoms, modes, own cavities, crossed
ALL_PAIRS = tuple(SubsystemPair(n) for n in ("AB", "ab", "Aa", "Bb", "Ab", "Ba"))

ATOM_PAIR = ALL_PAIRS[0]


def _two_pairs(atom: float, mode: float, g: float, cutoff: int) -> np.ndarray:
    """H_pair (x) 1 + 1 (x) H_pair of two identical pairs that never interact, in the package's (A, B, a, b) order.

    H_pair = atom |e><e| + mode n + g(a^dag sm + a sp) over |atom, n>, ground first; its largest diagonal entry,
    2 atom + 2 cutoff mode, must be finite in the frame it builds: (omega, nu) in the lab, (delta, 0) rotating at nu."""
    if not math.isfinite(2 * atom + 2 * cutoff * mode):
        raise ValueError("Hamiltonian diagonal 2*atom + 2*cutoff*mode is not finite")
    n = np.arange(basis_shape(cutoff)[-1])  # photon numbers 0..cutoff of a mode
    pair = np.diag(np.add.outer([0.0, atom], mode * n).ravel()).reshape(2, n.size, 2, n.size)  # axes (A, a, A', a')
    pair[0, n[1:], 1, n[:-1]] = pair[1, n[:-1], 0, n[1:]] = g * np.sqrt(n[1:])  # g sqrt(n+1) joins |e,n> and |g,n+1>
    eye = np.eye(2 * n.size).reshape(pair.shape)
    both = np.multiply.outer(pair, eye) + np.multiply.outer(eye, pair)  # axes (A, a, A', a', B, b, B', b')
    return both.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(4 * n.size**2, -1).astype(complex)


def build_hamiltonian(params: ModelParams, cutoff: int) -> np.ndarray:
    """Full lab-frame Hamiltonian of the two independent atom-cavity pairs: :func:`_two_pairs` at (omega, nu).

    H = omega(|e><e|_A + |e><e|_B) + nu(n_a + n_b) + g(a^dag sm_A + a sp_A) + g(b^dag sm_B + b sp_B), with the atomic
    ground state at zero energy; the rotating-wave coupling conserves the total excitation number, truncated too."""
    return _two_pairs(params.omega, params.nu, params.g, cutoff)


def total_excitation(cutoff: int) -> np.ndarray:
    """Total excitation number |e><e|_A + |e><e|_B + n_a + n_b."""
    return np.diag(_basis_labels(cutoff).sum(axis=0).astype(float))


def _blocks(pattern: np.ndarray) -> list:
    """Connected components of a symmetric n x n boolean pattern, one (count x size) index array per size.

    Each index takes the least label among its neighbours and then that label's own
    label, until no label changes; each component is then labelled by its least index.
    """
    link = pattern | np.eye(n := len(pattern), dtype=bool)
    labels = np.arange(n)
    while not np.array_equal(least := np.where(link, labels, n).min(axis=1), labels):
        labels = least[least]
    order = np.argsort(labels * n + np.arange(n))  # each component's indices together, ascending
    sizes = np.bincount(labels, minlength=n)[labels[order]]
    return [order[sizes == size].reshape(-1, size) for size in dict.fromkeys(sizes.tolist())]


class Propagator:
    """Exact propagator exp(-iHt) through one shared eigendecomposition.

    Diagonalizing once and reusing the eigenbasis makes dense time grids
    cheap; evolution is exact at any t, with no step-size error.  Each
    connected block of H's exact nonzero pattern (for :func:`build_hamiltonian`
    the (N_A, N_B) excitation sectors) is diagonalised on its own, about its
    mean diagonal, in one batched ``eigh`` per block size, so amplitudes
    outside the blocks a state occupies stay exactly 0.
    """

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("operator must be a square matrix")
        if not (np.isfinite(h).all() and np.abs(h - h.conj().T).max() <= HERMITICITY_TOL):  # no inf is subtracted
            raise ValueError("operator must be Hermitian with finite entries")
        self.energies, self.modes = np.empty(len(h)), np.zeros_like(h)
        for index in _blocks((h != 0) | (h.T != 0)):
            size = index.shape[1]
            rows, cols = index[:, :, None], index[:, None, :]
            shift = (h[index, index].real.sum(axis=1) / size)[:, None, None]  # the mean, as np.mean forms it
            energies, self.modes[rows, cols] = np.linalg.eigh(h[rows, cols] - shift * np.eye(size))
            self.energies[index] = energies + shift[..., 0]
        self.energies.flags.writeable = self.modes.flags.writeable = False  # shared through the analysis cache
        self._max_energy = float(np.abs(self.energies).max())  # max|E|, which bounds every phase E t

    def evolve(self, state0: PureState, t: float) -> PureState:
        """State at time t from ``state0`` at time 0."""
        return PureState(self.evolve_grid(state0, [t])[:, 0], state0.cutoff)

    def evolve_grid(self, states, times: np.ndarray) -> np.ndarray:
        """Amplitudes at many finite, nonnegative times: dim x T for one state, dim x S x T for a sequence of S.

        The phases exp(-iEt) are formed only for the eigenmodes that some state occupies:
        the others have coefficient exactly 0 and would add exact zeros to every amplitude.
        """
        _check_time(times)
        times = np.asarray(times, dtype=float)
        if not math.isfinite(self._max_energy * float(times.max(initial=0.0))):
            raise ValueError("propagation phase max|E| * max(t) is not finite")
        single = isinstance(states, PureState)
        amplitudes = states.amplitudes[:, None] if single else np.stack([state.amplitudes for state in states], axis=1)
        if amplitudes.shape[0] != self.energies.size:
            raise ValueError("state dimension does not match operator")
        coeffs = self.modes.conj().T @ amplitudes
        occupied = (coeffs != 0).any(axis=1).nonzero()[0]
        phases = np.exp(-1j * np.outer(self.energies[occupied], times))
        weighted = (phases[:, None, :] * coeffs[occupied, :, None]).reshape(occupied.size, -1)
        columns = self.modes[:, occupied] @ weighted
        return columns if single else columns.reshape(len(columns), amplitudes.shape[1], times.size)


@functools.lru_cache(maxsize=64)
def _gather_plan(cutoff: int, names: tuple) -> list:
    """[g x 4 x k flat basis indices] of the named pairs' blocks B, one per run of equal k (see _pair_blocks)."""
    flat = np.arange(math.prod(basis_shape(cutoff))).reshape(basis_shape(cutoff))
    # excited-first ordering for both atoms (g,e) and modes (0,1)
    indices = [np.moveaxis(flat, [_AXES.index(sub) for sub in name], (0, 1))[1::-1, 1::-1].reshape(4, -1)
               for name in names]
    return [np.stack(list(run)) for _, run in itertools.groupby(indices, lambda index: index.shape[1])]


def _pair_blocks(columns: np.ndarray, cutoff: int, pairs) -> list:
    """Factors B of the pairs' reduced states, rho = B B^dagger, as g x 4 x k x T stacks in pair order.

    ``columns`` holds one unit-norm amplitude vector per time point (of one state or several), and
    the stacks keep that axis last, so every elementwise step of the kernel runs along it.  Rows of B are the
    pair's |ee>,|eg>,|ge>,|gg> levels (a mode's ``e`` is one photon), columns the levels
    of the two traced subsystems; each run of g consecutive pairs of equal k shares one gather
    and one stack.  Retained modes must behave as qubits: population above Fock level 1
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
    for index in _gather_plan(cutoff, tuple(pair.name for pair in pairs)):
        blocks = columns[index]
        # mass discarded with the >1-photon tail (still below QUBIT_EQUIV_TOL)
        trace = population[index].sum(axis=(1, 2))
        drifted = np.abs(trace - 1.0) > TRACE_TOL
        if drifted.any():
            blocks = blocks / np.sqrt(np.where(drifted, trace, 1.0))[:, None, None, :]
        stacks.append(blocks)
    return stacks


def partial_trace_pair(state: PureState, pair: SubsystemPair) -> DensityMatrix:
    """Reduced density matrix of a subsystem pair, in the |ee>,|eg>,|ge>,|gg> basis.

    Retained cavity modes must behave as qubits: any population above Fock
    level 1 beyond ``QUBIT_EQUIV_TOL`` raises :class:`QubitEquivalenceError`.
    """
    [blocks] = _pair_blocks(state.amplitudes[:, None], state.cutoff, [pair])
    block = blocks[0, :, :, 0]
    return DensityMatrix(block @ block.conj().T)


def _svd2(m: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a stack of complex 2 x 2 matrices: ... x 2 x 2 x T to ... x 2 x T.

    The stack's axis T comes last, so every step runs along it.
    Each matrix is multiplied by the reciprocal of a power of two at or above its largest modulus (exact, and 1
    for a zero matrix), so its products neither overflow nor underflow; the power is at least 2^-1021, which keeps
    that reciprocal finite, and scaled entries reach the values only through moduli, so no sign of a zero does.
    A unitary Givens rotation of its first column and two phases bring it to the real upper triangle [[f, g], [0, h]],
    whose singular values follow as in LAPACK's dlas2: the larger from two hypotenuses, the smaller as f h over it.
    """
    modulus = np.abs(m)
    exponent = np.maximum(np.frexp(modulus.max(axis=(-3, -2)))[1], -1021)[..., None, :]
    inverse = np.ldexp(1.0, -exponent)[..., None, :]
    (a, b, c, d), (abs_a, abs_b, abs_c, abs_d) = ([array[..., i // 2, i % 2, :] for i in range(4)]
                                                  for array in (m * inverse, modulus * inverse))
    f = np.hypot(abs_a, abs_c)
    rotated = f > 0  # else the first column is zero and [[0, b], [0, d]] needs no rotation
    over = np.where(rotated, f, 1.0)
    g = np.where(rotated, np.abs(a.conj() * b + c.conj() * d) / over, abs_b)
    h = np.where(rotated, np.abs(a * d - b * c) / over, abs_d)
    large = 0.5 * (np.hypot(f + h, g) + np.hypot(f - h, g))  # 0 only for a zero matrix
    return np.stack([large, f * h / np.maximum(large, np.finfo(float).tiny)], -2) * np.ldexp(1.0, exponent)


@functools.lru_cache(maxsize=64)
def _block_plan(pattern: bytes, pairs: int, k: int) -> list:
    """[(g_s x s x s flat indices into a g x k x k pattern, g_s s flat slots in g x k)], one per block size s.

    The blocks are the connected components of each k x k matrix's symmetric nonzero
    ``pattern``; each block's s singular values go to the slots of its own s indices.
    """
    link = np.frombuffer(pattern, dtype=bool).reshape(pairs, k, k)
    # the g patterns as one block-diagonal (g k) x (g k) pattern: index p k + i is row i of matrix p
    whole = (np.eye(pairs, dtype=bool)[:, None, :, None] & link[:, :, None, :]).reshape(pairs * k, pairs * k)
    return [(index[:, :, None] * k + index[:, None, :] % k, index.ravel())
            for index in _blocks(whole)]


def _block_concurrences(blocks: np.ndarray) -> np.ndarray:
    """Signed lambda_1 - lambda_2 - lambda_3 - lambda_4, g x T, of one g x 4 x k x T :func:`_pair_blocks` stack.

    For any decomposition rho = B B^dagger the Wootters lambda_i are the singular
    values of tau = B^T (sy x sy) B (Wootters, PRL 80, 2245, 1998), with neither
    sqrt(rho) nor an eigendecomposition; tau has rank at most 4.  sy x sy only
    reverses and signs the rows b_0..b_3 of B, so tau = P + P^T with
    P = b_1 (x) b_2 - b_0 (x) b_3.  Its singular values are those of the blocks of its
    exact nonzero pattern over the batch (for the named families each pair conserves its
    excitation number, so it splits; a dense tau is one block): |tau_jj| for a 1 x 1
    block, :func:`_svd2` for a 2 x 2 one and a batched SVD for larger ones.
    Clipped into [0, 1] the value is the concurrence, and below zero it marks sudden death.
    """
    b0, b1, b2, b3 = (blocks[:, r] for r in range(4))
    p = b1[:, :, None] * b2[:, None] - b0[:, :, None] * b3[:, None]
    tau = p + np.swapaxes(p, 1, 2)
    pairs, k, _, steps = tau.shape
    flat, x = tau.reshape(-1, steps), np.empty((pairs * k, steps))
    for gather, slots in _block_plan(np.any(tau != 0, axis=-1).tobytes(), pairs, k):
        part, size = flat[gather], gather.shape[-1]
        values = (np.abs(part) if size == 1 else _svd2(part) if size == 2 else
                  np.moveaxis(np.linalg.svd(np.moveaxis(part, -1, 0), compute_uv=False), 0, -1))
        x[slots] = values.reshape(-1, steps)
    x = np.sort(x.reshape(pairs, k, steps), axis=1)  # ascending: the largest four are the last
    return x[:, -1] - x[:, -2] - x[:, -3] - x[:, -4]


@functools.lru_cache(maxsize=8)
def _propagator(params: ModelParams, cutoff: int) -> Propagator:
    """The oracle's propagator, diagonalised once per (params, cutoff) while among the 8 most recent.

    Its frame rotates at nu, which changes no pair's concurrence: delta = omega - nu on each excited atom, not the
    rounded lab entries omega + nu n, and no energy of the scale of nu."""
    return Propagator(_two_pairs(params.omega - params.nu, 0.0, params.g, cutoff))


def _oracle_pass(inits, params: ModelParams, pairs, times: np.ndarray, cutoff: int):
    """Yield (states, part, columns, stacks, signed) per chunk of at most GRID_CHUNK columns of the exact propagation.

    ``states`` slices ``inits`` and ``part`` the grid, and a chunk's states share one propagation: ``columns`` holds
    its dim x states x part amplitudes, ``stacks`` their :func:`_pair_blocks` in pair order and ``signed`` the pairs x
    states x part signed Wootters rows, one kernel call per run of equal-k pairs.
    """
    propagator, states0 = _propagator(params, cutoff), [initial_state_vector(init, cutoff) for init in inits]
    for first in range(0, len(states0), GRID_CHUNK):
        group = slice(first, first + GRID_CHUNK)
        width = GRID_CHUNK // len(states0[group])
        for start in range(0, times.size, width):
            part = slice(start, start + width)
            columns = propagator.evolve_grid(states0[group], times[part])
            stacks = _pair_blocks(columns.reshape(len(columns), -1), cutoff, pairs)
            signed = np.concatenate([_block_concurrences(blocks) for blocks in stacks])
            yield group, part, columns, stacks, signed.reshape((len(pairs),) + columns.shape[1:])
            del columns, stacks, signed  # not held here while the next chunk propagates


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
    block = (evecs * np.sqrt(np.maximum(evals, 0.0)))[None, :, :, None]
    return float(np.clip(_block_concurrences(block)[0, 0], 0.0, 1.0))


def pair_concurrence(state: PureState, pair: SubsystemPair) -> float:
    """Concurrence between two subsystems of a pure total state."""
    [blocks] = _pair_blocks(state.amplitudes[:, None], state.cutoff, [pair])
    return float(np.clip(_block_concurrences(blocks)[0, 0], 0.0, 1.0))
