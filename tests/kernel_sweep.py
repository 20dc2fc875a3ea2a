"""Cross-check of the oracle's block Wootters kernel against a dense SVD of the same tau, and of its death verdicts.

    python tests/kernel_sweep.py COUNT [--seed N]

The oracle takes the Wootters lambda_i as the singular values of the blocks of
tau's exact nonzero pattern (``doublejc.numerics._block_concurrences``), with a
closed formula for 2 x 2 blocks (``_svd2``).  This script checks both against
``np.linalg.svd``, and the scaling inside ``_svd2`` against its older form:

* COUNT random hard 2 x 2 blocks of each kind (rank one, equal singular values,
  zero rows and columns, complex-symmetric, random), each scaled by 10^e with
  e in [-160, 150]: every singular value within ``BLOCK_ULPS`` eps ||B||_2 of
  LAPACK's.  Both sides round: against 40-digit values the formula is off by
  at most 2.8 and LAPACK by 2.7 of that unit (3000 blocks), so over many
  blocks the two differ by more than 4 (5.0 at most over a million blocks);
* COUNT random custom states supported on random (N_A, N_B) excitation sectors
  at cutoffs 1 and 2, propagated over a short grid at random (delta, G): the
  signed lambda_1 - lambda_2 - lambda_3 - lambda_4 of every pair the state
  allows, within ``SIGNED_TOL`` of the dense SVD of the same tau;
* COUNT such states again, within the cutoff and drawn in batches of 2 to 6,
  each batch propagated and reduced in one ``doublejc.numerics._oracle_pass``:
  every state's rows within ``SIGNED_TOL`` of the same pass on that state alone
  (a batch shares one block pattern, so a block may be larger than the state's
  own);
* COUNT random hard 2 x 2 blocks of each kind again, scaled by 10^e with e in
  [-300, 300]: ``_svd2``, which multiplies each block by the reciprocal of its
  power-of-two scale, equal bit for bit to ``divided_svd2``, which divides by
  that scale.  Both scalings are exact, so a mismatch means that the platform
  rounds one of them;
* COUNT / 20 random psi, phi and custom states at cutoffs 1 and 2, all six pairs
  over 101 times of one ``_oracle_pass``: the smallest eigenvalue of the partial
  transpose of rho = B B^dagger, from one batched ``eigvalsh``, negative exactly
  where the signed Wootters row is positive.  A two-qubit state is separable
  exactly when its partial transpose is positive (Peres, PRL 77, 1413, 1996;
  Horodecki, Horodecki and Horodecki, Phys. Lett. A 223, 1, 1996), so this
  death verdict shares no code with the kernel's.  Only points where both are
  decided count: |signed| above ``DECIDED_SIGNED`` and |lambda_min| above
  ``DECIDED_EIGENVALUE``; near a zero the partial-transpose eigenvalue can go
  like the square of the concurrence, as it does for psi.

The kernel's stacks keep the time axis last (g x 4 x k x T, and 2 x 2 x T for
``_svd2``), and so do the blocks here.

The 2 x 2 formula rests on ``np.hypot``, exact scaling and exact complex
rounding, which a platform's numpy or libm could change: the test suite runs a
small count, CI a large one.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from doublejc import (  # noqa: E402
    ALL_PAIRS, InitialState, ModelParams, Propagator, PureState, StateFamily, basis_shape, build_hamiltonian,
)
from doublejc.numerics import _block_concurrences, _oracle_pass, _pair_blocks, _svd2  # noqa: E402

#: allowed distance of the block kernel's signed Wootters value from the dense SVD's
SIGNED_TOL = 1e-15
#: allowed distance of a 2 x 2 block's singular values from LAPACK's, in units of eps * ||B||_2
BLOCK_ULPS = 8
#: a point's death verdict counts only where |signed Wootters value| and |smallest partial-transpose eigenvalue|
#: both exceed these
DECIDED_SIGNED, DECIDED_EIGENVALUE = 1e-9, 1e-12


def complex_normal(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def hard_blocks(count: int, rng, decades: tuple = (-160, 150)) -> dict:
    """2 x 2 x count complex blocks of each hard kind (one block per last index), by name, each scaled by 10^e with e
    drawn from the inclusive range ``decades``."""
    unitary = np.linalg.qr(complex_normal(rng, count, 2, 2))[0]
    zeroed = complex_normal(rng, count, 2, 2)
    # zero one row, one column, both (one entry left) or everything, by the two mask bits
    rows, cols = rng.integers(0, 3, (2, count))
    zeroed[rows < 2, rows[rows < 2], :] = 0.0
    zeroed[cols < 2, :, cols[cols < 2]] = 0.0
    symmetric = complex_normal(rng, count, 2, 2)
    symmetric[:, 1, 0] = symmetric[:, 0, 1]
    kinds = {
        "rank one": complex_normal(rng, count, 2, 1) * complex_normal(rng, count, 1, 2),
        "equal singular values": unitary * np.exp(1j * rng.uniform(0, 2 * math.pi, (count, 1, 1))),
        "zero rows and columns": zeroed,
        "complex-symmetric": symmetric,
        "random": complex_normal(rng, count, 2, 2),
    }
    return {name: np.moveaxis(blocks * 10.0 ** rng.integers(decades[0], decades[1] + 1, (count, 1, 1)), 0, -1)
            for name, blocks in kinds.items()}


def block_mismatches(blocks: np.ndarray) -> list:
    """(block, singular values, dense SVD's) wherever they differ by more than BLOCK_ULPS eps ||B||_2."""
    got = _svd2(blocks)
    want = np.linalg.svd(np.moveaxis(blocks, -1, 0), compute_uv=False).T
    bad = np.abs(got - want).max(axis=0) > BLOCK_ULPS * np.finfo(float).eps * want[0]
    return [(block.tolist(), g.tolist(), w.tolist())
            for block, g, w in zip(np.moveaxis(blocks[..., bad], -1, 0), got[:, bad].T, want[:, bad].T)]


def divided_svd2(m: np.ndarray) -> np.ndarray:
    """``_svd2`` with each block divided by its power-of-two scale instead of multiplied by that power's reciprocal."""
    modulus = np.abs(m)
    scale = np.ldexp(1.0, np.maximum(np.frexp(modulus.max(axis=(-3, -2)))[1], -1021))[..., None, None, :]
    (a, b), (c, d) = np.moveaxis(m / scale, (-3, -2), (0, 1))
    (abs_a, abs_b), (abs_c, abs_d) = np.moveaxis(modulus / scale, (-3, -2), (0, 1))
    f = np.hypot(abs_a, abs_c)
    rotated = f > 0
    over = np.where(rotated, f, 1.0)
    g = np.where(rotated, np.abs(a.conj() * b + c.conj() * d) / over, abs_b)
    h = np.where(rotated, np.abs(a * d - b * c) / over, abs_d)
    large = 0.5 * (np.hypot(f + h, g) + np.hypot(f - h, g))
    return np.stack([large, f * h / np.maximum(large, np.finfo(float).tiny)], -2) * scale[..., 0, :]


def scaling_mismatches(blocks: np.ndarray) -> list:
    """(block, ``_svd2``'s singular values, ``divided_svd2``'s) wherever their bits differ."""
    got, want = _svd2(blocks), divided_svd2(blocks)
    bad = (got.view(np.int64) != want.view(np.int64)).any(axis=0)
    return [(block.tolist(), g.tolist(), w.tolist())
            for block, g, w in zip(np.moveaxis(blocks[..., bad], -1, 0), got[:, bad].T, want[:, bad].T)]


def dense_signed(blocks: np.ndarray) -> np.ndarray:
    """lambda_1 - lambda_2 - lambda_3 - lambda_4, g x T, from one dense SVD of each tau of a g x 4 x k x T stack."""
    b0, b1, b2, b3 = (np.moveaxis(blocks[:, r], -1, 0) for r in range(4))  # T x g x k
    p = b1[..., :, None] * b2[..., None, :] - b0[..., :, None] * b3[..., None, :]
    x = np.linalg.svd(p + np.swapaxes(p, -1, -2), compute_uv=False)
    return (x[..., 0] - x[..., 1] - x[..., 2] - x[..., 3]).T


def sector_state(cutoff: int, rng, top: int | None = None) -> tuple:
    """A random unit state on random (N_A, N_B) sectors up to ``top`` (cutoff + 1 by default), and the pairs
    it keeps within one photon per mode."""
    atom_a, atom_b, n_a, n_b = np.indices(basis_shape(cutoff)).reshape(4, -1)
    sector_a, sector_b = atom_a + n_a, atom_b + n_b
    sectors = cutoff + 2 if top is None else top + 1
    chosen = np.zeros((cutoff + 2, cutoff + 2), dtype=bool)
    chosen[:sectors, :sectors] = rng.random((sectors, sectors)) < rng.uniform(0.2, 0.8)
    chosen[rng.integers(sectors), rng.integers(sectors)] = True
    support = chosen[sector_a, sector_b]
    amplitudes = np.where(support, complex_normal(rng, support.size), 0.0)
    # an excitation number above 1 fills the second photon level of that pair's mode
    reach = {"a": sector_a[support].max() <= 1, "b": sector_b[support].max() <= 1}
    pairs = [pair for pair in ALL_PAIRS if all(reach.get(sub, True) for sub in pair.name)]
    return PureState(amplitudes / np.linalg.norm(amplitudes), cutoff), pairs


def kernel_mismatches(count: int, rng) -> list:
    """(cutoff, pair, block kernel, dense SVD) for every pair whose signed values differ by more than SIGNED_TOL."""
    bad = []
    for _ in range(count):
        cutoff = int(rng.integers(1, 3))
        state, pairs = sector_state(cutoff, rng)
        params = ModelParams.from_detuning(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), rng.uniform(3.0, 20.0))
        columns = Propagator(build_hamiltonian(params, cutoff)).evolve_grid(state, rng.uniform(0, 20, 8))
        stacks = _pair_blocks(columns, cutoff, pairs)
        rows = (np.concatenate(list(map(reduce, stacks))) for reduce in (_block_concurrences, dense_signed))
        for pair, got, want in zip(pairs, *rows):
            if np.abs(got - want).max() > SIGNED_TOL:
                bad.append((cutoff, pair.name, got.tolist(), want.tolist()))
    return bad


def pass_rows(inits, params: ModelParams, pairs, times: np.ndarray, cutoff: int) -> np.ndarray:
    """Signed rows, pairs x states x times, of one ``_oracle_pass``."""
    rows = np.empty((len(pairs), len(inits), times.size))
    for states, part, _, _, signed in _oracle_pass(inits, params, pairs, times, cutoff):
        rows[:, states, part] = signed
    return rows


def batch_mismatches(count: int, rng) -> list:
    """(cutoff, pair, state in batch, batched row, lone row) wherever a batched state's row differs by more than
    SIGNED_TOL from its own, over about ``count`` states within the cutoff in batches of 2 to 6."""
    bad = []
    for _ in range(max(1, count // 4)):
        cutoff = int(rng.integers(1, 3))
        drawn = [sector_state(cutoff, rng, top=cutoff) for _ in range(int(rng.integers(2, 7)))]
        inits = [InitialState.custom(state.amplitudes) for state, _ in drawn]
        pairs = [pair for pair in ALL_PAIRS if all(pair in allowed for _, allowed in drawn)]
        params = ModelParams.from_detuning(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), rng.uniform(3.0, 20.0))
        times = np.sort(rng.uniform(0, 20, 8))
        batched = pass_rows(inits, params, pairs, times, cutoff)
        for j, init in enumerate(inits):
            alone = pass_rows([init], params, pairs, times, cutoff)[:, 0]
            for pair, got, want in zip(pairs, batched[:, j], alone):
                if np.abs(got - want).max() > SIGNED_TOL:
                    bad.append((cutoff, pair.name, j, got.tolist(), want.tolist()))
    return bad


def partial_transpose_min(blocks: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue, g x T, of the partial transpose over the second qubit of each rho = B B^dagger of a
    g x 4 x k x T stack, from one batched ``eigvalsh``."""
    pairs, _, _, steps = blocks.shape
    rho = np.einsum("gikt,gjkt->gtij", blocks, blocks.conj()).reshape(pairs, steps, 2, 2, 2, 2)
    return np.linalg.eigvalsh(rho.transpose(0, 1, 2, 5, 4, 3).reshape(pairs, steps, 4, 4))[..., 0]


def death_sign_disagreements(draws: int, rng) -> tuple:
    """([(cutoff, pair, time, signed, lambda_min)] wherever both are decided and disagree on death, decided points,
    decided dead points) over ``draws`` random psi, phi or custom states, all six pairs at 101 times."""
    bad, decided, dead = [], 0, 0
    for _ in range(draws):
        cutoff, kind = int(rng.integers(1, 3)), rng.choice(["psi", "phi", "custom"])
        if kind == "custom":  # one excitation at most per pair keeps every mode a qubit
            init = InitialState.custom(sector_state(cutoff, rng, top=1)[0].amplitudes)
        else:
            init = InitialState(StateFamily(kind), rng.uniform(0, math.pi / 2))
        params = ModelParams.from_detuning(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), rng.uniform(3.0, 20.0))
        times = np.linspace(0.0, rng.uniform(5, 40), 101)
        for _, part, _, stacks, signed in _oracle_pass([init], params, ALL_PAIRS, times, cutoff):
            least, signed = np.concatenate([partial_transpose_min(blocks) for blocks in stacks]), signed[:, 0]
            sure = (np.abs(signed) > DECIDED_SIGNED) & (np.abs(least) > DECIDED_EIGENVALUE)
            decided, dead = decided + int(sure.sum()), dead + int((sure & (signed < 0)).sum())
            for p, t in zip(*np.nonzero(sure & ((least < 0) != (signed > 0)))):
                bad.append((cutoff, ALL_PAIRS[p].name, float(times[part][t]), float(signed[p, t]), float(least[p, t])))
    return bad, decided, dead


def sweep(count: int, seed: int = 0) -> dict:
    """Mismatches per set: ``count`` hard blocks of each kind, ``count`` sector-supported states, batches,
    ``count`` hard blocks of each kind over 600 decades, scaled by multiplication against division, and the
    partial-transpose death verdicts of ``count`` / 20 states."""
    rng = np.random.default_rng(seed)
    found = {name: block_mismatches(blocks) for name, blocks in hard_blocks(count, rng).items()}
    found["sector-supported states"] = kernel_mismatches(count, rng)
    found["batched states"] = batch_mismatches(count, rng)
    found["reciprocal against divided scaling"] = [bad for blocks in hard_blocks(count, rng, (-300, 300)).values()
                                                   for bad in scaling_mismatches(blocks)]
    found["partial-transpose sign"] = death_sign_disagreements(max(1, count // 20), rng)[0]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("count", type=int, help="blocks of each kind, and states")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    failed = False
    for name, bad in sweep(args.count, args.seed).items():
        print(f"{name}: {len(bad)} mismatches" + "".join(f"\n  {each}" for each in bad[:5]))
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
