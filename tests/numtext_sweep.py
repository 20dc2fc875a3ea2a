"""Byte-identity sweep of the vectorised number writer against Python's own formatting.

    python tests/numtext_sweep.py COUNT [--seed N]

Formats COUNT random doubles (random bit patterns, and values spread over the
fast path's range) plus fixed hard sets, with ``doublejc._numtext.chunks`` as
``'%.17g' %`` and as ``float.__repr__``, and compares every line with Python's
text for the same number.  The hard sets are exact half-way cases at 15, 16
and 17 digits, powers of ten and of two with their neighbours, short decimals
with their neighbours, the fast path's edges, subnormals, signed zeros, NaN
and the infinities, and runs of signed zeros across chunk boundaries.  The
fast path rests on ``np.searchsorted``, ``np.floor`` and exact double
rounding, so a platform's numpy or libm could change it: the test suite runs
a small count, CI a large one.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from doublejc import _numtext  # noqa: E402

FORMATS = {"%.17g": ("%.17g".__mod__, False), "repr": (float.__repr__, True)}


def neighbours(values, reach: int = 2) -> np.ndarray:
    """``values`` and the doubles up to ``reach`` steps away on either side, both signs."""
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.int64)[:, None] + np.arange(-reach, reach + 1)
    near = bits[bits >= 0].view(np.float64)
    return np.concatenate([near, -near])


def hard_sets(rng) -> dict:
    """The structured cases, by name."""
    ties = []
    for digits in (15, 16, 17):
        for k in range(-6, 16):
            # x * 10**(digits - 1 - k) ends in exactly one half when x = odd * 2**(k - digits)
            low, high = 10.0**k * 2.0**(digits - k), min(10.0**(k + 1) * 2.0**(digits - k), 2.0**53)
            if low < high:
                odd = rng.integers(int(np.ceil(low)), int(high), 300) | 1
                ties.append(np.ldexp(odd.astype(np.float64), k - digits))
    decimals = [float(f"{m}e{e}") for m in rng.integers(1, 10**6, 300) for e in range(-12, 19, 3)]
    edges = [1e-6, 1e-5, 1e-4, 1e15, 1e16, 1e17, 2.0**53, 9007199254740993.0, 0.1, 0.3, 1 / 3, 2 / 3]
    return {
        "exact ties": np.concatenate(ties),
        "powers of ten": neighbours([10.0**e for e in range(-8, 23)] + [float(f"1e-{e}") for e in range(1, 9)]),
        "powers of two": neighbours(np.ldexp(1.0, np.arange(-30, 60))),
        "short decimals": neighbours(decimals),
        "edges": neighbours(edges, reach=4),
        "specials": np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                              np.nan, np.inf, -np.inf]),
        "zero runs": zero_runs(rng),
    }


def zero_runs(rng) -> np.ndarray:
    """Runs of +0.0, of -0.0 and of both that start, end and straddle the writer's chunk boundaries, among values of
    the fast path and values Python writes."""
    chunk = _numtext.CHUNK
    mixed = np.concatenate([rng.uniform(1, 10, 40) * 10.0 ** rng.integers(-6, 17, 40) * rng.choice([-1.0, 1.0], 40),
                            [5e-324, -5e-324, np.nan, np.inf, -np.inf, 3e17, -3e17]])
    values = rng.choice(mixed, 4 * chunk + 9)
    runs = [(0, 300, [0.0]), (chunk - 40, chunk, [-0.0]), (chunk, chunk + 40, [0.0]),
            (2 * chunk - 700, 2 * chunk + 700, [0.0, -0.0]), (3 * chunk - 1, 3 * chunk + 1, [-0.0]),
            (3 * chunk + 5, 4 * chunk + 9, [0.0, -0.0])]  # the last one ends the values
    for start, stop, signs in runs:
        values[start:stop] = rng.choice(signs, stop - start)
    return values


def random_sets(count: int, rng) -> dict:
    """Random bit patterns, and random values over the fast path's magnitudes."""
    bits = rng.integers(0, 2**64, count, dtype=np.uint64, endpoint=False).view(np.float64)
    spread = rng.uniform(1, 10, count) * 10.0 ** rng.integers(-7, 18, count) * rng.choice([-1.0, 1.0], count)
    return {"random bits": bits, "random magnitudes": spread}


def mismatches(values, block: int = 1 << 16) -> list:
    """(format, value, written, expected) for every number written differently from Python, ``block`` at a time."""
    bad = []
    for start in range(0, len(values), block):
        part = values[start:start + block]
        for name, (fmt, shortest) in FORMATS.items():
            written = "".join(_numtext.chunks(part, ["\n"], shortest)).split("\n")[:-1]
            expected = [fmt(value) for value in part.tolist()]
            assert len(written) == len(expected)
            bad += [(name, value, got, want)
                    for value, got, want in zip(part.tolist(), written, expected) if got != want]
    return bad


def sweep(count: int, seed: int = 0) -> dict:
    """Mismatches per set: the hard sets and ``count`` numbers of each random set."""
    rng = np.random.default_rng(seed)
    return {name: mismatches(values) for name, values in {**hard_sets(rng), **random_sets(count, rng)}.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("count", type=int, help="random doubles per random set")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    failed = False
    for name, bad in sweep(args.count, args.seed).items():
        print(f"{name}: {len(bad)} mismatches" + "".join(f"\n  {each}" for each in bad[:5]))
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
