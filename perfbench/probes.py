"""Find the probe points of the sqrt(rho) fault in doublejc's wootters_concurrence.

    python3 perfbench/probes.py

Scans the phi family at delta = G = 1 over [0, 4 pi] (2001 points) for the
crossed pairs Ab and Ba at ``ALPHAS`` values of alpha, compares every oracle
value with the benchmark's tau reference, and keeps the ``COUNT`` worst
points whose single-time oracle value (Propagator.evolve plus
pair_concurrence, the probe operation itself) is off from a 50-digit mpmath
reference by at least ``MIN_ERROR``.  Writes perfbench/probes.json, which
the oracle_pairs workload reads.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import doublejc as dj  # noqa: E402
import reference as ref  # noqa: E402

#: a probe must miss the mpmath value by at least this (the probe check allows 1e-10)
MIN_ERROR = 1e-8
DELTA = BIG_G = 1.0
T_MAX, STEPS = 4.0 * math.pi, 2001
#: probe points kept, and alphas scanned for them
COUNT, ALPHAS = 4, 16


def probe_value(alpha: float, t: float, pair: str) -> float:
    params = dj.ModelParams.from_detuning(DELTA, BIG_G)
    state0 = dj.initial_state_vector(dj.InitialState.phi(alpha), 1)
    state = dj.Propagator(dj.build_hamiltonian(params, 1)).evolve(state0, t)
    return dj.pair_concurrence(state, dj.SubsystemPair.from_name(pair))


def main() -> int:
    params = dj.ModelParams.from_detuning(DELTA, BIG_G)
    c = ref.constants(DELTA, BIG_G, 10.0 * BIG_G)
    times = np.linspace(0.0, T_MAX, STEPS)
    pairs = [dj.SubsystemPair.from_name(name) for name in ("Ab", "Ba")]
    candidates = []
    for alpha in np.linspace(0.05, 1.5, ALPHAS):
        alpha = float(alpha)
        oracle = dj.scan_pairs(dj.InitialState.phi(alpha), params, pairs, T_MAX, STEPS)
        expected = ref.six_pairs("phi", alpha, c, times)
        for name, series in oracle.items():
            err = np.abs(series.values - expected[name])
            j = int(np.argmax(err))
            candidates.append((float(err[j]), alpha, float(times[j]), name))
    candidates.sort(reverse=True)

    probes = []
    for grid_error, alpha, t, pair in candidates:
        truth = ref.mp_concurrence("phi", alpha, DELTA, BIG_G, 10.0 * BIG_G, t, pair)
        error = abs(probe_value(alpha, t, pair) - truth)
        print(f"alpha={alpha:.6f} t={t:.6f} {pair}: grid error {grid_error:.2e}, probe error {error:.2e}")
        if error >= MIN_ERROR:
            probes.append({"family": "phi", "alpha": alpha, "delta": DELTA, "G": BIG_G, "t": t, "pair": pair,
                           "concurrence_mpmath": truth, "probe_error": error})
        if len(probes) == COUNT:
            break
    if len(probes) < COUNT:
        print(f"found only {len(probes)} probe points", file=sys.stderr)
        return 1
    (HERE / "probes.json").write_text(json.dumps({
        "about": "Points where doublejc's sqrt(rho) Wootters route misses a 50-digit mpmath value; "
                 "written by probes.py. The benchmark recomputes the mpmath value on every run.",
        "probes": probes,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
