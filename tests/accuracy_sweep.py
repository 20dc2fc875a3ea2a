"""50-digit accuracy ledger of the signed atom-pair concurrence on both paths.

    python tests/accuracy_sweep.py COUNT [--seed N]

Both paths give the signed AB value (1 - w)(|sin 2a| - b w), w the transfer
weight (G / rabi)^2 sin^2(rabi t / 2), b = 2 cos^2 a for phi and 0 for psi:
the closed path as ``closedform.phi_f`` and ``psi_concurrence``, the oracle
as ``scan_pairs(...)["AB"].signed`` (exact propagation, partial trace and
the Wootters kernel).  This script compares each with the same expression in
50-digit mpmath, taking the double inputs omega, nu, g, alpha and t as exact,
on COUNT draws of 64 grid times each, spread over five regions:

* ``threshold``: alpha within 1e-12 to 1e-1 of phi's death threshold
  arctan(G^2 / rabi^2), on either side;
* ``alpha 1e-13``: alpha = 1e-13, next to the product state;
* ``large detuning``: |delta| / G from 1 to 1e6;
* ``large nu``: nu from 1e3 to 1e12, for the oracle's rotating frame;
* ``long times``: t_max from 1e2 to 4e5.

Every error must be at most c eps (1 + rabi t), with c = ``C_CLOSED`` for the
closed path and ``C_ORACLE`` for the oracle: both errors grow linearly in t,
since a phase rabi t / 2 of a double carries a rounding of about eps rabi t.
Over 100,000 draws (seed 1) the worst ratios of error to eps (1 + rabi t) were
0.97 (closed) and 6.0 (oracle), and each c is twice that; the test suite runs
a small count, CI a large one.
Prints per path and region the largest and median error and the largest
ratio, then the oracle-to-closed ratio of the largest and median errors.
Exits 1 on any error past its bound.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from doublejc import (  # noqa: E402
    ATOM_PAIR, InitialState, ModelParams, StateFamily, death_threshold_alpha, derive_constants, phi_f,
    psi_concurrence, scan_pairs,
)

#: bound on a path's error, in units of eps (1 + rabi t): twice the worst measured, 0.97 (closed) and 6.0 (oracle)
C_CLOSED, C_ORACLE = 2.0, 12.0
#: grid times per draw
POINTS = 64
REGIONS = ("threshold", "alpha 1e-13", "large detuning", "large nu", "long times")
EPS = np.finfo(float).eps


def draw(region: str, rng) -> tuple:
    """(family, alpha, params, t_max) of one draw in ``region``; elsewhere |delta| / G <= 2, nu = 10 G and
    t_max <= 40."""
    family, big_g = StateFamily(rng.choice(["psi", "phi"])), rng.uniform(0.5, 2.0)
    delta, nu, t_max = rng.uniform(-2.0, 2.0) * big_g, 10.0 * big_g, rng.uniform(1.0, 40.0)
    if region == "large detuning":
        delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 6.0) * big_g
        nu = 10.0 * (abs(delta) + big_g)  # above -delta
    elif region == "large nu":
        nu = 10.0 ** rng.uniform(3.0, 12.0)
    elif region == "long times":
        t_max = 10.0 ** rng.uniform(2.0, math.log10(4e5))
    params = ModelParams.from_detuning(delta, big_g, nu)
    if region == "threshold":
        alpha = death_threshold_alpha(params) + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -1.0)
    elif region == "alpha 1e-13":
        alpha = 1e-13
    else:
        alpha = rng.uniform(0.0, math.pi / 2)
    return family, alpha, params, t_max


def exact_signed(family: StateFamily, alpha: float, params: ModelParams, times: np.ndarray) -> np.ndarray:
    """(1 - w)(|sin 2a| - b w) at each time, from the double inputs taken as exact, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        omega, nu, g, a = (mpmath.mpf(x) for x in (params.omega, params.nu, params.g, alpha))
        big_g, delta = 2 * g, omega - nu
        rabi = mpmath.sqrt(delta**2 + big_g**2)
        peak, s = (big_g / rabi) ** 2, abs(mpmath.sin(2 * a))
        b = 2 * mpmath.cos(a) ** 2 if family is StateFamily.PHI_ALPHA else 0
        return np.array([float((1 - w) * (s - b * w))
                         for w in (peak * mpmath.sin(rabi * mpmath.mpf(t) / 2) ** 2 for t in times.tolist())])


def sweep(count: int, seed: int = 0) -> dict:
    """{(path, region): (errors, ratios)} over ``count`` draws, the regions in turn: arrays of each error and its
    ratio to eps (1 + rabi t)."""
    rng = np.random.default_rng(seed)
    found = {(path, region): ([np.empty(0)], [np.empty(0)]) for path in ("closed", "oracle") for region in REGIONS}
    for k in range(count):
        region = REGIONS[k % len(REGIONS)]
        family, alpha, params, t_max = draw(region, rng)
        series = scan_pairs(InitialState(family, alpha), params, [ATOM_PAIR], t_max, POINTS)["AB"]
        times, constants = series.times, derive_constants(params)
        closed = (phi_f if family is StateFamily.PHI_ALPHA else psi_concurrence)(alpha, constants, times)
        exact, unit = exact_signed(family, alpha, params, times), EPS * (1.0 + constants.rabi * times)
        for path, got in (("closed", closed), ("oracle", series.signed)):
            errors = np.abs(got - exact)
            found[path, region][0].append(errors)
            found[path, region][1].append(errors / unit)
    return {key: (np.concatenate(errors), np.concatenate(ratios)) for key, (errors, ratios) in found.items()}


def over_bound(found: dict) -> dict:
    """{(path, region): worst ratio} wherever a ratio exceeds its path's c."""
    limit = {"closed": C_CLOSED, "oracle": C_ORACLE}
    return {key: ratios.max() for key, (_, ratios) in found.items() if ratios.max(initial=0.0) > limit[key[0]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("count", type=int, help="draws of 64 times each")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    found = sweep(args.count, args.seed)
    print(f"{'path':7}{'region':16}{'max error':>12}{'median':>12}{'max ratio':>11}")
    for (path, region), (errors, ratios) in found.items():
        if errors.size:
            print(f"{path:7}{region:16}{errors.max():12.2e}{np.median(errors):12.2e}{ratios.max():11.3f}")
    print("oracle / closed: region, max error ratio, median error ratio")
    for region in REGIONS:
        (closed, _), (oracle, _) = found["closed", region], found["oracle", region]
        if closed.size:  # a closed error of exactly 0 (at a large detuning, w rounds away) reads inf
            with np.errstate(divide="ignore", invalid="ignore"):
                print(f"  {region:16}{oracle.max() / closed.max():8.2f}{np.median(oracle) / np.median(closed):8.2f}")
    bad = over_bound(found)
    print(f"c: closed {C_CLOSED}, oracle {C_ORACLE}; bounds exceeded: {bad or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
