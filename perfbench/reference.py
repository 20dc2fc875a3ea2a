"""The benchmark's own reference computations.

Nothing here calls doublejc: every expected value is rebuilt from the pair
factors of one atom-cavity pair,

    f(t) = L e^{-i lp t} + M e^{-i lm t}      h(t) = N (e^{-i lp t} - e^{-i lm t})

with rabi = sqrt(delta^2 + G^2), lp/lm = nu + delta/2 +- rabi/2,
L/M = (1 +- delta/rabi)/2 and N = G/(2 rabi).  All six pair concurrences
of the pure total state come from Wootters' decomposition formula: for
rho = B B^dag the lambda_i are the singular values of tau = B^T (sy x sy) B.
"""

from __future__ import annotations

import math

import numpy as np

#: axis of each subsystem in the (atom A, atom B, mode a, mode b) tensor
AXES = {"A": 0, "B": 1, "a": 2, "b": 3}
PAIR_NAMES = ("AB", "ab", "Aa", "Bb", "Ab", "Ba")
#: time points per block of six_pairs
CHUNK = 512

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SY, _SY)


def constants(delta: float, big_g: float, nu: float) -> dict:
    rabi = math.hypot(delta, big_g)
    return {
        "delta": delta,
        "G": big_g,
        "rabi": rabi,
        "lambda_plus": nu + 0.5 * delta + 0.5 * rabi,
        "lambda_minus": nu + 0.5 * delta - 0.5 * rabi,
        "L": 0.5 * (1.0 + delta / rabi),
        "M": 0.5 * (1.0 - delta / rabi),
        "N": big_g / (2.0 * rabi),
    }


def pair_factors(c: dict, times: np.ndarray):
    ep = np.exp(-1j * c["lambda_plus"] * times)
    em = np.exp(-1j * c["lambda_minus"] * times)
    return c["L"] * ep + c["M"] * em, c["N"] * (ep - em)


def amplitude_tensor(family: str, alpha: float, c: dict, times: np.ndarray) -> np.ndarray:
    """State at each time as a (T, 2, 2, 2, 2) tensor over (A, B, a, b); level 1 = excited / one photon."""
    f, h = pair_factors(c, np.asarray(times, dtype=float))
    ca, sa = math.cos(alpha), math.sin(alpha)
    psi = np.zeros((len(f), 2, 2, 2, 2), dtype=complex)
    if family == "psi":  # cos a |eg00> + sin a |ge00>
        psi[:, 1, 0, 0, 0] = ca * f
        psi[:, 0, 0, 1, 0] = ca * h
        psi[:, 0, 1, 0, 0] = sa * f
        psi[:, 0, 0, 0, 1] = sa * h
    elif family == "phi":  # cos a |ee00> + sin a |gg00>
        psi[:, 1, 1, 0, 0] = ca * f * f
        psi[:, 1, 0, 0, 1] = ca * f * h
        psi[:, 0, 1, 1, 0] = ca * h * f
        psi[:, 0, 0, 1, 1] = ca * h * h
        psi[:, 0, 0, 0, 0] = sa
    else:
        raise ValueError(f"unknown family {family!r}")
    return psi


def pair_block(psi: np.ndarray, pair: str) -> np.ndarray:
    """B with rho = B B^dag: retained pair levels as rows, traced levels as columns."""
    keep = [1 + AXES[s] for s in pair]
    rest = [1 + k for k in range(4) if k + 1 not in keep]
    return np.transpose(psi, [0] + keep + rest).reshape(psi.shape[0], 4, 4)


def tau_concurrence(block: np.ndarray) -> np.ndarray:
    tau = np.swapaxes(block, -1, -2) @ _SPIN_FLIP @ block
    lam = np.linalg.svd(tau, compute_uv=False)
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)


def six_pairs(family: str, alpha: float, c: dict, times: np.ndarray) -> dict:
    """All six pair concurrences on a time grid.

    Works through the grid in chunks of CHUNK points, so a check of a long
    scan adds little to the worker's peak memory next to the scan itself.
    """
    times = np.asarray(times, dtype=float)
    out = {pair: np.empty(len(times)) for pair in PAIR_NAMES}
    for i in range(0, len(times), CHUNK):
        psi = amplitude_tensor(family, alpha, c, times[i : i + CHUNK])
        for pair in PAIR_NAMES:
            out[pair][i : i + CHUNK] = tau_concurrence(pair_block(psi, pair))
    return out


def atom_concurrence(family: str, alpha: float, c: dict, times) -> np.ndarray:
    """Analytic C(t) of the atom pair AB."""
    w = 4.0 * c["N"] ** 2 * np.sin(0.5 * c["rabi"] * np.asarray(times, dtype=float)) ** 2
    s2a = abs(math.sin(2.0 * alpha))
    if family == "psi":
        return s2a * (1.0 - w)
    return np.maximum(0.0, (1.0 - w) * (s2a - 2.0 * w * math.cos(alpha) ** 2))


def death_threshold(delta: float, big_g: float) -> float:
    """alpha_c(delta) = arctan(G^2 / (delta^2 + G^2)): phi dies iff alpha < alpha_c."""
    return math.atan(big_g**2 / (delta**2 + big_g**2))


def dead_windows(family: str, alpha: float, delta: float, big_g: float, t_max: float) -> list:
    """Analytic dead intervals within [0, t_max] for 0 < alpha < pi/2.

    phi is dead where sin^2(rabi t/2) > q = tan(alpha) rabi^2/G^2, i.e. between
    t = (2/rabi) asin(sqrt q) and its reflection in each period 2 pi/rabi.
    psi never dies.
    """
    if family == "psi" or alpha >= death_threshold(delta, big_g):
        return []
    rabi = math.hypot(delta, big_g)
    edge = math.asin(math.sqrt(math.tan(alpha) * rabi**2 / big_g**2))
    out = []
    k = 0
    while (2.0 / rabi) * (k * math.pi + edge) < t_max:
        start = (2.0 / rabi) * (k * math.pi + edge)
        end = min((2.0 / rabi) * ((k + 1) * math.pi - edge), t_max)
        out.append((start, end))
        k += 1
    return out


def alpha_for_width(width: float, delta: float, big_g: float) -> float:
    """The alpha whose dead windows are ``width`` long: each lasts (2/rabi)(pi - 2 edge)."""
    rabi = math.hypot(delta, big_g)
    edge = 0.5 * (math.pi - 0.5 * rabi * width)
    return math.atan(math.sin(edge) ** 2 * big_g**2 / rabi**2)


def mp_concurrence(family: str, alpha: float, delta: float, big_g: float, nu: float,
                   t: float, pair: str, dps: int = 50) -> float:
    """One pair concurrence at one time in mpmath arithmetic of ``dps`` digits."""
    import mpmath as mp

    with mp.workdps(dps):
        a, d, g, n, tt = (mp.mpf(x) for x in (alpha, delta, big_g, nu, t))
        rabi = mp.sqrt(d**2 + g**2)
        lp, lm = n + d / 2 + rabi / 2, n + d / 2 - rabi / 2
        ep, em = mp.expj(-lp * tt), mp.expj(-lm * tt)
        f = (1 + d / rabi) / 2 * ep + (1 - d / rabi) / 2 * em
        h = g / (2 * rabi) * (ep - em)
        ca, sa = mp.cos(a), mp.sin(a)
        if family == "psi":
            amps = {(1, 0, 0, 0): ca * f, (0, 0, 1, 0): ca * h, (0, 1, 0, 0): sa * f, (0, 0, 0, 1): sa * h}
        else:
            amps = {(1, 1, 0, 0): ca * f * f, (1, 0, 0, 1): ca * f * h, (0, 1, 1, 0): ca * h * f,
                    (0, 0, 1, 1): ca * h * h, (0, 0, 0, 0): sa}
        keep = [AXES[s] for s in pair]
        rest = [k for k in range(4) if k not in keep]
        block = mp.zeros(4, 4)
        for idx, value in amps.items():
            block[2 * idx[keep[0]] + idx[keep[1]], 2 * idx[rest[0]] + idx[rest[1]]] += value
        flip = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        lam = sorted(mp.svd_c(block.T * flip * block, compute_uv=False), reverse=True)
        return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))
