"""Analytic time evolution of the two named initial-state families.

The two atom-cavity pairs never interact.  With its cavity in vacuum, each pair acts on its own atom as a fixed
isometry, V|g> = |g,0> and V|e> = f(t)|e,0> + h(t)|g,1>, with the stay and transfer amplitudes

    f(t) = L e^{-i lambda_plus t} + M e^{-i lambda_minus t}
    h(t) = N (e^{-i lambda_plus t} - e^{-i lambda_minus t})

so |f|^2 = 1 - 4N^2 sin^2(rabi t / 2) and |h|^2 = 4N^2 sin^2(rabi t / 2); the pair state |g,0> is stationary with
zero energy.  Every amplitude is a term of (V (x) V)|atoms>.  V's photon slices K0 = diag(f, 1) and K1 = h|g><e|
(excited first) are the Kraus operators of each pair's channel on its atom, so the atom-atom matrix is
sum_ij (K_i (x) K_j) rho_0 (K_i (x) K_j)^dagger: two terms cohere only where their photon labels agree.

All reduced density matrices are written in the standard excited-first two-qubit ordering |ee>, |eg>, |ge>, |gg>.
:func:`for_state` gives the amplitudes, concurrence, dead windows and touch points of one named initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DensityMatrix,
    InitialState,
    JCConstants,
    ModelParams,
    PureState,
    StateFamily,
    _check_alpha,
    _check_time,
    basis_shape,
    derive_constants,
)

__all__ = [
    "Amplitudes",
    "psi_amplitudes",
    "phi_amplitudes",
    "psi_reduced_density",
    "phi_reduced_density",
    "psi_concurrence",
    "phi_f",
    "phi_concurrence",
    "death_threshold_alpha",
]

#: a few ulps of one: the rounding in a generator or Wootters value of order one, within which its sign is noise
FEW_ULPS = 4 * math.ulp(1.0)
#: most peaks whose windows one closed report may list (a dying or touching one lists a window a period)
MAX_WINDOWS = 2**20


def _pair_factors(constants: JCConstants, t):
    """Stay/transfer amplitudes (f, h) of one atom-cavity pair, broadcast over t."""
    times = np.asarray(t, dtype=float)
    ep = np.exp(-1j * constants.lambda_plus * times)
    em = np.exp(-1j * constants.lambda_minus * times)
    return constants.l_coef * ep + constants.m_coef * em, constants.n_coef * (ep - em)


#: the nonzero entries of V, as (atom level in, photons out, atom level out, index into the factors (1, f, h))
_ISOMETRY = ((0, 0, 0, 0), (1, 0, 1, 1), (1, 1, 0, 2))


@dataclass(frozen=True)
class Amplitudes:
    """The nonzero amplitudes of (V (x) V)|atoms> at time t (a scalar or a grid), as (element, amplitude) terms, an
    element (atom A, atom B, photons a, photons b) with atom level 1 excited.  Only psi's |eg>/|ge> coherence rho_12
    and phi's |ee>/|gg> coherence rho_03 survive the partial trace: |eg01> and |ge10> differ in their modes."""

    terms: tuple
    t: float

    def columns(self, cutoff: int = 1) -> np.ndarray:
        """Amplitudes over the flattened basis, one column per time point (a vector for scalar t)."""
        amps = np.zeros(basis_shape(cutoff) + np.shape(self.t), dtype=complex)
        for element, value in self.terms:
            amps[element] = value
        return amps.reshape((-1,) + np.shape(self.t))

    def atom_density(self) -> np.ndarray:
        """Atom-atom density matrix over the grid, the modes traced out: terms cohere where their photon labels agree,
        an entry on or above the diagonal is summed in term order and mirrored conjugated; row 3 - 2 atom_A - atom_B."""
        rows = [(3 - 2 * a - b, (m, n), x) for (a, b, m, n), x in self.terms]
        upper = {}
        for i, (r, photons, x) in enumerate(rows):
            for c, other, y in rows[i:]:
                if other == photons:  # the term of the smaller row stays unconjugated
                    key = (r, c) if r <= c else (c, r)
                    term = abs(x) ** 2 if r == c else x * np.conj(y) if r < c else y * np.conj(x)
                    upper[key] = upper[key] + term if key in upper else term
        rho = np.zeros(np.shape(self.t) + (4, 4), dtype=complex)
        for (r, c), value in upper.items():
            rho[..., r, c] = value
            if r != c:
                rho[..., c, r] = np.conj(value)
        return rho

    def to_state(self, cutoff: int = 1) -> PureState:
        """Embed the amplitudes at a scalar time into the truncated product space."""
        return PureState(self.columns(cutoff), cutoff)


def _evolved(weights, constants: JCConstants, t) -> Amplitudes:
    """(V (x) V) sum_uv weights[u][v] |u v> at times t, zero weights dropped.  Each term is formed once, with no
    product by 1, and as f h, never h f (vectorised, they can differ in the last bit), so phi's |eg01> == |ge10>."""
    factors = (1, *_pair_factors(constants, t))
    return Amplitudes(tuple(((a, b, m, n), (factors[min(u, v)] * factors[max(u, v)] if u and v else factors[u + v])
                             * weight) for level_a, m, a, u in _ISOMETRY for level_b, n, b, v in _ISOMETRY
                            if (weight := weights[level_a][level_b])), t)


def psi_amplitudes(alpha: float, constants: JCConstants, t) -> Amplitudes:
    """Evolved amplitudes for cos(a)|eg00> + sin(a)|ge00>, at scalar or array times."""
    _check_time(t)
    return _evolved(((0, math.sin(_check_alpha(alpha))), (math.cos(alpha), 0)), constants, t)


def phi_amplitudes(alpha: float, constants: JCConstants, t) -> Amplitudes:
    """Evolved amplitudes for cos(a)|ee00> + sin(a)|gg00>, at scalar or array times."""
    _check_time(t)
    return _evolved(((math.sin(_check_alpha(alpha)), 0), (0, math.cos(alpha))), constants, t)


def psi_reduced_density(alpha: float, constants: JCConstants, t: float) -> DensityMatrix:
    """Atom-atom density matrix of the one-excitation family (see :class:`Amplitudes`)."""
    return DensityMatrix(psi_amplitudes(alpha, constants, t).atom_density())


def phi_reduced_density(alpha: float, constants: JCConstants, t: float) -> DensityMatrix:
    """Atom-atom density matrix of the zero/two-excitation family (see :class:`Amplitudes`)."""
    return DensityMatrix(phi_amplitudes(alpha, constants, t).atom_density())


def _peak_weight(constants: JCConstants) -> float:
    """Largest transfer weight 4 N^2 = G^2 / (delta^2 + G^2); phi dies iff |tan alpha| is below it."""
    return 4.0 * constants.n_coef**2


def death_threshold_alpha(params: ModelParams | None = None) -> float:
    """Critical angle arctan(G^2 / (delta^2 + G^2)) of phi (see :func:`_peak_weight`), pi/4 by default (delta = 0).

    Finite dead intervals occur exactly below it; at it the generator only touches zero.
    """
    return math.atan(1.0 if params is None else _peak_weight(derive_constants(params)))


def _generator(alpha: float, phi: bool, constants: JCConstants, t):
    """Signed generator (1 - w)(|sin 2a| - b w), w the transfer weight: b = 0 for psi, 2 cos^2 a for phi."""
    _check_time(t)
    w = _peak_weight(constants) * np.sin(0.5 * constants.rabi * np.asarray(t, dtype=float)) ** 2  # |h|^2
    s, b = abs(math.sin(2.0 * _check_alpha(alpha))), 2.0 * math.cos(alpha) ** 2 if phi else 0.0
    value = (1.0 - w) * (s - b * w)
    return value if np.ndim(value) else float(value)


def psi_concurrence(alpha: float, constants: JCConstants, t):
    """Atom-atom concurrence of the one-excitation family.

    C(t) = |sin 2a| * (1 - 4 N^2 sin^2(rabi t / 2)), at scalar or array times.
    At zero detuning |sin 2a| cos^2(G t / 2); for nonzero detuning it never
    reaches zero (floor |sin 2a| delta^2/rabi^2).
    """
    # the same values as np.clip, at a fraction of its cost on the few times of a touch report
    value = np.minimum(np.maximum(_generator(alpha, False, constants, t), 0.0), 1.0)
    return value if np.ndim(value) else float(value)


def phi_f(alpha: float, constants: JCConstants, t):
    """Signed pre-concurrence of the zero/two-excitation family.

    f(t) = 2|<ee00>||<gg00>| - 2|<eg01>||<ge10>|
         = (1 - 4 N^2 sin^2(rabi t/2)) (|sin 2a| - 8 N^2 sin^2(rabi t/2) cos^2 a)

    The sign is kept so root finding can separate isolated zero touches from
    finite dead intervals.  At zero detuning this reduces to
    cos^2(Gt/2) (|sin 2a| - 2 sin^2(Gt/2) cos^2 a), which turns negative on a
    finite window each period whenever tan(a) < 1.  Accepts scalar or array times.
    """
    return _generator(alpha, True, constants, t)


def phi_concurrence(alpha: float, constants: JCConstants, t):
    """Atom-atom concurrence of the zero/two-excitation family, max{0, f(t)}."""
    # + 0.0 turns a -0.0 at a resonant peak into +0.0
    value = np.minimum(np.maximum(phi_f(alpha, constants, t), 0.0), 1.0) + 0.0
    return value if np.ndim(value) else float(value)


@dataclass
class _StateForm:
    """The closed forms of one named initial state under fixed constants.

    The family functions are module globals looked up at each call, so
    rebinding them on this module (as a tracer or a test does) reaches every call.
    """

    alpha: float
    constants: JCConstants
    phi: bool

    def amplitudes(self, t):
        return (phi_amplitudes if self.phi else psi_amplitudes)(self.alpha, self.constants, t)

    def concurrence(self, t):
        return (phi_concurrence if self.phi else psi_concurrence)(self.alpha, self.constants, t)

    def dead_windows(self, t0: float, t1: float) -> list:
        """Windows of identically zero concurrence that meet [t0, t1], clipped to it.

        A product state (|sin 2a| within a few ulps of zero, as at a = 0 or
        pi/2) is dead throughout.  Otherwise the generator is negative where
        b w > |sin 2a|: never for psi, and for phi where w exceeds |tan a|, on
        ((2/rabi)(k pi + theta), (2/rabi)((k + 1) pi - theta)) with
        theta = asin(sqrt(s)), s = |tan a| / (4 N^2).  tan a and N^2 carry a
        few ulps of rounding each, so s within 4 eps of 1 is the threshold,
        where the generator only touches zero.  Past the product-state guard
        theta > 2e-8, so neighbouring windows never meet.  Where 4 N^2
        underflows to 0 (|delta| / G past about 4.5e161), w = 0 and none is dead.
        """
        if abs(math.sin(2.0 * self.alpha)) <= FEW_ULPS:
            return [(t0, t1)]
        peak = _peak_weight(self.constants)
        s = abs(math.tan(self.alpha)) / peak if self.phi and peak else math.inf
        if s >= 1.0 - FEW_ULPS:
            return []
        return self._around_peaks(t0, t1, math.asin(math.sqrt(s)))

    def _zone_angle(self, t1: float, level: float):
        """theta of the zones (2/rabi) (k pi + theta, (k + 1) pi - theta): None where there is none, 0 where they abut.

        Where none dies, no value lies below the one at w = 4 N^2: no zone if that one is above the level.  A value's
        phase rabi t / 2 rounds by an ulp of itself, so the level widens by FEW_ULPS rabi t1; once it reaches 1 (rabi
        t1 about 2^50) every value lies within it.  Otherwise the generator is convex in w and zero at w = 1 >= w: it
        is at most the level where w >= w_lo, around each peak, and everywhere if w_lo = 0."""
        s, b = abs(math.sin(2.0 * self.alpha)), 2.0 * math.cos(self.alpha) ** 2 if self.phi else 0.0
        peak = _peak_weight(self.constants)  # 0 where it underflows, and then w = 0 too
        if (1.0 - peak) * (s - b * peak) > level:  # as the generator rounds it
            return None
        level += FEW_ULPS * self.constants.rabi * t1
        if level >= 1.0:
            return 0.0
        # the smaller root of b w^2 - (s + b) w + s - level, free of cancellation; none above 0 if s <= level
        w_lo = 2.0 * (s - level) / (s + b + math.sqrt((b - s) ** 2 + 4.0 * b * level)) if s > level else 0.0
        return None if w_lo > peak else math.asin(math.sqrt(w_lo / peak)) if w_lo else 0.0

    def touch_points(self, t0: float, t1: float, level: float, dead: list) -> list:
        """Isolated zeros over [t0, t1] beside its ``dead`` windows.  A zero run is a zone of :meth:`_around_peaks` at
        :meth:`_zone_angle` that meets no dead window; its touch is the lowest-valued of its start, first peak
        (2k + 1) pi / rabi and end (the first of equal values), where that value is at most ``level``.  A dead window
        lies in the zone around its peak, so zones that abut meet one, and with one a zone meets none only by an end
        of [t0, t1]."""
        theta = self._zone_angle(t1, level)
        if theta is None or (dead and theta == 0.0):
            return []
        # a zone clipped at the first dead window's start, or at the last one's end, holds that window
        runs = ([run for run in self._around_peaks(t0, dead[0][0], theta) if run[1] < dead[0][0]] +
                [run for run in self._around_peaks(dead[-1][1], t1, theta) if run[0] > dead[-1][1]]
                if dead else self._around_peaks(t0, t1, theta))
        if not runs:
            return []
        rabi, pi, two_pi, peaks = self.constants.rabi, math.pi, 2.0 * math.pi, []
        for start, end in runs:
            k = start * rabi / two_pi // 1.0  # its floor, or nan where the product overflows: no peak
            peak = (2.0 * k + 1.0) * pi / rabi
            if peak < start:
                peak = (2.0 * (k + 1.0) + 1.0) * pi / rabi
            peaks.append(peak if peak <= end else start)
        starts, ends = [start for start, _ in runs], [end for _, end in runs]
        values = self.concurrence(np.array((starts, peaks, ends))).tolist()  # one call for every run
        touches = []
        for best, peak, end, lowest, at_peak, at_end in zip(starts, peaks, ends, *values):
            if at_peak < lowest:  # only a strictly lower value moves it: the first of equal values
                best, lowest = peak, at_peak
            if at_end < lowest:
                best, lowest = end, at_end
            if lowest <= level:
                touches.append(best)
        return touches

    def _around_peaks(self, t0: float, t1: float, theta: float) -> list:
        """Windows (2/rabi) (k pi + theta, (k + 1) pi - theta) that meet [t0, t1], clipped; k over every peak.  At
        theta = 0 they abut, into [t0, t1].  Past MAX_WINDOWS peaks the report they make is refused (ValueError)."""
        if not theta:
            return [(t0, t1)]
        scale = 2.0 / self.constants.rabi
        first, last = math.floor(t0 / (scale * math.pi)), math.floor(t1 / (scale * math.pi)) + 3
        if last - first > MAX_WINDOWS:
            raise ValueError(f"a closed-form report over [{t0!r}, {t1!r}] would list a window for each of about "
                             f"{last - first - 3} periods, past the {MAX_WINDOWS} it may list")
        windows = [(start, end) for k in range(first, last)
                   if (start := scale * (k * math.pi + theta)) < t1 and (end := scale * ((k + 1) * math.pi - theta)) > t0]
        if windows:  # they increase, so only the first can start before t0 and only the last end past t1
            windows[0] = (max(windows[0][0], t0), windows[0][1])
            windows[-1] = (windows[-1][0], min(windows[-1][1], t1))
        return windows


def for_state(init: InitialState, constants: JCConstants) -> _StateForm:
    """Amplitudes, concurrence, dead windows and touch points of a named state; a custom one raises ValueError."""
    if init.family is StateFamily.CUSTOM:
        raise ValueError("closed forms require a named family")
    return _StateForm(init.alpha, constants, init.family is StateFamily.PHI_ALPHA)
