"""Analytic time evolution of the two named initial-state families.

Each atom-cavity pair evolves independently.  Within a pair the single
excitation oscillates between |e,0> and |g,1> with transition amplitudes

    f(t) = L e^{-i lambda_plus t} + M e^{-i lambda_minus t}     (stay)
    h(t) = N (e^{-i lambda_plus t} - e^{-i lambda_minus t})     (transfer)

so |f|^2 = 1 - 4N^2 sin^2(rabi t / 2) and |h|^2 = 4N^2 sin^2(rabi t / 2).
Everything below is assembled from these two factors; the zero-excitation
pair state |g,0> is stationary with zero energy.

All reduced density matrices are written in the standard excited-first
two-qubit ordering |ee>, |eg>, |ge>, |gg>.  :func:`for_state` gives the
amplitudes, concurrence and dead windows of one named initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DensityMatrix,
    InitialState,
    JCConstants,
    PureState,
    StateFamily,
    _check_alpha,
    _check_time,
    basis_shape,
)

__all__ = [
    "PsiAmplitudes",
    "PhiAmplitudes",
    "psi_amplitudes",
    "phi_amplitudes",
    "psi_reduced_density",
    "phi_reduced_density",
    "psi_concurrence",
    "phi_f",
    "phi_concurrence",
]

#: a few ulps of one: the rounding in a generator or Wootters value of order one, within which its sign is noise
FEW_ULPS = 4 * math.ulp(1.0)


def _pair_factors(constants: JCConstants, t):
    """Stay/transfer amplitudes (f, h) of one atom-cavity pair, broadcast over t."""
    times = np.asarray(t, dtype=float)
    ep = np.exp(-1j * constants.lambda_plus * times)
    em = np.exp(-1j * constants.lambda_minus * times)
    f = constants.l_coef * ep + constants.m_coef * em
    h = constants.n_coef * (ep - em)
    return f, h


class _Amplitudes:
    """Embedding shared by the amplitude records; ``t`` may be a time grid."""

    #: (field, basis element) of every nonzero amplitude
    _ELEMENTS: tuple = ()

    def columns(self, cutoff: int = 1) -> np.ndarray:
        """Amplitudes over the flattened basis, one column per time point (a vector for scalar t)."""
        amps = np.zeros(basis_shape(cutoff) + np.shape(self.t), dtype=complex)
        for name, element in self._ELEMENTS:
            amps[element] = getattr(self, name)
        return amps.reshape((-1,) + np.shape(self.t))

    def to_state(self, cutoff: int = 1) -> PureState:
        """Embed the amplitudes at a scalar time into the truncated product space."""
        return PureState(self.columns(cutoff), cutoff)


@dataclass(frozen=True)
class PsiAmplitudes(_Amplitudes):
    """Amplitudes of the one-excitation family at time t (a scalar or a grid).

    The state is x1|eg00> + x2|ge00> + x3|gg10> + x4|gg01>; x1, x3 carry
    cos(alpha) and x2, x4 carry sin(alpha) of a common pair factor, so
    x2/x1 = x4/x3 = tan(alpha) wherever defined.
    """

    x1: complex
    x2: complex
    x3: complex
    x4: complex
    t: float

    _ELEMENTS = (("x1", (1, 0, 0, 0)), ("x2", (0, 1, 0, 0)), ("x3", (0, 0, 1, 0)), ("x4", (0, 0, 0, 1)))

    def atom_density(self) -> np.ndarray:
        """Atom-atom density matrix, stacked over a time grid.

        Tracing the modes out of the evolved state leaves a single-excitation
        block plus |gg><gg| population:

            [[0, 0,      0,      0],
             [0, |x1|^2, x1 x2*, 0],
             [0, x1* x2, |x2|^2, 0],
             [0, 0,      0,      |x3|^2 + |x4|^2]]
        """
        rho = np.zeros(np.shape(self.t) + (4, 4), dtype=complex)
        rho[..., 1, 1] = abs(self.x1) ** 2
        rho[..., 2, 2] = abs(self.x2) ** 2
        rho[..., 1, 2] = self.x1 * np.conj(self.x2)
        rho[..., 2, 1] = np.conj(rho[..., 1, 2])
        rho[..., 3, 3] = abs(self.x3) ** 2 + abs(self.x4) ** 2
        return rho


@dataclass(frozen=True)
class PhiAmplitudes(_Amplitudes):
    """Amplitudes of the zero/two-excitation family at time t (a scalar or a grid).

    The state is x1|ee00> + x2|gg11> + x3|eg01> + x4|ge10> + x5|gg00>.
    By symmetry of the two pairs x3 == x4 exactly, and x5 = sin(alpha) is
    constant because |gg00> has zero energy.
    """

    x1: complex
    x2: complex
    x3: complex
    x4: complex
    x5: complex
    t: float

    _ELEMENTS = (("x1", (1, 1, 0, 0)), ("x2", (0, 0, 1, 1)), ("x3", (1, 0, 0, 1)), ("x4", (0, 1, 1, 0)),
                 ("x5", (0, 0, 0, 0)))

    def atom_density(self) -> np.ndarray:
        """Atom-atom density matrix, stacked over a time grid.

            [[|x1|^2, 0,      0,      x1 x5*],
             [0,      |x3|^2, 0,      0],
             [0,      0,      |x4|^2, 0],
             [x1* x5, 0,      0,      |x2|^2 + |x5|^2]]

        Only the |ee>/|gg> coherence survives the partial trace: the one-photon
        sectors |eg01> and |ge10> are orthogonal in the mode factor.
        """
        rho = np.zeros(np.shape(self.t) + (4, 4), dtype=complex)
        rho[..., 0, 0] = abs(self.x1) ** 2
        rho[..., 1, 1] = abs(self.x3) ** 2
        rho[..., 2, 2] = abs(self.x4) ** 2
        rho[..., 3, 3] = abs(self.x2) ** 2 + abs(self.x5) ** 2
        rho[..., 0, 3] = self.x1 * np.conj(self.x5)
        rho[..., 3, 0] = np.conj(rho[..., 0, 3])
        return rho


def psi_amplitudes(alpha: float, constants: JCConstants, t) -> PsiAmplitudes:
    """Evolved amplitudes for cos(a)|eg00> + sin(a)|ge00>, at scalar or array times."""
    _check_time(t)
    f, h = _pair_factors(constants, t)
    ca, sa = math.cos(_check_alpha(alpha)), math.sin(alpha)
    return PsiAmplitudes(x1=f * ca, x2=f * sa, x3=h * ca, x4=h * sa, t=t)


def phi_amplitudes(alpha: float, constants: JCConstants, t) -> PhiAmplitudes:
    """Evolved amplitudes for cos(a)|ee00> + sin(a)|gg00>, at scalar or array times."""
    _check_time(t)
    f, h = _pair_factors(constants, t)
    ca, sa = math.cos(_check_alpha(alpha)), math.sin(alpha)
    return PhiAmplitudes(
        x1=f * f * ca,
        x2=h * h * ca,
        x3=f * h * ca,
        x4=f * h * ca,
        x5=complex(sa),
        t=t,
    )


def psi_reduced_density(alpha: float, constants: JCConstants, t: float) -> DensityMatrix:
    """Atom-atom density matrix of the one-excitation family (see :meth:`PsiAmplitudes.atom_density`)."""
    return DensityMatrix(psi_amplitudes(alpha, constants, t).atom_density())


def phi_reduced_density(alpha: float, constants: JCConstants, t: float) -> DensityMatrix:
    """Atom-atom density matrix of the zero/two-excitation family (see :meth:`PhiAmplitudes.atom_density`)."""
    return DensityMatrix(phi_amplitudes(alpha, constants, t).atom_density())


def _transfer_weight(constants: JCConstants, t):
    """|h(t)|^2 = 4 N^2 sin^2(rabi t / 2), broadcast over t."""
    _check_time(t)
    return 4.0 * constants.n_coef**2 * np.sin(0.5 * constants.rabi * np.asarray(t, dtype=float)) ** 2


def _peak_weight(constants: JCConstants) -> float:
    """Largest transfer weight 4 N^2 = G^2 / (delta^2 + G^2); phi dies iff |tan alpha| is below it."""
    return 4.0 * constants.n_coef**2


def _generator(alpha, phi: bool, constants: JCConstants, t):
    """Signed generator (1 - w)(|sin 2a| - b w), w the transfer weight: b = 0 for psi, 2 cos^2 a for phi.

    A sequence of angles gives one row per angle, each bit for bit its scalar call.
    """
    w = _transfer_weight(constants, t)
    alphas = [_check_alpha(a) for a in np.ravel(alpha).tolist()]
    rows = (-1,) + (1,) * np.ndim(w) if np.ndim(alpha) else ()
    s = np.array([abs(math.sin(2.0 * a)) for a in alphas]).reshape(rows)
    b = np.array([2.0 * math.cos(a) ** 2 if phi else 0.0 for a in alphas]).reshape(rows)
    value = (1.0 - w) * (s - b * w)
    return value if np.ndim(value) else float(value)


def psi_concurrence(alpha: float, constants: JCConstants, t):
    """Atom-atom concurrence of the one-excitation family.

    C(t) = |sin 2a| * (1 - 4 N^2 sin^2(rabi t / 2)), at scalar or array times and
    for one angle or a sequence (a row each).  At zero detuning |sin 2a| cos^2(G t / 2);
    for nonzero detuning it never reaches zero (floor |sin 2a| delta^2/rabi^2).
    """
    value = np.clip(_generator(alpha, False, constants, t), 0.0, 1.0)
    return value if np.ndim(value) else float(value)


def phi_f(alpha: float, constants: JCConstants, t):
    """Signed pre-concurrence of the zero/two-excitation family.

    f(t) = 2|x1||x5| - 2|x3||x4|
         = (1 - 4 N^2 sin^2(rabi t/2)) (|sin 2a| - 8 N^2 sin^2(rabi t/2) cos^2 a)

    The sign is kept so root finding can separate isolated zero touches from
    finite dead intervals.  At zero detuning this reduces to
    cos^2(Gt/2) (|sin 2a| - 2 sin^2(Gt/2) cos^2 a), which turns negative on a
    finite window each period whenever tan(a) < 1.  Accepts scalar or array
    times, and a sequence of angles for one row each.
    """
    return _generator(alpha, True, constants, t)


def phi_concurrence(alpha: float, constants: JCConstants, t):
    """Atom-atom concurrence of the zero/two-excitation family, max{0, f(t)}."""
    value = np.clip(phi_f(alpha, constants, t), 0.0, 1.0)
    return value if np.ndim(value) else float(value)


@dataclass
class _StateForm:
    """The closed forms of one named initial state under fixed constants.

    The family functions are module globals looked up at each call, so
    rebinding them on this module (as a tracer or a test does) reaches every call.
    """

    alpha: float  # or a sequence of angles, whose concurrence comes as one row per angle
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
        theta > 2e-8, so neighbouring windows never meet.
        """
        if abs(math.sin(2.0 * self.alpha)) <= FEW_ULPS:
            return [(t0, t1)]
        s = abs(math.tan(self.alpha)) / _peak_weight(self.constants) if self.phi else math.inf
        if s >= 1.0 - FEW_ULPS:
            return []
        return self._around_peaks(t0, t1, math.asin(math.sqrt(s)))

    def zero_zones(self, t0: float, t1: float, level: float, peaks=None) -> list:
        """Windows where the generator is at most ``level`` > 0 that meet [t0, t1], clipped to it, around ``peaks``.

        The generator is convex in w and zero at w = 1 >= w: it is at most ``level`` where w >= w_lo, around each peak.
        """
        s, b = abs(math.sin(2.0 * self.alpha)), 2.0 * math.cos(self.alpha) ** 2 if self.phi else 0.0
        # the smaller root of b w^2 - (s + b) w + s - level, free of cancellation; none above 0 if s <= level
        w_lo = 2.0 * (s - level) / (s + b + math.sqrt((b - s) ** 2 + 4.0 * b * level)) if s > level else 0.0
        ratio = w_lo / _peak_weight(self.constants)
        return self._around_peaks(t0, t1, math.asin(math.sqrt(ratio)), peaks) if ratio <= 1.0 else []

    def _around_peaks(self, t0: float, t1: float, theta: float, peaks=None) -> list:
        """Windows (2/rabi) (k pi + theta, (k + 1) pi - theta) that meet [t0, t1], clipped; k in ``peaks``, or all."""
        scale = 2.0 / self.constants.rabi
        windows = []
        if peaks is None:
            peaks = range(math.floor(t0 / (scale * math.pi)), math.floor(t1 / (scale * math.pi)) + 3)
        for k in peaks:
            if (start := scale * (k * math.pi + theta)) >= t1:
                break
            end = scale * ((k + 1) * math.pi - theta)
            if end > t0:
                windows.append((max(start, t0), min(end, t1)))
        return windows


def for_state(init: InitialState, constants: JCConstants) -> _StateForm:
    """Amplitudes, concurrence and dead windows of a named initial state; a custom one raises ValueError."""
    if init.family is StateFamily.CUSTOM:
        raise ValueError("closed forms require a named family")
    return _StateForm(init.alpha, constants, init.family is StateFamily.PHI_ALPHA)
