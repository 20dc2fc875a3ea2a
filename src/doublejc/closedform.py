"""Analytic time evolution of the two named initial-state families.

Each atom-cavity pair evolves independently.  Within a pair the single
excitation oscillates between |e,0> and |g,1> with transition amplitudes

    f(t) = L e^{-i lambda_plus t} + M e^{-i lambda_minus t}     (stay)
    h(t) = N (e^{-i lambda_plus t} - e^{-i lambda_minus t})     (transfer)

so |f|^2 = 1 - 4N^2 sin^2(rabi t / 2) and |h|^2 = 4N^2 sin^2(rabi t / 2).
Everything below is assembled from these two factors; the zero-excitation
pair state |g,0> is stationary with zero energy.

All reduced density matrices are written in the standard excited-first
two-qubit ordering |ee>, |eg>, |ge>, |gg>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    BasisIndex,
    DensityMatrix,
    JCConstants,
    PureState,
    basis_dimension,
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


def _pair_factors(constants: JCConstants, t):
    """Stay/transfer amplitudes (f, h) of one atom-cavity pair, broadcast over t."""
    times = np.asarray(t, dtype=float)
    ep = np.exp(-1j * constants.lambda_plus * times)
    em = np.exp(-1j * constants.lambda_minus * times)
    f = constants.l_coef * ep + constants.m_coef * em
    h = constants.n_coef * (ep - em)
    return f, h


def _check_time(t) -> None:
    if np.any(np.asarray(t) < 0):
        raise ValueError("time must be nonnegative")


class _Amplitudes:
    """Embedding shared by the amplitude records; ``t`` may be a time grid."""

    #: (field, basis element) of every nonzero amplitude
    _ELEMENTS: tuple = ()

    def columns(self, cutoff: int = 1) -> np.ndarray:
        """Amplitudes over the flattened basis, one column per time point (a vector for scalar t)."""
        amps = np.zeros((basis_dimension(cutoff),) + np.shape(self.t), dtype=complex)
        for name, element in self._ELEMENTS:
            amps[BasisIndex(*element).flatten(cutoff)] = getattr(self, name)
        return amps

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
    ca, sa = math.cos(alpha), math.sin(alpha)
    return PsiAmplitudes(x1=f * ca, x2=f * sa, x3=h * ca, x4=h * sa, t=t)


def phi_amplitudes(alpha: float, constants: JCConstants, t) -> PhiAmplitudes:
    """Evolved amplitudes for cos(a)|ee00> + sin(a)|gg00>, at scalar or array times."""
    _check_time(t)
    f, h = _pair_factors(constants, t)
    ca, sa = math.cos(alpha), math.sin(alpha)
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


def psi_concurrence(alpha: float, constants: JCConstants, t):
    """Atom-atom concurrence of the one-excitation family.

    C(t) = |sin 2a| * (1 - 4 N^2 sin^2(rabi t / 2)).  Accepts scalar or
    array times.  At zero detuning this is |sin 2a| cos^2(G t / 2); for
    nonzero detuning it never reaches zero (floor |sin 2a| delta^2/rabi^2).
    """
    value = abs(math.sin(2.0 * alpha)) * (1.0 - _transfer_weight(constants, t))
    value = np.clip(value, 0.0, 1.0)
    return value if np.ndim(t) else float(value)


def phi_f(alpha: float, constants: JCConstants, t):
    """Signed pre-concurrence of the zero/two-excitation family.

    f(t) = 2|x1||x5| - 2|x3||x4|
         = (1 - 4 N^2 sin^2(rabi t/2)) (|sin 2a| - 8 N^2 sin^2(rabi t/2) cos^2 a)

    The sign is kept so root finding can separate isolated zero touches from
    finite dead intervals.  At zero detuning this reduces to
    cos^2(Gt/2) (|sin 2a| - 2 sin^2(Gt/2) cos^2 a), which turns negative on a
    finite window each period whenever tan(a) < 1.  Accepts scalar or array
    times.
    """
    w = _transfer_weight(constants, t)
    value = (1.0 - w) * (abs(math.sin(2.0 * alpha)) - 2.0 * w * math.cos(alpha) ** 2)
    return value if np.ndim(t) else float(value)


def phi_concurrence(alpha: float, constants: JCConstants, t):
    """Atom-atom concurrence of the zero/two-excitation family, max{0, f(t)}."""
    value = np.clip(phi_f(alpha, constants, t), 0.0, 1.0)
    return value if np.ndim(t) else float(value)
