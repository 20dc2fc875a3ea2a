"""Core model definitions for the double Jaynes-Cummings system.

Two identical two-level atoms (A, B) sit in separate lossless single-mode
cavities (a, b).  Each atom couples only to its own cavity; the two
atom-cavity pairs never interact.  Energies use hbar = 1, the atomic term is
``omega |e><e|`` per atom (ground-state energy zero), and time is naturally
measured in units of 1/G with G = 2g.

Basis conventions
-----------------
The full Hilbert space is atomA (x) atomB (x) modeA (x) modeB with each mode
truncated at a Fock ``cutoff``: the tensor of shape :func:`basis_shape`.
Atom levels are indexed 0 = ground, 1 = excited; mode levels by photon
number.  Amplitude vectors flatten that tensor in C order, so a basis
element (atom_a, atom_b, photons_a, photons_b) sits at
``np.ravel_multi_index(element, basis_shape(cutoff))``.

Reduced two-qubit density matrices instead use the excited-first ordering
|ee>, |eg>, |ge>, |gg| (``e`` = excited atom or singly occupied mode,
``g`` = ground atom or empty mode), which is the standard ordering for the
concurrence formulas.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ModelParams",
    "JCConstants",
    "StateFamily",
    "InitialState",
    "PureState",
    "DensityMatrix",
    "basis_shape",
    "derive_constants",
    "initial_state_vector",
]

# numerical tolerances for container invariants
NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10

#: largest |alpha| of a named family: the closed forms take sin(2 alpha), and 2 alpha must stay finite
ALPHA_MAX = sys.float_info.max / 2


def _check_alpha(alpha: float) -> float:
    """The angle itself, once it is known to be finite with |alpha| <= ``ALPHA_MAX``; else ValueError."""
    if not abs(alpha) <= ALPHA_MAX:  # written so that a NaN fails it
        raise ValueError(f"alpha must be finite with |alpha| <= {ALPHA_MAX!r}, so that 2 alpha is finite")
    return alpha


def _check_time(t) -> None:
    """ValueError unless every time in t (a scalar or a grid) is finite and nonnegative; a NaN fails it, as the
    extremes of a grid that holds one are NaN."""
    times = np.asarray(t, dtype=float)
    if times.size and not (times.min() >= 0.0 and times.max() < math.inf):
        raise ValueError("time must be finite and nonnegative")


@dataclass(frozen=True)
class ModelParams:
    """Physical frequencies of one atom-cavity pair (both pairs identical).

    Parameters
    ----------
    omega : float
        Atomic transition frequency (rad/time).
    nu : float
        Cavity mode frequency (rad/time).
    g : float
        Atom-cavity coupling strength (rad/time).
    """

    omega: float
    nu: float
    g: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.omega, self.nu, self.g)):
            raise ValueError("frequencies must be finite")
        if not self.g > 0:
            raise ValueError("coupling must be positive")
        if not self.omega > 0:
            raise ValueError("atomic frequency must be positive")
        if not self.nu > 0:
            raise ValueError("cavity frequency must be positive")

    @classmethod
    def from_detuning(cls, delta: float, big_g: float, nu: float | None = None) -> "ModelParams":
        """Build parameters from detuning ``delta`` and interaction strength ``big_g`` = 2g.

        The atom-atom concurrence depends only on (alpha, delta, big_g, t), so
        ``nu`` merely sets amplitude phases; it defaults to ``10 * big_g``.
        ``delta`` must exceed ``-nu`` for the atomic frequency nu + delta to be positive.
        """
        if nu is None:
            nu = 10.0 * big_g
        # ModelParams reports non-finite inputs, g <= 0 and nu <= 0 itself
        if math.isfinite(delta) and big_g > 0 and 0 < nu < math.inf and not delta > -nu:
            raise ValueError(f"detuning must be above -nu = {-nu:g} (nu defaults to 10 G)")
        return cls(omega=nu + delta, nu=nu, g=big_g / 2.0)


@dataclass(frozen=True)
class JCConstants:
    """Dressed-state constants derived from :class:`ModelParams`.

    ``rabi`` is the dressed-level splitting lambda_plus - lambda_minus, the
    single fundamental frequency of all reduced-state dynamics.  ``l_coef``,
    ``m_coef`` and ``n_coef`` are the dimensionless overlaps of the bare
    single-excitation states with the dressed doublet; they satisfy
    L + M = 1, L - M = delta/rabi and L*M = N**2.
    """

    delta: float
    big_g: float
    rabi: float
    lambda_plus: float
    lambda_minus: float
    l_coef: float
    m_coef: float
    n_coef: float


def derive_constants(params: ModelParams) -> JCConstants:
    """Compute detuning, dressed energies and overlap coefficients.

    Examples
    --------
    >>> c = derive_constants(ModelParams(omega=1.0, nu=1.0, g=0.5))
    >>> (c.delta, c.big_g, c.rabi, c.n_coef)
    (0.0, 1.0, 1.0, 0.5)
    """
    delta = params.omega - params.nu
    big_g = 2.0 * params.g
    rabi = math.hypot(delta, big_g)
    mid = params.nu + 0.5 * delta
    ratio = delta / rabi
    return JCConstants(
        delta=delta,
        big_g=big_g,
        rabi=rabi,
        lambda_plus=mid + 0.5 * rabi,
        lambda_minus=mid - 0.5 * rabi,
        l_coef=0.5 * (1.0 + ratio),
        m_coef=0.5 * (1.0 - ratio),
        n_coef=big_g / (2.0 * rabi),
    )


def basis_shape(cutoff: int) -> tuple:
    """Tensor shape (atom A, atom B, mode a, mode b) of the truncated product space."""
    if cutoff < 1:
        raise ValueError("Fock cutoff must be at least 1")
    return (2, 2, cutoff + 1, cutoff + 1)


def _basis_labels(cutoff: int) -> np.ndarray:
    """(atom_a, atom_b, n_a, n_b) of every flattened basis index; an excited atom is 1."""
    return np.indices(basis_shape(cutoff)).reshape(4, -1)


class StateFamily(Enum):
    """Named initial-state families (cavities in vacuum)."""

    PSI_ALPHA = "psi"    # cos(a)|eg00> + sin(a)|ge00>, one shared excitation
    PHI_ALPHA = "phi"    # cos(a)|ee00> + sin(a)|gg00>, zero or two excitations
    CUSTOM = "custom"


@dataclass(frozen=True)
class InitialState:
    """Initial state of the total system.

    For the named families ``alpha`` is the superposition angle; any real value up to
    ``ALPHA_MAX`` in size is accepted (the concurrence formulas only involve ``|sin 2a|``).
    A custom state supplies the full flattened amplitude vector instead.
    """

    family: StateFamily
    alpha: float = 0.0
    custom_amplitudes: np.ndarray | None = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.family is StateFamily.CUSTOM:
            if self.custom_amplitudes is None:
                raise ValueError("custom family requires an amplitude vector")
            amps = np.asarray(self.custom_amplitudes, dtype=complex)
            if not abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL:
                raise ValueError("custom amplitudes must have unit norm")
            amps.flags.writeable = False
            object.__setattr__(self, "custom_amplitudes", amps)
        elif self.custom_amplitudes is not None:
            raise ValueError("custom amplitudes only apply to the custom family")

    @classmethod
    def psi(cls, alpha: float) -> "InitialState":
        return cls(StateFamily.PSI_ALPHA, alpha)

    @classmethod
    def phi(cls, alpha: float) -> "InitialState":
        return cls(StateFamily.PHI_ALPHA, alpha)

    @classmethod
    def custom(cls, amplitudes: np.ndarray) -> "InitialState":
        return cls(StateFamily.CUSTOM, custom_amplitudes=amplitudes)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over the flattened basis at a given cutoff."""

    amplitudes: np.ndarray
    cutoff: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (math.prod(basis_shape(self.cutoff)),):
            raise ValueError("amplitude vector length does not match cutoff")
        if not abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL:
            raise ValueError("state vector must have unit norm")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Two-qubit density matrix: Hermitian, unit trace, positive semidefinite."""

    entries: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.entries, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if not (np.isfinite(rho).all() and np.abs(rho - rho.conj().T).max() <= HERMITICITY_TOL):  # no inf is subtracted
            raise ValueError("density matrix must be Hermitian with finite entries")
        if abs(rho.trace() - 1.0) > TRACE_TOL:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(rho).min() < PSD_TOL:
            raise ValueError("density matrix must be positive semidefinite")
        rho.flags.writeable = False
        object.__setattr__(self, "entries", rho)


def initial_state_vector(init: InitialState, cutoff: int) -> PureState:
    """Embed an initial state into the truncated product space.

    The named families place ``cos(alpha)`` / ``sin(alpha)`` on their two
    basis elements with both cavities in vacuum.  A custom state may not hold
    weight where an atom-cavity pair has more than ``cutoff`` excitations: there
    |e, cutoff> lacks its partner |g, cutoff + 1>, so the truncated dynamics
    would freeze it instead of failing visibly.
    """
    shape = basis_shape(cutoff)
    if init.family is StateFamily.CUSTOM:
        amps = init.custom_amplitudes
        if amps.shape != (math.prod(shape),):
            raise ValueError("custom amplitude vector length does not match cutoff")
        atom_a, atom_b, n_a, n_b = _basis_labels(cutoff)
        for name, excitations in (("Aa", atom_a + n_a), ("Bb", atom_b + n_b)):
            if np.any(amps[excitations > cutoff] != 0):
                weight = float(np.sum(np.abs(amps[excitations > cutoff]) ** 2))
                raise ValueError(f"custom state holds weight {weight:.3e} where pair {name} has more excitations "
                                 f"than cutoff {cutoff} can hold")
        return PureState(amps.copy(), cutoff)

    amps = np.zeros(shape, dtype=complex)
    if init.family is StateFamily.PSI_ALPHA:
        amps[1, 0, 0, 0] = math.cos(init.alpha)
        amps[0, 1, 0, 0] = math.sin(init.alpha)
    else:
        amps[1, 1, 0, 0] = math.cos(init.alpha)
        amps[0, 0, 0, 0] = math.sin(init.alpha)
    return PureState(amps.ravel(), cutoff)
