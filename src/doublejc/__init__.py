"""doublejc: entanglement dynamics of two independent Jaynes-Cummings pairs.

Two two-level atoms sit in separate lossless single-mode cavities and never
interact with each other.  The package evaluates the closed-form atom-atom
concurrence of the two standard entangled initial-state families, checks it
against an independent brute-force propagation oracle, and analyses sudden
death and periodic revival of the entanglement.
"""

from .model import (
    BasisIndex,
    DensityMatrix,
    InitialState,
    JCConstants,
    ModelParams,
    PureState,
    StateFamily,
    basis_dimension,
    derive_constants,
    initial_state_vector,
)
from .closedform import (
    PhiAmplitudes,
    PsiAmplitudes,
    phi_amplitudes,
    phi_concurrence,
    phi_f,
    phi_reduced_density,
    psi_amplitudes,
    psi_concurrence,
    psi_reduced_density,
)
from .numerics import (
    ALL_PAIRS,
    ATOM_PAIR,
    Propagator,
    QubitEquivalenceError,
    Subsystem,
    SubsystemPair,
    build_hamiltonian,
    pair_concurrence,
    pair_concurrences,
    partial_trace_pair,
    total_excitation,
    wootters_concurrence,
)
from .analysis import (
    ConcurrenceSeries,
    DeathReport,
    Source,
    ValidationReport,
    death_threshold_alpha,
    detect_death,
    scan,
    scan_pairs,
    sweep_alpha,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PAIRS",
    "ATOM_PAIR",
    "BasisIndex",
    "ConcurrenceSeries",
    "DeathReport",
    "DensityMatrix",
    "InitialState",
    "JCConstants",
    "ModelParams",
    "PhiAmplitudes",
    "Propagator",
    "PsiAmplitudes",
    "PureState",
    "QubitEquivalenceError",
    "Source",
    "StateFamily",
    "Subsystem",
    "SubsystemPair",
    "ValidationReport",
    "basis_dimension",
    "build_hamiltonian",
    "death_threshold_alpha",
    "derive_constants",
    "detect_death",
    "initial_state_vector",
    "pair_concurrence",
    "pair_concurrences",
    "partial_trace_pair",
    "phi_amplitudes",
    "phi_concurrence",
    "phi_f",
    "phi_reduced_density",
    "psi_amplitudes",
    "psi_concurrence",
    "psi_reduced_density",
    "scan",
    "scan_pairs",
    "sweep_alpha",
    "total_excitation",
    "validate",
    "wootters_concurrence",
]
