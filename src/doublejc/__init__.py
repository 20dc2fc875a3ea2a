"""doublejc: entanglement dynamics of two independent Jaynes-Cummings pairs.

Two two-level atoms sit in separate lossless single-mode cavities and never
interact with each other.  The package evaluates the closed-form atom-atom
concurrence of the two standard entangled initial-state families, checks it
against an independent brute-force propagation oracle, and analyses sudden
death and periodic revival of the entanglement.
"""

from . import analysis, closedform, model, numerics
from .analysis import *  # noqa: F403
from .closedform import *  # noqa: F403
from .model import *  # noqa: F403
from .numerics import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ lists its public names once; the package re-exports them all
__all__ = [name for module in (model, closedform, numerics, analysis) for name in module.__all__]
