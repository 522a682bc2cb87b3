"""Simulation and analysis of linearly coupled concurrent dynamical systems
whose states, inputs, and outputs are dense tensors.

The public names are each module's __all__, re-exported here."""

from .tensors import *
from .systems import *
from .simulate import *
from .analysis import *
from .multirate import *
from .fileio import *
from . import analysis, fileio, multirate, simulate, systems, tensors

__version__ = "0.1.0"

# analysis re-exports systems.UnfoldedSystem; dict.fromkeys lists it once
__all__ = [
    *dict.fromkeys(n for m in (tensors, systems, simulate, analysis, multirate, fileio) for n in m.__all__),
    "__version__",
]
