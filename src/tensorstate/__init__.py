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

__all__ = [*tensors.__all__, *systems.__all__, *simulate.__all__, *analysis.__all__, *multirate.__all__,
           *fileio.__all__, "__version__"]
