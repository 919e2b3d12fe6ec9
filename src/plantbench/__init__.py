"""Benchmark toolkit for QUBO instances with planted, weight-separated solutions.

The package generates coupling matrices whose low-energy states are
known binary patterns embedded through a weighted outer-product rule,
integrates several relaxation dynamics (first order, scheduled,
second order, and a bifurcation machine) that act as analog solvers,
and provides the measurement harness: exact small-instance oracles,
success-rate sweeps, complexity-transition scans, and energy-landscape
statistics across pattern counts.

The top-level namespace re-exports the __all__ list of each module
below, so every public name is listed once, in its own module.
"""

from . import bench, dynamics, energy, errors, instance, oracle
from .errors import *
from .instance import *
from .energy import *
from .oracle import *
from .dynamics import *
from .bench import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *instance.__all__,
    *energy.__all__,
    *oracle.__all__,
    *dynamics.__all__,
    *bench.__all__,
]
