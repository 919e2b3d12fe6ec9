"""Benchmark toolkit for QUBO instances with planted, weight-separated solutions.

The package generates coupling matrices whose low-energy states are
known binary patterns embedded through a weighted outer-product rule,
integrates several relaxation dynamics (first order, scheduled,
second order, and a bifurcation machine) that act as analog solvers,
and provides the measurement harness: exact small-instance oracles,
success-rate sweeps, complexity-transition scans, and energy-landscape
statistics across pattern counts.

The top-level namespace re-exports the __all__ list of each module
below, so every public name is listed once, in its own module.  The
numeric modules, their names and __all__ itself are imported on first
access (PEP 562), so `import plantbench` does not import numpy.
"""

import importlib

__version__ = "0.1.0"

from . import errors, render
from .errors import *

# The modules whose names are re-exported on first access, in __all__ order.
_NUMERIC = ("instance", "energy", "oracle", "dynamics", "bench")


def __getattr__(name: str):
    # A submodule first: `from plantbench import cli` asks here before it
    # imports cli, and must not load the numeric modules.
    if name.isidentifier():
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    modules = [importlib.import_module(f"{__name__}.{mod}") for mod in _NUMERIC]
    if name == "__all__":
        value = ["__version__", *errors.__all__, *(n for m in modules for n in m.__all__)]
    else:
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value
