"""Exception types shared across the package.

The hierarchy is intentionally shallow: anything raised for bad input,
malformed files, or violated structural invariants derives from
ValidationError, which SolverConfig and SweepSpec raise when they are
made.  A trajectory that leaves the trust region (|x| beyond 1e6 or not
finite) raises nothing: run_batch flags its row as diverged.
"""

__all__ = [
    "PlantbenchError",
    "ValidationError",
    "UnsupportedDimensionError",
    "CapacityError",
]


class PlantbenchError(Exception):
    """Base class for all package errors."""


class ValidationError(PlantbenchError):
    """Invalid argument, malformed file, or violated structural invariant."""


class UnsupportedDimensionError(ValidationError):
    """Requested size is outside the range a construction supports."""


class CapacityError(ValidationError):
    """Requested count exceeds what the construction or solver can hold."""

