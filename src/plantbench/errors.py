"""Exception types shared across the package.

The hierarchy is intentionally shallow: anything raised for bad input,
malformed files, or violated structural invariants derives from
ValidationError, which SolverConfig and SweepSpec raise when they are
made.  dynamics.run raises DivergenceError when a trajectory leaves the
trust region (|x| beyond 1e6 or not finite); no CLI exit code maps to it.
"""

__all__ = [
    "PlantbenchError",
    "ValidationError",
    "UnsupportedDimensionError",
    "CapacityError",
    "DivergenceError",
]


class PlantbenchError(Exception):
    """Base class for all package errors."""


class ValidationError(PlantbenchError):
    """Invalid argument, malformed file, or violated structural invariant."""


class UnsupportedDimensionError(ValidationError):
    """Requested size is outside the range a construction supports."""


class CapacityError(ValidationError):
    """Requested count exceeds what the construction or solver can hold."""


class DivergenceError(PlantbenchError):
    """A trajectory left the trust region during integration."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"trajectory diverged at step {step} (|x| beyond 1e6 or not finite)")

