"""Exception types shared across the package.

The hierarchy is intentionally shallow: anything raised for bad input,
malformed files, or violated structural invariants derives from
ValidationError; a numerical failure (a diverging trajectory) gets its
own class so callers can map it to a distinct exit code.
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

    def __init__(self, step: int, max_abs: float):
        self.step = step
        self.max_abs = max_abs
        super().__init__(
            f"trajectory diverged at step {step} (max |x| = {max_abs:.3e})"
        )

