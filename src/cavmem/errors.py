"""Exception hierarchy shared across the toolkit, and its finite-field check."""

import math

import numpy as np


class CavmemError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CavmemError):
    """Inputs outside the physical or contractual domain of an operation."""


class StructuralError(CavmemError):
    """Malformed data structures (dimensions, invalid specs, bad files)."""


class NumericalError(CavmemError):
    """Solver non-convergence or failed numerical sanity checks."""


class ConfigError(CavmemError):
    """Invalid experiment configuration (unknown keys, bad values)."""


def require_finite(obj, what: str) -> None:
    """DomainError unless every floating-point field of obj is finite.  Other
    fields are left alone: integers, None for an unset optional value and
    nested parameter sets, which check their own fields."""
    for name, value in vars(obj).items():
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise DomainError(f"{what} {name} must be finite, got {value!r}")
