"""Exception hierarchy shared across the toolkit, and its field type rule."""

import math
import numbers
from dataclasses import fields
from functools import cache

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


# what each annotation admits: (type, whether None is allowed, what it is)
_KINDS = {"float": (numbers.Real, False, "a real number"),
          "float | None": (numbers.Real, True, "a real number or null"),
          "int": (numbers.Integral, False, "an integer"),
          "bool": (bool, False, "true or false")}


@cache
def _field_kinds(cls) -> tuple:
    """(name, kind) of each field of a dataclass whose annotation, a string
    under postponed evaluation, is in _KINDS."""
    return tuple((f.name, _KINDS[f.type]) for f in fields(cls) if f.type in _KINDS)


def _holds(value, kind, optional: bool) -> bool:
    """Whether value is what a field of this kind admits."""
    if isinstance(value, float):    # np.float64 too, without the ABC checks below
        return kind is numbers.Real and math.isfinite(value)
    if value is None:
        return optional
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind) and (kind is not numbers.Real or math.isfinite(value))


def require_finite(obj, what: str) -> None:
    """DomainError unless every field of the dataclass obj holds what its
    annotation says: a float field a finite real number, an int field an
    integer, a bool field a bool (a bool is no number), and an optional
    field may hold None.  Fields of other types, such as nested parameter
    sets, which check their own fields, are left alone."""
    values = vars(obj)
    for name, (kind, optional, wanted) in _field_kinds(type(obj)):
        value = values[name]
        if not _holds(value, kind, optional):
            if kind is numbers.Real and isinstance(value, (float, np.floating)):
                wanted = "finite"
            raise DomainError(f"{what} {name} must be {wanted}, got {value!r}")
