"""Exception hierarchy shared across the toolkit and its rule for numeric
inputs.

The finite, sign and grid checks of the package's numeric inputs are
stated here once: a dataclass's fields against their annotations
(require_finite), plain numbers and arrays against finiteness and sign
(require_finite_values, require_non_negative, require_positive; the sign
rules refuse NaN and +-inf too), and a detuning grid (finite_grid), which
is returned as a float array.  A refusal is a DomainError that names the
input and the rule it breaks, "{what} must be finite", "... must be
non-negative and finite" or "... must be positive and finite", and, for a
single number, its value.  Bounds that belong to one input, such as a
reflectivity in [0, 1], stay beside that input.
"""

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


def _require(what: str, values, admits, rule: str) -> None:
    """DomainError unless admits(v) holds for each of `values`, a number or
    an array of numbers (elementwise); the message names a number's value."""
    for v in values:
        # a float (np.float64 too) is tested without numpy's array overhead
        if not (admits(v) if isinstance(v, float) else np.all(admits(np.asarray(v)))):
            got = f", got {np.asarray(v).item()!r}" if np.ndim(v) == 0 else ""
            raise DomainError(f"{what} must be {rule}{got}")


def require_finite_values(what: str, *values) -> None:
    """DomainError unless each of `values`, a number or an array of numbers,
    is finite; `what` names them in the message."""
    _require(what, values, lambda v: abs(v) < math.inf, "finite")


def require_non_negative(what: str, *values) -> None:
    """DomainError unless each of `values` is finite and >= 0."""
    _require(what, values, lambda v: (v >= 0) & (v < math.inf), "non-negative and finite")


def require_positive(what: str, *values) -> None:
    """DomainError unless each of `values` is finite and > 0."""
    _require(what, values, lambda v: (v > 0) & (v < math.inf), "positive and finite")


def finite_grid(what: str, values) -> np.ndarray:
    """`values` as a float array of at least one dimension (a number is a
    grid of one point); DomainError unless every point is finite."""
    grid = np.atleast_1d(np.asarray(values, dtype=float))
    require_finite_values(what, grid)
    return grid
