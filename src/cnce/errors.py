"""Exception types shared across the package, and the checks that turn a
config value into an int, a float or a tuple or raise ``ParameterError``."""

import dataclasses
import math
import numbers


class CnceError(Exception):
    """Base class for all package errors."""


class DomainError(CnceError, ValueError):
    """A point lies outside the domain of a model or kernel."""


class ParameterError(CnceError, ValueError):
    """Parameters violate a model invariant (non-PD precision, singular
    demixing matrix, non-positive scale, ...)."""


class SingularityError(CnceError, ValueError):
    """Evaluation requested at a point where the operation is singular
    (e.g. the radial gradient at the origin)."""


class UnsupportedModelError(CnceError, ValueError):
    """The operation is not defined for this model kind."""


def _integer(value, what: str) -> int:
    """An integer or integral float as an int; anything else (2.7, a bool, a
    string) raises instead of being truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParameterError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str) -> float:
    """A finite real number as a float; anything else (a bool, a string,
    nan) raises instead of being converted."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)):
        return float(value)
    raise ParameterError(f"{what} must be a finite real number, got {value!r}")


def _sequence(value, what: str) -> tuple:
    """A list or tuple as a tuple; anything else (a string, which would
    split into characters, a number) raises naming the field."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    raise ParameterError(f"{what} must be a list, got {value!r}")


def convert_fields(obj):
    """Pass each field of the frozen dataclass ``obj`` annotated ``int`` or
    ``float`` (a string, under ``from __future__ import annotations``)
    through ``_integer`` or ``_real``, in place."""
    for f in dataclasses.fields(obj):
        convert = {"int": _integer, "float": _real}.get(f.type)
        if convert is not None:
            object.__setattr__(obj, f.name, convert(getattr(obj, f.name), f.name))
