"""Shared exception base and input checks.

Every operational error raised by this package derives from
:class:`ExtremControlError`, so callers (and the CLI) can catch one type.
Precondition violations that indicate caller bugs raise ``ValueError``.

Every JSON reader and CLI flag checks its input with the functions below,
so a fault reads the same wherever it is found; `where` names the value.
A JSON number is an int or a float, never a bool, a numeric string or
null; `finite` and `finite_positive` take a real number or an array.
"""

from __future__ import annotations

import math
import operator
from numbers import Real

import numpy as np


class ExtremControlError(Exception):
    """Base class for operational errors raised by extremctl."""


def json_object(value, where: str, keys=None) -> dict:
    """`value`, if it is a JSON object holding no key outside `keys` (when
    given), so a misspelt field never runs as its default."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys)) if keys is not None else ()
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))}")
    return value


def entry(d, key: str, where: str):
    """d[key], where `d` is the JSON object read as `where`."""
    if key not in json_object(d, where):
        raise ValueError(f"{where} has no {key!r}")
    return d[key]


def number(value, where: str) -> float:
    """A JSON number as a float."""
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(f"{where} must be a number")


def numbers(value, where: str, n: int | None = None) -> list:
    """A JSON list of numbers, n of them when n is given, as floats."""
    if type(value) is list and (n is None or len(value) == n):
        try:
            return [number(v, where) for v in value]
        except ValueError:
            pass
    raise ValueError(f"{where} must be a list of {'' if n is None else f'{n} '}numbers")


def integer(value, where: str) -> int:
    """`value` as an int, if it is an integer and not a bool; numpy
    integers pass through operator.index."""
    if isinstance(value, bool):
        raise ValueError(f"{where} {value!r} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{where} {value!r} must be an integer") from None


def _finite(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf" and bool(np.isfinite(value).all())
    try:
        return isinstance(value, Real) and type(value) is not bool and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _refuse(value, where: str, error: type[Exception], need: str, unit: str = ""):
    shown = repr(value) if isinstance(value, str) else str(value)
    raise error(f"{where} {shown}{' ' + unit if unit else ''} must be {need}")


def finite(value, where: str, error: type[Exception] = ValueError, unit: str = ""):
    """`value`, if it is finite; `unit` follows the value in the message."""
    if not _finite(value):
        _refuse(value, where, error, "finite numbers" if np.ndim(value) else "a finite number", unit)
    return value


def finite_positive(value, where: str, error: type[Exception] = ValueError, unit: str = ""):
    """`value`, if it is finite and above zero; `unit` follows the value
    in the message."""
    if not (_finite(value) and np.all(np.greater(value, 0))):
        _refuse(value, where, error, "finite and positive", unit)
    return value
