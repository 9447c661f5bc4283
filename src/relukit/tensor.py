"""Array coercion, shape/finiteness checks and config value typing.

All numeric data is float64 numpy, row-major. W[i][j] is the weight from
input j to output neuron i.
"""

import dataclasses
import math
import numbers
from typing import Union, get_args, get_origin

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "NonFiniteError",
    "as_vector",
    "as_matrix",
    "check_finite",
    "as_int",
    "as_float",
    "as_declared",
    "check_fields",
]


class ShapeMismatchError(ValueError):
    """Operand shapes do not agree."""


class NonFiniteError(ArithmeticError):
    """A public operation produced NaN or Inf."""


def _as_numbers(x, ndim: int, shape: str, name: str) -> np.ndarray:
    """x as a float64 array of ndim dimensions; ValueError naming `name`
    when x is ragged or an entry is not a number (a string, None or a bool),
    ShapeMismatchError for another ndim. OverflowError for an int beyond
    the float range."""
    try:
        a = np.asarray(x)
    except ValueError as exc:  # a ragged nest of lists
        raise ValueError(f"{name} must be a {shape} of numbers, got a ragged "
                         "list") from exc
    if a.dtype.kind not in "iuf":
        bad = [v for v in a.ravel().tolist() if type(v) not in (int, float)]
        if bad or a.dtype.kind != "O":
            raise ValueError(f"{name} must hold only numbers, found "
                             f"{bad[0] if bad else a.dtype!r}")
        a = a.astype(np.float64)  # holds an int beyond 64 bits
    if a.ndim != ndim:
        raise ShapeMismatchError(f"{name} must be a {shape}, got shape {a.shape}")
    return a.astype(np.float64, copy=False)


def as_vector(x, name: str = "input") -> np.ndarray:
    return _as_numbers(x, 1, "1-D vector", name)


def as_matrix(w, name: str = "input") -> np.ndarray:
    return _as_numbers(w, 2, "2-D matrix", name)


def check_finite(arr: np.ndarray, context: str = "result") -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {context}")
    return arr


def as_int(value, name: str) -> int:
    """value as an int; ValueError naming `name` when it is not an integer.
    A bool is not one; a numpy integer is."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float(value, name: str) -> float:
    """value as a float; ValueError naming `name` unless a finite non-bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def as_declared(value, kind, name: str):
    """value read by its declared type `kind`, ValueError naming `name`: an
    int by as_int, a float checked by as_float and returned as given (an
    echoed 10 stays 10), a bool, str or list[int] (each element by as_int)
    only as one. Optional[...] also takes None; other kinds pass through."""
    kinds = get_args(kind) if get_origin(kind) is Union else (kind,)
    if value is None and type(None) in kinds:
        return None
    if int in kinds:
        return as_int(value, name)
    if float in kinds:
        as_float(value, name)
    elif bool in kinds and not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    elif str in kinds and not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    elif list[int] in kinds and not isinstance(value, list):
        raise ValueError(f"{name} must be a list of integers, got {value!r}")
    elif list[int] in kinds:
        return [as_int(v, name) for v in value]
    return value


def check_fields(obj) -> None:
    """as_declared on every field of the dataclass instance obj."""
    for f in dataclasses.fields(obj):
        as_declared(getattr(obj, f.name), f.type, f.name)
