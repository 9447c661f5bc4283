"""Array coercion and shape/finiteness checks shared by every module.

All numeric data is float64 numpy, row-major. W[i][j] is the weight from
input j to output neuron i.
"""

import math
import numbers

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "NonFiniteError",
    "as_vector",
    "as_matrix",
    "check_finite",
    "as_int",
    "as_float",
    "require_int",
]


class ShapeMismatchError(ValueError):
    """Operand shapes do not agree."""


class NonFiniteError(ArithmeticError):
    """A public operation produced NaN or Inf."""


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def as_matrix(w) -> np.ndarray:
    m = np.asarray(w, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


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
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def require_int(owner, *names) -> None:
    """Raise ValueError naming the first field of `owner` in `names` whose
    value is not an integer (see as_int)."""
    for name in names:
        as_int(getattr(owner, name), name)
