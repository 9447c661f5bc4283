"""Array coercion and shape/finiteness checks shared by every module.

All numeric data is float64 numpy, row-major. W[i][j] is the weight from
input j to output neuron i.
"""

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "NonFiniteError",
    "as_vector",
    "as_matrix",
    "check_finite",
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
