import re

import numpy as np
import pytest

from relukit.tensor import (NonFiniteError, ShapeMismatchError, as_float,
                            as_matrix, as_vector, check_finite)


class TestCoercion:
    def test_vector_is_float64(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64 and np.array_equal(v, [1.0, 2.0, 3.0])

    def test_vector_rejects_matrix(self):
        with pytest.raises(ShapeMismatchError, match="1-D"):
            as_vector([[1.0, 2.0]])

    def test_matrix_rejects_vector(self):
        with pytest.raises(ShapeMismatchError, match="2-D"):
            as_matrix([1.0, 2.0])


class TestCheckFinite:
    def test_finite_passes_through(self):
        arr = np.array([0.0, -1e308, 1e308])
        assert check_finite(arr) is arr

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_names_context(self, bad):
        with pytest.raises(NonFiniteError, match="node 3"):
            check_finite(np.array([1.0, bad]), "node 3")


class TestAsFloat:
    @pytest.mark.parametrize("value", [0, 3, -2.5, 1e308, np.float32(0.5),
                                       np.int64(7)])
    def test_finite_number_is_read(self, value):
        got = as_float(value, "x")
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.1",
                                       None, [1.0]])
    def test_non_number_is_rejected(self, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"x must be a number, got {value!r}")):
            as_float(value, "x")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), np.float32("nan"),
                                       np.float32("inf")])
    def test_non_finite_is_rejected(self, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"x must be finite, got {value!r}")):
            as_float(value, "x")
