import numpy as np
import pytest

from relukit.tensor import (NonFiniteError, ShapeMismatchError, as_matrix,
                            as_vector, check_finite)


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
