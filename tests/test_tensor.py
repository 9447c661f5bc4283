import dataclasses
import re
import typing
from typing import Optional

import numpy as np
import pytest

from relukit.pruning import PruningConfig
from relukit.repair import RepairConfig
from relukit.tensor import (NonFiniteError, ShapeMismatchError, as_declared,
                            as_float, as_matrix, as_vector, check_finite)
from relukit.training import TrainingConfig
from relukit.verifier import BabConfig


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
                                       np.float32("inf"), 10 ** 400])
    def test_non_finite_is_rejected(self, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"x must be finite, got {value!r}")):
            as_float(value, "x")


class TestAsDeclared:
    @pytest.mark.parametrize("value,kind,expected", [
        (np.int64(3), int, 3), (10, float, 10), (0.5, Optional[float], 0.5),
        (None, Optional[float], None), (False, bool, False),
        ("net", str, "net"), ([1, np.int64(2)], list[int], [1, 2]),
        ([], list[int], []), ({"epochs": 1}, TrainingConfig, {"epochs": 1})],
        ids=["numpy-int", "int-as-float", "optional-float", "optional-none",
             "bool", "str", "int-list", "empty-list", "unknown-kind"])
    def test_value_of_its_kind_is_read(self, value, kind, expected):
        got = as_declared(value, kind, "x")
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("value,kind,message", [
        (None, int, "x must be an integer, got None"),
        (None, float, "x must be a number, got None"),
        (1, bool, "x must be true or false, got 1"),
        (None, str, "x must be a string, got None"),
        (b"net", str, "x must be a string, got b'net'"),
        (4, list[int], "x must be a list of integers, got 4"),
        ((1, 2), list[int], "x must be a list of integers, got (1, 2)"),
        ([1, 2.5], list[int], "x must be an integer, got 2.5"),
        ([True], list[int], "x must be an integer, got True")])
    def test_value_of_another_kind_is_refused(self, value, kind, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_declared(value, kind, "x")


# Each config class, with the arguments it needs besides the field under
# test; fields of these classes hold nested configs.
CONFIG_CLASSES = [(TrainingConfig, {}), (BabConfig, {}), (RepairConfig, {}),
                  (PruningConfig, {"method": "weight_pruning", "ratio": 0.5})]
NESTED = {TrainingConfig, BabConfig}


def declared_kinds(annotation) -> set:
    return set(typing.get_args(annotation) or (annotation,)) - {type(None)}


def wrong_values(kinds) -> list:
    """Values the typing rule must refuse in a field declared as kinds."""
    return (([True, "1"] if kinds & {int, float} else [])
            + ([1.5] if int in kinds else [])
            + ([1] if bool in kinds else [])
            + ([3] if str in kinds else []))


def config_type_cases():
    for cls, base in CONFIG_CLASSES:
        for f in dataclasses.fields(cls):
            for value in wrong_values(declared_kinds(f.type)):
                yield pytest.param(cls, base, f.name, value,
                                   id=f"{cls.__name__}.{f.name}={value!r}")


class TestConfigFieldTypes:
    """Built from dataclasses.fields, so a field added later is covered."""

    @pytest.mark.parametrize("cls,base,name,value", config_type_cases())
    def test_wrong_type_names_the_field(self, cls, base, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            cls(**{**base, name: value})

    @pytest.mark.parametrize("cls,base", CONFIG_CLASSES,
                             ids=[c.__name__ for c, _ in CONFIG_CLASSES])
    def test_every_field_is_swept_or_nested(self, cls, base):
        cls(**base)
        for f in dataclasses.fields(cls):
            kinds = declared_kinds(f.type)
            assert wrong_values(kinds) or kinds <= NESTED, f.name
