"""Config-document plumbing shared by the CLI and the experiment runner.

All documents are JSON objects; unknown keys are rejected so typos fail
loudly before any work starts.
"""

import dataclasses

from .datasets import Dataset, load_idx_dataset, synth_blobs
from .tensor import as_int
from .training import TrainingConfig
from .verifier import BabConfig

__all__ = ["ConfigError", "validate_keys", "training_config_from",
           "bab_config_from", "dataset_from"]


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def validate_keys(obj: dict, allowed, context: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def int_list(value, name: str) -> list:
    """value, a JSON array, as a list of ints; ConfigError naming `name` when
    it is not an array, as_int's ValueError when an element is no integer."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of integers, got {value!r}")
    return [as_int(v, name) for v in value]


def _from_fields(cls, obj: dict, context: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    validate_keys(obj, fields, context)
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def training_config_from(obj: dict, context: str = "train") -> TrainingConfig:
    return _from_fields(TrainingConfig, obj, context)


def bab_config_from(obj: dict, context: str = "verify") -> BabConfig:
    return _from_fields(BabConfig, obj, context)


_SYNTH_KEYS = ("seed", "n_per_class", "num_classes", "dim", "spread")
_IDX_KEYS = ("train_images", "train_labels", "test_images", "test_labels",
             "input_dim", "num_classes")


def dataset_from(obj: dict, context: str = "dataset") -> Dataset:
    validate_keys(obj, ("synth", "idx"), context)
    if ("synth" in obj) == ("idx" in obj):
        raise ConfigError(f"{context}: provide exactly one of 'synth' or 'idx'")
    if "synth" in obj:
        spec = obj["synth"]
        validate_keys(spec, _SYNTH_KEYS, f"{context}.synth")
        missing = set(_SYNTH_KEYS) - set(spec)
        if missing:
            raise ConfigError(f"{context}.synth: missing keys {sorted(missing)}")
        return synth_blobs(**spec)
    spec = obj["idx"]
    validate_keys(spec, _IDX_KEYS, f"{context}.idx")
    missing = set(_IDX_KEYS) - set(spec)
    if missing:
        raise ConfigError(f"{context}.idx: missing keys {sorted(missing)}")
    ds = load_idx_dataset(spec["train_images"], spec["train_labels"],
                          spec["test_images"], spec["test_labels"])
    declared = tuple(as_int(spec[key], f"{context}.idx.{key}")
                     for key in ("input_dim", "num_classes"))
    if declared != (ds.input_dim, ds.num_classes):
        raise ConfigError(f"{context}.idx: declared (input_dim, num_classes) "
                          f"{declared} != {(ds.input_dim, ds.num_classes)} "
                          "read from the files")
    return ds
