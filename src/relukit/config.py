"""Config-document plumbing shared by the CLI and the experiment runner.

All documents are JSON objects; unknown keys are rejected so typos fail
loudly before any work starts.
"""

import functools
import inspect
import os

from .datasets import Dataset, load_idx_dataset, synth_blobs
from .tensor import as_declared, as_int
from .training import TrainingConfig
from .verifier import BabConfig

__all__ = ["ConfigError", "validate_keys", "training_config_from",
           "bab_config_from", "dataset_from"]


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def validate_keys(obj: dict, allowed, context: str, required=()) -> None:
    """obj must be an object, its keys all in allowed and covering required."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object")
    for problem, keys in (("unknown", set(obj) - set(allowed)),
                          ("missing", set(required) - set(obj))):
        if keys:
            raise ConfigError(f"{context}: {problem} keys {sorted(keys)}")


def _from_signature(fn, obj: dict, context: str, **fixed):
    """fn(**obj, **fixed), where obj gives fn's other parameters (those with
    no default are required), each read by as_declared. A bad key or value,
    or fn's TypeError or ValueError, is a ConfigError naming context."""
    params = {k: p for k, p in inspect.signature(fn).parameters.items()
              if k not in fixed}
    validate_keys(obj, params, context,
                  [k for k, p in params.items() if p.default is p.empty])
    try:
        return fn(**{k: as_declared(v, params[k].annotation, k)
                     for k, v in obj.items()}, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


training_config_from = functools.partial(_from_signature, TrainingConfig)
bab_config_from = functools.partial(_from_signature, BabConfig)


_IDX_KEYS = ("train_images", "train_labels", "test_images", "test_labels",
             "input_dim", "num_classes")


def dataset_from(obj: dict, context: str = "dataset") -> Dataset:
    validate_keys(obj, ("synth", "idx"), context)
    if ("synth" in obj) == ("idx" in obj):
        raise ConfigError(f"{context}: provide exactly one of 'synth' or 'idx'")
    if "synth" in obj:
        return _from_signature(synth_blobs, obj["synth"], f"{context}.synth")
    spec = obj["idx"]
    validate_keys(spec, _IDX_KEYS, f"{context}.idx", _IDX_KEYS)
    for key in _IDX_KEYS[:4]:  # an int would be opened as a file descriptor
        if not isinstance(spec[key], (str, os.PathLike)):
            raise ConfigError(f"{context}.idx.{key} must be a path, "
                              f"got {spec[key]!r}")
    ds = load_idx_dataset(*(spec[key] for key in _IDX_KEYS[:4]))
    declared = tuple(as_int(spec[key], f"{context}.idx.{key}")
                     for key in ("input_dim", "num_classes"))
    if declared != (ds.input_dim, ds.num_classes):
        raise ConfigError(f"{context}.idx: declared (input_dim, num_classes) "
                          f"{declared} != {(ds.input_dim, ds.num_classes)} "
                          "read from the files")
    return ds
