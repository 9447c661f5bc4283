"""Versioned on-disk model document (JSON) with bit-exact round-tripping."""

import json
import os
import tempfile
from dataclasses import fields

import numpy as np

from .network import (BatchNorm1DNode, FullyConnectedNode, ReLUNode,
                      SequentialNetwork, _node_dims, validate)
from .tensor import as_int

__all__ = ["FORMAT_VERSION", "ModelFormatError", "save_model", "load_model",
           "network_to_document", "document_to_network", "atomic_write_text"]

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Malformed or unsupported model document."""


# The document's kind of each node class; a layer record holds its kind,
# its sizes (_sizes) and then each field of its node class, in field order.
_KINDS = {"fully_connected": FullyConnectedNode,
          "batch_norm_1d": BatchNorm1DNode, "relu": ReLUNode}


def _sizes(node) -> dict:
    d_in, d_out = _node_dims(node)
    if isinstance(node, FullyConnectedNode):
        return {"in": d_in, "out": d_out}
    return {"dim": d_in}


def network_to_document(net: SequentialNetwork) -> dict:
    errors = validate(net)
    if errors:
        raise ValueError("refusing to save invalid network: " + "; ".join(errors))
    kind_of = {cls: kind for kind, cls in _KINDS.items()}
    layers = []
    for node in net.nodes:
        record = {"kind": kind_of[type(node)], **_sizes(node)}
        for f in fields(node):
            value = getattr(node, f.name)
            record[f.name] = (value.tolist() if isinstance(value, np.ndarray)
                              else value)
        layers.append(record)
    return {
        "format_version": FORMAT_VERSION,
        "name": net.name,
        "input_dim": net.input_dim,
        "layers": layers,
    }


def _field(record: dict, key: str):
    if key not in record:
        raise ModelFormatError(f"missing field '{key}'")
    return record[key]


def _read_layer(record):
    """The node a layer record describes; ValueError when it is malformed."""
    if not isinstance(record, dict):
        raise ModelFormatError("expected an object")
    kind = _field(record, "kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ModelFormatError(f"unknown layer kind {kind!r}")
    cls = _KINDS[kind]
    node = cls(**{f.name: _field(record, f.name) for f in fields(cls)})
    sizes = _sizes(node)
    declared = {key: as_int(_field(record, key), key) for key in sizes}
    if declared != sizes:
        raise ModelFormatError(f"declared dims {declared} do not match "
                               f"the arrays' {sizes}")
    return node


def document_to_network(doc: dict) -> SequentialNetwork:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version: {version!r}")
    for key in ("name", "input_dim", "layers"):
        if key not in doc:
            raise ModelFormatError(f"missing top-level field '{key}'")
    if not isinstance(doc["layers"], list):
        raise ModelFormatError("layers must be a list")
    nodes = []
    for i, record in enumerate(doc["layers"]):
        try:
            nodes.append(_read_layer(record))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"layer {i}: {exc}") from exc
    try:
        net = SequentialNetwork(doc["name"], doc["input_dim"], nodes)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    errors = validate(net)
    if errors:
        raise ModelFormatError("document decodes to an invalid network: "
                               + "; ".join(errors))
    return net


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(net: SequentialNetwork, destination: str) -> None:
    doc = network_to_document(net)
    atomic_write_text(destination, json.dumps(doc, indent=1))


def load_model(source: str) -> SequentialNetwork:
    with open(source) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{source}: invalid JSON at line {exc.lineno}, "
                                   f"column {exc.colno}: {exc.msg}") from exc
    return document_to_network(doc)
