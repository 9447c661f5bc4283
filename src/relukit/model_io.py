"""Versioned on-disk model document (JSON) with bit-exact round-tripping."""

import json
import os
import tempfile

from .network import (BatchNorm1DNode, FullyConnectedNode, ReLUNode,
                      SequentialNetwork, validate)
from .tensor import as_int

__all__ = ["FORMAT_VERSION", "ModelFormatError", "save_model", "load_model",
           "network_to_document", "document_to_network", "atomic_write_text"]

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Malformed or unsupported model document."""


def network_to_document(net: SequentialNetwork) -> dict:
    errors = validate(net)
    if errors:
        raise ValueError("refusing to save invalid network: " + "; ".join(errors))
    layers = []
    for node in net.nodes:
        if isinstance(node, FullyConnectedNode):
            layers.append({
                "kind": "fully_connected",
                "in": node.in_dim,
                "out": node.out_dim,
                "weights": node.weights.tolist(),
                "bias": node.bias.tolist(),
            })
        elif isinstance(node, BatchNorm1DNode):
            layers.append({
                "kind": "batch_norm_1d",
                "dim": node.dim,
                "gamma": node.gamma.tolist(),
                "beta": node.beta.tolist(),
                "running_mean": node.running_mean.tolist(),
                "running_var": node.running_var.tolist(),
                "eps": node.eps,
            })
        else:
            layers.append({"kind": "relu", "dim": node.dim})
    return {
        "format_version": FORMAT_VERSION,
        "name": net.name,
        "input_dim": net.input_dim,
        "layers": layers,
    }


def _field(record: dict, key: str, index: int):
    if key not in record:
        raise ModelFormatError(f"layer {index}: missing field '{key}'")
    return record[key]


def _size(record: dict, key: str, index: int) -> int:
    """A layer's size field; ValueError naming it when not an integer."""
    return as_int(_field(record, key, index), key)


def document_to_network(doc: dict) -> SequentialNetwork:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version: {version!r}")
    for key in ("name", "input_dim", "layers"):
        if key not in doc:
            raise ModelFormatError(f"missing top-level field '{key}'")
    nodes = []
    for i, record in enumerate(doc["layers"]):
        kind = _field(record, "kind", i)
        try:
            if kind == "fully_connected":
                node = FullyConnectedNode(_field(record, "weights", i),
                                          _field(record, "bias", i))
                if node.in_dim != _size(record, "in", i) or \
                        node.out_dim != _size(record, "out", i):
                    raise ModelFormatError(
                        f"layer {i}: declared dims ({record['in']}, {record['out']}) "
                        f"do not match weights shape {node.weights.shape}")
            elif kind == "batch_norm_1d":
                node = BatchNorm1DNode(
                    _field(record, "gamma", i), _field(record, "beta", i),
                    _field(record, "running_mean", i),
                    _field(record, "running_var", i), _field(record, "eps", i))
                if node.dim != _size(record, "dim", i):
                    raise ModelFormatError(
                        f"layer {i}: declared dim {record['dim']} does not match "
                        f"gamma length {node.dim}")
            elif kind == "relu":
                node = ReLUNode(_size(record, "dim", i))
            else:
                raise ModelFormatError(f"layer {i}: unknown layer kind {kind!r}")
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ModelFormatError):
                raise
            raise ModelFormatError(f"layer {i}: {exc}") from exc
        nodes.append(node)
    try:
        input_dim = as_int(doc["input_dim"], "input_dim")
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    net = SequentialNetwork(str(doc["name"]), input_dim, nodes)
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
