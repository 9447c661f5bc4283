import json
import re

import numpy as np
import pytest

from conftest import random_net
from relukit.model_io import (ModelFormatError, load_model,
                              network_to_document, save_model)
from relukit.network import FullyConnectedNode, SequentialNetwork, validate


def params_of(net):
    out = []
    for node in net.nodes:
        if isinstance(node, FullyConnectedNode):
            out.extend([node.weights, node.bias])
        elif hasattr(node, "gamma"):
            out.extend([node.gamma, node.beta, node.running_mean,
                        node.running_var, np.array([node.eps])])
    return out


def test_round_trip_bit_exact(tmp_path):
    net = random_net([3, 8, 5, 2], seed=42)
    path = tmp_path / "model.json"
    save_model(net, str(path))
    loaded = load_model(str(path))
    for a, b in zip(params_of(net), params_of(loaded)):
        assert np.array_equal(a, b)  # bit-equal, no tolerance


def test_single_layer_document_structure(tmp_path):
    net = SequentialNetwork("tiny", 2,
                            [FullyConnectedNode([[0.1, 0.2]], [0.3])])
    doc = network_to_document(net)
    assert doc["format_version"] == 1
    assert len(doc["layers"]) == 1
    assert doc["layers"][0]["kind"] == "fully_connected"


def test_many_random_round_trips(tmp_path):
    path = tmp_path / "m.json"
    for seed in range(100):
        net = random_net([2, 4, 2], seed=seed, with_bn=seed % 2 == 0)
        save_model(net, str(path))
        loaded = load_model(str(path))
        for a, b in zip(params_of(net), params_of(loaded)):
            assert np.array_equal(a, b)


def test_unsupported_version(tmp_path):
    path = tmp_path / "bad.json"
    doc = network_to_document(random_net([2, 3, 2], seed=0))
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(str(path))


def test_unknown_layer_kind(tmp_path):
    path = tmp_path / "bad.json"
    doc = network_to_document(random_net([2, 3, 2], seed=0))
    doc["layers"][0]["kind"] = "conv2d"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="unknown layer kind"):
        load_model(str(path))


def test_hand_written_minimal_document(tmp_path):
    path = tmp_path / "hand.json"
    path.write_text(json.dumps({
        "format_version": 1, "name": "hand", "input_dim": 2,
        "layers": [{"kind": "fully_connected", "in": 2, "out": 1,
                    "weights": [[1.0, -1.0]], "bias": [0.5]}]}))
    net = load_model(str(path))
    assert net.input_dim == 2 and net.output_dim == 1
    assert validate(net) == []


def test_shape_inconsistency_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = network_to_document(random_net([2, 3, 2], seed=0))
    doc["layers"][0]["out"] = 7
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="declared dims"):
        load_model(str(path))


def test_load_never_yields_invalid_network(tmp_path):
    # decoded-but-structurally-broken document must be rejected
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "format_version": 1, "name": "bad", "input_dim": 2,
        "layers": [{"kind": "relu", "dim": 2}]}))
    with pytest.raises(ModelFormatError, match="invalid network"):
        load_model(str(path))


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ModelFormatError, match="line 1"):
        load_model(str(path))


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _relu_doc():
    fc = {"kind": "fully_connected"}
    return {"format_version": 1, "name": "sizes", "input_dim": 2,
            "layers": [{**fc, "in": 2, "out": 2, "weights": [[1, 0], [0, 1]],
                        "bias": [0, 0]},
                       {"kind": "relu", "dim": 2},
                       {**fc, "in": 2, "out": 1, "weights": [[1, -1]],
                        "bias": [0]}]}


@pytest.mark.parametrize("where, value, message", [
    ("input_dim", 2.9, "input_dim must be an integer, got 2.9"),
    ("input_dim", True, "input_dim must be an integer, got True"),
    ("input_dim", "2", "input_dim must be an integer, got '2'"),
    (1, 2.7, "layer 1: dim must be an integer, got 2.7"),
    (1, True, "layer 1: dim must be an integer, got True"),
    (0, 2.0, "layer 0: in must be an integer, got 2.0"),
])
def test_non_integer_size_rejected(tmp_path, where, value, message):
    # int() used to truncate these: input_dim 2.9 and a ReLU dim 2.7 loaded
    # as a valid net of size 2
    doc = _relu_doc()
    assert validate(load_model(write_doc(tmp_path, doc))) == []
    if where == "input_dim":
        doc["input_dim"] = value
    else:
        doc["layers"][where]["dim" if where == 1 else "in"] = value
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load_model(write_doc(tmp_path, doc))
