import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import random_net
from relukit.cli import main
from relukit.model_io import (ModelFormatError, document_to_network,
                              load_model, network_to_document, save_model)
from relukit.network import (BatchNorm1DNode, FullyConnectedNode, ReLUNode,
                             SequentialNetwork, validate)
from relukit.pruning import network_slim, weight_prune


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


def _all_kinds_doc():
    """The document of a seeded net that has a layer of every kind."""
    return network_to_document(random_net([3, 4, 2], seed=7, with_bn=True))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(layers=[5]), "layer 0: expected an object"),
    (lambda d: d.update(layers=None), "layers must be a list"),
    (lambda d: d.update(name=None), "name must be a string, got None"),
    (lambda d: d.update(name=5), "name must be a string, got 5"),
    (lambda d: d["layers"][1].update(eps=True),
     "layer 1: eps must be a number, got True"),
    (lambda d: d["layers"][1].update(eps="0.5"),
     "layer 1: eps must be a number, got '0.5'"),
    (lambda d: d["layers"][0].update(bias=["1", "2", "3", "4"]),
     "layer 0: bias must hold only numbers, found '1'"),
    (lambda d: d["layers"][0].update(bias=[1, None, 3, 4]),
     "layer 0: bias must hold only numbers, found None"),
    (lambda d: d["layers"][1].update(gamma=[True, False, True, True]),
     "layer 1: gamma must hold only numbers, found True"),
], ids=["layer not an object", "layers null", "name null", "name int",
        "eps true", "eps string", "bias strings", "bias null entry",
        "gamma booleans"])
def test_misread_document_rejected(tmp_path, edit, message, capsys):
    # each of these raised a bare TypeError or loaded a converted value
    doc = _all_kinds_doc()
    edit(doc)
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        document_to_network(doc)
    assert main(["info", "--model", write_doc(tmp_path, doc)]) == 3
    assert message in capsys.readouterr().err


def _bad_values(value):
    bad = ["1", None, True]
    if isinstance(value, list):
        bad.append([[1.0, 2.0], [3.0]])  # ragged
    return bad


def _layer_cases():
    """(layer index, key, bad value) for every key of every layer record
    but its kind: the fields of its node class and its size keys."""
    doc = _all_kinds_doc()
    nodes = document_to_network(doc).nodes
    assert {type(n) for n in nodes} == {FullyConnectedNode, BatchNorm1DNode,
                                        ReLUNode}
    cases = []
    for i, (record, node) in enumerate(zip(doc["layers"], nodes)):
        assert {f.name for f in dataclasses.fields(node)} <= set(record)
        for key, value in record.items():
            if key != "kind":
                cases += [(i, key, bad) for bad in _bad_values(value)]
    return cases


@pytest.mark.parametrize("index, key, value", _layer_cases())
def test_every_layer_field_typed(index, key, value):
    doc = _all_kinds_doc()
    doc["layers"][index][key] = value
    with pytest.raises(ModelFormatError) as info:
        document_to_network(doc)
    assert str(info.value).startswith(f"layer {index}: {key} must ")


@pytest.mark.parametrize("key, value", [
    (f.name, bad) for f in dataclasses.fields(SequentialNetwork)
    if f.name != "nodes"
    for bad in ([None, 5, True] if f.type is str else ["1", None, True, 2.5])])
def test_every_network_field_typed(key, value):
    doc = _all_kinds_doc()
    doc[key] = value
    with pytest.raises(ModelFormatError, match=f"^{key} must be "):
        document_to_network(doc)


def _seeded_nets():
    for seed in range(3):
        for with_bn in (True, False):
            net = random_net([4, 6, 5, 3], seed=seed, with_bn=with_bn)
            yield net
            yield weight_prune(net, ratio=0.5)
            if with_bn:
                yield network_slim(net, 0.4)


def test_write_read_write_is_byte_identical(tmp_path):
    path = tmp_path / "m.json"
    for net in _seeded_nets():
        save_model(net, str(path))
        first = path.read_bytes()
        save_model(load_model(str(path)), str(path))
        assert path.read_bytes() == first


def test_numpy_integer_sizes_round_trip(tmp_path):
    # the node and network classes store a numpy integer size as an int
    net = SequentialNetwork(
        "x", np.int64(2),
        [FullyConnectedNode(np.eye(2), np.zeros(2)), ReLUNode(np.int64(2)),
         FullyConnectedNode(np.eye(2), np.zeros(2))])
    assert type(net.input_dim) is int and type(net.nodes[1].dim) is int
    path = tmp_path / "model.json"
    save_model(net, str(path))
    loaded = load_model(str(path))
    for a, b in zip(params_of(net), params_of(loaded), strict=True):
        assert np.array_equal(a, b)
    assert type(loaded.input_dim) is int and type(loaded.nodes[1].dim) is int
