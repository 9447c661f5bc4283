import numpy as np
import pytest

from conftest import random_net
from oracles import reference_validate
from relukit.network import (BatchNorm1DNode, FullyConnectedNode, ReLUNode,
                             SequentialNetwork, fold_batchnorm, forward,
                             forward_batch, network_stats, validate)
from relukit.datasets import synth_blobs
from relukit.tensor import NonFiniteError, ShapeMismatchError
from relukit.training import TrainingConfig, init_network, train


def identity_bn(dim, eps=0.0):
    return BatchNorm1DNode(np.ones(dim), np.zeros(dim), np.zeros(dim),
                           np.ones(dim), eps if eps > 0 else 1e-300)


def matvec_forward(net, x):
    """Reference inference pass, one matrix-vector product per FC node."""
    h = np.asarray(x, dtype=np.float64)
    for node in net.nodes:
        if isinstance(node, FullyConnectedNode):
            h = node.weights @ h + node.bias
        elif isinstance(node, BatchNorm1DNode):
            h = node.scale() * (h - node.running_mean) + node.beta
        else:
            h = np.maximum(0.0, h)
    return h


class TestValidate:
    def test_well_formed(self):
        net = random_net([3, 8, 8, 2], seed=0)
        assert validate(net) == []

    def test_dim_mismatch_reported_with_index(self):
        net = SequentialNetwork("bad", 3, [
            FullyConnectedNode(np.zeros((4, 3)), np.zeros(4)),
            identity_bn(5),
            ReLUNode(5),
            FullyConnectedNode(np.zeros((2, 5)), np.zeros(2)),
        ])
        errors = validate(net)
        assert any("node 1" in e and "mismatch" in e for e in errors)

    def test_ending_in_relu_is_not_canonical(self):
        net = SequentialNetwork("bad", 2, [
            FullyConnectedNode(np.zeros((2, 2)), np.zeros(2)),
            ReLUNode(2),
        ])
        assert any("canonical" in e for e in validate(net))

    def test_bn_without_relu_rejected(self):
        net = SequentialNetwork("bad", 2, [
            FullyConnectedNode(np.zeros((2, 2)), np.zeros(2)),
            identity_bn(2),
            FullyConnectedNode(np.zeros((2, 2)), np.zeros(2)),
        ])
        assert any("canonical" in e for e in validate(net))


def broken_nets():
    """(label, net) pairs, each net with one or more faults validate must
    report, and a few sound nets."""
    def net(with_bn=True, widths=(3, 4, 4, 2)):
        return random_net(list(widths), seed=5, with_bn=with_bn)

    def with_value(path, value, index=0, base=None):
        out = base if base is not None else net()
        node, name = path
        getattr(out.nodes[node], name).flat[index] = value
        return out

    cases = [("sound", net()), ("sound without BN", net(with_bn=False))]
    for bad in (np.nan, np.inf, -np.inf):
        for path in ((0, "weights"), (0, "bias"), (1, "gamma"), (1, "beta"),
                     (1, "running_mean"), (1, "running_var"), (6, "weights"),
                     (6, "bias")):
            cases.append((f"{bad} in node {path}", with_value(path, bad, 1)))
    cases.append(("negative running_var", with_value((4, "running_var"),
                                                     -0.5, 1)))
    for eps in (0.0, -1e-5):
        bad = net()
        bad.nodes[4].eps = eps
        cases.append((f"eps {eps}", bad))
    for name in ("gamma", "beta", "running_mean", "running_var"):
        bad = net()
        setattr(bad.nodes[1], name, np.ones(3))
        cases.append((f"{name} length", bad))
    bad = net()
    bad.nodes[1].gamma = np.ones(5)  # the node's dim follows gamma
    cases.append(("BN dim", bad))
    bad = net()
    bad.nodes[3] = FullyConnectedNode(np.zeros((4, 5)), np.zeros(4))
    cases.append(("FC in_dim", bad))
    bad = net()
    bad.input_dim = 0
    cases.append(("input_dim", bad))
    cases.append(("no nodes", SequentialNetwork("empty", 2, [])))
    nodes = net().nodes
    for label, seq in (("ends in ReLU", nodes[:3]), ("ends in BN", nodes[:2]),
                       ("BN without ReLU", nodes[:2] + nodes[3:]),
                       ("starts with ReLU", nodes[2:]),
                       ("two ReLUs", nodes[:3] + nodes[2:]),
                       ("no output FC", nodes[:6])):
        cases.append((label, SequentialNetwork(label, 3, list(seq))))
    # zero-width arrays, alone and next to a non-finite one
    empty = SequentialNetwork("empty-layer", 3, [
        FullyConnectedNode(np.zeros((0, 3)), np.zeros(0)),
        BatchNorm1DNode(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0)),
        ReLUNode(0),
        FullyConnectedNode(np.zeros((2, 0)), np.array([np.nan, 1.0]))])
    cases.append(("zero width", empty))
    tail = net()
    tail.nodes[6] = FullyConnectedNode(np.zeros((0, 4)), np.zeros(0))
    tail.nodes[4].running_var[:] = -1.0
    cases.append(("zero-width output after a fault", tail))
    several = with_value((0, "bias"), np.nan)
    with_value((1, "gamma"), np.inf, 1, several)
    several.nodes[1].running_var = np.array([1.0, -2.0, np.nan])
    several.nodes[1].eps = 0.0
    with_value((6, "weights"), -np.inf, 0, several)
    several.nodes.append(ReLUNode(2))
    cases.append(("several faults", several))
    return cases


class TestValidateMatchesReference:
    @pytest.mark.parametrize("label,net", broken_nets(),
                             ids=[label for label, _ in broken_nets()])
    def test_same_errors_in_the_same_order(self, label, net):
        errors = validate(net)
        assert errors == reference_validate(net)
        assert bool(errors) == (not label.startswith("sound"))


class TestForward:
    def test_single_fc_identity(self):
        net = SequentialNetwork("id", 1,
                                [FullyConnectedNode([[1.0]], [0.0])])
        assert forward(net, [3.0]) == pytest.approx([3.0])

    def test_hand_composed_block(self):
        # FC splits into (x, -x); identity BN; ReLU keeps positive branch;
        # summing FC returns max(x,0)+max(-x,0) = |x|.
        net = SequentialNetwork("hand", 1, [
            FullyConnectedNode([[1.0], [-1.0]], [0.0, 0.0]),
            identity_bn(2),
            ReLUNode(2),
            FullyConnectedNode([[1.0, 1.0]], [0.0]),
        ])
        assert forward(net, [2.0]) == pytest.approx([2.0])
        assert forward(net, [-3.0]) == pytest.approx([3.0])

    def test_wrong_input_length(self):
        net = random_net([3, 4, 2], seed=1)
        with pytest.raises(ShapeMismatchError):
            forward(net, [1.0, 2.0])

    def test_deterministic(self):
        net = random_net([4, 8, 3], seed=2)
        x = np.random.default_rng(0).normal(size=4)
        assert np.array_equal(forward(net, x), forward(net, x))


class TestForwardBatch:
    def test_relu_masked_overflow_raises(self):
        # -1e308 * 10 overflows to -inf; the ReLU after it would output 0
        # and the result would look finite.
        net = SequentialNetwork("ovf", 1, [
            FullyConnectedNode([[-1e308]], [0.0]),
            ReLUNode(1),
            FullyConnectedNode([[1.0]], [0.0]),
        ])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="node 0"):
                forward_batch(net, np.array([[0.5], [10.0]]))
            with pytest.raises(NonFiniteError):
                forward(net, [10.0])
            assert np.array_equal(forward_batch(net, [[0.5]]), [[0.0]])

    def test_bn_overflow_before_relu_raises(self):
        # the batch norm's output overflows to -inf, which the ReLU after it
        # would turn into 0: the check after the batch norm must catch it
        net = SequentialNetwork("bn-ovf", 1, [
            FullyConnectedNode([[1.0]], [0.0]),
            BatchNorm1DNode([-1e308], [0.0], [0.0], [1.0], 1e-5),
            ReLUNode(1),
            FullyConnectedNode([[1.0]], [0.0]),
        ])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="node 1"):
                forward_batch(net, np.array([[0.5], [10.0]]))
            with pytest.raises(NonFiniteError, match="node 1"):
                forward(net, [10.0])
            assert np.array_equal(forward_batch(net, [[0.5]]), [[0.0]])

    @pytest.mark.parametrize("with_bn", [True, False])
    def test_forward_is_a_one_row_batch(self, with_bn):
        rng = np.random.default_rng(12)
        for trial in range(20):
            net = random_net([5, 16, 8, 3], seed=trial, with_bn=with_bn)
            for _ in range(10):
                x = rng.uniform(-2, 2, size=5)
                y = forward(net, x)
                assert np.array_equal(y, forward_batch(net, x[None])[0])
                assert np.allclose(y, matvec_forward(net, x),
                                   rtol=1e-12, atol=1e-12)

    def test_wrong_input_shape(self):
        net = random_net([3, 4, 2], seed=1)
        with pytest.raises(ShapeMismatchError):
            forward_batch(net, np.zeros(3))


class TestFoldBatchnorm:
    def test_identity_bn_preserves_params(self):
        fc = FullyConnectedNode([[2.0, 1.0]], [0.5])
        net = SequentialNetwork("n", 2, [
            fc, identity_bn(1), ReLUNode(1),
            FullyConnectedNode([[1.0]], [0.0])])
        folded = fold_batchnorm(net)
        assert np.allclose(folded.nodes[0].weights, fc.weights)
        assert np.allclose(folded.nodes[0].bias, fc.bias)

    def test_hand_computed_fold(self):
        # gamma=2, sigma=3, eps=1, mu=1, beta=5: scale = 2/sqrt(4) = 1,
        # so W' = W and b' = 1*(0-1)+5 = 4.
        net = SequentialNetwork("n", 1, [
            FullyConnectedNode([[1.0]], [0.0]),
            BatchNorm1DNode([2.0], [5.0], [1.0], [3.0], 1.0),
            ReLUNode(1),
            FullyConnectedNode([[1.0]], [0.0])])
        folded = fold_batchnorm(net)
        assert np.allclose(folded.nodes[0].weights, [[1.0]])
        assert folded.nodes[0].bias == pytest.approx([4.0])

    def test_equivalence_on_random_nets(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for trial in range(100):
            net = random_net([4, 8, 6, 3], seed=trial)
            folded = fold_batchnorm(net)
            assert all(isinstance(n, (FullyConnectedNode, ReLUNode))
                       for n in folded.nodes)
            for _ in range(10):
                x = rng.uniform(-2, 2, size=4)
                worst = max(worst, float(np.max(np.abs(
                    forward(net, x) - forward(folded, x)))))
        assert worst <= 1e-9


class TestNetworkStats:
    def test_hand_count_with_bn(self):
        net = random_net([2, 16, 2], seed=0)
        assert network_stats(net)["param_count"] == \
            (2 * 16 + 16) + 4 * 16 + (16 * 2 + 2)

    def test_single_fc(self):
        net = SequentialNetwork("n", 3,
                                [FullyConnectedNode(np.zeros((3, 3)),
                                                    np.zeros(3))])
        assert network_stats(net)["param_count"] == 12

    def test_mnist_architecture_widths(self):
        net = random_net([784, 64, 32, 16, 10], seed=0)
        assert network_stats(net)["widths"] == [784, 64, 32, 16, 10]

    @pytest.mark.parametrize("with_bn", [True, False])
    def test_param_count_is_the_sum_of_array_sizes(self, with_bn):
        net = random_net([5, 7, 6, 3], seed=2, with_bn=with_bn)
        assert network_stats(net)["param_count"] == sum(
            a.size for node in net.nodes for a in vars(node).values()
            if isinstance(a, np.ndarray))


def _arrays(net):
    return [a for node in net.nodes for a in vars(node).values()
            if isinstance(a, np.ndarray)]


def _trained_net(with_bn):
    ds = synth_blobs(0, 10, 3, 4, 0.1)
    net = init_network([4, 6, 3], seed=0, with_bn=with_bn)
    return train(net, ds, TrainingConfig(epochs=1, batch_size=8))[0]


class TestCopiesShareNoArray:
    @pytest.mark.parametrize("make", [
        lambda: random_net([4, 6, 5, 3], seed=1, with_bn=True),
        lambda: random_net([4, 6, 5, 3], seed=1, with_bn=False),
        lambda: _trained_net(True),  # arrays are views of one vector
        lambda: _trained_net(False)],
        ids=["bn", "no bn", "trained bn", "trained no bn"])
    @pytest.mark.parametrize("copy", [SequentialNetwork.copy, fold_batchnorm],
                             ids=["copy", "fold"])
    def test_no_shared_memory(self, make, copy):
        net = make()
        out = copy(net)
        assert _arrays(out)
        for a in _arrays(out):
            assert not any(np.shares_memory(a, b) for b in _arrays(net))

    def test_copy_is_equal_and_independent(self):
        net = _trained_net(True)
        out = net.copy()
        assert [type(n) for n in out.nodes] == [type(n) for n in net.nodes]
        for a, b in zip(_arrays(out), _arrays(net)):
            assert np.array_equal(a, b)
        out.nodes[0].weights[0, 0] += 1.0
        out.nodes[1].eps = 0.5
        assert out.nodes[0].weights[0, 0] != net.nodes[0].weights[0, 0]
        assert net.nodes[1].eps == 1e-5
