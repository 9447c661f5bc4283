import numpy as np
import pytest

from conftest import random_net
from relukit.network import (BatchNorm1DNode, FullyConnectedNode, ReLUNode,
                             SequentialNetwork, fold_batchnorm, forward,
                             forward_batch, network_stats, validate)
from relukit.tensor import NonFiniteError, ShapeMismatchError


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
